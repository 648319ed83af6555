import dataclasses
import re

import mpmath
import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from numpy.polynomial.legendre import legvander

import lkapprox.oracle
from helpers import (
    gram_psi,
    kernels,
    loop_assemble_quad,
    loop_boundary_system,
    quad_k1,
    random_stable_matrix,
    random_stable_rfde,
)
from lkapprox import CostWeights, RfdeSystem, build_functional
from lkapprox.linalg import ConvergenceError, DimensionError, solve_lyapunov
from lkapprox.oracle import (
    LyapunovConditionError,
    assemble_quad,
    build_delay_lyap,
    k1_quad,
    property_residuals,
)
from lkapprox.discretize import build_leg_model
from lkapprox.spectral import cheb_nodes

rng = np.random.default_rng(20240822)


def _delay_free(n=1, a=-1.0):
    return RfdeSystem(a * np.eye(n), np.zeros((n, n)), 1.0)


def _unit_weights(n):
    return CostWeights(np.eye(n), np.zeros((n, n)), np.zeros((n, n)))


def test_psi_scalar_exponential():
    dl = build_delay_lyap(_delay_free(), _unit_weights(1))
    for tau in (0.0, 0.25, 0.7, 1.0):
        npt.assert_allclose(dl(tau), [[0.5 * np.exp(-tau)]], atol=1e-12)
        npt.assert_allclose(dl(-tau), dl(tau).T, atol=1e-12)


def test_psi_delay_free_reduction():
    A0 = random_stable_matrix(rng, 3)
    sys_ = RfdeSystem(A0, np.zeros((3, 3)), 0.8)
    R = rng.standard_normal((3, 3))
    w = CostWeights(R @ R.T + 0.3 * np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)))
    dl = build_delay_lyap(sys_, w)
    npt.assert_allclose(dl(0.0), solve_lyapunov(A0, w.Q0).P, atol=1e-9)


def test_delay_lyapunov_matrix_is_frozen():
    # Like every other record: cond and the series describe the one
    # boundary solve they came from.
    dl = build_delay_lyap(_delay_free(), _unit_weights(1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        dl.cond = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        dl.coef = dl.coef[:1]


def test_psi_argument_range():
    dl = build_delay_lyap(_delay_free(), _unit_weights(1))
    with pytest.raises(ValueError):
        dl(1.5)
    with pytest.raises(ValueError):
        dl(-1.5)
    with pytest.raises(ValueError):
        dl.pair(-0.5)
    with pytest.raises(ValueError):
        dl.pairs([0.0, 0.5, 1.5])
    with pytest.raises(ValueError):
        dl.pairs([0.5, np.nan])


def _interpolant_cases():
    A0 = np.array([[-2.0, 0.0], [0.0, -0.9]])
    A1 = np.array([[-1.0, 0.0], [-1.0, -1.0]])
    cases = {f"ex2-h{h}": RfdeSystem(A0, A1, h) for h in (2.0, 6.15)}
    draws = np.random.default_rng(20240821)
    systems = [random_stable_rfde(draws) for _ in range(19)]
    # rho(M) h reaches ~18 on draws 10 and 18, ~9.5 on draw 15.
    cases.update({f"draw{i}": systems[i] for i in (10, 15, 18)})
    # Im(eig A0) h = 60: the Chebyshev coefficients stay flat (Bessel
    # J_k(30)) until k ~ 30 before they decay, so K = 32 is no plateau.
    cases["oscillatory"] = RfdeSystem([[-1.0, 10.0], [-10.0, -1.0]], 0.1 * np.eye(2), 6.0)
    return cases


_INTERPOLANT_CASES = _interpolant_cases()


@pytest.mark.parametrize("case", sorted(_INTERPOLANT_CASES))
def test_psi_interpolant_matches_extended_precision(case):
    # The flow u(s) = expm(M s) u0 at 30 digits is the reference.  The
    # Chebyshev interpolant may lose no more than a direct double-precision
    # expm(M s) u0 does at the same points (both carry eps e^{rho(M) h}).
    system = _INTERPOLANT_CASES[case]
    w = CostWeights(np.eye(2), np.eye(2), np.zeros((2, 2)))
    dl = build_delay_lyap(system, w)
    assert dl.K <= (128 if case == "oscillatory" else 64)
    points = np.linspace(0.0, system.h, 13)
    Y, Z = dl.pairs(points)
    got = np.concatenate([Y.transpose(0, 2, 1).reshape(13, -1),
                          Z.transpose(0, 2, 1).reshape(13, -1)], axis=1)
    direct = np.array([scipy.linalg.expm(dl.M * s) @ dl.u0 for s in points])
    with mpmath.workdps(30):
        M, u0 = mpmath.matrix(dl.M.tolist()), mpmath.matrix(dl.u0.tolist())
        ref = np.array([
            np.array((mpmath.expm(M * mpmath.mpf(float(s))) * u0).tolist(),
                     dtype=float).ravel()
            for s in points
        ])
    scale = float(np.max(np.abs(ref)))
    err_interp = float(np.max(np.abs(got - ref)))
    err_direct = float(np.max(np.abs(direct - ref)))
    assert err_interp <= max(2.0 * err_direct, 1e-13 * scale), (err_interp, err_direct)


def test_psi_interpolant_unresolved_raises():
    # Im(eig A0) h = 600 needs more Chebyshev points than the cap allows.
    system = RfdeSystem([[-1.0, 100.0], [-100.0, -1.0]], 0.1 * np.eye(2), 6.0)
    with pytest.raises(ConvergenceError):
        build_delay_lyap(system, _unit_weights(2))


def test_oracle_expm_calls_do_not_grow_with_N(monkeypatch, ex2_system, ex2_weights):
    # Psi is one Chebyshev interpolant built at construction: the oracle's
    # matrix exponentials do not depend on how many arguments it serves.
    calls = []
    expm = lkapprox.oracle.expm

    def counted(*args, **kwargs):
        calls.append(1)
        return expm(*args, **kwargs)

    monkeypatch.setattr(lkapprox.oracle, "expm", counted)
    totals = []
    for N in (10, 80):
        calls.clear()
        dl = build_delay_lyap(ex2_system, ex2_weights)
        for rule in ("cc", "gauss"):
            assemble_quad(dl, ex2_weights, rule=rule, N=N)
        property_residuals(dl)
        totals.append(len(calls))
    assert totals[0] == totals[1] < 8, totals


@pytest.mark.parametrize("fixture", ["ex1", "ex2"])
def test_psi_defining_properties(fixture, ex1_system, ex2_system, ex1_weights,
                                 ex2_weights):
    system = ex1_system if fixture == "ex1" else ex2_system
    weights = ex1_weights if fixture == "ex1" else ex2_weights
    dl = build_delay_lyap(system, weights)
    res = property_residuals(dl)
    assert res["dynamic"] <= 1e-6
    assert res["symmetry"] <= 1e-7
    assert res["algebraic"] <= 1e-7
    psi0 = dl(0.0)
    npt.assert_allclose(psi0, psi0.T, atol=1e-10)


def test_psi_defining_properties_random_systems():
    local = np.random.default_rng(20240821)
    w = CostWeights(np.eye(2), np.eye(2), np.zeros((2, 2)))
    for _ in range(20):
        dl = build_delay_lyap(random_stable_rfde(local), w)
        res = property_residuals(dl)
        assert res["dynamic"] <= 1e-6
        assert res["symmetry"] <= 1e-7
        assert res["algebraic"] <= 1e-7


def test_lyapunov_condition_violations():
    w = _unit_weights(1)
    # A root at the origin pairs with itself: s + (-s) = 0.
    with pytest.raises(LyapunovConditionError):
        build_delay_lyap(RfdeSystem([[0.0]], [[0.0]], 1.0), w)
    with pytest.raises(LyapunovConditionError):
        build_delay_lyap(RfdeSystem([[-1.0]], [[1.0]], 1.0), w)


def test_psi_rejects_weights_of_another_dimension():
    with pytest.raises(DimensionError):
        build_delay_lyap(RfdeSystem([[-1.0]], [[-0.5]], 1.0),
                         CostWeights(np.eye(2), np.eye(2), np.zeros((2, 2))))


def test_quadrature_rejects_weights_psi_was_not_built_for():
    # Psi depends on the weights only through Q0 + Q1 + h Q2, so weights
    # with another sum would mix two functionals: with Psi for Q0 = Q1 = 1,
    # (5, 3, 0) gave k1 0.897 where its tau k1 is 3.34.
    sys_ = RfdeSystem([[-1.0]], [[-0.5]], 1.0)
    dl = build_delay_lyap(sys_, CostWeights([[1.0]], [[1.0]], [[0.0]]))
    other = CostWeights([[5.0]], [[3.0]], [[0.0]])
    with pytest.raises(ValueError, match="lumped weight"):
        k1_quad(dl, other, N=8)
    with pytest.raises(ValueError, match="lumped weight"):
        assemble_quad(dl, other, N=8)
    with pytest.raises(ValueError, match="lumped weight"):
        assemble_quad(dl, CostWeights(np.eye(2), np.eye(2), np.zeros((2, 2))), N=8)
    # Weights with the same sum give the same Psi and stay accepted.
    same_sum = CostWeights([[0.5]], [[1.0]], [[0.5]])
    assert k1_quad(dl, same_sum, N=8) > 0.0


def test_kernels_point_endpoints(ex2_system):
    w = CostWeights(np.eye(2), 2.0 * np.eye(2), 0.5 * np.eye(2))
    ker = kernels(build_delay_lyap(ex2_system, w), w)
    h = ex2_system.h
    npt.assert_allclose(ker.point(0.0), w.Q1 + h * w.Q2)
    npt.assert_allclose(ker.point(-h), w.Q1)


def test_kernels_vanish_without_delay_matrix():
    sys_ = _delay_free(2, -0.7)
    w = CostWeights(np.eye(2), np.eye(2), np.zeros((2, 2)))
    ker = kernels(build_delay_lyap(sys_, w), w)
    npt.assert_allclose(ker.corner,
                        solve_lyapunov(sys_.A0, w.combined(sys_.h)).P, atol=1e-9)
    for t in (-0.9, -0.3):
        npt.assert_array_equal(ker.cross(t), np.zeros((2, 2)))
        npt.assert_array_equal(ker.double(t, -0.1), np.zeros((2, 2)))


def test_kernels_double_symmetry(ex2_system, ex2_weights):
    ker = kernels(build_delay_lyap(ex2_system, ex2_weights), ex2_weights)
    for _ in range(5):
        xi, theta = rng.uniform(-ex2_system.h, 0.0, size=2)
        npt.assert_allclose(ker.double(xi, theta), ker.double(theta, xi).T,
                            atol=1e-12)
    with pytest.raises(ValueError):
        ker.cross(0.5)


@pytest.mark.parametrize("rule", ["cc", "gauss"])
def test_assemble_quad_delay_free(rule):
    dl = build_delay_lyap(_delay_free(), _unit_weights(1))
    P, grid = assemble_quad(dl, _unit_weights(1), rule=rule, N=6)
    expected = np.zeros((7, 7))
    expected[-1, -1] = 0.5
    npt.assert_allclose(P, expected, atol=1e-9)
    assert grid.nodes[-1] == 0.0


def test_assemble_quad_grid_shapes(ex2_system, ex2_weights):
    dl = build_delay_lyap(ex2_system, ex2_weights)
    P_cc, g_cc = assemble_quad(dl, ex2_weights, rule="cc", N=8)
    assert P_cc.shape == (18, 18) and len(g_cc) == 9
    P_g, g_g = assemble_quad(dl, ex2_weights, rule="gauss", N=8)
    assert P_g.shape == (18, 18) and len(g_g) == 9
    assert g_g.weights[-1] == 0.0 and g_g.nodes[-1] == 0.0
    npt.assert_array_equal(P_cc, P_cc.T)
    npt.assert_array_equal(P_g, P_g.T)
    with pytest.raises(ValueError):
        assemble_quad(dl, ex2_weights, rule="simpson", N=8)


@pytest.mark.parametrize("rule", ["cc", "gauss"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_assemble_quad_matches_loop_reference(rule, n):
    local = np.random.default_rng(100 + n)
    system = random_stable_rfde(local, n)
    R = [local.standard_normal((n, n)) for _ in range(3)]
    w = CostWeights(*(r @ r.T + 0.1 * np.eye(n) for r in R))
    dl = build_delay_lyap(system, w)
    for N in (1, 2, 7, 40):
        P, grid = assemble_quad(dl, w, rule=rule, N=N)
        P_ref, grid_ref = loop_assemble_quad(dl, w, rule=rule, N=N)
        npt.assert_array_equal(grid.nodes, grid_ref.nodes)
        assert np.max(np.abs(P - P_ref)) <= 1e-13 * np.max(np.abs(P_ref)), N


def test_boundary_system_matches_loop_reference(monkeypatch):
    # The Kronecker-built boundary rows of Psi are bit-identical to the
    # entry-by-entry loop, so u0, cond and the series of Psi are unchanged.
    lstsq = np.linalg.lstsq
    seen = []

    def recorded(B, b, **kwargs):
        seen.append((B, b))
        return lstsq(B, b, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", recorded)
    local = np.random.default_rng(7)
    for draw in range(40):
        n = 1 + draw % 4
        R = [local.standard_normal((n, n)) for _ in range(3)]
        w = CostWeights(*(r @ r.T + 0.1 * np.eye(n) for r in R))
        dl = build_delay_lyap(random_stable_rfde(local, n), w)
        M, B, b = loop_boundary_system(dl)
        npt.assert_array_equal(dl.M, M)
        npt.assert_array_equal(seen[-1][0], B)
        npt.assert_array_equal(seen[-1][1], b)


def test_assemble_quad_matches_spectral_build(ex1_system, ex1_weights):
    dl = build_delay_lyap(ex1_system, ex1_weights)
    P, _ = assemble_quad(dl, ex1_weights, rule="cc", N=40)
    fa = build_functional(ex1_system, ex1_weights, "legendre", 40)
    P_ref = fa.grid_matrix()
    assert np.max(np.abs(P - P_ref)) <= 5e-2 * np.max(np.abs(P_ref))


def test_assemble_quad_kernel_factorization(ex2_system):
    # The quadrature matrix factors through the Gram matrix of Psi values:
    # P = S' G S + D with S carrying the A1-weighted nodes plus the
    # endpoint shift, D the pointwise Q1/Q2 block diagonal.
    w = CostWeights(np.eye(2), np.eye(2), 0.5 * np.eye(2))
    dl = build_delay_lyap(ex2_system, w)
    P, grid = assemble_quad(dl, w, rule="cc", N=12)
    n, h = 2, ex2_system.h
    S = np.kron(np.diag(grid.weights), ex2_system.A1)
    S[:n, -n:] += np.eye(n)
    G = gram_psi(dl, grid.nodes)
    D = np.zeros_like(P)
    for j, (t, wt) in enumerate(zip(grid.nodes, grid.weights)):
        D[j * n:(j + 1) * n, j * n:(j + 1) * n] = wt * (w.Q1 + (h + t) * w.Q2)
    npt.assert_allclose(S.T @ G @ S + D, P, atol=1e-10)


def test_quadrature_rules_converge_together(ex2_system, ex2_weights):
    # Pull the Gauss-grid matrix back to the Chebyshev grid through the
    # degree-N interpolation operator; the two rules then disagree only by
    # their quadrature errors, which shrink as N grows.
    dl = build_delay_lyap(ex2_system, ex2_weights)
    devs = []
    for N in (10, 20, 40):
        P_cc, _ = assemble_quad(dl, ex2_weights, rule="cc", N=N)
        P_g, g_g = assemble_quad(dl, ex2_weights, rule="gauss", N=N)
        T_vc = np.kron(build_leg_model(ex2_system, N).to_grid, np.eye(2))
        unit = 2.0 * g_g.nodes / ex2_system.h + 1.0
        L = np.kron(legvander(unit, N), np.eye(2)) @ T_vc
        devs.append(np.max(np.abs(L.T @ P_g @ L - P_cc)))
    assert devs[0] > devs[1] > devs[2]


def test_gram_psd_tracks_stability(ex2_system, ex2_weights):
    dl = build_delay_lyap(ex2_system, ex2_weights)
    G = gram_psi(dl, cheb_nodes(20, ex2_system.h).nodes)
    ew = np.linalg.eigvalsh(0.5 * (G + G.T))
    assert ew[0] >= -1e-7 * ew[-1]
    unstable = dataclasses.replace(ex2_system, h=7.0)
    dl7 = build_delay_lyap(unstable, ex2_weights)
    failed = False
    for N in (10, 20, 40):
        G7 = gram_psi(dl7, cheb_nodes(N, 7.0).nodes)
        ew7 = np.linalg.eigvalsh(0.5 * (G7 + G7.T))
        failed = failed or ew7[0] < -1e-7 * max(1.0, abs(ew7[-1]))
    assert failed


@pytest.mark.parametrize("rule", ["cc", "gauss"])
def test_k1_quad_delay_free(rule):
    dl = build_delay_lyap(_delay_free(), _unit_weights(1))
    npt.assert_allclose(k1_quad(dl, _unit_weights(1), rule=rule, N=8), 0.5,
                        atol=1e-8)


def test_quad_k1_delay_free():
    dl = build_delay_lyap(_delay_free(), _unit_weights(1))
    assert abs(quad_k1(dl, _unit_weights(1)) - 0.5) <= 1e-14


def test_k1_quad_gauss_is_second_order(ex2_system, ex2_weights):
    # The tensor Gauss rule meets the diagonal kink of the double kernel, so
    # its gap to the split-diagonal Galerkin reference shrinks only fourfold
    # per doubling of N: a cross-check, not a spectral reference.
    dl = build_delay_lyap(ex2_system, ex2_weights)
    ref = quad_k1(dl, ex2_weights, M=16, m=30)
    gap = [abs(k1_quad(dl, ex2_weights, rule="gauss", N=N) - ref)
           for N in (40, 80, 160)]
    for coarse, fine in zip(gap, gap[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def test_k1_quad_rules_agree(ex2_system, ex2_weights):
    dl = build_delay_lyap(ex2_system, ex2_weights)
    v_cc = k1_quad(dl, ex2_weights, rule="cc", N=80)
    v_g = k1_quad(dl, ex2_weights, rule="gauss", N=80)
    npt.assert_allclose(v_cc, v_g, rtol=1e-3)


def test_k1_quad_indefinite_gate(ex2_system, ex2_weights):
    unstable = dataclasses.replace(ex2_system, h=7.0)
    dl = build_delay_lyap(unstable, ex2_weights)
    with pytest.raises(ValueError):
        k1_quad(dl, ex2_weights, rule="cc", N=20)
    assert k1_quad(dl, ex2_weights, rule="cc", N=20, check_psd=False) < 0.0


def test_k1_quad_takes_the_build_verdict(monkeypatch, ex2_system, ex2_weights):
    # check_psd applies linalg._cholesky_proves_psd, the proof a build's psd
    # tries first, and the rule on eigvalsh only where it fails; the message
    # reads the lam_min of that eigvalsh.
    proofs, rules = [], []
    prove, rule = lkapprox.oracle._cholesky_proves_psd, lkapprox.oracle._is_psd
    monkeypatch.setattr(lkapprox.oracle, "_cholesky_proves_psd",
                        lambda P: proofs.append(prove(P)) or proofs[-1])
    monkeypatch.setattr(lkapprox.oracle, "_is_psd",
                        lambda lo, hi: rules.append(rule(lo, hi)) or rules[-1])
    dl = build_delay_lyap(ex2_system, ex2_weights)
    assert k1_quad(dl, ex2_weights, rule="cc", N=20) > 0.0
    assert proofs == [True] and rules == []
    unstable = build_delay_lyap(dataclasses.replace(ex2_system, h=7.0), ex2_weights)
    P, _ = assemble_quad(unstable, ex2_weights, rule="cc", N=20)
    lam_min = np.linalg.eigvalsh(P)[0]
    with pytest.raises(ValueError, match=re.escape(f"(lam_min = {lam_min:.3e})")):
        k1_quad(unstable, ex2_weights, rule="cc", N=20)
    assert proofs == [True, False] and rules == [False]


def test_k1_quad_matches_pinv_oracle(ex2_system, ex2_weights):
    dl = build_delay_lyap(ex2_system, ex2_weights)
    P, _ = assemble_quad(dl, ex2_weights, rule="cc", N=20)
    n = 2
    p = P.shape[0] - n
    Z, B, X = P[:p, :p], P[:p, p:], P[p:, p:]
    S = X - B.T @ np.linalg.pinv(Z) @ B
    ref = np.linalg.eigvalsh(0.5 * (S + S.T))[0]
    npt.assert_allclose(k1_quad(dl, ex2_weights, rule="cc", N=20), ref,
                        atol=1e-9)
