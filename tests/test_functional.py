import dataclasses
import logging

import numpy as np
import numpy.polynomial.polynomial as npoly
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.legendre import legvander

import lkapprox.functional
import lkapprox.linalg
from helpers import (
    legendre_cost,
    longdouble_tau_k1,
    quad_V,
    random_stable_rfde,
    relative_residual,
    use_scipy_lapack,
)
from lkapprox import (
    CostWeights,
    FunctionSpec,
    RfdeSystem,
    build_functional,
    evaluate,
    k1,
)
from lkapprox.discretize import _to_combined, build_leg_model, build_model, discretize_leg
from lkapprox.functional import _itp, baseline_k1, critical_delay
from lkapprox.linalg import ConvergenceError, DimensionError, is_hurwitz, solve_lyapunov
from lkapprox.oracle import build_delay_lyap, k1_quad
from lkapprox.spectral import cheb_nodes, gauss_legendre

rng = np.random.default_rng(20240820)


def _delay_free_fa(scheme, N=8):
    sys_ = RfdeSystem([[-1.0]], [[0.0]], 1.3)
    w = CostWeights([[1.0]], [[0.0]], [[0.0]])
    return build_functional(sys_, w, scheme, N, allow_incomplete=True)


def test_build_rejects_incomplete_weights_without_waiver():
    sys_ = RfdeSystem([[-1.0]], [[0.0]], 1.0)
    w = CostWeights([[1.0]], [[0.0]], [[0.0]])
    with pytest.raises(ValueError):
        build_functional(sys_, w, "legendre", 4)
    with pytest.raises(ValueError):
        build_functional(sys_, w, "nonesuch", 4)
    with pytest.raises(DimensionError):
        build_functional(sys_, CostWeights(np.eye(2), np.eye(2), np.zeros((2, 2))),
                         "legendre", 4)


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_delay_free_boundary_block(scheme):
    fa = _delay_free_fa(scheme)
    npt.assert_allclose(fa.grid_matrix()[-1, -1], 0.5, atol=1e-9)


def test_schemes_agree_entrywise(ex1_system, ex1_weights):
    fc = build_functional(ex1_system, ex1_weights, "cheb", 40)
    fl = build_functional(ex1_system, ex1_weights, "legendre", 40)
    Pc = fc.grid_matrix()
    dev = np.max(np.abs(Pc - fl.grid_matrix()))
    assert dev <= 5e-2 * np.max(np.abs(Pc))


def test_build_flags_and_residual(ex2_system, ex2_weights):
    fa = build_functional(ex2_system, ex2_weights, "legendre", 60)
    assert fa.psd and fa.hurwitz
    assert fa.residual <= 1e-9
    assert fa.lam_min >= -1e-8 * max(1.0, fa.lam_max)
    npt.assert_allclose(fa.P, fa.P.T)


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_hurwitz_implies_psd_random_instances(scheme):
    local = np.random.default_rng(515 + len(scheme))
    w = CostWeights(np.eye(2), np.eye(2), np.zeros((2, 2)))
    for _ in range(5):
        sys_ = random_stable_rfde(local)
        fa = build_functional(sys_, w, scheme, 10)
        if fa.hurwitz:
            assert fa.psd


def test_evaluate_zero_segment(ex2_system, ex2_weights):
    fa = build_functional(ex2_system, ex2_weights, "legendre", 10)
    assert evaluate(fa, FunctionSpec.constant([0.0, 0.0])) == 0.0


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_evaluate_delay_free_constant(scheme):
    fa = _delay_free_fa(scheme)
    for c in (1.0, -2.5):
        npt.assert_allclose(evaluate(fa, FunctionSpec.constant([c])),
                            0.5 * c * c, atol=1e-8)


def test_evaluate_dimension_mismatch(ex2_system, ex2_weights):
    fa = build_functional(ex2_system, ex2_weights, "legendre", 10)
    with pytest.raises(DimensionError):
        evaluate(fa, FunctionSpec.constant([1.0]))


def test_evaluate_matches_quadrature_oracle(ex1_system, ex1_weights):
    fa = build_functional(ex1_system, ex1_weights, "legendre", 40)
    v = evaluate(fa, FunctionSpec.named("one", 1))
    dl = build_delay_lyap(ex1_system, ex1_weights)
    ref = quad_V(dl, ex1_weights, FunctionSpec.named("one", 1), m=60)
    npt.assert_allclose(v, ref, rtol=1e-6)


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_evaluate_superposition_in_phi(ex2_system, ex2_weights, scheme):
    # V is a quadratic form: V(a+b) + V(a-b) = 2 V(a) + 2 V(b).
    fa = build_functional(ex2_system, ex2_weights, scheme, 12)
    ca = rng.standard_normal((3, 2))
    cb = rng.standard_normal((3, 2))
    va = evaluate(fa, FunctionSpec.polynomial(ca))
    vb = evaluate(fa, FunctionSpec.polynomial(cb))
    vs = evaluate(fa, FunctionSpec.polynomial(ca + cb))
    vd = evaluate(fa, FunctionSpec.polynomial(ca - cb))
    npt.assert_allclose(vs + vd, 2 * va + 2 * vb, rtol=1e-10)


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_k1_delay_free(scheme):
    npt.assert_allclose(k1(_delay_free_fa(scheme)), 0.5, atol=1e-8)


def test_k1_matches_quadrature_oracle(ex2_system, ex2_weights):
    fa = build_functional(ex2_system, ex2_weights, "legendre", 80)
    dl = build_delay_lyap(ex2_system, ex2_weights)
    ref = k1_quad(dl, ex2_weights, rule="gauss", N=160)
    npt.assert_allclose(k1(fa), ref, rtol=1e-3)


def test_k1_beats_baselines(ex2_system, ex2_weights):
    fa = build_functional(ex2_system, ex2_weights, "legendre", 40)
    val = k1(fa)
    assert val > baseline_k1(ex2_system, ex2_weights, method="norm-ratio")
    assert val > baseline_k1(ex2_system, ex2_weights, method="alpha-max")


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_k1_decays_without_complete_weights(scheme):
    # Unstable free part, delay-stabilized; with Q1 = Q2 = 0 the quadratic
    # bound cannot persist and the coefficient drains toward zero.
    sys_ = RfdeSystem([[1.0]], [[-2.0]], 0.3)
    w = CostWeights([[1.0]], [[0.0]], [[0.0]])
    vals = [k1(build_functional(sys_, w, scheme, N, allow_incomplete=True))
            for N in (5, 10, 20, 40)]
    assert all(v > 0.0 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_k1_refinement_differences_shrink_cheb(ex2_system, ex2_weights):
    vals = {N: k1(build_functional(ex2_system, ex2_weights, "cheb", N))
            for N in (10, 20, 40, 80, 160)}
    diffs = [abs(vals[2 * N] - vals[N]) for N in (10, 20, 40, 80)]
    assert all(b < a for a, b in zip(diffs, diffs[1:]))


def test_k1_refinement_floor_legendre(ex2_system, ex2_weights):
    # The tau scheme is machine-converged by N = 10 on this example, so
    # successive differences sit at rounding level instead of decaying;
    # see "Convergence floor" in the README's Testing section.
    vals = {N: k1(build_functional(ex2_system, ex2_weights, "legendre", N))
            for N in (10, 20, 40)}
    assert abs(vals[20] - vals[10]) <= 1e-10
    assert abs(vals[40] - vals[20]) <= 1e-10


def test_k1_indefinite_gate(ex2_system, ex2_weights):
    unstable = dataclasses.replace(ex2_system, h=7.0)
    fa = build_functional(unstable, ex2_weights, "legendre", 40)
    with pytest.raises(ValueError):
        k1(fa)
    assert k1(fa, check_psd=False) < 0.0


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_k1_orthogonal_state_invariance(ex2_system, ex2_weights, scheme):
    fa = build_functional(ex2_system, ex2_weights, scheme, 20)
    U, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    rotated = RfdeSystem(U.T @ ex2_system.A0 @ U, U.T @ ex2_system.A1 @ U,
                         ex2_system.h)
    fb = build_functional(rotated, ex2_weights, scheme, 20)
    npt.assert_allclose(k1(fb), k1(fa), rtol=1e-8)


def test_stability_by_psd_examples(ex2_system, ex2_weights):
    stable = build_functional(ex2_system, ex2_weights, "legendre", 40)
    assert stable.psd
    unstable = build_functional(dataclasses.replace(ex2_system, h=7.0),
                                ex2_weights, "legendre", 40)
    assert not unstable.psd and unstable.lam_min < 0.0


def test_stability_by_psd_unstable_delay_free():
    sys_ = RfdeSystem([[1.0]], [[0.0]], 1.0)
    w = CostWeights([[1.0]], [[1.0]], [[0.0]])
    for N in (4, 12):
        fa = build_functional(sys_, w, "legendre", N)
        assert not fa.psd


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_psd_verdict_is_scale_free(ex2_system, ex2_h_crit, scheme):
    # Scaling the weights scales P, so the verdict must not depend on the
    # scale, and k1 raises exactly when the verdict is negative.  At h = 7
    # with weights 1e-12 I the tau P has lam_min -1.6e-9 and lam_max 2.2e-11;
    # a threshold floored at -1e-8 max(1, lam_max) called it semidefinite.
    for h in (2.0, 7.0):
        for scale in (1.0, 1e-12):
            w = CostWeights(scale * np.eye(2), scale * np.eye(2), np.zeros((2, 2)))
            fa = build_functional(dataclasses.replace(ex2_system, h=h), w, scheme, 20)
            assert fa.psd == fa.hurwitz == (h < ex2_h_crit)
            if fa.psd:
                assert k1(fa) > 0.0
            else:
                with pytest.raises(ValueError, match="indefinite"):
                    k1(fa)


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_psd_verdict_tracks_hurwitz_over_delay_grid(ex2_system, ex2_weights,
                                                    scheme):
    for h in np.linspace(0.5, 9.0, 30):
        sys_h = dataclasses.replace(ex2_system, h=float(h))
        fa = build_functional(sys_h, ex2_weights, scheme, 40)
        assert fa.psd == is_hurwitz(fa.model.A)[0]


def test_baseline_norm_ratio_closed_form(ex2_system, ex2_weights):
    sigma = np.sqrt((3.0 + np.sqrt(5.0)) / 2.0)
    expected = min(1.0 / (4.0 + sigma), 1.0 / sigma)
    val = baseline_k1(ex2_system, ex2_weights, method="norm-ratio")
    npt.assert_allclose(val, expected, rtol=1e-12)
    npt.assert_allclose(val, 0.1779982111184266, rtol=1e-12)


def test_baseline_norm_ratio_scalar():
    sys_ = RfdeSystem([[-1.0]], [[0.1]], 1.0)
    w = CostWeights([[1.0]], [[1.0]], [[0.0]])
    npt.assert_allclose(baseline_k1(sys_, w, method="norm-ratio"), 1.0 / 2.1,
                        rtol=1e-12)


def test_baseline_alpha_max_scalar():
    sys_ = RfdeSystem([[-1.0]], [[0.0]], 1.0)
    w = CostWeights([[1.0]], [[1.0]], [[0.0]])
    npt.assert_allclose(baseline_k1(sys_, w, method="alpha-max"), 0.5,
                        atol=1e-7)


def test_baseline_alpha_max_example(ex2_system, ex2_weights):
    val = baseline_k1(ex2_system, ex2_weights, method="alpha-max")
    npt.assert_allclose(val, 0.234618521176024, atol=1e-6)
    with pytest.raises(ValueError):
        baseline_k1(ex2_system, ex2_weights, method="magic")
    with pytest.raises(ValueError, match="positive semidefinite"):
        baseline_k1(ex2_system, CostWeights(np.eye(2), -np.eye(2), np.zeros((2, 2))),
                    method="alpha-max")


_EX2_A0 = [[-2.0, 0.0], [0.0, -0.9]]
_EX2_A1 = [[-1.0, 0.0], [-1.0, -1.0]]
_ALPHA_MAX_SINGULAR = {
    # A1 != 0 couples the kernel of S = blkdiag(Q0, 0) to its range, so
    # S + alpha M is indefinite for every alpha > 0.
    "ex2-q1-zero": (_EX2_A0, _EX2_A1, np.eye(2), np.zeros((2, 2)), 0.0),
    # The packaged delay-free config: alpha* = Q0 / (-2 A0).
    "delay-free": ([[-1.0]], [[0.0]], [[1.0]], [[0.0]], 0.5),
    "decoupled": (_EX2_A0, np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), 0.25),
    # M is negative on the kernel of Q0 = diag(1, 0).
    "q0-singular": (_EX2_A0, _EX2_A1, np.diag([1.0, 0.0]), np.eye(2), 0.0),
}


@pytest.mark.parametrize("case", sorted(_ALPHA_MAX_SINGULAR))
def test_baseline_alpha_max_singular_weights(case):
    A0, A1, Q0, Q1, expected = _ALPHA_MAX_SINGULAR[case]
    n = len(A0)
    sys_ = RfdeSystem(A0, A1, 2.0)
    w = CostWeights(Q0, Q1, np.zeros((n, n)))
    assert baseline_k1(sys_, w, method="alpha-max") == expected


def test_baseline_alpha_max_unbounded_raises():
    # M = diag(2, 0) >= 0: every alpha >= 0 is feasible.
    sys_ = RfdeSystem([[1.0]], [[0.0]], 1.0)
    w = CostWeights([[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ConvergenceError, match="no finite feasibility bound"):
        baseline_k1(sys_, w, method="alpha-max")


@st.composite
def _stable_systems(draw):
    """A delay-independently stable system (mu2(A0) + ||A1||_2 < 0), SPD
    weights with Q2 = 0, and an orthogonal matrix of the same order."""
    n = draw(st.integers(1, 3))

    def matrix():
        return draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))

    W, B, C0, C1, R = matrix(), matrix(), matrix(), matrix(), matrix()
    delta = draw(st.floats(0.4, 1.6))
    A0 = W - (np.linalg.eigvalsh(0.5 * (W + W.T))[-1] + delta) * np.eye(n)
    A1 = B * (draw(st.floats(0.2, 0.9)) * delta / max(1.0, np.linalg.norm(B, 2)))
    Q0 = C0 @ C0.T + draw(st.floats(0.1, 1.0)) * np.eye(n)
    Q1 = C1 @ C1.T + draw(st.floats(0.1, 1.0)) * np.eye(n)
    U = np.linalg.qr(R)[0]
    return A0, A1, Q0, Q1, U


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_stable_systems())
def test_baseline_alpha_max_properties(drawn):
    # alpha* is the edge of the feasible interval {alpha : S + alpha M >= 0}
    # to 1e-10 relative, and a congruence by blkdiag(U, U) leaves the
    # pencil's eigenvalues alone.
    A0, A1, Q0, Q1, U = drawn
    n = len(A0)
    Z = np.zeros((n, n))
    alpha = baseline_k1(RfdeSystem(A0, A1, 1.0), CostWeights(Q0, Q1, Z), "alpha-max")
    S = scipy.linalg.block_diag(Q0, Q1)
    M = np.block([[A0.T + A0, A1], [A1.T, Z]])
    assert np.linalg.eigvalsh(S + alpha * M)[0] >= -1e-12 * np.linalg.norm(M, 2)
    assert np.linalg.eigvalsh(S + (1.0 + 1e-10) * alpha * M)[0] < 0.0
    rotated = baseline_k1(RfdeSystem(U.T @ A0 @ U, U.T @ A1 @ U, 1.0),
                          CostWeights(U.T @ Q0 @ U, U.T @ Q1 @ U, Z), "alpha-max")
    assert abs(rotated - alpha) <= 1e-12 * alpha


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_stable_systems(), st.floats(0.1, 5.0), st.integers(2, 24),
       st.sampled_from(["cheb", "legendre"]), st.data())
def test_build_psd_and_k1_bounds_v(drawn, h, N, scheme, data):
    # The one build formula of both schemes gives a positive semidefinite
    # P, and V(phi) >= k1 ||phi(0)||^2 for every segment, here polynomials.
    A0, A1, Q0, Q1, _ = drawn
    n = len(A0)
    C2 = data.draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    coeffs = data.draw(arrays(float, (data.draw(st.integers(1, 6)), n),
                              elements=st.floats(-1.0, 1.0)))
    fa = build_functional(RfdeSystem(A0, A1, h), CostWeights(Q0, Q1, C2 @ C2.T),
                          scheme, N)
    assert fa.psd
    phi = FunctionSpec.polynomial(coeffs)
    x = phi(0.0)
    assert evaluate(fa, phi) >= k1(fa) * float(x @ x) * (1.0 - 1e-10)


# ROADMAP item 8's cheb-vs-tau property, in the two-sided form the data
# supports.  On 150 draws of this strategy (the same h and Q2 = C C'),
# |cheb k1 - tau k1| / |tau k1| was at most 1.6e-2 at N = 20 and 3.9e-3 at
# N = 40 (1.3e-2 and 3.2e-3 on these 60), and the cheb k1 lay *above* the
# tau k1 in 147 of the 150: collocation k1 is not a conservative bound.
# Each bound is the 150-draw maximum times ~3.2.
_CHEB_TAU_REL = {20: 5e-2, 40: 1.25e-2}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_stable_systems(), st.floats(0.1, 5.0), st.data())
def test_cheb_k1_tracks_tau_k1(drawn, h, data):
    A0, A1, Q0, Q1, _ = drawn
    n = len(A0)
    C2 = data.draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    system, weights = RfdeSystem(A0, A1, h), CostWeights(Q0, Q1, C2 @ C2.T)
    for N, rel in _CHEB_TAU_REL.items():
        tau = k1(build_functional(system, weights, "legendre", N))
        cheb = k1(build_functional(system, weights, "cheb", N))
        assert abs(cheb - tau) <= rel * abs(tau)


def test_k1_is_minus_inf_past_the_margin(ex2_system, ex2_weights):
    # Example 2 at h = 7, past its margin 6.1726: the history block is
    # indefinite, so V / ||phi(0)||^2 is unbounded below on every route.
    system = dataclasses.replace(ex2_system, h=7.0)
    fa = build_functional(system, ex2_weights, "legendre", 20)
    M = _to_combined(fa.P, fa.model.e, 2, rows=True)
    v = np.linalg.eigh(M[:-2, :-2])[1][:, 0]
    x = np.concatenate([1e3 * v, [1.0, 0.0]])   # phi(0) = (1, 0)
    assert x @ M @ x < -1e8
    for scheme in ("legendre", "cheb"):
        fa = build_functional(system, ex2_weights, scheme, 20)
        assert k1(fa, check_psd=False) == -np.inf
    dl = build_delay_lyap(system, ex2_weights)
    for rule in ("cc", "gauss"):
        assert k1_quad(dl, ex2_weights, rule, 20, check_psd=False) == -np.inf


def test_k1_delay_free_history_block_keeps_finite_bound():
    # Delay-free with Q1 = 0: the history block is zero, exactly for the
    # collocation and the quadrature, and up to rounding of either sign
    # (~1e-14) in the tau's combined coordinates.  k1 stays 1/2.
    for scheme in ("cheb", "legendre"):
        assert abs(k1(_delay_free_fa(scheme, N=40)) - 0.5) <= 1e-9
    fa = _delay_free_fa("legendre")
    dl = build_delay_lyap(fa.system, fa.weights)
    for rule in ("cc", "gauss"):
        assert abs(k1_quad(dl, fa.weights, rule, 12) - 0.5) <= 1e-12


def _count_calls(monkeypatch, counts, key, owner, name):
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


def test_baseline_alpha_max_one_eigensolve(monkeypatch, ex2_system, ex2_weights):
    # S = blkdiag(Q0, Q1) > 0: one symmetric-definite eigensolve gives alpha*.
    counts = {"eig": 0}
    for owner in (scipy.linalg, np.linalg):
        for name in ("eigh", "eigvalsh"):
            _count_calls(monkeypatch, counts, "eig", owner, name)
    baseline_k1(ex2_system, ex2_weights, method="alpha-max")
    assert counts == {"eig": 1}


@pytest.mark.parametrize("scheme", ["legendre", "cheb"])
def test_build_k1_factors_each_symmetric_matrix_once(monkeypatch, scheme):
    # The history block Z of the complement is factored by Cholesky alone:
    # the only symmetric eigensolve of k1 is the one on the n x n complement
    # (the build's own is the eigvalsh of P behind its psd verdict).
    local = np.random.default_rng(6)
    system = random_stable_rfde(local, 6)
    w = CostWeights(np.eye(6), np.eye(6), 0.3 * np.eye(6))
    counts = {"solve": 0}
    _count_calls(monkeypatch, counts, "solve", np.linalg, "solve")
    fa = build_functional(system, w, scheme, 40)
    shapes = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda S, fn=fn, **kw: shapes.append(S.shape) or fn(S, **kw))
    k1(fa)
    assert shapes == [(6, 6)] and counts == {"solve": 0}


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_critical_delay_examples(monkeypatch, ex1_system, ex2_system, ex1_h_crit,
                                 ex2_h_crit, scheme):
    tol = 1e-4
    for system, h_crit in ((ex2_system, ex2_h_crit), (ex1_system, ex1_h_crit)):
        counts = {"eig": 0}
        with monkeypatch.context() as m:
            _count_calls(m, counts, "eig", lkapprox.functional, "is_hurwitz")
            h = critical_delay(system, scheme, N=20, bracket=(1.0, 10.0), tol=tol)
        assert abs(h - h_crit) <= 1e-2
        # Bisection needs 2 + ceil(log2(9 / 1e-4)) = 19 closure eigen-solves.
        assert counts["eig"] <= 12, counts

        def abscissa(t):
            return is_hurwitz(build_model(dataclasses.replace(system, h=t), scheme, 20).A)[1]

        assert abscissa(h - 0.5 * tol) < 0.0 <= abscissa(h + 0.5 * tol)


def _step(x):
    return -1.0 if x < np.pi else 1.0


def _flat_then_steep(x):
    return np.expm1(20.0 * (x - 9.0)) if x > 9.0 else -1e-9


def _kink(x):
    return min(x - 3.3, 10.0 * (x - 3.3))


def _plateau(x):
    return -1.0 if x < 2.0 else (0.0 if x < 7.0 else 1.0)


def _exponential(x):
    return np.exp(x) - 1e3


def _exact_zero(x):
    return x - 5.0   # the first step lands on the root


@pytest.mark.parametrize("f", [_step, _flat_then_steep, _kink, _plateau,
                               _exponential, _exact_zero])
@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-12, 10.0, 20.0])
def test_itp_bracket_and_evaluation_bound(f, tol):
    lo, hi = 0.0, 10.0
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    a, b, steps = _itp(counted, lo, hi, counted(lo), counted(hi), tol)
    assert steps == len(calls) - 2
    assert b - a <= tol
    assert f(a) < 0.0 <= f(b)
    # Bisection's count, endpoints included, is ceil(log2(10 / tol)) + 2.
    assert len(calls) <= int(np.ceil(np.log2((hi - lo) / tol))) + 3


def test_critical_delay_deterministic(ex2_system, caplog):
    with caplog.at_level(logging.DEBUG, logger="lkapprox"):
        a = critical_delay(ex2_system, "legendre", N=10, bracket=(1.0, 10.0), tol=1e-3)
    b = critical_delay(ex2_system, "legendre", N=10, bracket=(1.0, 10.0), tol=1e-3)
    assert a == b
    # One DEBUG record: the evaluation count and the final bracket.
    (record,) = caplog.records
    assert record.name == "lkapprox.functional" and record.levelno == logging.DEBUG
    evaluations, lo, hi = record.args
    assert 2 < evaluations <= 2 + int(np.ceil(np.log2(9.0 / 1e-3))) + 1
    assert hi - lo <= 1e-3 and a == 0.5 * (lo + hi)


def test_critical_delay_bracket_errors():
    sys_ = RfdeSystem([[-1.0]], [[0.0]], 1.0)
    with pytest.raises(ValueError):
        critical_delay(sys_, "legendre", N=10, bracket=(1.0, 10.0), tol=1e-3)
    for bracket in ((-1.0, 10.0), (1.0, float("inf"))):
        with pytest.raises(ValueError, match="bracket must satisfy"):
            critical_delay(sys_, "legendre", N=10, bracket=bracket, tol=1e-3)
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            critical_delay(sys_, "legendre", N=10, bracket=(1.0, 10.0), tol=tol)
    # A bracket around 10 cannot shrink below its float spacing, 1.8e-15.
    with pytest.raises(ValueError, match="floating-point resolution"):
        critical_delay(sys_, "legendre", N=10, bracket=(1.0, 10.0), tol=1e-15)


def test_critical_delay_rejects_infinite_tol(ex2_system):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        critical_delay(ex2_system, "legendre", N=10, bracket=(1.0, 10.0),
                       tol=float("inf"))


_BAD_ORDERS = (2.7, True, 0, -3, np.float64(20.0))


@pytest.mark.parametrize("call", [
    pytest.param(lambda s, w, N: build_functional(s, w, N=N), id="build_functional"),
    pytest.param(lambda s, w, N: build_model(s, "cheb", N), id="build_model-cheb"),
    pytest.param(lambda s, w, N: build_model(s, "legendre", N), id="build_model-legendre"),
    pytest.param(lambda s, w, N: critical_delay(s, N=N), id="critical_delay"),
    pytest.param(lambda s, w, N: discretize_leg(FunctionSpec.named("sin", s.n), N, s.h),
                 id="discretize_leg"),
    pytest.param(lambda s, w, N: k1_quad(build_delay_lyap(s, w), w, N=N), id="k1_quad"),
])
def test_bad_order_rejected(ex2_system, ex2_weights, call):
    # Non-integral, boolean and non-positive orders are refused, not
    # truncated to an integer or built into a degenerate closure.
    for N in _BAD_ORDERS:
        with pytest.raises(ValueError, match="order must be an integer >= 1"):
            call(ex2_system, ex2_weights, N)


def test_split_components_closed_forms(ex2_system):
    # The tau mass matrices are the closed forms diag(h/(2k+1), 0) and
    # (h/2)^2 tri, and both are the Gauss-quadrature moments of p_j p_k and
    # (h + s) p_j p_k on [-h, 0] over the N history coefficients.  The
    # collocation ones are the Clenshaw-Curtis rules.
    N, h = 9, ex2_system.h
    model = build_leg_model(ex2_system, N)
    diag1 = np.append(h / (2.0 * np.arange(N) + 1.0), 0.0)
    npt.assert_array_equal(model.M1, np.diag(diag1))
    tri = np.zeros((N + 1, N + 1))
    for a in range(N):
        tri[a, a] = 2.0 / (2 * a + 1)
    for a in range(N - 1):
        tri[a, a + 1] = tri[a + 1, a] = 2.0 * (a + 1) / ((2 * a + 1) * (2 * a + 3))
    npt.assert_allclose(model.M2, (h / 2.0) ** 2 * tri, rtol=1e-15, atol=0.0)
    rule = gauss_legendre(N + 2, h)
    L = np.zeros((N + 2, N + 1))
    L[:, :N] = legvander(2.0 * rule.nodes / h + 1.0, N - 1)
    npt.assert_allclose(model.M1, (L.T * rule.weights) @ L, atol=1e-14)
    npt.assert_allclose(model.M2, (L.T * (rule.weights * (h + rule.nodes))) @ L,
                        atol=1e-14)
    npt.assert_array_equal(model.e, np.ones(N + 1))

    cheb = build_model(ex2_system, "cheb", N)
    w, t = cheb_nodes(N, h).weights, cheb_nodes(N, h).nodes
    npt.assert_array_equal(cheb.M1, np.diag(w))
    npt.assert_array_equal(cheb.M2, np.diag(w * (h + t)))
    npt.assert_array_equal(cheb.e, np.eye(N + 1)[N])


def test_split_components_satisfy_their_equations():
    # Each addend of the tau build solves the closure's Lyapunov equation
    # for its own derivative-weight triple: (Qt, 0, 0), (-Q1, Q1, 0),
    # (-h Q2, 0, Q2), with the direct costs of helpers.legendre_cost.
    local = np.random.default_rng(99)
    n, N, h = 2, 9, 1.3
    A0 = local.standard_normal((n, n))
    A0 -= (np.linalg.eigvals(A0).real.max() + 0.5) * np.eye(n)
    sys_ = RfdeSystem(A0, 0.3 * local.standard_normal((n, n)), h)
    R1 = local.standard_normal((n, n))
    R2 = local.standard_normal((n, n))
    w = CostWeights(np.eye(n), R1 @ R1.T + 0.1 * np.eye(n), R2 @ R2.T)
    fa = build_functional(sys_, w, "legendre", N)
    P1 = np.kron(fa.model.M1, w.Q1)
    P2 = np.kron(fa.model.M2, w.Q2)
    P0 = fa.P - P1 - P2
    zero = np.zeros((n, n))
    Q0c = legendre_cost(CostWeights(w.combined(h), zero, zero), N, h)
    Q1c = legendre_cost(CostWeights(-w.Q1, w.Q1, zero), N, h)
    Q2c = legendre_cost(CostWeights(-h * w.Q2, zero, w.Q2), N, h)
    model_A = fa.model.A
    assert relative_residual(P0, model_A, Q0c) <= 1e-9
    assert relative_residual(P1, model_A, Q1c) <= 1e-9
    assert relative_residual(P2, model_A, Q2c) <= 1e-9


def test_split_components_superpose_to_direct_build():
    # The split tau build equals the one solve with the direct cost.
    local = np.random.default_rng(41)
    n, N, h = 2, 12, 1.7
    A0 = local.standard_normal((n, n))
    A0 -= (np.linalg.eigvals(A0).real.max() + 0.5) * np.eye(n)
    sys_ = RfdeSystem(A0, 0.2 * local.standard_normal((n, n)), h)
    w = CostWeights(np.eye(n), 2.0 * np.eye(n), 0.5 * np.eye(n))
    fa = build_functional(sys_, w, "legendre", N)
    direct = solve_lyapunov(fa.model.A, legendre_cost(w, N, h)).P
    assert np.max(np.abs(direct - fa.P)) <= 1e-9 * np.max(np.abs(fa.P))


def test_split_v1_exact_on_low_degree_polynomials(ex2_system, ex2_weights):
    n, N, h = 2, 8, ex2_system.h
    coeffs = rng.standard_normal((N, n))
    phi = FunctionSpec.polynomial(coeffs)
    zeta = discretize_leg(phi, N, h)
    P1 = np.kron(build_leg_model(ex2_system, N).M1, ex2_weights.Q1)
    exact = 0.0
    for i in range(n):
        anti = npoly.polyint(npoly.polymul(coeffs[:, i], coeffs[:, i]))
        exact += npoly.polyval(0.0, anti) - npoly.polyval(-h, anti)
    npt.assert_allclose(zeta @ P1 @ zeta, exact, rtol=1e-10)


@pytest.mark.parametrize("scheme", ["legendre", "cheb"])
def test_build_factors_closure_once(monkeypatch, ex2_system, ex2_weights, scheme):
    # One build runs one real Schur factorization of the closure and takes
    # its Hurwitz verdict from that factor: no eigenvalue call of its own.
    # `linalg._gees` is the one real Schur factorization (dgees, its
    # workspace query included), `linalg._trsyl` the one triangular solve
    # (dtrsyl3, likewise); `eigenvalues` calls np.linalg.eigvals.
    counts = {"schur": 0, "sylvester": 0, "eigvals": 0}
    _count_calls(monkeypatch, counts, "schur", lkapprox.linalg, "_gees")
    _count_calls(monkeypatch, counts, "sylvester", lkapprox.linalg, "_trsyl")
    _count_calls(monkeypatch, counts, "eigvals", np.linalg, "eigvals")
    fa = build_functional(ex2_system, ex2_weights, scheme, 20)
    assert counts == {"schur": 1, "sylvester": 1, "eigvals": 0}
    assert fa.hurwitz and fa.max_re < 0.0


@pytest.mark.parametrize("q2", [0.0, 0.5])
def test_cheb_k1_gap_to_tau_shrinks(ex2_system, q2):
    # Collocation smears the jump of the k1 minimizer at theta = 0, so the
    # cheb k1 sits below the tau k1 of the same order (converged to 3e-10
    # at N = 8 and to 1e-13 from N = 16) by a gap that shrinks with N:
    # 3.8e-3, 1.1e-3 and 2.8e-4 at Q2 = 0, and 1.9e-3, 1.1e-3 and 3.4e-4
    # at Q2 = 0.5 I.
    w = CostWeights(np.eye(2), np.eye(2), q2 * np.eye(2))
    gaps = []
    for N in (8, 16, 32):
        ref = k1(build_functional(ex2_system, w, "legendre", N))
        gaps.append(ref - k1(build_functional(ex2_system, w, "cheb", N)))
    assert 0.0 < gaps[2] < gaps[1] / 1.5 and gaps[1] < gaps[0] / 1.5, gaps
    assert gaps[0] < 5e-3 and gaps[2] < 5e-4, gaps


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_superposition_in_weights(ex2_system, scheme):
    Q2 = 0.5 * np.eye(2)
    zero = np.zeros((2, 2))
    full = build_functional(ex2_system, CostWeights(np.eye(2), np.eye(2), Q2),
                            scheme, 12)
    parts = [
        build_functional(ex2_system, CostWeights(np.eye(2), zero, zero),
                         scheme, 12, allow_incomplete=True),
        build_functional(ex2_system, CostWeights(zero, np.eye(2), zero),
                         scheme, 12, allow_incomplete=True),
        build_functional(ex2_system, CostWeights(zero, zero, Q2),
                         scheme, 12, allow_incomplete=True),
    ]
    total = sum(p.P for p in parts)
    assert np.max(np.abs(total - full.P)) <= 1e-9 * np.max(np.abs(full.P))


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_weight_scaling(ex2_system, ex2_weights, scheme):
    c = 3.7
    fa = build_functional(ex2_system, ex2_weights, scheme, 16)
    scaled = CostWeights(c * ex2_weights.Q0, c * ex2_weights.Q1,
                         c * ex2_weights.Q2)
    fb = build_functional(ex2_system, scaled, scheme, 16)
    npt.assert_allclose(fb.P, c * fa.P, rtol=1e-10, atol=1e-10 * np.max(np.abs(fa.P)))
    npt.assert_allclose(k1(fb), c * k1(fa), rtol=1e-10)


# Analytic delay margin of the build-large system: the scalar factor
# lam = -0.88 - exp(-lam h) of its second block crosses first.
_LARGE_MARGIN = 5.572221407824357


def _large_base_system(h, seed=None):
    """The n = 6 system of the benchmark's build-large workload: three
    example-2-like blocks coupled below the diagonal (margin ~5.57).

    Unrotated for seed=None; otherwise every matrix is rotated by the
    workload's seeded orthogonal Q, as the benchmark's config for that seed.
    """
    blocks = (([[-2.0, 0.0], [0.0, -0.9]], [[-1.0, 0.0], [-1.0, -1.0]]),
              ([[-1.8, 0.0], [0.1, -0.88]], [[-0.9, 0.0], [-1.1, -1.0]]),
              ([[-2.2, 0.0], [-0.1, -0.92]], [[-1.1, 0.0], [-0.9, -1.0]]))
    A0, A1 = np.zeros((6, 6)), np.zeros((6, 6))
    for k, (a0, a1) in enumerate(blocks):
        A0[2 * k:2 * k + 2, 2 * k:2 * k + 2] = a0
        A1[2 * k:2 * k + 2, 2 * k:2 * k + 2] = a1
    A0[2:, :2] += 0.1
    A1[4:, 2:4] -= 0.1
    W = (np.diag(np.linspace(1.0, 1.5, 6)), np.eye(6), 0.1 * np.eye(6))
    if seed is not None:
        Q, R = np.linalg.qr(np.random.default_rng([seed, 0]).standard_normal((6, 6)))
        Q = Q * np.sign(np.diag(R))
        A0, A1 = Q @ A0 @ Q.T, Q @ A1 @ Q.T
        W = tuple(Q @ M @ Q.T for M in W)   # CostWeights symmetrizes them
    return RfdeSystem(A0, A1, h), CostWeights(*W)


def _near_margin_k1(system, weights, N):
    """k1 of the order-N legendre closure, and the same closure's k1 in
    extended precision."""
    fa = build_functional(system, weights, scheme="legendre", N=N)
    ref = longdouble_tau_k1(np.asarray(fa.model.A), legendre_cost(weights, N, system.h),
                            system.n)
    return k1(fa), ref


# The build-large near-margin cases: a fraction of the margin and its bound.
_NEAR_MARGIN_BOUNDS = ((0.99, 1e-9), (0.999, 2e-8))


@pytest.mark.parametrize("case, h, N, bound", [
    ("ex2", 6.0, 40, 1e-10), ("ex2", 6.0, 80, 1e-10),
    ("ex2", 6.15, 40, 1e-10), ("ex2", 6.15, 80, 1e-10),
    ("large", 5.41, 40, 2e-9),
] + [
    # Build-large rotated as the benchmark's config of seed `case`, at 0.99
    # and 0.999 of the margin.  One dtrsyl3 on the whole triangular equation
    # gives at most 7.0e-10 and 6.1e-9 there.
    pytest.param(seed, frac * _LARGE_MARGIN, N, bound,
                 id=f"large-seed{seed}-{frac}hc-{N}")
    for seed in range(4) for frac, bound in _NEAR_MARGIN_BOUNDS
    for N in (20, 40)
])
def test_k1_near_margin_accuracy_floor(ex2_system, ex2_weights, case, h, N, bound):
    # Near the delay margin the complement X - B^T Z^-1 B cancels digits
    # (||X|| ~ 7e4 against k1 ~ 0.75 on the n = 6 system at h = 5.41), so
    # k1 is checked against the same closure's k1 in extended precision.
    if case == "ex2":
        system, weights = dataclasses.replace(ex2_system, h=h), ex2_weights
    else:
        system, weights = _large_base_system(h, None if case == "large" else case)
    got, ref = _near_margin_k1(system, weights, N)
    assert abs(got - ref) <= bound * abs(ref)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("N", [20, 40])
def test_k1_near_margin_accuracy_floor_scipy_fallback(monkeypatch, seed, N):
    # The build-large cases of the floor above, at their bounds, with the
    # routines of the SciPy fallback: there the triangular equation is one
    # unblocked dtrsyl on the whole factor, at most 8.3e-10 off at 0.99 h_c
    # and 4.4e-9 at 0.999 h_c.
    use_scipy_lapack(monkeypatch)
    for frac, bound in _NEAR_MARGIN_BOUNDS:
        got, ref = _near_margin_k1(*_large_base_system(frac * _LARGE_MARGIN, seed), N)
        assert abs(got - ref) <= bound * abs(ref), frac
