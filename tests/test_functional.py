import dataclasses
import itertools
import logging
import math
import re

import numpy as np
import numpy.polynomial.polynomial as npoly
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial.legendre import legvander

import lkapprox.discretize
import lkapprox.functional
import lkapprox.linalg
import lkapprox.spectral
from helpers import (
    kron_closure,
    kron_cost,
    kron_functional_matrix,
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
from lkapprox.functional import (
    _delay_margin,
    _itp,
    baseline_k1,
    critical_delay,
)
from lkapprox.linalg import (
    ConvergenceError,
    DimensionError,
    _certify_unstable,
    is_hurwitz,
    solve_lyapunov,
)
from lkapprox.oracle import build_delay_lyap, k1_quad
from lkapprox.spectral import cheb_nodes, gauss_legendre

rng = np.random.default_rng(20240820)


def _delay_free_fa(scheme, N=8):
    sys_ = RfdeSystem([[-1.0]], [[0.0]], 1.3)
    w = CostWeights([[1.0]], [[0.0]], [[0.0]])
    return build_functional(sys_, w, scheme, N, allow_incomplete=True)


def test_records_compare_and_hash_by_identity(ex2_system):
    # Records hold arrays, whose == is elementwise and which do not hash, so
    # a record compares and hashes by identity: equal twins built apart
    # compare unequal, without raising.
    def records():
        system = RfdeSystem(ex2_system.A0, ex2_system.A1, 2.0)
        weights = CostWeights(np.eye(2), np.eye(2), np.zeros((2, 2)))
        fa = build_functional(system, weights, "legendre", 4)
        return [system, weights, fa.model, fa, cheb_nodes(4, 2.0),
                build_delay_lyap(system, weights)]

    for record, twin in zip(records(), records()):
        assert record == record and not record != record
        assert (record == twin) is False and record != twin
        assert hash(record) == hash(record)
        assert len({record, twin, record}) == 2


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


@pytest.mark.parametrize("scheme, own", [("cheb", "discretize_cheb"),
                                         ("legendre", "discretize_leg")])
def test_evaluate_reads_through_the_module_discretizer(monkeypatch, ex2_system,
                                                        ex2_weights, scheme, own):
    # A tracing profiler rebinds the module's discretizers after the package is
    # imported; a built model must reach the rebound one, or its span reads 0.
    fa = build_functional(ex2_system, ex2_weights, scheme, 10)
    counts = {"discretize_cheb": 0, "discretize_leg": 0}
    for name in counts:
        _count_calls(monkeypatch, counts, name, lkapprox.discretize, name)
    evaluate(fa, FunctionSpec.named("sin", 2))
    assert counts == {"discretize_cheb": 0, "discretize_leg": 0, own: 1}


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_functional_matrix_is_read_only(ex2_system, ex2_weights, scheme):
    # For cheb, grid_matrix() is P itself, so a write there would move k1
    # while lam_min/lam_max and psd kept describing the old P.
    fa = build_functional(ex2_system, ex2_weights, scheme, 6)
    for M in (fa.P, fa.grid_matrix()) if scheme == "cheb" else (fa.P,):
        with pytest.raises(ValueError, match="read-only"):
            M[-1, -1] += 100.0


def test_replaced_record_describes_its_own_P(ex2_system, ex2_weights):
    # psd, lam_min and lam_max are read from P, so a record made by
    # dataclasses.replace cannot contradict its own P.
    fa = build_functional(ex2_system, ex2_weights, "legendre", 12)
    assert fa.psd and fa.lam_min > 0.0
    flipped = dataclasses.replace(fa, P=-fa.P)
    w = np.linalg.eigvalsh(flipped.P)
    assert not flipped.psd
    assert (flipped.lam_min, flipped.lam_max) == (w[0], w[-1]) and w[0] < 0.0


def test_record_stores_only_what_the_build_computed(ex2_system, ex2_weights):
    # scheme, system and N are read from the model and hurwitz from max_re,
    # so a record made by dataclasses.replace cannot contradict them.
    fa = build_functional(ex2_system, ex2_weights, "legendre", 12)
    assert [f.name for f in dataclasses.fields(fa)] == [
        "model", "weights", "P", "residual", "max_re"]
    assert (fa.scheme, fa.system, fa.N, fa.hurwitz) == (
        "legendre", fa.model.system, 12, True)
    assert not dataclasses.replace(fa, max_re=1.0).hurwitz
    assert not dataclasses.replace(fa, max_re=0.0).hurwitz
    with pytest.raises(TypeError):
        dataclasses.replace(fa, N=7)
    model = build_model(dataclasses.replace(ex2_system, h=3.0), "cheb", 5)
    moved = dataclasses.replace(fa, model=model)
    assert (moved.scheme, moved.system, moved.N) == ("cheb", model.system, 5)
    for name in ("scheme", "system", "N", "hurwitz", "psd", "lam_min", "lam_max"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(fa, name, None)


def test_psd_is_read_from_the_extremes_once_they_are_read(monkeypatch, ex2_system,
                                                         ex2_weights):
    # Where lam_min/lam_max were read first, psd applies the rule to them and
    # factors nothing: a completed Cholesky factorization proves that rule,
    # so the verdict is the same either way.
    shapes = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda M: shapes.append(M.shape) or cholesky(M))
    for h, psd in ((2.0, True), (7.0, False)):
        fa = build_functional(dataclasses.replace(ex2_system, h=h), ex2_weights,
                              "legendre", 12)
        assert fa.lam_min < fa.lam_max and fa.psd is psd and shapes == []
        fresh = dataclasses.replace(fa)
        assert fresh.psd is psd and shapes == [(26, 26)]
        shapes.clear()


def test_psd_is_read_once_from_a_frozen_record(monkeypatch, ex2_system, ex2_weights):
    # The build factors no P; the first read of psd takes one Cholesky
    # factorization and keeps its verdict, which cannot be overwritten.
    shapes = []
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky",
                        lambda M: shapes.append(M.shape) or cholesky(M))
    fa = build_functional(ex2_system, ex2_weights, "legendre", 12)
    assert shapes == []
    assert fa.psd and fa.psd
    assert shapes == [(26, 26)]
    with pytest.raises(dataclasses.FrozenInstanceError):
        fa.psd = False
    assert fa.psd


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


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_stable_systems(), st.floats(0.1, 5.0))
def test_k1_beats_the_baselines_and_is_rotation_invariant(drawn, h):
    # The paper's headline claim on random draws: the tight tau k1 at N = 20
    # is at least both classical lower bounds, and an orthogonal change of
    # the state, x -> U' x in the system and the weights, leaves it alone.
    A0, A1, Q0, Q1, U = drawn
    Z = np.zeros_like(A0)
    system, weights = RfdeSystem(A0, A1, h), CostWeights(Q0, Q1, Z)
    bound = k1(build_functional(system, weights, "legendre", 20))
    assert bound >= max(baseline_k1(system, weights, method)
                        for method in ("norm-ratio", "alpha-max"))
    rotated = k1(build_functional(
        RfdeSystem(U.T @ A0 @ U, U.T @ A1 @ U, h),
        CostWeights(U.T @ Q0 @ U, U.T @ Q1 @ U, Z), "legendre", 20))
    assert abs(rotated - bound) <= 1e-8 * abs(bound)


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(_stable_systems(), st.floats(0.1, 5.0), st.floats(0.25, 8.0), st.data())
def test_k1_is_invariant_under_time_scaling_and_linear_in_the_weights(scheme, drawn, h, c,
                                                                      data):
    # Time scaling t -> c t maps (A0, A1, h, Q0, Q1, Q2) to
    # (A0/c, A1/c, c h, Q0/c, Q1/c, Q2/c^2) and leaves V, and so k1, alone;
    # V is linear in the weights, so k1(c Q) = c k1(Q).  Both hold for each
    # closure exactly, up to rounding.
    A0, A1, Q0, Q1, _ = drawn
    n = len(A0)
    C2 = data.draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
    Q2 = C2 @ C2.T
    system = RfdeSystem(A0, A1, h)
    bound = k1(build_functional(system, CostWeights(Q0, Q1, Q2), scheme, 20))
    slow = k1(build_functional(RfdeSystem(A0 / c, A1 / c, c * h),
                               CostWeights(Q0 / c, Q1 / c, Q2 / c ** 2), scheme, 20))
    heavy = k1(build_functional(system, CostWeights(c * Q0, c * Q1, c * Q2), scheme, 20))
    assert abs(slow - bound) <= 1e-9 * abs(bound)
    assert abs(heavy - c * bound) <= 1e-9 * abs(c * bound)


def test_k1_is_minus_inf_past_the_margin(ex2_system, ex2_weights):
    # Example 2 at h = 7, past its margin 6.1726: the history block is
    # indefinite, so V / ||phi(0)||^2 is unbounded below on every route.
    system = dataclasses.replace(ex2_system, h=7.0)
    fa = build_functional(system, ex2_weights, "legendre", 20)
    M = _to_combined(fa.P, fa.model.e, 2)
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
    # (its psd check is one Cholesky factorization of P, which completes).
    local = np.random.default_rng(6)
    system = random_stable_rfde(local, 6)
    w = CostWeights(np.eye(6), np.eye(6), 0.3 * np.eye(6))
    counts = {"solve": 0}
    # The Legendre build's cached grid map takes one solve the first time
    # its order is built; it is built here first, so the count does not
    # depend on which tests ran before.
    lkapprox.spectral._unit_leg_cheb(40)
    _count_calls(monkeypatch, counts, "solve", np.linalg, "solve")
    fa = build_functional(system, w, scheme, 40)
    shapes = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda S, fn=fn, **kw: shapes.append(S.shape) or fn(S, **kw))
    k1(fa)
    assert shapes == [(6, 6)] and counts == {"solve": 0}


def _abscissa(system, scheme, N, h):
    return is_hurwitz(build_model(dataclasses.replace(system, h=h), scheme, N).A)[1]


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_critical_delay_examples(monkeypatch, ex1_system, ex2_system, ex1_h_crit,
                                 ex2_h_crit, scheme):
    tol = 1e-4
    for (system, h_crit), N in itertools.product(
            ((ex2_system, ex2_h_crit), (ex1_system, ex1_h_crit)), (10, 20)):
        counts = {"closure": 0, "eig": 0}
        with monkeypatch.context() as m:
            _count_calls(m, counts, "closure", lkapprox.functional, "build_model")
            _count_calls(m, counts, "eig", lkapprox.functional, "is_hurwitz")
            h = critical_delay(system, scheme, N=N, bracket=(1.0, 10.0), tol=tol)
        assert abs(h - h_crit) <= 1e-2
        # The closure's crossing lies within tol/2 of the delay margin, so
        # the window around it takes the only 2 closure evaluations, and the
        # certificate decides its upper end without an eigen-solve; ITP on
        # the whole bracket took 10-11, and bisection 2 + ceil(log2(9 / 1e-4)) = 19.
        assert counts == {"closure": 2, "eig": 1}, counts
        assert _abscissa(system, scheme, N, h - 0.5 * tol) < 0.0 <= _abscissa(
            system, scheme, N, h + 0.5 * tol)


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_critical_delay_low_order_finishes_beside_the_window(monkeypatch, ex1_system,
                                                             ex2_system, scheme):
    # At N = 4 the closure's crossing is 3.1e-5 (example 1, legendre) to
    # 0.30 (example 2, cheb) from the delay margin, on either side, so most
    # windows miss it and ITP finishes between the window and an end of the
    # bracket.  Each case takes fewer than the 11 closure eigen-solves of
    # ITP on the whole bracket (8 and 9 for cheb, 2 and 7 for legendre,
    # measured; 11, 10, 12 and 2 with kappa1 = 2 / (hi - lo) beside the
    # window), and still ends on a sign change.  Each evaluation builds one
    # closure, whether the certificate or an eigen-solve decides it.
    tol = 1e-4
    for system in (ex1_system, ex2_system):
        counts = {"closure": 0}
        with monkeypatch.context() as m:
            _count_calls(m, counts, "closure", lkapprox.functional, "build_model")
            h = critical_delay(system, scheme, N=4, bracket=(1.0, 10.0), tol=tol)
        assert counts["closure"] <= 9, counts
        assert _abscissa(system, scheme, 4, h - 0.5 * tol) < 0.0 <= _abscissa(
            system, scheme, 4, h + 0.5 * tol)


@pytest.mark.parametrize("h_e", [1.0 + 1e-9, 1.00004, 3.0, 6.0, 6.17, 6.3, 9.99996,
                                 10.0 - 1e-9])
@pytest.mark.parametrize("tol", [1e-4, 1e-9])
def test_critical_delay_holds_its_contract_from_any_seed(monkeypatch, ex2_system, h_e, tol):
    # The delay margin only places the windows: from a wrong one, with the
    # true crossing frequency for the certificate, the search still ends on
    # a closure sign change within ITP's bound for the bracket.
    omega = _delay_margin(ex2_system.A0, ex2_system.A1)[1]
    monkeypatch.setattr(lkapprox.functional, "_delay_margin", lambda A0, A1: (h_e, omega))
    counts = {"closure": 0}
    _count_calls(monkeypatch, counts, "closure", lkapprox.functional, "build_model")
    h = critical_delay(ex2_system, "legendre", N=10, bracket=(1.0, 10.0), tol=tol)
    assert counts["closure"] <= int(np.ceil(np.log2(9.0 / tol))) + 3, counts
    assert _abscissa(ex2_system, "legendre", 10, h - 0.5 * tol) < 0.0 <= _abscissa(
        ex2_system, "legendre", 10, h + 0.5 * tol)


@pytest.mark.parametrize("widen", [-1e-9, 1e-9])
def test_critical_delay_seeds_only_where_itp_can_finish(monkeypatch, ex1_system, widen):
    # tol^2 < 8 ulp(hi) (hi - lo): with (hi - lo) / tol just below 2^18, ITP
    # beside the window would take one bisection step past the bracket's
    # count, so the search starts from the bracket's ends; just above 2^18
    # it has a step to spare and the window comes first.
    system = RfdeSystem(ex1_system.A0 / 16.0, ex1_system.A1 / 16.0, 1.0)
    h_c = critical_delay(system, "legendre", N=10, bracket=(1.0, 200.0), tol=1e-11)
    tol = 1e-10
    lo = h_c - 0.3 * tol * 2.0 ** 18
    hi = lo + tol * 2.0 ** 18 * (1.0 + widen)
    omega = _delay_margin(system.A0, system.A1)[1]
    monkeypatch.setattr(lkapprox.functional, "_delay_margin",
                        lambda A0, A1: (lo + 0.1 * tol, omega))
    points = []
    build = lkapprox.functional.build_model

    def recorded(system, scheme, N):
        points.append(system.h)
        return build(system, scheme, N)

    monkeypatch.setattr(lkapprox.functional, "build_model", recorded)
    h = critical_delay(system, "legendre", N=10, bracket=(lo, hi), tol=tol)
    assert points[0] == lo and (points[1] == hi) == (widen < 0.0)
    assert len(points) <= int(np.ceil(np.log2((hi - lo) / tol))) + 3
    assert _abscissa(system, "legendre", 10, h - 0.5 * tol) < 0.0 <= _abscissa(
        system, "legendre", 10, h + 0.5 * tol)


def test_critical_delay_checks_each_bracket_end_it_reaches(monkeypatch, ex2_system,
                                                           ex2_h_crit):
    # Where the margin lies outside the bracket, or a seeded search reaches
    # an end of the bracket, the end raises the error it always raised.
    for bracket, match in (((6.5, 10.0), "lower bracket"), ((1.0, 6.0), "upper bracket")):
        with pytest.raises(ValueError, match=match):
            critical_delay(ex2_system, "legendre", N=10, bracket=bracket, tol=1e-4)
    # A0 + A1 is not Hurwitz: no margin, and the lower end is unstable.
    with pytest.raises(ValueError, match="lower bracket"):
        critical_delay(RfdeSystem([[0.5]], [[-0.2]], 1.0), "legendre", N=10)
    omega = _delay_margin(ex2_system.A0, ex2_system.A1)[1]
    for h_e, bracket, match in ((8.0, (6.5, 10.0), "lower bracket"),
                                (3.0, (1.0, 6.0), "upper bracket")):
        with monkeypatch.context() as m:
            m.setattr(lkapprox.functional, "_delay_margin", lambda A0, A1: (h_e, omega))
            with pytest.raises(ValueError, match=match):
                critical_delay(ex2_system, "legendre", N=10, bracket=bracket, tol=1e-4)
    # A window clipped at an end evaluates it: here it holds the crossing.
    h = critical_delay(ex2_system, "legendre", N=20, bracket=(1.0, ex2_h_crit + 1e-5),
                       tol=1e-4)
    assert abs(h - ex2_h_crit) <= 5e-5


def _critical_delay_outcomes(monkeypatch, caplog, ex2_system):
    """(h_critical or the ValueError's message, DEBUG evaluation counts) for
    window and whole-bracket searches and each bad bracket of
    `test_critical_delay_checks_each_bracket_end_it_reaches`."""
    runs = [(ex2_system, scheme, N, (1.0, 10.0), None)
            for scheme in ("legendre", "cheb") for N in (4, 10, 20)]
    runs += [(ex2_system, "legendre", 10, (1.0, 10.0), np.inf),   # whole bracket
             (ex2_system, "legendre", 10, (6.5, 10.0), None),
             (ex2_system, "legendre", 10, (1.0, 6.0), None),
             (RfdeSystem([[0.5]], [[-0.2]], 1.0), "legendre", 10, (1.0, 10.0), None),
             (ex2_system, "legendre", 10, (6.5, 10.0), 8.0),
             (ex2_system, "legendre", 10, (1.0, 6.0), 3.0)]
    margin = lkapprox.functional._delay_margin
    omega = margin(ex2_system.A0, ex2_system.A1)[1]
    out = []
    for system, scheme, N, bracket, h_e in runs:
        with monkeypatch.context() as m:
            if h_e is not None:
                seed = (h_e, omega if h_e < np.inf else None)
                m.setattr(lkapprox.functional, "_delay_margin", lambda A0, A1: seed)
            caplog.clear()
            try:
                with caplog.at_level(logging.DEBUG, logger="lkapprox"):
                    got = critical_delay(system, scheme, N=N, bracket=bracket, tol=1e-4)
            except ValueError as exc:
                got = str(exc)
            counts = [r.args[0] for r in caplog.records]
        out.append((got, counts))
    assert lkapprox.functional._delay_margin is margin
    return out


def _declined(A, omega):
    return None


def test_critical_delay_outcomes_do_not_depend_on_the_certificate(monkeypatch, caplog,
                                                                  ex2_system):
    # Where the certificate decides the window's upper end, the result, the
    # evaluation count and the bracket error the caller sees are those of
    # an eigen-solve there.
    certified = _critical_delay_outcomes(monkeypatch, caplog, ex2_system)
    monkeypatch.setattr(lkapprox.functional, "_certify_unstable", _declined)
    assert certified == _critical_delay_outcomes(monkeypatch, caplog, ex2_system)
    errors = [got for got, _ in certified if isinstance(got, str)]
    assert len(errors) == 5 and all("bracket" in e for e in errors), errors
    assert all(len(counts) == 1 for got, counts in certified if not isinstance(got, str))


def test_critical_delay_raises_the_lower_bracket_error_first(monkeypatch, ex2_system):
    # Both ends of the bracket wrong, unstable below and stable above: the
    # lower end's error, as the ends are evaluated one after the other.
    lower = build_model(dataclasses.replace(ex2_system, h=1.0), "legendre", 10).A
    monkeypatch.setattr(lkapprox.functional, "is_hurwitz",
                        lambda A: (False, 1.0) if np.array_equal(A, lower) else (True, -1.0))
    monkeypatch.setattr(lkapprox.functional, "_delay_margin", lambda A0, A1: (np.inf, None))
    with pytest.raises(ValueError, match="lower bracket"):
        critical_delay(ex2_system, "legendre", N=10, bracket=(1.0, 10.0), tol=1e-4)


def _delay_dependent(drawn):
    """x' = A1 x + A0 x(t - h) from a `_stable_systems` draw: the delayed
    term dominates (||A1||_2 < delta <= sigma_min(A0)), so an eigenvalue of
    A0^-1 (i omega - A1) moves from inside the unit circle at omega = 0 to
    outside as omega grows, and the system has a finite delay margin."""
    A0, A1 = drawn[:2]
    return A1, A0


def _outcome(system, scheme, N, bracket):
    try:
        return critical_delay(system, scheme, N=N, bracket=bracket, tol=1e-4)
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_stable_systems())
def test_certificate_never_certifies_a_stable_closure(drawn):
    # At both ends of the window, for both schemes and N in {4, 10, 20}: a
    # certified end has an eigenvalue at or right of the axis by
    # np.linalg.eigvals too, and the certified real part is that of one of
    # its eigenvalues (not always the rightmost: a draw with two crossings
    # 1e-6 apart certifies the other).
    A0, A1 = _delay_dependent(drawn)
    h_e, omega = _delay_margin(A0, A1)
    assert np.isfinite(h_e) and omega > 0.0
    for scheme, N, side in itertools.product(("legendre", "cheb"), (4, 10, 20), (-1, 1)):
        A = build_model(RfdeSystem(A0, A1, h_e + side * 0.5e-4), scheme, N).A
        found = _certify_unstable(A, omega)
        re_parts = np.linalg.eigvals(A).real
        if found is not None:
            re_lam, steps = found
            assert 0.0 <= re_lam and np.max(re_parts) >= 0.0 and 1 <= steps <= 8
            assert np.min(np.abs(re_parts - re_lam)) <= 1e-9


@pytest.mark.parametrize("re_part", [1e-14, -1e-14])
@pytest.mark.parametrize("seed", range(4))
def test_certificate_at_the_axis_of_a_normal_matrix(re_part, seed):
    # A normal matrix with eigenvalues re_part +- i omega, the rest at
    # -0.5 to -3: inverse iteration about i omega certifies the pair
    # exactly where it lies right of the axis.
    local = np.random.default_rng(seed)
    omega = local.uniform(0.5, 3.0)
    D = np.diag(np.append([re_part, re_part], -local.uniform(0.5, 3.0, 4)))
    D[0, 1], D[1, 0] = omega, -omega
    U = np.linalg.qr(local.standard_normal((6, 6)))[0]
    A = U @ D @ U.T
    found = _certify_unstable(A, omega)
    assert (np.max(np.linalg.eigvals(A).real) >= 0.0) == (re_part > 0.0)
    if re_part < 0.0:
        assert found is None
    else:
        assert found is not None and abs(found[0] - re_part) <= 1e-15


def test_certificate_declines_an_exact_zero_pivot():
    # i is an eigenvalue of the rotation generator, and the LU of A - i I
    # ends on an exact zero pivot: no certificate, though Re lam = 0.
    assert _certify_unstable(np.array([[0.0, 1.0], [-1.0, 0.0]]), 1.0) is None


def _upper_end(caplog, system, scheme, N):
    """critical_delay's result and how its window's upper end was decided."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="lkapprox"):
        h = critical_delay(system, scheme, N=N)
    (record,) = caplog.records
    return h, record.args[-1]


def test_critical_delay_falls_back_to_an_eigen_solve(monkeypatch, caplog, ex2_system):
    # At N = 4 the legendre closure of example 2 is still stable at the
    # window's upper end, so the certificate declines and an eigen-solve
    # decides it; on a zero pivot (here reported for every factorization)
    # the same happens at N = 20.  The results are those without a
    # certificate.
    h4, how = _upper_end(caplog, ex2_system, "legendre", 4)
    assert how == "full solve"
    h20, how = _upper_end(caplog, ex2_system, "legendre", 20)
    assert how.startswith("certified")
    getrf = lkapprox.linalg._getrf
    monkeypatch.setattr(lkapprox.linalg, "_getrf", lambda M: getrf(M)[:2] + (1,))
    assert _upper_end(caplog, ex2_system, "legendre", 20) == (h20, "full solve")
    monkeypatch.setattr(lkapprox.functional, "_certify_unstable", _declined)
    assert critical_delay(ex2_system, "legendre", N=4) == h4


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_stable_systems(), st.sampled_from(["legendre", "cheb"]),
       st.sampled_from([4, 10, 20]))
def test_critical_delay_is_the_same_without_the_certificate(drawn, scheme, N):
    # The search reads only the sign of a certified value, which is >= 0,
    # so where the certificate declines every time the result, or the
    # bracket error, is the same float or message.
    A0, A1 = _delay_dependent(drawn)
    h_e = _delay_margin(A0, A1)[0]
    system = RfdeSystem(A0, A1, 1.0)
    bracket = (0.5 * h_e, 2.0 * h_e)
    certified = _outcome(system, scheme, N, bracket)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(lkapprox.functional, "_certify_unstable", _declined)
        assert _outcome(system, scheme, N, bracket) == certified


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

    # Either truncation keeps the contract and the count: bisection's,
    # endpoints included, is ceil(log2(10 / tol)) + 2.
    for kappa1 in (2.0 / (hi - lo), 0.2 / (hi - lo)):
        calls.clear()
        a, b, steps = _itp(counted, lo, hi, counted(lo), counted(hi), tol,
                           int(np.ceil(np.log2((hi - lo) / tol))) + 1, kappa1)
        assert steps == len(calls) - 2
        assert b - a <= tol
        assert f(a) < 0.0 <= f(b)
        assert len(calls) <= int(np.ceil(np.log2((hi - lo) / tol))) + 3


def _scalar_margin(a, b):
    """(h, omega): the smallest h at which lam = a + b exp(-lam h) has a root
    i omega on the imaginary axis, for a + b < 0, with omega = sqrt(b^2 - a^2)
    and h = acos(-a/b) / omega, taken at unit scale |a| + |b| = s; (inf, None)
    where there is none."""
    if abs(b) <= -a:
        return math.inf, None
    s = abs(a) + abs(b)
    a, b = a / s, b / s
    omega = math.sqrt(b * b - a * a)
    return math.acos(-a / b) / omega / s, omega * s


@settings(max_examples=200, deadline=None)
@given(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
@example(a=0.0, b=-2.225073858507e-311)
def test_delay_margin_scalar(a, b):
    # Away from the boundaries a + b = 0 and |b| = -a, where the margin
    # jumps to infinity.  A subnormal scale puts the margin pi / (2 |b|)
    # past the float range, which counts as no crossing.
    scale = abs(a) + abs(b)
    assume(abs(a + b) > 1e-3 * scale and abs(abs(b) + a) > 1e-3 * scale)
    got, omega = _delay_margin(np.array([[a]]), np.array([[b]]))
    want, want_omega = _scalar_margin(a, b) if a + b < 0.0 else (np.inf, None)
    if np.isinf(want):
        assert got == np.inf and omega is None
    else:
        assert abs(got - want) <= 1e-12 * want
        assert abs(omega - want_omega) <= 1e-12 * want_omega


@pytest.mark.parametrize("seed", range(8))
def test_delay_margin_rotated_triangular_system(seed):
    # Lower-triangular A0 and A1 have the characteristic roots of their
    # diagonal pairs, so the margin is the smallest of theirs, also after
    # an orthogonal change of coordinates makes both matrices dense.
    local = np.random.default_rng(seed)
    n = 1 + seed % 6
    b = -local.uniform(0.2, 3.0, n)
    a = np.minimum(local.uniform(-3.0, 1.0, n), -b - 0.1)
    A0 = np.diag(a) + np.tril(local.standard_normal((n, n)), -1)
    A1 = np.diag(b) + np.tril(local.standard_normal((n, n)), -1)
    Q = np.linalg.qr(local.standard_normal((n, n)))[0]
    got, omega = _delay_margin(Q @ A0 @ Q.T, Q @ A1 @ Q.T)
    want, want_omega = min((_scalar_margin(x, y) for x, y in zip(a, b)),
                           key=lambda margin: margin[0])
    assert (got == want == np.inf and omega is want_omega is None) or (
        abs(got - want) <= 1e-10 * want and abs(omega - want_omega) <= 1e-10 * want_omega)


def test_delay_margin_special_cases(ex1_h_crit, ex2_system, ex2_h_crit):
    # Scaling both matrices by c scales the margin by 1/c.
    # The crossing frequency is example 2's sqrt(1 - 0.81), times c.
    for c in (1e-300, 1.0, 1e300):
        npt.assert_allclose(_delay_margin(c * ex2_system.A0, c * ex2_system.A1),
                            (ex2_h_crit / c, c * math.sqrt(0.19)), rtol=1e-13)
    # A rank-one A1: example 1's crossing in the first coordinate, none in
    # the second, whose delayed term vanishes.
    Q = np.linalg.qr(np.random.default_rng(5).standard_normal((2, 2)))[0]
    A0 = Q @ np.array([[-0.5, 0.0], [0.7, -2.0]]) @ Q.T
    A1 = Q @ np.array([[-1.0, 0.0], [0.3, 0.0]]) @ Q.T
    assert np.linalg.matrix_rank(A1) == 1
    npt.assert_allclose(_delay_margin(A0, A1)[0], ex1_h_crit, rtol=1e-12)
    # No delayed term, stable for every delay, and unstable at h = 0.
    stable = random_stable_rfde(np.random.default_rng(3), 3)
    for A0, A1 in ((ex2_system.A0, np.zeros((2, 2))), (stable.A0, stable.A1),
                   (np.array([[0.5]]), np.array([[-0.2]])),
                   (np.array([[-1.0]]), np.array([[1.0]]))):
        assert _delay_margin(A0, A1) == (np.inf, None)


def test_critical_delay_deterministic(ex2_system, ex2_h_crit, caplog):
    with caplog.at_level(logging.DEBUG, logger="lkapprox"):
        a = critical_delay(ex2_system, "legendre", N=10, bracket=(1.0, 10.0), tol=1e-3)
    b = critical_delay(ex2_system, "legendre", N=10, bracket=(1.0, 10.0), tol=1e-3)
    assert a == b
    # One DEBUG record: the evaluation count, the delay system's own margin,
    # the final bracket, the window around that margin, and how the window's
    # upper end was decided.
    (record,) = caplog.records
    assert record.name == "lkapprox.functional" and record.levelno == logging.DEBUG
    evaluations, h_e, lo, hi, upper_end = record.args
    assert evaluations <= 2 + int(np.ceil(np.log2(9.0 / 1e-3))) + 1
    assert evaluations == 2 and re.fullmatch(r"certified in [1-8] steps", upper_end)
    assert abs(h_e - ex2_h_crit) <= 1e-12 * ex2_h_crit
    assert hi - lo <= 1e-3 and a == 0.5 * (lo + hi) and lo < h_e < hi


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


def _same_bits(X, Y):
    """Equal entries and equal sign bits, so -0.0 and +0.0 differ."""
    return (X.shape == Y.shape and np.array_equal(X, Y)
            and np.array_equal(np.signbit(X), np.signbit(Y)))


@pytest.mark.parametrize("N", [1, 2, 5, 20])
@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_assembly_matches_kron_reference_bit_for_bit(monkeypatch, scheme, n, N):
    # The closure, the cost and P are the np.kron assemblies to the bit,
    # signed zeros included: LAPACK's Householder steps take the sign of a
    # zero, so a +0.0 where kron gives -0.0 can move the Schur factor and P.
    rng = np.random.default_rng(100 * n + N)
    system = random_stable_rfde(rng, n)
    # Negative off-diagonals in Q1 and Q2 (which is 0 at n = 1).
    off = np.ones((n, n)) - np.eye(n)
    weights = CostWeights(np.eye(n), np.eye(n) - 0.5 * off / n,
                          0.1 * ((n - 1) * np.eye(n) - off) / n)
    model = build_model(system, scheme, N)
    A, cost = kron_closure(system, scheme, N), kron_cost(model, weights)
    if scheme == "cheb" and n > 1:
        # kron(D, I) and kron(e_N e_N', W) hold -0.0 beside the negative
        # entries of D and W, so the sign-bit comparison below can fail.
        for M in (A, cost):
            assert np.any((M == 0.0) & np.signbit(M))
    assert _same_bits(model.A, A)

    costs = []
    real = lkapprox.functional.solve_lyapunov
    monkeypatch.setattr(lkapprox.functional, "solve_lyapunov",
                        lambda A, Q: costs.append(Q) or real(A, Q))
    fa = build_functional(system, weights, scheme, N)
    assert len(costs) == 1 and _same_bits(costs[0], cost)
    assert _same_bits(fa.P, kron_functional_matrix(model, weights))


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


# The base system and weights of the benchmark's sweep-small workload: its
# 40-point sweep over [0.5, 9.5] at N = 20 crosses example 2's margin.
_SWEEP_SMALL_WEIGHTS = CostWeights(np.diag([1.0, 1.5]), np.diag([1.2, 1.0]), np.zeros((2, 2)))
_SWEEP_SMALL_H = np.linspace(0.5, 9.5, 40)


def _sweep_systems(ex2_system, hs):
    return [RfdeSystem(ex2_system.A0, ex2_system.A1, float(h)) for h in hs]


@pytest.mark.parametrize("scheme", ["legendre", "cheb"])
def test_build_pass_runs_stage_major(monkeypatch, ex2_system, scheme):
    # A K-point pass makes K Schur factorizations and K triangular solves,
    # every factorization before any solve.
    calls = []
    gees, trsyl = lkapprox.linalg._gees, lkapprox.linalg._trsyl
    monkeypatch.setattr(lkapprox.linalg, "_gees",
                        lambda *args: calls.append("gees") or gees(*args))
    monkeypatch.setattr(lkapprox.linalg, "_trsyl",
                        lambda *args: calls.append("trsyl") or trsyl(*args))
    systems = _sweep_systems(ex2_system, np.linspace(1.0, 8.0, 7))
    fas = lkapprox.functional._build_pass(systems, _SWEEP_SMALL_WEIGHTS, scheme, 20)
    assert calls == ["gees"] * 7 + ["trsyl"] * 7
    assert [fa.system for fa in fas] == systems


@pytest.mark.parametrize("q2", [0.0, 0.3])
@pytest.mark.parametrize("scheme", ["legendre", "cheb"])
def test_build_pass_points_equal_lone_builds(ex2_system, scheme, q2):
    # Across the margin, every record of a pass and its k1 hold the bits of
    # the point's lone build_functional and k1.
    weights = dataclasses.replace(_SWEEP_SMALL_WEIGHTS, Q2=q2 * np.eye(2))
    systems = _sweep_systems(ex2_system, _SWEEP_SMALL_H[::3])
    fas = lkapprox.functional._build_pass(systems, weights, scheme, 20)
    bounds = [k1(fa, check_psd=False) for fa in fas]
    assert -np.inf in bounds and np.isfinite(bounds[0])
    for fa, bound, system in zip(fas, bounds, systems):
        solo = build_functional(system, weights, scheme, 20)
        assert np.array_equal(fa.P, solo.P) and not fa.P.flags.writeable
        for field in ("residual", "hurwitz", "max_re", "lam_min", "lam_max", "psd"):
            assert getattr(fa, field) == getattr(solo, field), field
        assert bound == k1(solo, check_psd=False)


def test_no_eigh_past_the_margin(monkeypatch, ex2_system):
    # The 15 points of the sweep-small sweep past the delay margin have an
    # indefinite history block far past the psd threshold: eigvalsh alone
    # rules their k1 -inf, without an eigendecomposition.
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda S: calls.append(S.shape) or eigh(S))
    fas = lkapprox.functional._build_pass(_sweep_systems(ex2_system, _SWEEP_SMALL_H),
                                          _SWEEP_SMALL_WEIGHTS, "legendre", 20)
    bounds = [k1(fa, check_psd=False) for fa in fas]
    assert bounds.count(-np.inf) == 15 and calls == []


@pytest.mark.parametrize("scheme", ["legendre", "cheb"])
def test_k1_across_the_margin_as_with_eigh_alone(monkeypatch, ex2_system, scheme):
    # The eigvalsh screen of the history block changes no k1: with it made
    # to pass every block on to eigh, the rule of eigh alone, each k1 of a
    # sweep across the margin is the same.
    systems = _sweep_systems(ex2_system, _SWEEP_SMALL_H)
    fas = lkapprox.functional._build_pass(systems, _SWEEP_SMALL_WEIGHTS, scheme, 20)
    screened = [k1(fa, check_psd=False) for fa in fas]
    eigvalsh = np.linalg.eigvalsh
    d = fas[0].P.shape[0]

    def unscreened(M, *args, **kwargs):
        w = eigvalsh(M, *args, **kwargs)
        return np.zeros_like(w) if M.shape == (d - 2, d - 2) else w

    monkeypatch.setattr(np.linalg, "eigvalsh", unscreened)
    assert [k1(fa, check_psd=False) for fa in fas] == screened
    assert screened.count(-np.inf) == 15


def _count_order_eigvalsh(monkeypatch, d):
    """A list that records each np.linalg.eigvalsh call on a d x d matrix."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(M, *args, **kwargs):
        if np.shape(M)[-2:] == (d, d):
            calls.append(np.shape(M))
        return eigvalsh(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.mark.parametrize("scheme", ["legendre", "cheb"])
def test_lam_extremes_take_one_eigvalsh_when_read(monkeypatch, ex2_system, ex2_weights,
                                                   scheme):
    # A positive definite P is ruled psd by its Cholesky factorization, so
    # the build runs no eigvalsh of P; the first read of lam_min runs one
    # for both extremes, and later reads none.
    calls = _count_order_eigvalsh(monkeypatch, 42)
    fa = build_functional(ex2_system, ex2_weights, scheme, 20)
    assert fa.psd and calls == []
    lam_min, lam_max = fa.lam_min, fa.lam_max
    assert (fa.lam_min, fa.lam_max) == (lam_min, lam_max) and len(calls) == 1
    w = np.linalg.eigvalsh(fa.P)
    assert (lam_min, lam_max) == (float(w[0]), float(w[-1])) and 0.0 < lam_min < lam_max


@pytest.mark.parametrize("scheme", ["legendre", "cheb"])
def test_indefinite_build_takes_its_one_eigvalsh_at_build(monkeypatch, ex2_system,
                                                          ex2_weights, scheme):
    # Where the factorization fails, the build's verdict takes eigvalsh(P),
    # and the extremes it read are those lam_min/lam_max give.
    calls = _count_order_eigvalsh(monkeypatch, 42)
    fa = build_functional(dataclasses.replace(ex2_system, h=7.0), ex2_weights, scheme, 20)
    assert not fa.psd and len(calls) == 1
    assert fa.lam_min < 0.0 < fa.lam_max and len(calls) == 1
    with pytest.raises(ValueError, match=re.escape(f"lam_min = {fa.lam_min:.3e}")):
        k1(fa)
    assert len(calls) == 1


def test_build_large_op_runs_no_eigvalsh_of_p(monkeypatch):
    # build_functional + k1 + evaluate at n = 6, N = 40 (d = 246), as in the
    # build-large benchmark, run no eigvalsh of P: k1 takes its on the 6 x 6
    # complement (the reader's Gauss rule may take one of its own order).
    local = np.random.default_rng(29)
    system = random_stable_rfde(local, 6)
    w = CostWeights(np.eye(6), np.eye(6), 0.3 * np.eye(6))
    shapes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda M, **kw: shapes.append(np.shape(M)) or eigvalsh(M, **kw))
    for scheme in ("legendre", "cheb"):
        fa = build_functional(system, w, scheme, 40)
        assert fa.psd
        k1(fa)
        evaluate(fa, FunctionSpec.named("exp-decay", 6))
    assert all(shape[-1] < 246 for shape in shapes), shapes
    assert shapes.count((6, 6)) >= 2
