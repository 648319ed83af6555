import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from numpy.polynomial.legendre import legvander

from helpers import legendre_cost, newton_char_root
from lkapprox import CostWeights, FunctionSpec, RfdeSystem
from lkapprox.discretize import (
    SCHEMES,
    build_cheb_model,
    build_leg_model,
    build_model,
    discretize_cheb,
    discretize_leg,
)
from lkapprox.linalg import DimensionError, eigenvalues, is_hurwitz
from lkapprox.spectral import cheb_nodes

rng = np.random.default_rng(20240819)


def _rightmost(A):
    lam = eigenvalues(A)
    lam = lam[np.argmax(lam.real)]
    return lam if lam.imag >= 0 else np.conj(lam)


def test_system_validation():
    with pytest.raises(DimensionError):
        RfdeSystem(np.ones((2, 3)), np.ones((2, 2)), 1.0)
    with pytest.raises(DimensionError):
        RfdeSystem(np.eye(2), np.eye(3), 1.0)
    with pytest.raises(ValueError):
        RfdeSystem(np.eye(2), np.eye(2), -1.0)
    with pytest.raises(ValueError):
        RfdeSystem([[np.nan]], [[0.0]], 1.0)
    sys_ = RfdeSystem(np.eye(2), np.zeros((2, 2)), 0.5)
    assert sys_.n == 2 and sys_.h == 0.5


def test_weights_validation_and_flags():
    with pytest.raises(ValueError):
        CostWeights([[1.0, 1.0], [0.0, 1.0]], np.eye(2), np.zeros((2, 2)))
    w = CostWeights(np.eye(2), 2 * np.eye(2), np.zeros((2, 2)))
    assert w.is_complete()
    npt.assert_allclose(w.combined(3.0), 3 * np.eye(2))
    w2 = CostWeights(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))
    assert not w2.is_complete()
    w3 = CostWeights(np.eye(1), np.eye(1), [[0.5]])
    npt.assert_allclose(w3.combined(2.0), [[3.0]])


def test_function_spec_variants():
    c = FunctionSpec.constant([1.0, -2.0])
    npt.assert_allclose(c(-0.3), [1.0, -2.0])
    p = FunctionSpec.polynomial([[0.0], [1.0], [2.0]])
    npt.assert_allclose(p(-1.0), [1.0])  # 0 + theta + 2 theta^2 at -1
    f = FunctionSpec(lambda thetas: np.cos(thetas)[:, None], 1)
    npt.assert_allclose(f(0.0), [1.0])
    one = FunctionSpec.named("one", 3)
    npt.assert_allclose(one(-1.0), np.ones(3))
    npt.assert_allclose(FunctionSpec.named("sin", 1)(-0.7), [np.sin(-0.7)])
    npt.assert_allclose(FunctionSpec.named("exp-decay", 2)(-1.0),
                        np.full(2, np.exp(-1.0)))
    with pytest.raises(ValueError):
        FunctionSpec.named("pulse", 1)


_SEGMENTS = {
    "constant": lambda: FunctionSpec.constant([1.0, -2.0, 0.5]),
    "polynomial": lambda: FunctionSpec.polynomial(
        [[0.5, 1.0, -3.0], [1.0, -1.0, 0.0], [2.0, 0.25, 1e-3], [-0.7, 0.0, 4.0]]),
    "sampler": lambda: FunctionSpec(
        lambda thetas: np.stack([np.cos(thetas), thetas, np.exp(2.0 * thetas)], axis=1), 3),
    "named-one": lambda: FunctionSpec.named("one", 3),
    "named-sin": lambda: FunctionSpec.named("sin", 3),
    "named-exp-decay": lambda: FunctionSpec.named("exp-decay", 3),
}


@pytest.mark.parametrize("make", _SEGMENTS.values(), ids=_SEGMENTS.keys())
def test_function_spec_sample_matches_pointwise(make):
    # One vectorized call gives, row by row, the pointwise values.
    phi = make()
    thetas = np.concatenate([cheb_nodes(16, 2.3).nodes, rng.uniform(-2.3, 0.0, 5)])
    vals = phi.sample(thetas)
    assert vals.shape == (thetas.size, 3)
    for theta, row in zip(thetas, vals):
        npt.assert_array_equal(row, phi(theta))
    assert phi.sample(np.empty(0)).shape == (0, 3)


@pytest.mark.parametrize("n", [2.7, True, 0, "2"])
@pytest.mark.parametrize("make", [
    lambda n: FunctionSpec.named("sin", n),
    lambda n: FunctionSpec.named("one", n),
], ids=["named-sin", "named-one"])
def test_function_spec_dimension_is_an_integer_at_least_one(make, n):
    # The rule of every size argument: a float is not truncated, a bool is
    # not 1, and the error comes at construction, not at first evaluation.
    with pytest.raises(ValueError, match="dimension n must be an integer >= 1"):
        make(n)


def test_function_spec_constant_takes_a_vector():
    with pytest.raises(DimensionError, match="takes a vector"):
        FunctionSpec.constant([[1.0, 2.0]])


def test_function_spec_rejects_non_finite_entries():
    # A config's JSON may hold the literals NaN and Infinity.
    with pytest.raises(ValueError, match="non-finite"):
        FunctionSpec.constant([np.nan, 1.0])
    with pytest.raises(ValueError, match="non-finite"):
        FunctionSpec.polynomial([[1.0, np.inf]])


def test_cheb_model_scalar_order_one():
    model = build_cheb_model(RfdeSystem([[-0.5]], [[-1.0]], 2.0), 1)
    npt.assert_allclose(model.A, [[-0.5, 0.5], [-1.0, -0.5]])


def test_cheb_model_boundary_row_exact(ex2_system):
    n, N = 2, 9
    model = build_cheb_model(ex2_system, N)
    last = np.asarray(model.A[n * N:, :])
    npt.assert_array_equal(last[:, :n], ex2_system.A1)
    npt.assert_array_equal(last[:, n * N:], ex2_system.A0)
    npt.assert_array_equal(last[:, n:n * N], np.zeros((n, n * (N - 1))))


def test_cheb_model_top_rows_annihilate_constants(ex2_system):
    model = build_cheb_model(ex2_system, 12)
    ones = np.tile(np.eye(2), (13, 1))
    npt.assert_allclose(model.A[:24] @ ones, np.zeros((24, 2)), atol=1e-11)


def test_cheb_model_rightmost_matches_characteristic_root(ex1_system):
    model = build_cheb_model(ex1_system, 16)
    r = _rightmost(model.A)
    root = newton_char_root(r, ex1_system.A0, ex1_system.A1, ex1_system.h)
    assert abs(r - root) < 1e-8


def test_leg_model_scalar_order_one():
    a, b, h = -0.5, -1.0, 2.0
    model = build_leg_model(RfdeSystem([[a]], [[b]], h), 1)
    npt.assert_allclose(model.A, [[0.0, 2 / h], [a + b, a - b - 2 / h]])


def test_leg_model_scalar_order_two():
    a, b, h = 0.3, -0.7, 2.0
    model = build_leg_model(RfdeSystem([[a]], [[b]], h), 2)
    npt.assert_allclose(model.A[0], [0.0, 2 / h, 0.0])
    npt.assert_allclose(model.A[1], [0.0, 0.0, 3 * 2 / h])
    npt.assert_allclose(model.A[2],
                        [a + b, a - b - 2 / h, a + b - 6 / h])


def test_leg_model_sparsity_pattern(ex2_system):
    n, N = 2, 7
    A = np.asarray(build_leg_model(ex2_system, N).A)
    for j in range(N):
        for k in range(N + 1):
            block = A[j * n:(j + 1) * n, k * n:(k + 1) * n]
            if k > j and (j + k) % 2 == 1:
                npt.assert_allclose(
                    block, (2.0 / ex2_system.h) * (2 * j + 1) * np.eye(n)
                )
            else:
                npt.assert_array_equal(block, np.zeros((n, n)))


def test_scheme_dispatch_builds_each_closure(ex2_system):
    for scheme, builder in (("cheb", build_cheb_model), ("legendre", build_leg_model)):
        model = build_model(ex2_system, scheme, 6)
        assert model.scheme == scheme
        npt.assert_array_equal(model.A, builder(ex2_system, 6).A)
    with pytest.raises(ValueError, match="unknown scheme"):
        build_model(ex2_system, "fourier", 6)


@pytest.mark.parametrize("scheme", ["cheb", "legendre"])
def test_model_reads_segments_into_its_coordinates(ex2_system, scheme):
    # A polynomial segment of degree <= N is represented exactly: its
    # coordinates give back phi(0) through e, and they are to_grid applied
    # to its values on the Chebyshev grid (the identity for cheb).
    N, n, h = 9, ex2_system.n, ex2_system.h
    model = build_model(ex2_system, scheme, N)
    phi = FunctionSpec.polynomial(np.random.default_rng(22).standard_normal((N + 1, n)))
    c = model.read(phi)
    phi0 = phi(0.0)
    npt.assert_allclose(np.kron(model.e, np.eye(n)) @ c, phi0,
                        rtol=1e-13, atol=1e-13 * np.abs(phi0).max())
    T = np.eye(N + 1) if model.to_grid is None else model.to_grid
    values = phi.sample(cheb_nodes(N, h).nodes).reshape(-1)
    npt.assert_allclose(c, np.kron(T, np.eye(n)) @ values,
                        rtol=1e-13, atol=1e-13 * np.abs(c).max())
    assert model.coordinates == {"cheb": "chebyshev-values",
                                 "legendre": "legendre-coefficients"}[scheme]


def test_leg_model_similarity_spectrum(ex2_system):
    model = build_leg_model(ex2_system, 12)
    T_vc = np.kron(model.to_grid, np.eye(ex2_system.n))
    A_y = np.linalg.solve(T_vc, model.A @ T_vc)
    lam_zeta = np.sort_complex(eigenvalues(model.A))
    lam_y = np.sort_complex(eigenvalues(A_y))
    npt.assert_allclose(lam_y, lam_zeta, atol=1e-8)


def test_spectral_convergence_cheb(ex1_system):
    r = {N: _rightmost(build_cheb_model(ex1_system, N).A) for N in (8, 16, 32)}
    assert abs(r[32] - r[16]) <= abs(r[16] - r[8]) / 10.0


def test_spectral_convergence_legendre(ex1_system):
    # The tau closure reaches machine precision by N=8, so the converging
    # window sits one octave lower; past it the differences are eigensolver
    # noise.  See "Convergence floor" in the README's Testing section.
    r = {N: _rightmost(build_leg_model(ex1_system, N).A) for N in (4, 8, 16, 32)}
    assert abs(r[16] - r[8]) <= abs(r[8] - r[4]) / 10.0
    assert abs(r[32] - r[16]) <= 1e-12


def test_legendre_cost_corner_only():
    # Without an integral term the tau cost is the grid cost's corner
    # blocks, Q1 at theta = -h and Q0 at theta = 0, pulled back through the
    # coefficient-to-values map.
    n, N = 2, 4
    R0, R1 = rng.standard_normal((2, n, n))
    w = CostWeights(R0 @ R0.T, R1 @ R1.T, np.zeros((n, n)))
    Q = np.zeros((n * (N + 1), n * (N + 1)))
    Q[:n, :n] = w.Q1
    Q[-n:, -n:] = w.Q0
    T_cv = np.kron(legvander(cheb_nodes(N, 2.0).nodes + 1.0, N), np.eye(n))
    npt.assert_allclose(legendre_cost(w, N, 2.0), T_cv.T @ Q @ T_cv, atol=1e-14)


def test_legendre_cost_weight_sequence():
    n, N, h = 2, 3, 2.0
    R = rng.standard_normal((n, n))
    w = CostWeights(np.zeros((n, n)), np.zeros((n, n)), R @ R.T)
    npt.assert_allclose(legendre_cost(w, N, h),
                        np.kron(np.diag([2.0, 2 / 3, 2 / 5, 2.0]), w.Q2),
                        atol=1e-15)


def test_legendre_cost_constant_integral():
    n, N, h = 2, 5, 2.2
    R = rng.standard_normal((n, n))
    Q2 = R @ R.T
    w = CostWeights(np.zeros((n, n)), np.zeros((n, n)), Q2)
    c = rng.standard_normal(n)
    zeta = np.zeros(n * (N + 1))
    zeta[:n] = c
    npt.assert_array_equal(zeta, discretize_leg(FunctionSpec.constant(c), N, h))
    npt.assert_allclose(zeta @ legendre_cost(w, N, h) @ zeta,
                        h * c @ Q2 @ c, rtol=1e-10)


def test_discretize_cheb_examples():
    one = FunctionSpec.constant([1.0])
    npt.assert_allclose(discretize_cheb(one, 3, 2.0), np.ones(4))
    theta = FunctionSpec.polynomial([[0.0], [1.0]])
    npt.assert_allclose(discretize_cheb(theta, 2, 2.0), [-2.0, -1.0, 0.0],
                        atol=1e-15)


def test_discretize_cheb_interpolant_accuracy():
    # Barycentric interpolation through the grid values reproduces sin
    # between nodes; Lobatto weights are (-1)^j, halved at the endpoints.
    N, h = 16, 2.2
    grid = cheb_nodes(N, h)
    y = discretize_cheb(FunctionSpec.named("sin", 1), N, h)
    wts = (-1.0) ** np.arange(N + 1)
    wts[0] *= 0.5
    wts[-1] *= 0.5

    def interp(t):
        diffs = t - grid.nodes
        hit = np.isclose(diffs, 0.0, atol=1e-14)
        if hit.any():
            return y[np.argmax(hit)]
        terms = wts / diffs
        return (terms @ y) / terms.sum()

    # -1.1 is the middle grid node; -0.9 sits between nodes.
    for t in (-1.1, -0.9):
        npt.assert_allclose(interp(t), np.sin(t), atol=1e-10)


def test_discretize_leg_constant():
    zeta = discretize_leg(FunctionSpec.constant([3.0, -1.0]), 4, 2.0)
    expected = np.zeros(10)
    expected[:2] = [3.0, -1.0]
    npt.assert_array_equal(zeta, expected)


def test_discretize_leg_reproduces_basis_vector():
    h = 2.0
    p3 = FunctionSpec(lambda thetas: legvander(2 * thetas / h + 1.0, 3)[:, 3:], 1)
    zeta = discretize_leg(p3, 5, h)
    npt.assert_allclose(zeta, np.eye(6)[3], atol=1e-12)


def test_discretize_leg_matches_cheb_for_polynomials():
    n, N, h = 2, 5, 1.5
    coeffs = rng.standard_normal((N + 1, n))
    phi = FunctionSpec.polynomial(coeffs)
    zeta = discretize_leg(phi, N, h)
    T_cv = np.kron(legvander(2.0 * cheb_nodes(N, h).nodes / h + 1.0, N), np.eye(n))
    npt.assert_allclose(T_cv @ zeta, discretize_cheb(phi, N, h), atol=1e-10)


def test_discretize_leg_series_reproduces_low_degree_polys():
    # Degree <= N-1 input: the endpoint matcher vanishes and the truncated
    # series equals the polynomial on the whole interval.
    N, h = 6, 2.0
    coeffs = rng.standard_normal((N, 1))
    phi = FunctionSpec.polynomial(coeffs)
    zeta = discretize_leg(phi, N, h)
    assert abs(zeta[-1]) <= 1e-10
    thetas = np.linspace(-h, 0.0, 11)
    table = legvander(2.0 * thetas / h + 1.0, N)
    series = table @ zeta
    exact = np.array([phi(t)[0] for t in thetas])
    npt.assert_allclose(series, exact, atol=1e-10)


def _state_free_block(model, n, N):
    # Leading nN block of the closure in the combined coordinates
    # (c^0..c^{N-1}, phi(0)): the part of the dynamics Condition 1 is about.
    p = n * N
    Ti = np.eye(p + n)
    Ti[-n:, :-n] = -np.kron(model.e[:-1], np.eye(n))
    return (model.A @ Ti)[:p, :p]


def test_condition1_independent_of_system_matrices():
    # The state-free block holds neither A0 nor A1: two systems that share h
    # give the same block, hence the same Hurwitz verdict and abscissa.
    h, N = 2.0, 8
    for scheme in SCHEMES:
        m1 = build_model(RfdeSystem([[5.0]], [[7.0]], h), scheme, N)
        m2 = build_model(RfdeSystem([[-1.0]], [[0.0]], h), scheme, N)
        b1, b2 = _state_free_block(m1, 1, N), _state_free_block(m2, 1, N)
        npt.assert_allclose(b1, b2, rtol=0.0, atol=1e-12)
        assert is_hurwitz(b1) == is_hurwitz(b2)


def test_condition1_true_for_both_schemes():
    # Condition 1: the state-free block of the closure, its leading nN block
    # in the combined coordinates (c^0..c^{N-1}, phi(0)), is Hurwitz.  That
    # block holds neither A0 nor A1, and h only scales it, so h times its
    # spectral abscissa depends on the scheme and N alone: at most -1 for
    # cheb and -2 for legendre, both reached at N = 1.
    local = np.random.default_rng(33)
    bound = {"cheb": -1.0, "legendre": -2.0}
    for scheme in SCHEMES:
        for N in range(1, 81):
            reference = None
            for n in (1, 2):
                h = local.uniform(0.1, 10.0)
                A0, A1 = local.standard_normal((2, n, n))
                model = build_model(RfdeSystem(A0, A1, h), scheme, N)
                ok, abscissa = is_hurwitz(_state_free_block(model, n, N))
                assert ok
                scaled = h * abscissa
                assert scaled <= bound[scheme] * (1.0 - 1e-13)
                if N == 1:
                    npt.assert_allclose(scaled, bound[scheme], rtol=1e-13)
                if reference is None:
                    reference = scaled
                npt.assert_allclose(scaled, reference, rtol=1e-8)
