import mpmath
import numpy as np
import numpy.testing as npt
import pytest
from numpy.polynomial.legendre import legvander

from lkapprox import RfdeSystem
from lkapprox.discretize import build_leg_model
from lkapprox.spectral import cheb_diffmat, cheb_nodes, gauss_legendre

rng = np.random.default_rng(20240818)


def test_cheb_nodes_small_orders():
    npt.assert_allclose(cheb_nodes(1, 2.0).nodes, [-2.0, 0.0])
    npt.assert_allclose(cheb_nodes(2, 2.0).nodes, [-2.0, -1.0, 0.0], atol=1e-15)
    s = np.sqrt(2.0) / 2.0
    npt.assert_allclose(
        cheb_nodes(4, 2.0).nodes, [-2.0, -1.0 - s, -1.0, -1.0 + s, 0.0], atol=1e-15
    )


def test_cheb_nodes_ascending_with_exact_endpoints():
    for N in (1, 2, 7, 33, 128):
        grid = cheb_nodes(N, 0.7)
        assert len(grid) == N + 1
        assert grid.nodes[0] == -0.7 and grid.nodes[-1] == 0.0
        assert np.all(np.diff(grid.nodes) > 0.0)


def test_cheb_nodes_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cheb_nodes(0, 1.0)
    with pytest.raises(ValueError):
        cheb_nodes(4, -1.0)
    with pytest.raises(ValueError):
        cheb_nodes(4, np.inf)


def test_clenshaw_curtis_simpson():
    npt.assert_allclose(cheb_nodes(2, 2.0).weights, [1 / 3, 4 / 3, 1 / 3],
                        atol=1e-15)


def test_clenshaw_curtis_weights_positive_and_sum_to_h():
    for N in (1, 2, 3, 10, 47, 200):
        w = cheb_nodes(N, 2.2).weights
        assert np.all(w > 0.0)
        npt.assert_allclose(w.sum(), 2.2, rtol=1e-14)


def test_clenshaw_curtis_polynomial_exactness():
    h = 1.7
    for N in (2, 5, 8, 13):
        grid = cheb_nodes(N, h)
        for deg in range(N + 1):
            val = grid.weights @ grid.nodes**deg
            exact = (0.0 - (-h) ** (deg + 1)) / (deg + 1)
            npt.assert_allclose(val, exact, rtol=1e-12, atol=1e-13 * h**deg)


def test_cheb_diffmat_polynomial_exactness():
    h = 2.0
    for N in (1, 4, 9, 16):
        grid = cheb_nodes(N, h)
        D = cheb_diffmat(N, h)
        npt.assert_allclose(D @ np.ones(N + 1), np.zeros(N + 1), atol=1e-12)
        for deg in range(1, N + 1):
            vals = grid.nodes**deg
            dvals = deg * grid.nodes ** (deg - 1)
            npt.assert_allclose(D @ vals, dvals, atol=1e-10 * max(1.0, h**deg) * N**2)


def test_cheb_diffmat_scaling():
    npt.assert_allclose(cheb_diffmat(6, 3.0), (2.0 / 3.0) * cheb_diffmat(6, 2.0))


def test_cheb_diffmat_negative_sum_diagonal():
    D = cheb_diffmat(12, 1.3)
    npt.assert_allclose(np.diag(D), np.diag(D) - D.sum(axis=1), atol=1e-11)


def test_gauss_legendre_small_rules():
    one = gauss_legendre(1, 2.0)
    npt.assert_allclose(one.nodes, [-1.0], atol=1e-15)
    npt.assert_allclose(one.weights, [2.0])
    two = gauss_legendre(2, 2.0)
    r = 1.0 / np.sqrt(3.0)
    npt.assert_allclose(two.nodes, [-1.0 - r, -1.0 + r], atol=1e-15)
    npt.assert_allclose(two.weights, [1.0, 1.0], atol=1e-15)


def test_gauss_legendre_degree_nine_exactness():
    rule = gauss_legendre(5, 1.0)
    npt.assert_allclose(rule.weights @ rule.nodes**9, -0.1, atol=1e-12)


def test_gauss_legendre_exactness_and_symmetry():
    h = 2.6
    for count in (1, 3, 6, 12):
        rule = gauss_legendre(count, h)
        assert np.all(rule.nodes > -h) and np.all(rule.nodes < 0.0)
        npt.assert_allclose(rule.nodes + h, -rule.nodes[::-1], atol=1e-13)
        for deg in range(2 * count):
            val = rule.weights @ rule.nodes**deg
            exact = (0.0 - (-h) ** (deg + 1)) / (deg + 1)
            npt.assert_allclose(val, exact, rtol=1e-11, atol=1e-12 * h**deg)


def test_gauss_legendre_matches_extended_precision():
    # 40-digit reference: Newton on P_n from the float nodes, then
    # w = 2 / ((1 - x^2) P_n'(x)^2) with P_n' = n (x P_n - P_{n-1}) / (x^2 - 1).
    # On h = 2 the grid is the unit rule shifted by -1.
    with mpmath.workdps(40):
        for count in (3, 12, 42, 160):
            rule = gauss_legendre(count, 2.0)
            ref_x, ref_w = [], []
            for node in rule.nodes:
                # Quadratic convergence from a double: the last step's x and
                # P_n' are exact to the working precision.
                x = mpmath.mpf(float(node)) + 1
                for _ in range(3):
                    p = mpmath.legendre(count, x)
                    dp = count * (x * p - mpmath.legendre(count - 1, x)) / (x * x - 1)
                    x -= p / dp
                ref_x.append(float(x - 1))
                ref_w.append(float(2 / ((1 - x * x) * dp * dp)))
            npt.assert_allclose(rule.nodes, ref_x, rtol=0.0, atol=1e-15)
            npt.assert_allclose(rule.weights, ref_w, rtol=0.0, atol=1e-14)


def test_gauss_matches_clenshaw_curtis_on_random_polys():
    h = 2.0
    for _ in range(10):
        coeffs = rng.standard_normal(7)
        cc = cheb_nodes(8, h)
        g = gauss_legendre(8, h)
        val_cc = cc.weights @ np.polyval(coeffs, cc.nodes)
        val_g = g.weights @ np.polyval(coeffs, g.nodes)
        npt.assert_allclose(val_cc, val_g, rtol=1e-12, atol=1e-12)


def _to_grid(N, h=2.0):
    """The tau model's map from Chebyshev grid values to Legendre coefficients."""
    return build_leg_model(RfdeSystem([[-1.0]], [[0.0]], h), N).to_grid


def _leg_values(N):
    """Legendre values p_k(vartheta_j) on the unit Chebyshev grid."""
    return legvander(2.0 * cheb_nodes(N, 2.0).nodes / 2.0 + 1.0, N)


def test_transform_small_case():
    npt.assert_allclose(_leg_values(1), [[1.0, -1.0], [1.0, 1.0]])
    npt.assert_allclose(_to_grid(1), [[0.5, 0.5], [-0.5, 0.5]])


def test_transform_endpoint_block_rows():
    # The grid's end values of the represented segment are phi(-h), read by
    # the row (-1)^k, and phi(0), read by the model's endpoint row e.
    N = 5
    to_values = np.linalg.inv(_to_grid(N))
    npt.assert_allclose(to_values[0], (-1.0) ** np.arange(N + 1), atol=1e-14)
    npt.assert_allclose(to_values[-1], np.ones(N + 1), atol=1e-14)


def test_transform_round_trip():
    for N in (3, 8, 20):
        err = np.linalg.norm(_leg_values(N) @ _to_grid(N) - np.eye(N + 1), "fro")
        assert err <= 1e-10 * (N + 1)


def test_transform_recovers_basis_coefficient():
    # Sampling p_3 on the N=5 grid and transforming back isolates e_3.
    N = 5
    grid = cheb_nodes(N, 2.0)
    unit = 2.0 * grid.nodes / 2.0 + 1.0
    samples = legvander(unit, 3)[:, 3]
    npt.assert_allclose(_to_grid(N) @ samples, np.eye(N + 1)[3], atol=1e-12)


def test_transform_consistency_with_direct_evaluation():
    N = 9
    coeffs = rng.standard_normal(N + 1)
    grid = cheb_nodes(N, 1.0)
    unit = 2.0 * grid.nodes + 1.0
    direct = legvander(unit, N) @ coeffs
    npt.assert_allclose(_to_grid(N, 1.0) @ direct, coeffs, atol=1e-11)
