"""Finite-dimensional ODE models of a linear system with one discrete delay.

The state segment x(t + theta), theta in [-h, 0], is approximated either by
its values on the Chebyshev grid (collocation) or by Legendre coefficients
(tau method).  Both closures are linear ODEs whose system matrices are built
here, together with what the functional needs of each scheme: the row that
reads phi(0) off the coordinates and the mass matrices of the history terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import legvander

from .linalg import DimensionError, _as_square, _symmetrized, is_hurwitz
from .spectral import (
    _check_h,
    _check_order,
    cheb_diffmat,
    cheb_nodes,
    gauss_legendre,
    transform_leg_to_chebvals,
)

__all__ = [
    "RfdeSystem",
    "CostWeights",
    "FunctionSpec",
    "DiscreteModel",
    "build_cheb_model",
    "build_leg_model",
    "build_model",
    "discretize_cheb",
    "discretize_leg",
    "condition1_check",
]

SCHEMES = ("cheb", "legendre")
# The coordinates of each scheme's closure, as `lk` reports them.
COORDINATES = {"cheb": "chebyshev-values", "legendre": "legendre-coefficients"}


def _finite(M, name):
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _square(M, n, name):
    M = np.asarray(M, dtype=float)
    if M.shape != (n, n):
        raise DimensionError(f"{name} must have shape ({n}, {n}), got {M.shape}")
    return _finite(M, name)


def _frozen_array(M):
    M = np.array(M, dtype=float)
    M.setflags(write=False)
    return M


@dataclass(frozen=True)
class RfdeSystem:
    """x'(t) = A0 x(t) + A1 x(t - h) with a single discrete delay h > 0."""

    A0: np.ndarray
    A1: np.ndarray
    h: float

    def __post_init__(self):
        A0 = _as_square(self.A0, "A0")
        A1 = _square(self.A1, A0.shape[0], "A1")
        object.__setattr__(self, "A0", _frozen_array(A0))
        object.__setattr__(self, "A1", _frozen_array(A1))
        object.__setattr__(self, "h", _check_h(self.h))

    @property
    def n(self):
        return self.A0.shape[0]


@dataclass(frozen=True)
class CostWeights:
    """Weights (Q0, Q1, Q2) of the prescribed functional derivative.

    The derivative along system trajectories is
    -x(t)' Q0 x(t) - x(t-h)' Q1 x(t-h) - int_{-h}^0 x(t+s)' Q2 x(t+s) ds.
    The complete-type contract asks for Q0 > 0, Q1 > 0, Q2 >= 0.
    """

    Q0: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray

    def __post_init__(self):
        n = _as_square(self.Q0, "Q0").shape[0]
        for name in ("Q0", "Q1", "Q2"):
            M = _square(getattr(self, name), n, name)
            object.__setattr__(self, name, _frozen_array(_symmetrized(M, name)))

    @property
    def n(self):
        return self.Q0.shape[0]

    def is_complete(self):
        """Whether Q0 > 0, Q1 > 0, and Q2 >= 0 (up to roundoff)."""
        w0 = np.linalg.eigvalsh(self.Q0)
        w1 = np.linalg.eigvalsh(self.Q1)
        w2 = np.linalg.eigvalsh(self.Q2)
        tol2 = -1e-12 * max(1.0, float(abs(w2[-1])))
        return bool(w0[0] > 0.0 and w1[0] > 0.0 and w2[0] >= tol2)

    def combined(self, h):
        """The lumped weight Q0 + Q1 + h Q2."""
        return self.Q0 + self.Q1 + float(h) * self.Q2


@dataclass(frozen=True)
class FunctionSpec:
    """An initial segment phi: [-h, 0] -> R^n in one of three forms.

    kind "constant": data is the constant vector.
    kind "polynomial": data is a (m+1, n) coefficient array, monomial in theta.
    kind "callable": data maps a scalar theta to an n-vector.
    """

    kind: str
    data: object
    n: int

    @staticmethod
    def constant(vec):
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        if vec.ndim != 1:
            raise DimensionError("constant spec takes a vector")
        _finite(vec, "constant segment")
        return FunctionSpec("constant", _frozen_array(vec), vec.size)

    @staticmethod
    def polynomial(coeffs):
        C = _finite(np.atleast_2d(np.asarray(coeffs, dtype=float)), "polynomial segment")
        return FunctionSpec("polynomial", _frozen_array(C), C.shape[1])

    @staticmethod
    def from_callable(fn: Callable, n: int):
        return FunctionSpec("callable", fn, _check_order(n, "dimension n"))

    @staticmethod
    def named(name, n):
        """Built-in segments: "one", "sin", and "exp-decay"."""
        n = _check_order(n, "dimension n")
        if name == "one":
            return FunctionSpec.constant(np.ones(n))
        if name == "sin":
            return FunctionSpec.from_callable(
                lambda theta: np.full(n, np.sin(theta)), n
            )
        if name == "exp-decay":
            return FunctionSpec.from_callable(
                lambda theta: np.full(n, np.exp(theta)), n
            )
        raise ValueError(f"unknown named segment {name!r}")

    def __call__(self, theta):
        """Pointwise value."""
        theta = float(theta)
        if self.kind == "constant":
            return np.asarray(self.data, dtype=float).copy()
        if self.kind == "polynomial":
            C = np.asarray(self.data)
            powers = theta ** np.arange(C.shape[0])
            return powers @ C
        out = np.atleast_1d(np.asarray(self.data(theta), dtype=float))
        if out.shape != (self.n,):
            raise DimensionError(
                f"callable segment returned shape {out.shape}, expected ({self.n},)"
            )
        return out


@dataclass(frozen=True)
class DiscreteModel:
    """One spectral ODE closure of an RfdeSystem, with the data of its functional.

    `A` is the closure matrix in the scheme's own coordinates c: grid values
    for "cheb", Legendre coefficient blocks for "legendre".  The row `e`
    reads phi(0) = kron(e', I) c off the coordinates, and the mass matrices
    give c' kron(M1, Q1) c = int phi' Q1 phi and
    c' kron(M2, Q2) c = int (h + s) phi' Q2 phi over [-h, 0].
    """

    scheme: str
    system: RfdeSystem
    N: int
    A: np.ndarray
    e: np.ndarray
    M1: np.ndarray
    M2: np.ndarray

    def __post_init__(self):
        for name in ("A", "e", "M1", "M2"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    @property
    def n(self):
        return self.system.n


def build_cheb_model(system, N):
    """Collocation closure on the N+1 Chebyshev nodes.

    The first N block rows differentiate the grid values; the last block row
    is exactly [A1, 0, ..., 0, A0], the delay equation read at theta = 0.
    The endpoint is the last grid value, and the mass matrices are the
    Clenshaw-Curtis rules diag(w) and diag(w (h + theta)).
    """
    n = system.n
    N = _check_order(N)
    grid = cheb_nodes(N, system.h)
    D = cheb_diffmat(N, system.h)
    top = np.kron(D[:N, :], np.eye(n))
    last = np.zeros((n, n * (N + 1)))
    last[:, :n] = system.A1
    last[:, n * N:] = system.A0
    w = grid.weights
    return DiscreteModel("cheb", system, N, np.vstack([top, last]),
                         np.eye(N + 1)[N], np.diag(w), np.diag(w * (system.h + grid.nodes)))


def build_leg_model(system, N):
    """Tau-method closure in Legendre coefficient coordinates.

    Block (j, k) is (2/h)(2j+1) I for j < N, k > j, j+k odd (the coefficient
    form of differentiation), and the last block row carries the delay
    equation A0 + (-1)^k A1 - (2/h) k(k+1)/2 I.

    phi(0) is the sum of all N+1 blocks (p_k(1) = 1).  The mass matrices are
    the exact moments of p_j p_k and (h + s) p_j p_k over the N history
    coefficients: M1 = diag(h/(2k+1)), and M2 = (h/2) M1 plus (h/2)^2 times
    2(k+1)/((2k+1)(2k+3)) beside the diagonal.  The last block, the
    endpoint matcher, carries no mass.
    """
    n = system.n
    N = _check_order(N)
    h = system.h
    Dc = np.zeros((N + 1, N + 1))
    for j in range(N):
        Dc[j, j + 1::2] = 2 * j + 1
    k = np.arange(N + 1, dtype=float)
    Dc[N, :] = -k * (k + 1.0) / 2.0
    A = (2.0 / h) * np.kron(Dc, np.eye(n))
    signs = (-1.0) ** np.arange(N + 1)
    A[n * N:, :] += np.hstack([system.A0 + s * system.A1 for s in signs])
    den = 2.0 * k[:N] + 1.0
    M1 = np.diag(np.append(h / den, 0.0))
    off = np.append(0.5 * h * h * k[1:N] / (den[:-1] * den[1:]), 0.0)
    M2 = 0.5 * h * M1 + np.diag(off, 1) + np.diag(off, -1)
    return DiscreteModel("legendre", system, N, A, np.ones(N + 1), M1, M2)


def build_model(system, scheme, N):
    """The closure of `system` for `scheme` (one of SCHEMES) at order N."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    # The builders are looked up as module globals on each call, so a
    # rebinding of either (as a tracing profiler does) reaches this path.
    if scheme == "cheb":
        return build_cheb_model(system, N)
    return build_leg_model(system, N)


def _check_dimensions(system, weights):
    """DimensionError unless the weights have the system's dimension."""
    if weights.n != system.n:
        raise DimensionError(
            f"weights are {weights.n}-dimensional but the system is {system.n}-dimensional"
        )


def _coordinates(model, phi):
    """Segment phi in the closure's coordinates: its Chebyshev grid values
    or its Legendre coefficients."""
    if model.scheme == "cheb":
        return discretize_cheb(phi, model.N, model.system.h)
    return discretize_leg(phi, model.N, model.system.h)


def _grid_map(model):
    """The map from the closure's coordinates to Chebyshev grid values, or
    None where the coordinates are the grid values."""
    if model.scheme == "cheb":
        return None
    return transform_leg_to_chebvals(model.N, model.n)[1]


def _sample_matrix(phi, thetas):
    return np.vstack([phi(theta) for theta in thetas])


def discretize_cheb(phi, N, h):
    """Stacked values of phi on the ascending Chebyshev grid."""
    return _sample_matrix(phi, cheb_nodes(N, h).nodes).reshape(-1)


def discretize_leg(phi, N, h):
    """Stacked Legendre coefficients of phi.

    Coefficients k < N come from Gauss quadrature of order N+2 against p_k
    (exact whenever phi is a polynomial of degree <= N).  The last block is
    the endpoint matcher phi(0) - sum_{k<N} zeta^k, so the represented
    segment always attains the true phi(0).
    """
    n = phi.n
    N = _check_order(N)
    if phi.kind == "constant":
        zeta = np.zeros(n * (N + 1))
        zeta[:n] = phi.data
        return zeta
    rule = gauss_legendre(N + 2, float(h))
    vals = _sample_matrix(phi, rule.nodes)              # (N+2, n)
    unit_w = rule.weights * (2.0 / float(h))            # weights on [-1, 1]
    unit_x = 2.0 * rule.nodes / float(h) + 1.0
    table = legvander(unit_x, N - 1)
    zeta = np.zeros(n * (N + 1))
    for k in range(N):
        coef = (2.0 * k + 1.0) / 2.0
        zeta[k * n:(k + 1) * n] = coef * ((unit_w * table[:, k]) @ vals)
    zeta[N * n:] = phi(0.0) - zeta[:N * n].reshape(N, n).sum(axis=0)
    return zeta


def _to_combined(M, e, n, rows=False):
    """M Ti (Ti' M Ti with rows) for the combined coordinates
    chi = (c^0..c^{N-1}, endpoint value), c = Ti chi.  With e_N = 1 (both
    schemes), Ti is the identity with the blocks -e_k I in its last block
    row, so e_k times the endpoint block is subtracted from each history
    block, rows first, in O(d^2 n).  Where e_k = 0 for every k < N
    (collocation) the coordinates are already combined and M is copied
    as it is."""
    M = np.array(M, dtype=float)
    if not np.any(e[:-1]):
        return M
    E = np.kron(e[:-1, None], np.eye(n))   # block k is e_k I
    if rows:
        M[:-n] -= E @ M[-n:]
    M[:, :-n] -= M[:, -n:] @ E.T
    return M


def condition1_check(model):
    """Hurwitz test of the state-free closure block.

    This is the leading nN x nN block of T A Ti, the closure in combined
    coordinates, whose first nN rows are those of A Ti.  For collocation it
    is the leading block of A itself (independent of A0 and A1).
    """
    p = model.n * model.N
    return is_hurwitz(_to_combined(model.A[:p], model.e, model.n)[:, :p])
