"""Finite-dimensional ODE models of a linear system with one discrete delay.

The state segment x(t + theta), theta in [-h, 0], is approximated either by
its values on the Chebyshev grid (collocation) or by Legendre coefficients
(tau method).  Both closures are linear ODEs whose system matrices are built
here with all else that depends on the scheme (`DiscreteModel`), and only
`build_model` tells the schemes apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import legvander
from numpy.polynomial.polynomial import polyval

from .linalg import DimensionError, _as_square, _finite, _kron, _symmetrized
from .spectral import (
    _check_h,
    _check_order,
    _unit_leg_cheb,
    cheb_diffmat,
    cheb_nodes,
    gauss_legendre,
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
]

SCHEMES = ("cheb", "legendre")
_SEGMENTS = {"one": np.ones_like, "sin": np.sin, "exp-decay": np.exp}


def _frozen_array(M):
    M = np.array(M, dtype=float)
    M.setflags(write=False)
    return M


# The records hold arrays, whose == is elementwise and which do not hash, so
# they compare and hash by identity (eq=False), as in the other modules.
@dataclass(frozen=True, eq=False)
class RfdeSystem:
    """x'(t) = A0 x(t) + A1 x(t - h) with a single discrete delay h > 0."""

    A0: np.ndarray
    A1: np.ndarray
    h: float

    def __post_init__(self):
        A0 = _as_square(self.A0, "A0")
        A1 = _as_square(self.A1, "A1", A0.shape[0])
        object.__setattr__(self, "A0", _frozen_array(A0))
        object.__setattr__(self, "A1", _frozen_array(A1))
        object.__setattr__(self, "h", _check_h(self.h))

    @property
    def n(self):
        return self.A0.shape[0]


@dataclass(frozen=True, eq=False)
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
            M = _as_square(getattr(self, name), name, n)
            object.__setattr__(self, name, _frozen_array(_symmetrized(M, name)))

    @property
    def n(self):
        return self.Q0.shape[0]

    def is_complete(self):
        """Whether Q0 > 0, Q1 > 0, and Q2 >= 0 (up to roundoff)."""
        return self._complete

    @cached_property
    def _complete(self):   # once per record: the weights are frozen
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
    """An initial segment phi: [-h, 0] -> R^n, given by its sampler.

    `sample(thetas)` maps a 1-d array of m values of theta to the (m, n)
    array of phi's values there.
    """

    sample: Callable
    n: int

    @staticmethod
    def constant(vec):
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        if vec.ndim != 1:
            raise DimensionError("constant spec takes a vector")
        vec = _frozen_array(_finite(vec, "constant segment"))
        return FunctionSpec(lambda thetas: np.tile(vec, (len(thetas), 1)), vec.size)

    @staticmethod
    def polynomial(coeffs):
        """Rows of coeffs are the theta-monomial coefficients, lowest degree first.

        Sampled by Horner's rule, entry by entry, so a value does not depend
        on the other thetas sampled with it.
        """
        C = _frozen_array(_finite(np.atleast_2d(np.asarray(coeffs, dtype=float)),
                                  "polynomial segment"))
        return FunctionSpec(lambda thetas: polyval(thetas, C).T, C.shape[1])

    @staticmethod
    def named(name, n):
        """The built-in segment `name` of `_SEGMENTS`, repeated over n components."""
        n = _check_order(n, "dimension n")
        ufunc = _SEGMENTS.get(name)
        if ufunc is None:
            raise ValueError(f"unknown named segment {name!r}")
        return FunctionSpec(lambda thetas: np.repeat(ufunc(thetas)[:, None], n, axis=1), n)

    def __call__(self, theta):
        """Pointwise value."""
        return self.sample(np.array([float(theta)]))[0]


@dataclass(frozen=True, eq=False)
class DiscreteModel:
    """One spectral ODE closure of an RfdeSystem, with the data of its functional.

    The builders set every field.  `A` is the closure matrix in the scheme's
    own coordinates c, which `coordinates` names for `lk`: grid values for
    "cheb", Legendre coefficient blocks for "legendre".  The row `e` reads
    phi(0) = kron(e', I) c off the coordinates, and the mass matrices give
    c' kron(M1, Q1) c = int phi' Q1 phi and c' kron(M2, Q2) c =
    int (h + s) phi' Q2 phi over [-h, 0].  `read` maps a FunctionSpec to its
    stacked coordinates c, and `to_grid` is the (N+1) x (N+1) map T with
    c = kron(T, I) v for the grid values v of the represented segment, or
    None where c is v.
    """

    scheme: str
    system: RfdeSystem
    N: int
    A: np.ndarray
    e: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    coordinates: str
    read: Callable
    to_grid: np.ndarray | None

    def __post_init__(self):
        for name in ("A", "e", "M1", "M2"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))


def _closure(system, D, e, r):
    """kron(D, I) plus kron(e, A0) + kron(r, A1) in its last block row, the
    delay equation read through phi(0) = kron(e', I) c and phi(-h) = kron(r', I) c."""
    n = system.n
    A = _kron(D, np.eye(n))
    A[-n:] += _kron(e[None], system.A0) + _kron(r[None], system.A1)
    return A


def build_cheb_model(system, N):
    """Collocation closure on the N+1 Chebyshev nodes.

    `_closure` with D = cheb_diffmat, its last row zeroed, e = e_N and r = e_0:
    the first N block rows differentiate the grid values, and the last is
    [A1, 0, ..., 0, A0].  The endpoint is the last grid value, and the mass
    matrices are the Clenshaw-Curtis rules diag(w) and diag(w (h + theta)).
    """
    N = _check_order(N)
    h = system.h
    grid = cheb_nodes(N, h)
    D = cheb_diffmat(N, h)
    D[N] = 0.0
    eye = np.eye(N + 1)
    w = grid.weights
    return DiscreteModel("cheb", system, N, _closure(system, D, eye[N], eye[0]),
                         eye[N], np.diag(w), np.diag(w * (h + grid.nodes)),
                         "chebyshev-values", lambda phi: discretize_cheb(phi, N, h),
                         None)


@lru_cache(maxsize=None)
def _unit_tau(N):
    """Dc and the row (-1)^k of `build_leg_model`, read-only: they depend on N alone."""
    Dc = np.zeros((N + 1, N + 1))
    for j in range(N):
        Dc[j, j + 1::2] = 2 * j + 1
    k = np.arange(N + 1, dtype=float)
    Dc[N, :] = -k * (k + 1.0) / 2.0
    sign = (-1.0) ** np.arange(N + 1)
    Dc.setflags(write=False)
    sign.setflags(write=False)
    return Dc, sign


def build_leg_model(system, N):
    """Tau-method closure in Legendre coefficient coordinates.

    `_closure` with D = (2/h) Dc, e = p_k(1) = 1 and r = p_k(-1) = (-1)^k.
    Entry (j, k) of Dc is 2j+1 for j < N, k > j, j+k odd (the coefficient
    form of differentiation), and its last row -k(k+1)/2 makes the last block
    row A0 + (-1)^k A1 - (2/h) k(k+1)/2 I.

    The mass matrices are the exact moments of p_j p_k and (h + s) p_j p_k
    over the N history coefficients: M1 = diag(h/(2k+1)), and M2 = (h/2) M1
    plus (h/2)^2 times 2(k+1)/((2k+1)(2k+3)) beside the diagonal.  The last
    block, the endpoint matcher, carries no mass.  `to_grid` is the inverse
    Legendre Vandermonde matrix on the Chebyshev grid.
    """
    N = _check_order(N)
    h = system.h
    Dc, sign = _unit_tau(N)
    e = np.ones(N + 1)
    A = _closure(system, (2.0 / h) * Dc, e, sign)
    k = np.arange(N + 1, dtype=float)
    den = 2.0 * k[:N] + 1.0
    M1 = np.diag(np.append(h / den, 0.0))
    off = np.append(0.5 * h * h * k[1:N] / (den[:-1] * den[1:]), 0.0)
    M2 = 0.5 * h * M1 + np.diag(off, 1) + np.diag(off, -1)
    return DiscreteModel("legendre", system, N, A, e, M1, M2,
                         "legendre-coefficients", lambda phi: discretize_leg(phi, N, h),
                         _unit_leg_cheb(N))


def build_model(system, scheme, N):
    """The closure of `system` for `scheme` (one of SCHEMES) at order N."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    # The builders, and the discretizers in the models' `read`, are looked up
    # as module globals on each call, so a tracing profiler's rebinding counts.
    if scheme == "cheb":
        return build_cheb_model(system, N)
    return build_leg_model(system, N)


def _check_dimensions(system, weights):
    """DimensionError unless the weights have the system's dimension."""
    if weights.n != system.n:
        raise DimensionError(
            f"weights are {weights.n}-dimensional but the system is {system.n}-dimensional"
        )


def discretize_cheb(phi, N, h):
    """Stacked values of phi on the ascending Chebyshev grid."""
    return phi.sample(cheb_nodes(N, h).nodes).reshape(-1)


def discretize_leg(phi, N, h):
    """Stacked Legendre coefficients of phi.

    Coefficients k < N are phi(0) [k = 0] plus the projection of
    phi - phi(0) on p_k by Gauss quadrature of order N+2 (exact whenever phi
    is a polynomial of degree <= N), so a constant segment has exactly zero
    coefficients past the first.  The last block is the endpoint matcher
    phi(0) - sum_{k<N} zeta^k, so the represented segment always attains
    the true phi(0).
    """
    N = _check_order(N)
    h = float(h)
    rule = gauss_legendre(N + 2, h)
    vals = phi.sample(np.append(rule.nodes, 0.0))       # (N+3, n), phi(0) last
    phi0 = vals[-1]
    x, w = 2.0 * rule.nodes / h + 1.0, rule.weights * (2.0 / h)   # the rule on [-1, 1]
    zeta = np.empty((N + 1, phi.n))
    zeta[:N] = (legvander(x, N - 1).T * w) @ (vals[:-1] - phi0)
    zeta[:N] *= (np.arange(N) + 0.5)[:, None]                       # (2k+1)/2
    zeta[0] += phi0
    zeta[N] = phi0 - zeta[:N].sum(axis=0)
    return zeta.reshape(-1)


def _to_combined(M, e, n):
    """Ti' M Ti for the combined coordinates chi = (c^0..c^{N-1}, endpoint
    value), c = Ti chi.  With e_N = 1 (both schemes), Ti is the identity
    with the blocks -e_k I in its last block row, so e_k times the endpoint
    block is subtracted from each history block, rows first, in O(d^2 n).
    Where e_k = 0 for every k < N (collocation) the coordinates are already
    combined and M is copied as it is."""
    M = np.array(M, dtype=float)
    if not np.any(e[:-1]):
        return M
    E = _kron(e[:-1, None], np.eye(n))   # block k is e_k I
    M[:-n] -= E @ M[-n:]
    M[:, :-n] -= M[:, -n:] @ E.T
    return M
