"""Spectral grids, differentiation, quadrature, and Legendre transforms.

Everything lives on the delay interval [-h, 0], obtained from the reference
interval [-1, 1] through theta = (h/2)(vartheta - 1).  Reference-interval
tables are cached per N and rescaled on demand.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

__all__ = [
    "NodeSet",
    "cheb_nodes",
    "cheb_diffmat",
    "gauss_legendre",
]


@dataclass(frozen=True, eq=False)
class NodeSet:
    """A quadrature grid on [-h, 0]: ascending nodes and weights summing to h."""

    nodes: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return self.nodes.size


def _check_order(N, name="order"):
    """N as an int, or ValueError unless it is an integer >= 1 (bool is not).

    The one rule for every size argument: orders, point counts, dimensions.
    """
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {N!r}")
    return operator.index(N)


def _check_h(h):
    """h as a float, or ValueError unless it is positive and finite (bool is not)."""
    value = np.nan if isinstance(h, (bool, np.bool_)) else float(h)
    if not np.isfinite(value) or value <= 0.0:
        raise ValueError(f"delay h must be positive and finite, got {h!r}")
    return value


@lru_cache(maxsize=None)
def _unit_cheb_nodes(N):
    x = -np.cos(np.pi * np.arange(N + 1) / N)
    x.setflags(write=False)
    return x


@lru_cache(maxsize=None)
def _unit_cc_weights(N):
    # Exact integrals of the Lagrange cardinals on [-1, 1]: the cosine-sum
    # form of the Clenshaw-Curtis rule.  Even-degree Chebyshev moments
    # 2/(1 - k^2) drive the sum; the k = N/2 term is halved for even N.
    j = np.arange(N + 1)
    theta = np.pi * j / N
    k = np.arange(1, N // 2 + 1)   # empty at N = 1, where the sum is 0
    b = np.where(2 * k == N, 1.0, 2.0)
    corr = (b / (4.0 * k * k - 1.0)) @ np.cos(2.0 * np.outer(k, theta))
    w = (1.0 - corr) / N
    w[1:-1] *= 2.0
    w.setflags(write=False)
    return w


def cheb_nodes(N, h):
    """Gauss-Lobatto-Chebyshev grid of N+1 ascending nodes on [-h, 0].

    The nodes are theta_k = (h/2)(vartheta_k - 1) with
    vartheta_k = -cos(k pi / N); the weights are the Clenshaw-Curtis weights,
    so the grid integrates degree-N polynomials exactly.
    """
    N = _check_order(N)
    h = _check_h(h)
    nodes = 0.5 * h * (_unit_cheb_nodes(N) - 1.0)
    weights = 0.5 * h * _unit_cc_weights(N)
    return NodeSet(nodes, weights)


@lru_cache(maxsize=None)
def _unit_cheb_diffmat(N):
    x = _unit_cheb_nodes(N)
    c = np.ones(N + 1)
    c[0] = c[-1] = 2.0
    j = np.arange(N + 1)
    # Node differences via 2 sin((j+k)pi/2N) sin((j-k)pi/2N) to avoid
    # cancellation between nearly equal cosines.
    sums = np.add.outer(j, j) * (np.pi / (2 * N))
    diffs = np.subtract.outer(j, j) * (np.pi / (2 * N))
    denom = 2.0 * np.sin(sums) * np.sin(diffs)
    np.fill_diagonal(denom, 1.0)
    sign = np.where((np.add.outer(j, j) % 2) == 0, 1.0, -1.0)
    D = sign * np.outer(c, 1.0 / c) / denom
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -D.sum(axis=1))
    D.setflags(write=False)
    return D


def cheb_diffmat(N, h):
    """Differentiation matrix on the [-h, 0] Chebyshev grid of cheb_nodes.

    Entry (j, k) is the derivative of the k-th Lagrange cardinal at node j.
    Row sums vanish exactly (the diagonal is the negated off-diagonal sum).
    """
    N = _check_order(N)
    h = _check_h(h)
    return (2.0 / h) * _unit_cheb_diffmat(N)


@lru_cache(maxsize=None)
def _unit_gauss(count):
    x, w = leggauss(count)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(count, h):
    """Gauss-Legendre rule with `count` interior nodes on [-h, 0].

    Exact for polynomials of degree <= 2*count - 1.
    """
    count = _check_order(count)
    h = _check_h(h)
    x, w = _unit_gauss(count)
    return NodeSet(0.5 * h * (x - 1.0), 0.5 * h * w)


@lru_cache(maxsize=None)
def _unit_leg_cheb(N):
    """The inverse of the Legendre Vandermonde matrix on the Chebyshev grid:
    it maps a degree-N polynomial's grid values to its Legendre coefficients."""
    Vinv = np.linalg.solve(legvander(_unit_cheb_nodes(N), N), np.eye(N + 1))
    Vinv.setflags(write=False)
    return Vinv
