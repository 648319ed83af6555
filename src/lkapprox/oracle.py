"""Reference route: the delay Lyapunov matrix and direct quadrature of V.

Independent of the spectral closures, the functional can be written with
kernels built from the delay Lyapunov matrix Psi and integrated by
quadrature.  Psi is constructed semi-analytically from its three defining
properties (dynamic, symmetry, algebraic) via a linear boundary-value
problem of dimension 2 n^2, so this module supplies trusted cross-checks
for everything the closures produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebvander

from .discretize import _check_dimensions
from .linalg import (ConvergenceError, _cholesky_proves_psd, _is_psd, _kron, _lower_bound,
                     expm)
from .spectral import NodeSet, cheb_nodes, gauss_legendre

__all__ = [
    "LyapunovConditionError",
    "DelayLyapunovMatrix",
    "build_delay_lyap",
    "assemble_quad",
    "k1_quad",
    "property_residuals",
]


class LyapunovConditionError(RuntimeError):
    """The boundary-value problem for Psi is numerically singular.

    This happens exactly when the delay system violates the Lyapunov
    condition (two characteristic roots summing to zero).
    """


@dataclass(frozen=True, eq=False)
class DelayLyapunovMatrix:
    """Psi on [-h, h], realized as the pair Y(s) = Psi(s), Z(s) = Psi(s - h).

    The pair solves Y' = Y A0 + Z A1, Z' = -A0' Z - A1' Y on [0, h] with
    boundary conditions Z(h) = Y(0), Y(0) symmetric, and
    Y'(0) + Y'(0)' = -(Q0 + Q1 + h Q2).  Negative arguments are served
    through the symmetry Psi(-tau) = Psi(tau)'.

    The stacked flow u(s) = (vec Y(s), vec Z(s)) = expm(M s) u0 is entire,
    so it is stored as one Chebyshev series on [0, h] (`coef`, K terms)
    interpolating u at K Gauss-Lobatto points.  The series is resolved to
    the rounding error of its samples, which is that of a direct expm(M s):
    about eps e^{rho(M) h} relative to the largest |u|.
    """

    system: object
    Qtilde: np.ndarray
    M: np.ndarray          # generator of the stacked (vec Y, vec Z) flow
    u0: np.ndarray         # (vec Y(0), vec Z(0))
    cond: float
    coef: np.ndarray       # (K, 2 n^2) Chebyshev coefficients of u on [0, h]

    @property
    def K(self):
        """Number of Chebyshev points of the interpolant."""
        return self.coef.shape[0]

    def pairs(self, s):
        """(Y(s), Z(s)) for every s of a 1-d array in [0, h], as two stacks
        of shape (len(s), n, n)."""
        h = self.system.h
        s = np.asarray(s, dtype=float).reshape(-1)
        bad = ~((s >= -1e-12 * h) & (s <= h * (1.0 + 1e-12)))
        if np.any(bad):
            raise ValueError(f"argument {s[bad][0]} outside [0, {h}]")
        s = np.clip(s, 0.0, h)
        n = self.system.n
        nn = n * n
        u = chebvander(2.0 * s / h - 1.0, self.K - 1) @ self.coef
        # Column-major vec: entry (i, j) sits at i + j*n.
        Y = u[:, :nn].reshape(-1, n, n).transpose(0, 2, 1)
        Z = u[:, nn:].reshape(-1, n, n).transpose(0, 2, 1)
        return Y, Z

    def pair(self, s):
        """(Y(s), Z(s)) for s in [0, h].

        No library path calls it (they call `pairs`); it stays, with
        `__call__` on top of it, only because `perfbench/tracer.py` wraps it.
        """
        Y, Z = self.pairs(float(s))
        return Y[0], Z[0]

    def __call__(self, tau):
        """Psi(tau) for tau in [-h, h]."""
        h = self.system.h
        tau = float(tau)
        if abs(tau) > h * (1.0 + 1e-12):
            raise ValueError(f"argument {tau} outside [-{h}, {h}]")
        if tau >= 0.0:
            return self.pair(tau)[0]
        return self.pair(-tau)[0].T


# Chopping rule for the Chebyshev series of the Psi flow (after Aurentz &
# Trefethen, "Chopping a Chebyshev series", ACM TOMS 2017).  The series is
# grown from _K_FIRST points by doubling.  Its tail is the largest of its
# trailing quarter of coefficients, relative to the largest coefficient.
# The series is accepted once the tail falls below _CHOP_TOL, or once it
# has reached the rounding floor of its samples and stopped shrinking
# (less than tenfold in a doubling): more points then only resample the
# rounding error.  The floor is eps max_s ||expm(M s)|| ||u0|| relative to
# the largest coefficient, the rounding bound of a direct expm(M s) u0.
# A tail that stalls above the floor is not a plateau: oscillatory modes
# e^{i w s} keep Chebyshev coefficients of size J_k(w h / 2), flat until
# k ~ w h / 2.  _K_CAP bounds the sample stack; a series still above its
# floor there raises ConvergenceError.
_CHOP_TOL = 1e-14
_K_FIRST = 16
_K_CAP = 256


def _lobatto_series(M, u0, h, K):
    """Chebyshev coefficients of the degree K-1 interpolant of
    u(s) = expm(M s) u0 at the K Gauss-Lobatto points of [0, h], and the
    rounding bound eps max_k ||expm(M s_k)|| ||u0|| of the samples (inf-norms)."""
    N = K - 1
    s = cheb_nodes(N, h).nodes + h
    E = expm(s[:, None, None] * M)
    samples = E @ u0
    noise = (np.finfo(float).eps * float(np.abs(E).sum(axis=2).max())
             * float(np.abs(u0).max()))
    # DCT-I of the values at the descending points cos(j pi / N), as the
    # FFT of their even extension.
    d = samples[::-1]
    coef = np.fft.rfft(np.concatenate([d, d[-2:0:-1]]), axis=0).real / N
    coef[[0, -1]] *= 0.5
    return coef, noise


def _flow_series(M, u0, h):
    """The chopped Chebyshev series of u(s) = expm(M s) u0 on [0, h]."""
    K = _K_FIRST
    prev_tail = np.inf
    while True:
        coef, noise = _lobatto_series(M, u0, h, K)
        size = np.max(np.abs(coef), axis=1)
        top = max(float(size.max()), np.finfo(float).tiny)
        tail = float(size[-(K // 4):].max()) / top
        if tail <= _CHOP_TOL:
            return coef
        if tail <= noise / top and (tail > 0.1 * prev_tail or K >= _K_CAP):
            return coef
        if K >= _K_CAP:
            raise ConvergenceError(
                f"Chebyshev series of Psi unresolved at {K} points "
                f"(tail {tail:.1e}, rounding floor {noise / top:.1e})"
            )
        prev_tail = tail
        K *= 2


def build_delay_lyap(system, weights):
    """Construct Psi for the system under the lumped weight Q0 + Q1 + h Q2."""
    _check_dimensions(system, weights)
    n = system.n
    A0, A1, h = system.A0, system.A1, system.h
    Qt = weights.combined(h)
    eye = np.eye(n)

    # Column-major vec: entry (i, j) of Y sits at i + j*n, so
    # vec(Y A) = kron(A', I) vec Y, vec(A' Y) = kron(I, A') vec Y and
    # vec(Y') = Pi vec Y with the commutation permutation Pi.
    nn = n * n
    A0x, xA0 = _kron(A0.T, eye), _kron(eye, A0.T)
    A1x, xA1 = _kron(A1.T, eye), _kron(eye, A1.T)
    M = np.block([[A0x, A1x], [-xA1, -xA0]])
    E = expm(M * h)
    Pi = np.arange(nn).reshape(n, n).T.reshape(-1)

    # Z(h) = Y(0): the propagated lower half minus the initial upper half.
    C = E[nn:, :].copy()
    C[:, :nn] -= np.eye(nn)
    # Y(0) symmetric: Y[i, j] - Y[j, i] = 0 for i < j.
    i, j = np.triu_indices(n, 1)
    sym = np.hstack([np.eye(nn) - np.eye(nn)[Pi], np.zeros((nn, nn))])[i + j * n]
    # Y0 A0 + A0' Y0 + Z0 A1 + A1' Z0' = -Qt, upper triangle.
    i, j = np.triu_indices(n)
    alg = np.hstack([A0x + xA0, A1x + xA1[:, Pi]])[i + j * n]

    B = np.vstack([C, sym, alg])
    b = np.concatenate([np.zeros(nn + sym.shape[0]), -Qt[i, j]])
    u0, _, rank, sv = np.linalg.lstsq(B, b, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else np.inf
    if rank < 2 * nn or not np.isfinite(cond) or cond > 1e12:
        raise LyapunovConditionError(
            f"boundary system is numerically singular (cond = {cond:.3e}); "
            "the delay system violates the Lyapunov condition"
        )
    return DelayLyapunovMatrix(system=system, Qtilde=Qt, M=M, u0=u0, cond=cond,
                               coef=_flow_series(M, u0, h))


def assemble_quad(dl, weights, rule="cc", N=40):
    """Quadrature matrix of V on a value grid ending with the theta = 0 block.

    rule "cc" uses the N+1 Chebyshev nodes (the endpoint block then overlaps
    the last quadrature node); rule "gauss" uses N interior Gauss nodes plus
    an appended zero-weight endpoint, so the matrix keeps the same
    (nN + n)-block shape and the lower-bound elimination applies unchanged.

    Block (j, k) over the quadrature nodes is w_j w_k A1' Psi(t_j - t_k) A1
    plus w_j (Q1 + (h + t_j) Q2) on the diagonal; the endpoint row holds
    w_k Psi(-h - t_k) A1 and the corner Psi(0).  Every Psi value comes from
    one `pairs` call on the differences t_k - t_j >= 0 (j <= k), h + t_k
    and 0; the lower triangle follows from Psi(-tau) = Psi(tau)'.  Psi is
    the Chebyshev interpolant of DelayLyapunovMatrix, accurate to the
    rounding level of a direct expm.  Psi depends on the weights only
    through Q0 + Q1 + h Q2, so `weights` must have the lumped weight `dl`
    was built for (to 1e-12 relative); other weights raise ValueError.

    Accuracy floor: the double kernel A1' Psi(xi - theta) A1 has a derivative
    kink on the diagonal xi = theta, which a tensor rule does not resolve, so
    either rule converges only at O(N^-2) there.  At Gauss N=160 the error
    is ~7e-6 in k1 and ~4e-4 in V for example 2: a cross-check to ~1e-5, not
    a spectral reference for the tau closure.
    """
    system = dl.system
    n, h, A1 = system.n, system.h, system.A1
    Qt = weights.combined(h)
    if Qt.shape != dl.Qtilde.shape or not (
            np.max(np.abs(Qt - dl.Qtilde)) <= 1e-12 * np.max(np.abs(dl.Qtilde))):
        raise ValueError("weights do not give the lumped weight Psi was built for")
    if rule == "cc":
        grid = cheb_nodes(N, h)
    elif rule == "gauss":
        g = gauss_legendre(N, h)
        grid = NodeSet(np.append(g.nodes, 0.0), np.append(g.weights, 0.0))
    else:
        raise ValueError(f"unknown quadrature rule {rule!r}")

    m = len(grid)
    q = m if rule == "cc" else m - 1   # the gauss0 endpoint carries no weight
    t, w = grid.nodes[:q], grid.weights[:q]
    j, k = np.triu_indices(q)
    Y = dl.pairs(np.concatenate([t[k] - t[j], h + t, [0.0]]))[0]
    psi_double = Y[:j.size].transpose(0, 2, 1)      # Psi(t_j - t_k), j <= k
    psi_cross = Y[j.size:-1].transpose(0, 2, 1)     # Psi(-h - t_k)

    blocks = np.zeros((m, m, n, n))
    upper = (w[j] * w[k])[:, None, None] * (A1.T @ psi_double @ A1)
    blocks[k, j] = upper.transpose(0, 2, 1)
    blocks[j, k] = upper
    diag = np.arange(q)
    blocks[diag, diag] += w[:, None, None] * (
        weights.Q1 + (h + t)[:, None, None] * weights.Q2)
    cross = w[:, None, None] * (psi_cross @ A1)
    blocks[-1, :q] += cross
    blocks[:q, -1] += cross.transpose(0, 2, 1)
    blocks[-1, -1] += Y[-1]
    P = blocks.transpose(0, 2, 1, 3).reshape(n * m, n * m)
    return 0.5 * (P + P.T), grid


def k1_quad(dl, weights, rule="cc", N=40, check_psd=True):
    """Lower-bound coefficient of the quadrature matrix, -inf where its
    history block is indefinite.  With check_psd a matrix that fails the
    positivity rule lam_min >= -1e-8 ||P||_2 raises ValueError instead, the
    verdict a build's `psd` also takes: a Cholesky factorization of P that
    completes (`linalg._cholesky_proves_psd`), else the rule on eigvalsh(P)."""
    P, _ = assemble_quad(dl, weights, rule=rule, N=N)
    if check_psd and not _cholesky_proves_psd(P):
        w = np.linalg.eigvalsh(P)
        if not _is_psd(float(w[0]), float(w[-1])):
            raise ValueError(
                f"quadrature matrix is indefinite (lam_min = {w[0]:.3e}); "
                "pass check_psd=False to evaluate anyway"
            )
    return _lower_bound(P, dl.system.n)


_RESIDUAL_POINTS = 25


def property_residuals(dl):
    """Relative residuals of the three defining properties of Psi.

    dynamic: central-difference check of Psi' = Psi(.) A0 + Psi(. - h) A1 at
    25 interior points of (0, h); symmetry: the propagated Z(s) against the
    reflected Y(h - s)' on 25 points of [0, h]; algebraic:
    Y'(0) + Y'(0)' + (Q0 + Q1 + h Q2).
    All arguments are evaluated in one `pairs` call.
    """
    system = dl.system
    A0, A1, h = system.A0, system.A1, system.h
    delta = 1e-5 * h
    taus = np.linspace(0.0, h, _RESIDUAL_POINTS + 2)[1:-1]
    grid = np.linspace(0.0, h, _RESIDUAL_POINTS)
    args = [taus + delta, taus - delta, taus, h - taus, h - grid, grid, [0.0]]
    cuts = np.cumsum([len(a) for a in args])[:-1]
    Y, Z = dl.pairs(np.concatenate(args))
    Y_plus, Y_minus, Y_tau, Y_back, Y_refl, _, Y0 = np.split(Y, cuts)
    Z_prop, Z0 = np.split(Z, cuts)[5:]
    psi0, Z0 = Y0[0], Z0[0]

    def fro(X):
        return float(np.max(np.linalg.norm(X, "fro", axis=(1, 2))))

    scale = max(1.0, float(np.linalg.norm(psi0, "fro"))
                * (1.0 + float(np.linalg.norm(A0, 2)) + float(np.linalg.norm(A1, 2))))
    dpsi = (Y_plus - Y_minus) / (2.0 * delta)
    dyn = fro(dpsi - (Y_tau @ A0 + Y_back.transpose(0, 2, 1) @ A1))
    sym = fro(Z_prop - Y_refl.transpose(0, 2, 1))

    dY0 = psi0 @ A0 + Z0 @ A1
    alg = float(np.linalg.norm(dY0 + dY0.T + dl.Qtilde, "fro"))

    return {
        "dynamic": dyn / scale,
        "symmetry": sym / max(1.0, float(np.linalg.norm(psi0, "fro"))),
        "algebraic": alg / max(1.0, float(np.linalg.norm(dl.Qtilde, "fro"))),
    }
