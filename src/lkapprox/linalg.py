"""Dense linear-algebra primitives shared by the approximation pipeline.

Thin, contract-checked wrappers around LAPACK-backed routines plus the
generalized Schur complement used for quadratic lower bounds.  All inputs
are real; eigenvalues may come back complex.
"""

from __future__ import annotations

import ctypes
import os
from typing import NamedTuple

import numpy as np
import scipy.linalg

__all__ = [
    "DimensionError",
    "ConvergenceError",
    "SingularOperatorError",
    "NumericalFailureError",
    "RangeError",
    "LyapunovSolution",
    "SymEigen",
    "eigenvalues",
    "is_hurwitz",
    "solve_lyapunov",
    "sym_eigen",
    "schur_complement",
    "expm",
]


def _pin_blas():
    """Run every loaded OpenBLAS on one thread, unless its environment sets a count.

    NumPy and SciPy each link their own OpenBLAS.  With default threads, one
    library's spinning workers stall the other library's next call, and
    Python threads cannot overlap the LAPACK work of a build anyway.
    """
    if any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                     "OMP_NUM_THREADS")):
        return
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return
    for path in sorted(p for p in paths if os.path.isfile(p)):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "scipy_openblas_set_num_threads",
                       "openblas_set_num_threads64_", "openblas_set_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)
                break


_pin_blas()


class DimensionError(ValueError):
    """Operand shapes do not match the operation's contract."""


class ConvergenceError(RuntimeError):
    """An iterative eigenvalue computation failed to converge."""


class SingularOperatorError(RuntimeError):
    """The map X -> X A + A^T X is numerically singular.

    Attributes
    ----------
    pair : tuple of complex
        The eigenvalue pair (lam_i, lam_j) with lam_i + lam_j closest to zero.
    """

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NumericalFailureError(RuntimeError):
    """A computed quantity failed its residual gate.

    Attributes
    ----------
    residual : float
        The offending residual norm.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class RangeError(RuntimeError):
    """Result left the representable floating-point range."""


def _as_square(A, name="A", stacked=False):
    A = np.asarray(A, dtype=float)
    ndims = (2, 3) if stacked else (2,)
    if A.ndim not in ndims or A.shape[-1] != A.shape[-2] or A.size == 0:
        raise DimensionError(f"{name} must be square and nonempty, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _fro(M):
    """||M||_F as a float, rescaled by max |M_ij| where the plain norm overflows.

    The plain norm squares the entries, so it is inf from ~1e154 on; its
    value is kept wherever it is finite.
    """
    with np.errstate(over="ignore"):   # an overflow here is rescaled below
        nrm = float(np.linalg.norm(M, "fro"))
    if not np.isfinite(nrm):
        top = float(np.max(np.abs(M)))
        if np.isfinite(top):
            nrm = top * float(np.linalg.norm(M / top, "fro"))
    return nrm


def _symmetrized(S, name):
    """(S + S^T) / 2, after checking ||S - S^T||_F <= 1e-10 max(1, ||S||_F)."""
    if _fro(S - S.T) > 1e-10 * max(1.0, _fro(S)):
        raise ValueError(f"{name} is not symmetric to working tolerance")
    return 0.5 * (S + S.T)


def eigenvalues(A):
    """Eigenvalues of a real square matrix (QR algorithm, unordered)."""
    A = _as_square(A)
    try:
        return scipy.linalg.eigvals(A)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc


def is_hurwitz(A):
    """Test whether every eigenvalue of A has negative real part.

    Returns
    -------
    (bool, float)
        The verdict and the spectral abscissa max Re(lam).
    """
    max_re = float(np.max(eigenvalues(A).real))
    return max_re < 0.0, max_re


class LyapunovSolution(NamedTuple):
    P: np.ndarray            # symmetric solution of P A + A^T P = -Q
    residual: float          # ||P A + A^T P + Q||_F / scale, as gated
    eigenvalues: np.ndarray  # of A, from the Schur factor of the solve


# Triangular blocks of at most this order are solved by one LAPACK dtrsyl.
_LEAF = 48


def _trsyl(A, B, C):
    """Solve A X + X B^T = C for upper quasi-triangular A, B by LAPACK dtrsyl."""
    X, scale, _ = scipy.linalg.lapack.dtrsyl(A, B, C, tranb="T")
    if scale < 1.0:
        # dtrsyl returned scale * X to avoid overflow: X itself is not finite.
        raise RangeError("Lyapunov solution overflowed the floating-point range")
    return X


def _split(T):
    """Midpoint of the quasi-triangular T, moved past a 2x2 block it would cut."""
    k = T.shape[0] // 2
    return k + 1 if T[k, k - 1] != 0.0 else k


def _sylvester(A, B, C):
    """Solve A X + X B^T = C, splitting the larger of A and B at its midpoint.

    Also serves B = A, the triangular stage of `solve_lyapunov`.
    """
    m, n = C.shape
    if max(m, n) <= _LEAF:
        return _trsyl(A, B, C)
    X = np.empty_like(C)
    if m >= n:
        k = _split(A)
        X[k:] = _sylvester(A[k:, k:], B, C[k:])
        X[:k] = _sylvester(A[:k, :k], B, C[:k] - A[:k, k:] @ X[k:])
    else:
        k = _split(B)
        X[:, k:] = _sylvester(A, B[k:, k:], C[:, k:])
        X[:, :k] = _sylvester(A, B[:k, :k], C[:, :k] - X[:, k:] @ B[:k, k:].T)
    return X


def solve_lyapunov(A, Q):
    """Solve P A + A^T P = -Q for the symmetric matrix P.

    Bartels-Stewart on one real Schur factorization A^T = Z T Z^T (LAPACK
    dgees, which also yields the eigenvalues of A).  The triangular equation
    T Y + Y T^T = Z^T (-Q) Z is solved as the Sylvester equation it is, by
    the recursive blocked method of `_sylvester` with both factors T
    (Jonsson & Kagstrom, ACM TOMS 28(4), 2002).  Y is not assumed
    symmetric: taking Y21 = Y12^T loses digits of k1 close to the delay
    margin.  Blocks of order at most _LEAF go to LAPACK dtrsyl, so up to
    that order the solve is one dtrsyl call in the operation order of
    SciPy's Lyapunov solver, and P is bit for bit the symmetrized SciPy
    solution.  The operator is singular exactly when two eigenvalues of A
    sum to zero, so that pairing is checked first; afterwards the residual
    ||P A + A^T P + Q||_F is gated at 1e-9 relative to
    scale = max(1, ||Q||_F + 2 ||A||_F ||P||_F).  Returns
    LyapunovSolution(P, residual / scale, eigenvalues of A).

    Raises
    ------
    ConvergenceError
        If the Schur iteration fails.
    SingularOperatorError
        If min |lam_i + lam_j| falls below 1e-10 * max(1, rho(A)).
    RangeError
        If P overflows the floating-point range.
    NumericalFailureError
        If the residual gate fails, a NaN residual included.
    """
    A = _as_square(A)
    Q = _as_square(Q, "Q")
    if Q.shape != A.shape:
        raise DimensionError(f"A and Q dimensions differ: {A.shape} vs {Q.shape}")
    _symmetrized(Q, "Q")   # checked only: the solve and its gate use Q as given

    # P A + A^T P = -Q  is  (A^T) P + P (A^T)^T = -Q.
    gees = scipy.linalg.lapack.dgees
    lwork = gees(lambda x: None, A.T, lwork=-1)[-2][0].real.astype(np.int_)
    T, _, wr, wi, Z, _, info = gees(lambda x, y=None: None, A.T, lwork=lwork,
                                    overwrite_a=False, sort_t=0)
    if info != 0:
        raise ConvergenceError(f"real Schur iteration did not converge (info={info})")
    lam = wr + 1j * wi

    sums = np.abs(lam[:, None] + lam[None, :])
    i, j = np.unravel_index(int(np.argmin(sums)), sums.shape)
    gap = float(sums[i, j])
    if gap < 1e-10 * max(1.0, float(np.abs(lam).max())):
        raise SingularOperatorError(
            f"eigenvalues {lam[i]:.6g} and {lam[j]:.6g} sum to {gap:.3e}; "
            "the Lyapunov operator is singular",
            pair=(complex(lam[i]), complex(lam[j])),
        )

    # The pair check above keeps dtrsyl away from its perturbed (info = 1)
    # branch, which needs a sum below machine precision times ||T||.
    P = Z.dot(_sylvester(T, T, Z.T.dot((-Q).dot(Z)))).dot(Z.T)
    if not np.all(np.isfinite(P)):
        # Neither dtrsyl's scale nor the block updates between its calls
        # catch every overflow (a 1e150 coupling in T gives NaN at scale 1).
        raise RangeError("Lyapunov solution overflowed the floating-point range")
    P = 0.5 * (P + P.T)

    residual = _fro(P @ A + A.T @ P + Q)
    scale = max(1.0, _fro(Q) + 2.0 * _fro(A) * _fro(P))
    if not residual <= 1e-9 * scale:   # a NaN residual fails too
        raise NumericalFailureError(
            f"Lyapunov residual {residual:.3e} exceeds 1e-9 * {scale:.3e}",
            residual=residual,
        )
    return LyapunovSolution(P, residual / scale, lam)


class SymEigen(NamedTuple):
    eigenvalues: np.ndarray   # ascending
    eigenvectors: np.ndarray  # orthonormal columns


def sym_eigen(S):
    """Full eigendecomposition of a symmetric matrix, eigenvalues ascending."""
    S = _as_square(S, "S")
    w, V = np.linalg.eigh(_symmetrized(S, "S"))
    return SymEigen(w, V)


def _is_psd(lam_min, lam_max):
    """The scale-free positivity verdict lam_min >= -1e-8 max(|lam_min|, |lam_max|)."""
    return lam_min >= -1e-8 * max(abs(lam_min), abs(lam_max))


def schur_complement(P, p, check_psd=True):
    """Generalized Schur complement X - B^T Z^+ B of the leading p x p block.

    P is partitioned as [[Z, B], [B^T, X]] with Z of order p.  Z is factored
    once by Cholesky, Z = R^T R (LAPACK dpotrf), and the complement is
    X - G^T G with G = R^-T B.  Where the factorization fails or LAPACK's
    reciprocal condition estimate (dpocon) is at most 1e-10, Z^+ is formed
    from the eigendecomposition of Z instead, with rank cutoff
    p * eps * lam_max(Z).

    Parameters
    ----------
    check_psd : bool
        Enforce the precondition lam_min(P) >= -1e-8 ||P||_2.  Callers that
        deliberately probe indefinite P (e.g. past a stability boundary)
        may disable the check.
    """
    P = _as_square(P, "P")
    d = P.shape[0]
    if not 0 <= p < d:
        raise DimensionError(f"block order p={p} must satisfy 0 <= p < {d}")
    P = _symmetrized(P, "P")

    if check_psd:
        w = np.linalg.eigvalsh(P)
        if not _is_psd(float(w[0]), float(w[-1])):
            nrm2 = max(abs(float(w[0])), abs(float(w[-1])))
            raise ValueError(
                f"P is indefinite (lam_min = {w[0]:.3e}, ||P||_2 = {nrm2:.3e})"
            )

    if p == 0:
        return P.copy()

    Z = P[:p, :p]
    B = P[:p, p:]
    X = P[p:, p:]
    try:
        R = np.linalg.cholesky(Z).T   # Z = R^T R; the transpose is Fortran-ordered
    except np.linalg.LinAlgError:
        rcond = 0.0
    else:
        rcond = scipy.linalg.lapack.dpocon(R, np.abs(Z).sum(axis=0).max())[0]
    if rcond > 1e-10:
        # G = R^-T B by level-2 dtrsv per column.  One level-3
        # solve_triangular saves only ~0.006 ms at d = 246 with n = 6 columns,
        # and rounds G differently: near the delay margin, where the
        # complement cancels digits, k1 would move by ~1e-12 relative.
        G = np.column_stack([scipy.linalg.blas.dtrsv(R, b, trans=1) for b in B.T])
        S = X - G.T @ G
    else:
        zw, zV = sym_eigen(Z)
        cutoff = p * np.finfo(float).eps * max(float(zw[-1]), 0.0)
        inv = np.zeros_like(zw)
        keep = zw > cutoff
        inv[keep] = 1.0 / zw[keep]
        G = zV.T @ B
        S = X - G.T @ (inv[:, None] * G)
    return 0.5 * (S + S.T)


def expm(A):
    """Matrix exponential (scaling-and-squaring with Pade approximation).

    A is one square matrix or a stack of shape (k, d, d), which is
    exponentiated matrix by matrix in one call.
    """
    A = _as_square(A, stacked=True)
    E = scipy.linalg.expm(A)
    if not np.all(np.isfinite(E)):
        raise RangeError("matrix exponential overflowed the floating-point range")
    return E
