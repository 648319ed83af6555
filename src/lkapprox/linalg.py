"""Dense linear-algebra primitives shared by the approximation pipeline.

Thin, contract-checked wrappers around LAPACK-backed routines plus the
generalized Schur complement used for quadratic lower bounds.  All inputs
are real; eigenvalues may come back complex.

The four LAPACK and BLAS routines that NumPy's API lacks (dgees, dtrsyl3,
dpocon and dtrsv) are called through ctypes from the OpenBLAS that NumPy
already loads; its wheels export them as `scipy_<name>_64_` with 64-bit
integers.  Where no loaded library exports them, they are taken from
`scipy.linalg.lapack` and `scipy.linalg.blas` instead, with dtrsyl in place
of dtrsyl3, which SciPy does not wrap.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "DimensionError",
    "ConvergenceError",
    "SingularOperatorError",
    "NumericalFailureError",
    "RangeError",
    "LyapunovSolution",
    "eigenvalues",
    "is_hurwitz",
    "solve_lyapunov",
    "schur_complement",
    "expm",
]


def _openblas_libs():
    """(path, handle) of every OpenBLAS mapped into this process, by path."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return []
    return [(p, ctypes.CDLL(p)) for p in sorted(paths) if os.path.isfile(p)]


def _pin_blas(libs):
    """Run each OpenBLAS of `libs` on one thread, unless the environment sets a count.

    Where NumPy and SciPy each link their own OpenBLAS, one library's
    spinning workers stall the other library's next call with default
    threads, and Python threads cannot overlap the LAPACK work of a build
    anyway.
    """
    if any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                     "OMP_NUM_THREADS")):
        return
    for _, lib in libs:
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "scipy_openblas_set_num_threads",
                       "openblas_set_num_threads64_", "openblas_set_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)
                break


class _Routines(NamedTuple):
    """The LAPACK/BLAS calls the module makes beyond NumPy's API."""

    gees: Callable    # gees(A) -> (T, wr, wi, Z, info): A = Z T Z^T, real Schur form
    trsyl: Callable   # trsyl(A, B, C) -> (X, scale): A X + X B^T = scale C, A and B
                      # upper quasi-triangular; C may be overwritten
    pocon: Callable   # pocon(R, anorm) -> reciprocal 1-norm condition of R^T R
    trsv: Callable    # trsv(R, B) -> G with R^T G = B, one dtrsv per column of B


def _probe(lib):
    """The routines bound to the ctypes library `lib`, or None unless it
    exports all four with ILP64 names (`scipy_<name>_64_`, `<name>_64_`)."""
    for pattern in ("scipy_{}_64_", "{}_64_"):
        fns = [getattr(lib, pattern.format(name), None)
               for name in ("dgees", "dtrsyl3", "dpocon", "dtrsv")]
        if all(fns):
            return _bind(*fns)
    return None


def _bind(dgees, dtrsyl3, dpocon, dtrsv):
    """Wrap the Fortran symbols in the `_Routines` calling convention.

    Arrays pass as addresses, integers as 64-bit references, and each
    character argument carries gfortran's trailing hidden length.
    """
    ptr, size = ctypes.c_void_p, ctypes.c_size_t
    i64, f64 = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    dgees.argtypes = [ctypes.c_char_p] * 2 + [ptr, i64, ptr, i64, i64, ptr, ptr, ptr, i64,
                                              ptr, i64, ptr, i64, size, size]
    dtrsyl3.argtypes = [ctypes.c_char_p] * 2 + [i64] * 3 + [ptr, i64] * 3 + [
        f64, ptr, i64, ptr, i64, i64, size, size]
    dpocon.argtypes = [ctypes.c_char_p, i64, ptr, i64, f64, f64, ptr, ptr, i64, size]
    dtrsv.argtypes = [ctypes.c_char_p] * 3 + [i64, ptr, i64, ptr, i64, size, size, size]
    for fn in (dgees, dtrsyl3, dpocon, dtrsv):
        fn.restype = None
    ref, c_i64, c_f64 = ctypes.byref, ctypes.c_int64, ctypes.c_double
    one = ref(c_i64(1))

    def gees(A):
        n = c_i64(A.shape[0])
        T = np.array(A, dtype=np.float64, order="F")
        wr, wi = np.empty(A.shape[0]), np.empty(A.shape[0])
        Z = np.empty_like(T)
        sdim, info, lwork, best = c_i64(), c_i64(), c_i64(-1), c_f64()

        def call(work):
            dgees(b"V", b"N", None, ref(n), T.ctypes.data, ref(n), ref(sdim),
                  wr.ctypes.data, wi.ctypes.data, Z.ctypes.data, ref(n),
                  work, ref(lwork), None, ref(info), 1, 1)

        call(ctypes.addressof(best))          # workspace query
        lwork.value = int(best.value)
        work = np.empty(lwork.value)          # referenced until the call returns
        call(work.ctypes.data)
        return T, wr, wi, Z, info.value

    def trsyl(A, B, C):
        A, B, X = (np.asfortranarray(M, dtype=np.float64) for M in (A, B, C))
        m, n = ref(c_i64(X.shape[0])), ref(c_i64(X.shape[1]))
        scale, info, liwork, ldswork = c_f64(), c_i64(), c_i64(-1), c_i64(-1)

        def call(iwork, swork):
            dtrsyl3(b"N", b"T", one, m, n, A.ctypes.data, m, B.ctypes.data, n,
                    X.ctypes.data, m, ref(scale), iwork.ctypes.data, ref(liwork),
                    swork.ctypes.data, ref(ldswork), ref(info), 1, 1)

        iwork, swork = np.empty(1, dtype=np.int64), np.empty(2)
        call(iwork, swork)   # workspace query: IWORK's length, SWORK's rows and columns
        liwork.value, ldswork.value = int(iwork[0]), max(2, int(swork[0]))
        call(np.empty(liwork.value, dtype=np.int64), np.empty(ldswork.value * int(swork[1])))
        return X, scale.value

    def pocon(R, anorm):
        R = np.asfortranarray(R, dtype=np.float64)
        n = R.shape[0]
        rcond, info = c_f64(), c_i64()
        work, iwork = np.empty(3 * n), np.empty(n, dtype=np.int64)
        dpocon(b"U", ref(c_i64(n)), R.ctypes.data, ref(c_i64(n)), ref(c_f64(anorm)),
               ref(rcond), work.ctypes.data, iwork.ctypes.data, ref(info), 1)
        return rcond.value

    def trsv(R, B):
        R = np.asfortranarray(R, dtype=np.float64)
        G = np.array(B, dtype=np.float64, order="C")   # as column_stack lays it out
        n, inc = ref(c_i64(R.shape[0])), ref(c_i64(G.shape[1]))
        for j in range(G.shape[1]):   # column j starts at entry j, stride G.shape[1]
            dtrsv(b"U", b"T", b"N", n, R.ctypes.data, n, G.ctypes.data + 8 * j, inc,
                  1, 1, 1)
        return G

    return _Routines(gees, trsyl, pocon, trsv)


def _scipy_routines():
    """The routines from `scipy.linalg`, for a NumPy whose OpenBLAS lacks them.

    SciPy links an OpenBLAS of its own, so the libraries are pinned again.
    """
    from scipy.linalg import blas, lapack

    _pin_blas(_openblas_libs())

    def gees(A):
        lwork = lapack.dgees(lambda x: None, A, lwork=-1)[-2][0].real.astype(np.int_)
        T, _, wr, wi, Z, _, info = lapack.dgees(lambda x, y=None: None, A, lwork=lwork,
                                                overwrite_a=False, sort_t=0)
        return T, wr, wi, Z, info

    def trsyl(A, B, C):
        X, scale, _ = lapack.dtrsyl(A, B, C, tranb="T")
        return X, scale

    def pocon(R, anorm):
        return lapack.dpocon(R, anorm)[0]

    def trsv(R, B):
        return np.column_stack([blas.dtrsv(R, b, trans=1) for b in B.T])

    return _Routines(gees, trsyl, pocon, trsv)


def _bind_lapack():
    """Pin every loaded OpenBLAS, then return (source, routines): the first
    of them that exports the routines, else SciPy ("scipy")."""
    libs = _openblas_libs()
    _pin_blas(libs)
    for path, lib in libs:
        routines = _probe(lib)
        if routines is not None:
            return path, routines
    return "scipy", _scipy_routines()


_LAPACK_SOURCE, (_gees, _trsyl, _pocon, _trsv) = _bind_lapack()


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
    """Eigenvalues of a real square matrix (QR algorithm, unordered), complex-typed."""
    A = _as_square(A)
    try:
        return np.linalg.eigvals(A).astype(complex, copy=False)
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


def solve_lyapunov(A, Q):
    """Solve P A + A^T P = -Q for the symmetric matrix P.

    Bartels-Stewart on one real Schur factorization A^T = Z T Z^T (LAPACK
    dgees, which also yields the eigenvalues of A).  The triangular equation
    T Y + Y T^T = Z^T (-Q) Z is solved as the Sylvester equation it is, by
    one call of LAPACK's level-3 blocked solver dtrsyl3 with both factors T
    (Jonsson & Kagstrom, ACM TOMS 28(4), 2002), or of dtrsyl where the
    routines come from SciPy.  Y is not assumed symmetric: taking
    Y21 = Y12^T loses digits of k1 close to the delay margin.  The operator
    is singular exactly when two eigenvalues of A sum to zero, so that
    pairing is checked first; afterwards the residual
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
    T, wr, wi, Z, info = _gees(A.T)
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

    # The pair check above keeps the solver away from its perturbed (info = 1)
    # branch, which needs a sum below machine precision times ||T||.
    Y, y_scale = _trsyl(T, T, Z.T.dot((-Q).dot(Z)))
    P = Z.dot(Y).dot(Z.T)
    # A scale below 1 means the solver returned y_scale * Y because Y itself
    # overflows; the scale misses some overflows, which leave P non-finite.
    if y_scale < 1.0 or not np.all(np.isfinite(P)):
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


def _is_psd(lam_min, lam_max):
    """The scale-free positivity verdict lam_min >= -1e-8 max(|lam_min|, |lam_max|)."""
    return lam_min >= -1e-8 * max(abs(lam_min), abs(lam_max))


def schur_complement(P, p):
    """Generalized Schur complement X - B^T Z^+ B of the leading p x p block.

    P is partitioned as [[Z, B], [B^T, X]] with Z of order p.  Z is factored
    once by Cholesky, Z = R^T R (LAPACK dpotrf), and the complement is
    X - G^T G with G = R^-T B.  Where the factorization fails or LAPACK's
    reciprocal condition estimate (dpocon) is at most 1e-10, Z^+ is formed
    from the eigendecomposition of Z instead, with rank cutoff
    p * eps * lam_max(Z).  Where those eigenvalues fail the positivity rule
    lam_min(Z) >= -1e-8 max(|lam_min(Z)|, lam_max(Z), max |P_ij|), the form
    of P is unbounded below over the eliminated block for every value of
    the rest, and every entry of the result is -inf.  P itself is not
    tested for positivity.
    """
    P = _as_square(P, "P")
    d = P.shape[0]
    if not 0 <= p < d:
        raise DimensionError(f"block order p={p} must satisfy 0 <= p < {d}")
    P = _symmetrized(P, "P")
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
        rcond = _pocon(R, float(np.abs(Z).sum(axis=0).max()))
    if rcond > 1e-10:
        # G = R^-T B by level-2 dtrsv per column.  One level-3
        # solve_triangular saves only ~0.006 ms at d = 246 with n = 6 columns,
        # and rounds G differently: near the delay margin, where the
        # complement cancels digits, k1 would move by ~1e-12 relative.
        G = _trsv(R, B)
        S = X - G.T @ G
    else:
        zw, zV = np.linalg.eigh(Z)
        # Rounding in P leaves eigenvalues of Z of either sign at P's scale.
        if not _is_psd(float(zw[0]), max(float(zw[-1]), float(np.abs(P).max()))):
            return np.full((d - p, d - p), -np.inf)
        cutoff = p * np.finfo(float).eps * max(float(zw[-1]), 0.0)
        inv = np.zeros_like(zw)
        keep = zw > cutoff
        inv[keep] = 1.0 / zw[keep]
        G = zV.T @ B
        S = X - G.T @ (inv[:, None] * G)
    return 0.5 * (S + S.T)


def _lower_bound(P, n):
    """The largest k with k ||x||^2 <= [y; x]' P [y; x] for all y, x of order n
    (x is phi(0)): the least eigenvalue of the Schur complement eliminating y,
    or -inf where its block is indefinite and the form has no lower bound."""
    S = schur_complement(P, len(P) - n)
    if S[0, 0] == -np.inf:
        return -np.inf
    return float(np.linalg.eigvalsh(S)[0])


# Coefficients b_0..b_13 of the [13/13] Pade approximant of exp, and the
# 1-norm theta_13 up to which it meets double precision unscaled (Higham,
# SIAM J. Matrix Anal. Appl. 26(4), 2005, Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A):
    """Matrix exponential by scaling and squaring of the [13/13] Pade approximant.

    A is one square matrix or a stack of shape (k, d, d).  Each matrix is
    scaled by its own power 2^-s with ||A 2^-s||_1 <= theta_13, and its
    approximant is squared s times (Higham, SIAM J. Matrix Anal. Appl.
    26(4), 2005), so a matrix of a stack gets the bits it gets alone.
    Raises RangeError where the result overflows.
    """
    A = _as_square(A, stacked=True)
    X = A.reshape((-1,) + A.shape[-2:])
    with np.errstate(over="ignore"):   # an infinite norm is clipped below
        norms = np.abs(X).sum(axis=1).max(axis=1)
    s = np.ceil(np.log2(np.clip(norms / _THETA13, 1.0, 2.0 ** 1023))).astype(int)
    X = np.ldexp(X, -s[:, None, None])
    b = _PADE13
    eye = np.eye(X.shape[-1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
             + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye)
    V = (X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
         + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):   # overflow raises below
        for k in range(int(s.max())):
            sq = s > k
            E[sq] = E[sq] @ E[sq]
    if not np.all(np.isfinite(E)):
        raise RangeError("matrix exponential overflowed the floating-point range")
    return E.reshape(A.shape)
