"""Shared oracles for the test suite.

Everything here is an independent route to a quantity the library also
computes: Newton-refined characteristic roots, a Kronecker-vectorization
Lyapunov solve, the relative residual of a Lyapunov solution, the direct
(unsplit) cost of the tau closure, the tau k1 of a closure in extended
precision, the
kernels of V as scalar closures over Psi and the block-by-block loop
assembly of the quadrature matrix of V from them, the entry-by-entry loop
assembly of Psi's boundary system, and
high-order quadrature of the functional's integral formula (V of one
segment, and the Legendre-Galerkin matrix behind k1) with the integration
domain split at the kernel's diagonal kink.  `openblas_threads` reads
the thread count of each loaded OpenBLAS.
"""

import ctypes
import os
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legvander

from lkapprox import RfdeSystem
from lkapprox.linalg import expm, schur_complement, solve_lyapunov
from lkapprox.spectral import NodeSet, cheb_nodes, gauss_legendre


def newton_char_root(seed, A0, A1, h, iters=80):
    """Refine a characteristic root of det(sI - A0 - e^{-sh} A1) = 0.

    Newton iteration on the scalar function d(s) = det(sI - A0 - e^{-sh}A1),
    with the derivative taken by Jacobi's formula d'(s) = d(s) tr(M(s)^{-1}
    M'(s)).  The seed is typically an eigenvalue of a discrete model.
    """
    n = A0.shape[0]
    s = complex(seed)
    eye = np.eye(n)
    for _ in range(iters):
        E = np.exp(-s * h)
        M = s * eye - A0 - E * A1
        Mp = eye + h * E * A1
        try:
            X = np.linalg.solve(M, Mp)
        except np.linalg.LinAlgError:
            break
        step = 1.0 / np.trace(X)
        s = s - step
        if abs(step) < 1e-14 * max(1.0, abs(s)):
            break
    return s


def kron_lyap_solve(A, Q):
    """Solve P A + A^T P = -Q through the Kronecker-vectorized linear system.

    The operator (A^T (x) I + I (x) A^T) acts on the column-major vec of P.
    It is assembled sparse and solved by sparse LU, so that dimension-123
    closures (d^2 = 15129 unknowns) stay fast and within memory.  Where more
    than 2% of the operator is nonzero (a dense A), the LU factors fill in
    anyway and dense LU is the faster of the two.
    """
    # Imported here: the package loads no SciPy, and a child process that
    # imports these helpers after it should not load a second OpenBLAS.
    import scipy.sparse
    import scipy.sparse.linalg

    d = A.shape[0]
    K = scipy.sparse.kronsum(A.T, A.T, format="csc")   # A^T (x) I + I (x) A^T
    b = -Q.reshape(-1, order="F")
    if K.nnz > 0.02 * d**4:
        vecP = np.linalg.solve(K.toarray(), b)
    else:
        vecP = scipy.sparse.linalg.splu(K).solve(b)
    P = vecP.reshape(d, d, order="F")
    return 0.5 * (P + P.T)


def legendre_cost(weights, N, h):
    """Direct coefficient-basis cost of the tau closure, the reference for
    the split build.

    Solving P A + A^T P = -Q with this cost gives the tau functional in one
    solve, with no split into the endpoint solve and the history mass terms.
    Only the endpoint rows of the coefficient-to-values map survive the
    congruence of the corner blocks, giving Q0 on every block and
    (-1)^(j+k) Q1 on block (j, k); the integral term is diagonal with
    moments h/(2k+1) (and h on the matcher block).
    """
    jk = np.add.outer(np.arange(N + 1), np.arange(N + 1))
    alt = np.where(jk % 2 == 0, 1.0, -1.0)
    Q = np.kron(np.ones((N + 1, N + 1)), weights.Q0) + np.kron(alt, weights.Q1)
    if np.any(weights.Q2):
        diag = np.append(h / (2.0 * np.arange(N) + 1.0), h)
        Q += np.kron(np.diag(diag), weights.Q2)
    return Q


def longdouble_tau_k1(A, Q, n):
    """k1 of the tau functional with closure A and cost Q, in extended precision.

    P from `solve_lyapunov` is refined twice by the correction
    E A + A^T E = -R, where the residual R = P A + A^T P + Q is formed in
    np.longdouble.  The change to combined coordinates and the elimination
    of the history blocks (Gaussian, no pivoting) then run in np.longdouble;
    only the n x n complement goes back to double for its least eigenvalue.
    np.longdouble is the 80-bit format on x86-64 Linux; where it is plain
    double, this reference is no more accurate than the code it checks.
    """
    Al, Ql = A.astype(np.longdouble), Q.astype(np.longdouble)
    P = solve_lyapunov(A, Q).P.astype(np.longdouble)
    for _ in range(2):
        R = P @ Al + Al.T @ P + Ql
        P = P + solve_lyapunov(A, (0.5 * (R + R.T)).astype(float)).P
    d = A.shape[0]
    P[:-n] -= np.tile(P[-n:], (d // n - 1, 1))
    P[:, :-n] -= np.tile(P[:, -n:], d // n - 1)
    for j in range(d - n):
        P[j + 1:, j + 1:] -= np.outer(P[j + 1:, j], P[j, j + 1:]) / P[j, j]
    S = P[-n:, -n:].astype(float)
    return float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])


def openblas_threads():
    """Thread count of each OpenBLAS loaded in this process, by file name.

    Read through each library's get-threads symbol; empty where
    /proc/self/maps is missing or no OpenBLAS is loaded.
    """
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(p for p in paths if os.path.isfile(p)):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def use_scipy_lapack(monkeypatch):
    """Bind `lkapprox.linalg`'s LAPACK and BLAS calls to SciPy's wrappers,
    the routines the module falls back to, until the monkeypatch undoes it."""
    import lkapprox.linalg

    for name, fn in lkapprox.linalg._scipy_routines()._asdict().items():
        monkeypatch.setattr(lkapprox.linalg, "_" + name, fn)


def relative_residual(P, A, Q):
    """||P A + A^T P + Q||_F relative to max(1, ||Q||_F + 2 ||A||_F ||P||_F),
    the quantity `solve_lyapunov` gates at 1e-9."""
    res = float(np.linalg.norm(P @ A + A.T @ P + Q, "fro"))
    scale = max(
        1.0,
        float(np.linalg.norm(Q, "fro"))
        + 2.0 * float(np.linalg.norm(A, "fro")) * float(np.linalg.norm(P, "fro")),
    )
    return res / scale


@dataclass(frozen=True)
class Kernels:
    """The quadratic kernels of V in terms of Psi."""

    corner: np.ndarray   # Psi(0)
    cross: object        # theta -> Psi(-h - theta) A1
    double: object       # (xi, theta) -> A1' Psi(xi - theta) A1
    point: object        # theta -> Q1 + (h + theta) Q2


def kernels(dl, weights):
    """The kernels of V as scalar closures over `dl`, one Psi call each."""
    A1 = dl.system.A1
    h = dl.system.h
    Q1, Q2 = weights.Q1, weights.Q2

    def cross(theta):
        return dl(-h - theta) @ A1

    def double(xi, theta):
        return A1.T @ dl(xi - theta) @ A1

    def point(theta):
        return Q1 + (h + theta) * Q2

    return Kernels(corner=dl(0.0), cross=cross, double=double, point=point)


def loop_assemble_quad(dl, weights, rule="cc", N=40):
    """Reference for `oracle.assemble_quad`: the same quadrature matrix,
    filled block by block from the scalar kernels of `kernels` in a
    double loop over the node pairs."""
    system = dl.system
    n, h = system.n, system.h
    ker = kernels(dl, weights)
    if rule == "cc":
        grid = cheb_nodes(int(N), h)
    else:
        g = gauss_legendre(int(N), h)
        grid = NodeSet(np.append(g.nodes, 0.0), np.append(g.weights, 0.0))

    t = grid.nodes
    w = grid.weights
    m = t.size
    d = n * m
    P = np.zeros((d, d))

    def blk(j, k):
        return slice(j * n, (j + 1) * n), slice(k * n, (k + 1) * n)

    quad_idx = range(m) if rule == "cc" else range(m - 1)
    for j in quad_idx:
        rj, _ = blk(j, j)
        for k in quad_idx:
            if k < j:
                continue
            K = w[j] * w[k] * ker.double(t[j], t[k])
            _, ck = blk(j, k)
            P[rj, ck] += K
            if k != j:
                rk, cj = blk(k, j)
                P[rk, cj] += K.T
        P[rj, rj] += w[j] * ker.point(t[j])

    last = slice(d - n, d)
    for k in quad_idx:
        _, ck = blk(0, k)
        C = ker.cross(t[k]) * w[k]
        P[last, ck] += C
        P[ck, last] += C.T
    P[last, last] += ker.corner
    return 0.5 * (P + P.T), grid


def loop_boundary_system(dl):
    """Reference for the boundary system of `oracle.build_delay_lyap`: the
    generator M of the stacked flow and the rows B, right-hand side b of
    its least-squares problem, with the symmetry and algebraic rows filled
    entry by entry in a loop over the index triples."""
    system = dl.system
    n = system.n
    A0, A1, h = system.A0, system.A1, system.h
    eye = np.eye(n)
    nn = n * n
    M = np.zeros((2 * nn, 2 * nn))
    M[:nn, :nn] = np.kron(A0.T, eye)
    M[:nn, nn:] = np.kron(A1.T, eye)
    M[nn:, :nn] = -np.kron(eye, A1.T)
    M[nn:, nn:] = -np.kron(eye, A0.T)
    E = expm(M * h)

    # Column-major vec: entry (i, j) of Y sits at i + j*n.
    def _y(i, j):
        return i + j * n

    def _z(i, j):
        return nn + i + j * n

    C = E[nn:, :].copy()
    C[:, :nn] -= np.eye(nn)
    rhs = [0.0] * nn
    sym = np.zeros((n * (n - 1) // 2, 2 * nn))
    r = 0
    for i in range(n):
        for j in range(i + 1, n):
            sym[r, _y(i, j)] = 1.0
            sym[r, _y(j, i)] = -1.0
            r += 1
    rhs.extend([0.0] * r)
    alg = np.zeros((n * (n + 1) // 2, 2 * nn))
    r = 0
    for i in range(n):
        for j in range(i, n):
            for k in range(n):
                alg[r, _y(i, k)] += A0[k, j]
                alg[r, _y(k, j)] += A0[k, i]
                alg[r, _z(i, k)] += A1[k, j]
                alg[r, _z(j, k)] += A1[k, i]
            rhs.append(-dl.Qtilde[i, j])
            r += 1
    return M, np.vstack([C, sym, alg]), np.asarray(rhs)


def quad_V(dl, weights, phi, m=60):
    """Quadrature of the functional's integral formula with exact kernels.

    V = x' Psi(0) x + 2 x' int Psi(-h-s) A1 phi(s) ds
      + int int phi(u)' A1' Psi(u - s) A1 phi(s) du ds
      + int phi(s)' (Q1 + (h+s) Q2) phi(s) ds,  x = phi(0).

    Psi has a derivative jump across u = s, so the double integral is split
    at the diagonal (the integrand is symmetric in (u, s)) and each smooth
    triangle integrated with an iterated Gauss rule; the single integrals use
    the same m-point rule.  Spectrally accurate for smooth phi.
    """
    A1 = dl.system.A1
    h = dl.system.h
    x = phi(0.0)
    V = float(x @ dl(0.0) @ x)
    outer = gauss_legendre(m, h)
    gu, wu = np.polynomial.legendre.leggauss(m)
    acc2 = 0.0
    for t, wt in zip(outer.nodes, outer.weights):
        pt = phi(t)
        V += 2.0 * wt * float(x @ dl(-h - t) @ A1 @ pt)
        V += wt * float(pt @ ((weights.Q1 + (h + t) * weights.Q2) @ pt))
        half = -t / 2.0
        for xu, wx in zip(t + half * (gu + 1.0), wu):
            acc2 += wt * (half * wx) * float(phi(xu) @ A1.T @ dl(xu - t) @ A1 @ pt)
    return V + 2.0 * acc2


def quad_k1(dl, weights, M=16, m=30):
    """Lower-bound coefficient k1 from a Legendre-Galerkin matrix of V.

    The history is restricted to M orthonormal Legendre polynomials on
    [-h, 0] per component; every entry of the resulting (nM + n)-block
    matrix of V (history blocks first, the endpoint block last) is an
    integral of the exact kernels, computed with the split-diagonal m-point
    Gauss rule of quad_V.  k1 is the smallest eigenvalue of the Schur
    complement that eliminates the history.  Uses only Psi, no closure;
    spectrally accurate in M and m since the minimizing history is smooth.
    """
    n = dl.system.n
    A1 = dl.system.A1
    h = dl.system.h
    scale = np.sqrt((2.0 * np.arange(M) + 1.0) / h)

    def basis(points):
        # Row q holds the M orthonormal Legendre values at points[q].
        return legvander(2.0 * np.asarray(points) / h + 1.0, M - 1) * scale

    outer = gauss_legendre(m, h)
    t, wt = outer.nodes, outer.weights
    L = basis(t)
    cross = np.einsum("q,qj,qab->ajb", wt,
                      L, np.array([dl(-h - s) @ A1 for s in t]))
    Q = np.array([weights.Q1 + (h + s) * weights.Q2 for s in t])
    point = np.einsum("q,qi,qj,qab->iajb", wt, L, L, Q)

    # Upper triangle u > s of the double integral, each inner segment
    # [s, 0] mapped to the same m-point rule; the lower triangle is its
    # block transpose because Psi(-tau) = Psi(tau)'.
    gu, wu = np.polynomial.legendre.leggauss(m)
    half = -t / 2.0
    u = t[:, None] + half[:, None] * (gu[None, :] + 1.0)
    w2 = (wt * half)[:, None] * wu[None, :]
    K = np.array([[A1.T @ dl(uk - s) @ A1 for uk in row] for s, row in zip(t, u)])
    Lu = basis(u.ravel()).reshape(m, m, M)
    upper = np.einsum("qr,qri,qj,qrab->iajb", w2, Lu, L, K)
    double = upper + upper.transpose(2, 3, 0, 1)

    p = n * M
    P = np.zeros((p + n, p + n))
    P[:p, :p] = (point + double).reshape(p, p)
    P[p:, :p] = cross.reshape(n, p)
    P[:p, p:] = P[p:, :p].T
    P[p:, p:] = dl(0.0)
    S = schur_complement(P, p)
    return float(np.linalg.eigvalsh(S)[0])


def random_stable_matrix(rng, d, margin=0.1):
    """A random matrix with spectral abscissa at most -margin."""
    A = rng.standard_normal((d, d))
    shift = float(np.max(np.linalg.eigvals(A).real))
    return A - (shift + margin) * np.eye(d)


def random_stable_rfde(rng, n=2):
    """A random delay system that is exponentially stable for every delay.

    Drawn so that the matrix measure of A0 plus the norm of A1 is negative
    (mu2(A0) + ||A1||_2 < 0), which certifies delay-independent stability and
    in particular the solvability of the delay Lyapunov problem.
    """
    W = rng.standard_normal((n, n))
    delta = rng.uniform(0.4, 1.6)
    A0 = W - (float(np.linalg.eigvalsh(0.5 * (W + W.T))[-1]) + delta) * np.eye(n)
    B = rng.standard_normal((n, n))
    A1 = B * (rng.uniform(0.2, 0.9) * delta / max(1e-12, float(np.linalg.norm(B, 2))))
    h = float(rng.uniform(0.1, 5.0))
    return RfdeSystem(A0, A1, h)


def gram_psi(dl, nodes):
    """The block matrix (Psi(t_j - t_k))_{jk} on the given nodes."""
    n = dl.system.n
    m = len(nodes)
    G = np.zeros((n * m, n * m))
    for j in range(m):
        for k in range(m):
            G[j * n:(j + 1) * n, k * n:(k + 1) * n] = dl(nodes[j] - nodes[k])
    return 0.5 * (G + G.T)
