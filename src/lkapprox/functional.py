"""Functional approximations of complete type and their quadratic lower bound.

A build solves one Lyapunov matrix equation for the chosen spectral closure
and packages the result with its stability verdicts.  The tight lower-bound
coefficient k1 (the largest k with k ||x(t)||^2 <= V) is the smallest
eigenvalue of a generalized Schur complement that eliminates the
history part of the state.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .discretize import (
    CostWeights,
    DiscreteModel,
    _check_dimensions,
    _to_combined,
    build_model,
)
from .linalg import (
    ConvergenceError,
    DimensionError,
    _certify_unstable,
    _cholesky_proves_psd,
    _is_psd,
    _kron,
    _lower_bound,
    is_hurwitz,
    solve_lyapunov,
)
from .spectral import _check_order

__all__ = [
    "FunctionalApprox",
    "build_functional",
    "evaluate",
    "k1",
    "baseline_k1",
    "critical_delay",
]

_log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class FunctionalApprox:
    """A built functional: V(phi) = c' P c in the closure's coordinates c.

    P is the grid-values matrix for the "cheb" scheme and the Legendre
    coefficient matrix for "legendre".  The record stores only what the
    build computed: the closure `model`, the `weights`, P, and the
    `residual` (gated by `solve_lyapunov`) and spectral abscissa `max_re` of
    its one Lyapunov solve, the same solve for both schemes.  `scheme`,
    `system` and `N` are read from the model, `hurwitz` from `max_re`, and
    P's spectral facts from P on first read, then kept: `psd` is the
    scale-free verdict lam_min >= -1e-8 max(|lam_min|, |lam_max|), the rule
    `k1` also applies, taken from eigvalsh(P) where `lam_min`/`lam_max` were
    read first, else from a Cholesky factorization of P that completes
    (`linalg._cholesky_proves_psd`), else from the rule on eigvalsh(P).  So
    a record made by `dataclasses.replace` describes its own P.  The record
    is frozen and P read-only: `k1` and `grid_matrix` compute anew.
    """

    model: DiscreteModel
    weights: CostWeights
    P: np.ndarray
    residual: float
    max_re: float

    scheme = property(lambda self: self.model.scheme)
    system = property(lambda self: self.model.system)
    N = property(lambda self: self.model.N)
    hurwitz = property(lambda self: self.max_re < 0.0)

    @cached_property
    def psd(self):
        """Whether P passes the scale-free positivity rule."""
        if "_extremes" not in self.__dict__ and _cholesky_proves_psd(self.P):
            return True
        return _is_psd(self.lam_min, self.lam_max)

    @cached_property
    def _extremes(self):
        w = np.linalg.eigvalsh(self.P)
        return float(w[0]), float(w[-1])

    @property
    def lam_min(self):
        """Least eigenvalue of P."""
        return self._extremes[0]

    @property
    def lam_max(self):
        """Largest eigenvalue of P."""
        return self._extremes[1]

    def grid_matrix(self):
        """P expressed on the Chebyshev value grid (both schemes)."""
        T = self.model.to_grid
        if T is None:
            return self.P
        T_vc = _kron(T, np.eye(self.system.n))
        M = T_vc.T @ self.P @ T_vc
        return 0.5 * (M + M.T)


def build_functional(system, weights, scheme="legendre", N=20, *,
                     allow_incomplete=False):
    """Build the spectral approximation of the prescribed-derivative functional.

    One formula for both schemes, the split of Kharitonov & Zhabko
    (Automatica 39, 2003):
    P = P0 + kron(M1, Q1) + kron(M2, Q2), where P0 solves the closure's
    Lyapunov equation with the lumped weight Q0 + Q1 + h Q2 on the endpoint,
    cost kron(e e', Q0 + Q1 + h Q2), and the history terms int phi' Q1 phi
    and int (h + s) phi' Q2 phi are added through the model's mass matrices
    M1, M2 (`DiscreteModel`).  These are exact for "legendre" and
    Clenshaw-Curtis rules for "cheb".  Discretizing the history terms inside
    the collocation cost instead put the cheb k1 of example 2 45-50% below
    the tau k1 at N = 8 and 17% below at N = 32, against 0.6% and 0.04% for
    the split.

    Parameters
    ----------
    scheme : {"legendre", "cheb"}
        Coefficient (tau) or grid-value (collocation) closure.
    allow_incomplete : bool
        Waive the complete-type requirement Q0 > 0, Q1 > 0, Q2 >= 0.
    """
    return _build_pass([system], weights, scheme, N, allow_incomplete=allow_incomplete)[0]


def _stack(matrices):
    """The (k, d, d) stack of `matrices`, or for k = 1 the one matrix itself:
    a pass over one point makes the calls of a lone build, on matrices."""
    return matrices[0] if len(matrices) == 1 else np.array(matrices)


def _build_pass(systems, weights, scheme="legendre", N=20, *, allow_incomplete=False):
    """`build_functional` at each system of `systems`, which differ only in
    the delay h, in one stage-major pass.

    Each closure comes from `build_model`; one `solve_lyapunov` of the
    stack then runs every point's Schur factorization before any point's
    triangular solve, and the mass terms are added point by point.  The
    pass only solves: each record computes its `psd`, `lam_min` and
    `lam_max` from its P when first read.  Each point's record has the bits
    a lone build gives it.  A point that fails raises for the whole pass.
    """
    for system in systems:
        _check_dimensions(system, weights)
    if not allow_incomplete and not weights.is_complete():
        raise ValueError(
            "weights do not satisfy the complete-type contract "
            "(Q0 > 0, Q1 > 0, Q2 >= 0); pass allow_incomplete=True to waive"
        )

    models = [build_model(system, scheme, N) for system in systems]
    A = _stack([model.A for model in models])
    e_e = np.outer(models[0].e, models[0].e)
    has_q2 = np.any(weights.Q2)
    if has_q2:
        Q = _stack([_kron(e_e, weights.combined(system.h)) for system in systems])
    else:   # the cost does not depend on h: one serves every point
        Q = _kron(e_e, weights.combined(systems[0].h))
    sol = solve_lyapunov(A, Q)
    P = sol.P.reshape((len(models),) + A.shape[-2:])   # a view of sol.P
    for Pk, model in zip(P, models):
        Pk += _kron(model.M1, weights.Q1)
        if has_q2:
            Pk += _kron(model.M2, weights.Q2)
    P.setflags(write=False)
    max_res = sol.eigenvalues.real.max(axis=-1).reshape(-1)
    return [FunctionalApprox(model, weights, Pk, float(residual), max_re)
            for Pk, model, residual, max_re in zip(
                P, models, np.reshape(sol.residual, -1), max_res.tolist())]


def evaluate(fa, phi):
    """V(phi) for a segment given as a FunctionSpec."""
    if phi.n != fa.system.n:
        raise DimensionError(
            f"segment is {phi.n}-dimensional but the system is {fa.system.n}-dimensional"
        )
    c = fa.model.read(phi)
    return float(c @ fa.P @ c)


def k1(fa, check_psd=True):
    """Tight coefficient of the quadratic lower bound k1 ||x(t)||^2 <= V.

    Eliminates the history blocks by a generalized Schur complement in
    combined coordinates, whose last block is the endpoint value (for
    collocation these are the grid values themselves); -inf where the
    history block is indefinite, as past the delay margin.  With check_psd
    a functional that fails its `psd` verdict raises ValueError instead.
    """
    if check_psd and not fa.psd:
        raise ValueError(
            f"functional is indefinite (lam_min = {fa.lam_min:.3e}); "
            "pass check_psd=False to evaluate anyway"
        )
    n = fa.system.n
    return _lower_bound(_to_combined(fa.P, fa.model.e, n), n)


def baseline_k1(system, weights, method="norm-ratio"):
    """Classical lower-bound coefficients used as comparison baselines.

    "norm-ratio": min(lam_min(Q0)/(2||A0|| + ||A1||), lam_min(Q1)/||A1||),
    with the second ratio +inf for a delay-free system (A1 = 0).
    "alpha-max": the largest alpha keeping S + alpha M positive
    semidefinite, S = blkdiag(Q0, Q1) and M = [[A0' + A0, A1], [A1', 0]].
    For S > 0 it is -1/mu_min of the pencil (M, S), from one symmetric
    eigensolve of L^-1 M L^-T after the Cholesky factorization S = L L';
    a singular S, where that factorization fails, is reduced to its range
    (see `_range_pencil`).  Raises ConvergenceError when mu_min >= 0, where
    no finite alpha bounds the feasible set.
    """
    _check_dimensions(system, weights)
    n = system.n
    if method == "norm-ratio":
        a0 = float(np.linalg.norm(system.A0, 2))
        a1 = float(np.linalg.norm(system.A1, 2))
        q0 = float(np.linalg.eigvalsh(weights.Q0)[0])
        q1 = float(np.linalg.eigvalsh(weights.Q1)[0])
        bound0 = q0 / (2.0 * a0 + a1) if (2.0 * a0 + a1) > 0.0 else np.inf
        bound1 = q1 / a1 if a1 > 0.0 else np.inf
        return float(min(bound0, bound1))
    if method != "alpha-max":
        raise ValueError(f"unknown baseline method {method!r}")

    zero = np.zeros((n, n))
    S = np.block([[weights.Q0, zero], [zero, weights.Q1]])
    M = np.block([[system.A0.T + system.A0, system.A1], [system.A1.T, zero]])
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        mu = _range_pencil(S, M)
        if mu is None:
            return 0.0
    else:
        W = np.linalg.solve(L, np.linalg.solve(L, M).T)   # L^-1 M L^-T
        mu = np.linalg.eigvalsh(0.5 * (W + W.T))
    if mu.size == 0 or mu[0] >= 0.0:
        raise ConvergenceError(
            "no finite feasibility bound for alpha; the loss matrix is not sign-definite"
        )
    return float(-1.0 / mu[0])


def _range_pencil(S, M):
    """Eigenvalues (ascending) of the pencil (M, S) reduced to the range of a
    singular S >= 0, or None when S + alpha M is indefinite for every alpha > 0.

    In an eigenbasis of S split into range r and kernel k, S + alpha M >= 0
    for an alpha > 0 needs M_kk >= 0 and M_kr in the range of M_kk; it then
    holds exactly while S_r + alpha (M_rr - M_rk M_kk^+ M_kr) >= 0.  Both
    kernels are cut at 2n eps relative to the scale of their matrix.
    """
    s, U = np.linalg.eigh(S)
    if not _is_psd(float(s[0]), float(s[-1])):
        raise ValueError("blkdiag(Q0, Q1) must be positive semidefinite")
    tol = S.shape[0] * np.finfo(float).eps
    ran = s > tol * s[-1]
    Mu = U.T @ M @ U
    m, V = np.linalg.eigh(Mu[~ran][:, ~ran])
    C = V.T @ Mu[~ran][:, ran]   # M_kr in the eigenbasis of M_kk
    cut = tol * np.linalg.norm(M)
    live = m > cut
    if m.min(initial=0.0) < -cut or np.abs(C[~live]).max(initial=0.0) > cut:
        return None
    R = Mu[ran][:, ran] - C[live].T @ (C[live] / m[live, None])
    r = 1.0 / np.sqrt(s[ran])
    return np.linalg.eigvalsh(r[:, None] * R * r)


def _itp(f, lo, hi, f_lo, f_hi, tol, n_max, kappa1):
    """Shrink a bracket with f(lo) < 0 <= f(hi) to at most `tol` wide.

    The ITP method (interpolate, truncate, project; Oliveira & Takahashi,
    ACM TOMS 47(1), 2020) with kappa2 = 2: each step starts from the
    regula-falsi point of the bracket's values, moves it towards the
    midpoint by kappa1 width^2, and projects it into the ball around the
    midpoint that keeps the bracket on course for `n_max` steps; the
    method's own count, n0 = 1, is ceil(log2((hi - lo) / tol)) + 1, one
    more than bisection.  A kappa1 of 2 / (hi - lo) makes the first three
    steps midpoints, 0.2 / (hi - lo) interpolates from the first.  The
    course is feasible, and at most n_max evaluations of f are made, while
    hi - lo <= (tol - 4 ulps) 2^n_max.  A value f(x) < 0 moves lo to x, any
    other value moves hi.  `tol` must exceed 8 ulps of max(|lo|, |hi|).
    Returns (lo, hi, steps), the final bracket and the number of evaluations
    of f.
    """
    # The course ends a few ulps inside tol.  Once the bracket is on it,
    # every step is a bisection, and their rounding would otherwise leave
    # the last bracket an ulp past tol and cost a step beyond n_max.
    goal = tol - 4.0 * np.spacing(max(abs(lo), abs(hi)))
    steps = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        # Clamped at 0: a negative radius would put x outside the bracket.
        radius = max(0.0, 0.5 * goal * 2.0 ** (n_max - steps) - 0.5 * (hi - lo))
        x_f = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)
        sigma = 1.0 if mid >= x_f else -1.0
        delta = kappa1 * (hi - lo) ** 2
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        y = f(x)
        steps += 1
        if y < 0.0:
            lo, f_lo = x, y
        else:
            hi, f_hi = x, y
    return lo, hi, steps


def _check_bracket(bracket, tol):
    """The bracket and tol of `critical_delay` as floats, or ValueError."""
    h_lo, h_hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < h_lo < h_hi < np.inf):
        raise ValueError(f"bracket must satisfy 0 < lo < hi < inf, got {bracket!r}")
    tol = float(tol)
    if not 0.0 < tol < np.inf:   # NaN included
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if not tol > 8.0 * np.spacing(h_hi):
        # Below a few ulps of h no bracket can shrink to tol: the search
        # would never end.
        raise ValueError(f"tol {tol!r} is below the floating-point resolution "
                         f"of h near {h_hi}")
    return h_lo, h_hi, tol


def _delay_margin(A0, A1):
    """(h, omega): the smallest delay h > 0 at which x' = A0 x + A1 x(t - h)
    has a root i omega, omega > 0, and that omega.

    (inf, None) when A0 + A1 is not Hurwitz, no root reaches the imaginary
    axis at any delay or the first such delay exceeds the float range.  A root i omega at delay h is an eigenvalue of A0 + z A1,
    z = exp(-i omega h), whose conjugate -i omega is one of A0 + A1 / z, so
    the quadratic z^2 (A1 x I) + z (A0 x I + I x A0) + I x A1 in Kronecker
    products is singular there, with |z| = 1 (Chen, Gu & Nett, Syst. Control
    Lett. 26, 1995; Jarlebring, J. Comput. Appl. Math. 224, 2009).  The
    Cayley map z = (1 + w) / (1 - w) sends |z| = 1 to Re w = 0 and makes the
    constant coefficient the Kronecker sum of A0 + A1 with itself, which is
    nonsingular when A0 + A1 is Hurwitz; so one eigensolve of a 2n^2
    companion matrix in mu = 1/w gives every candidate z (mu = 0 is
    z = -1), and each imaginary eigenvalue i omega, omega > 0, of A0 + z A1
    a crossing at h = (-arg z mod 2 pi) / omega.  A1 may be singular.  The
    pencil is solved for A0 and A1 divided by ||A0||_1 + ||A1||_1, which
    multiplies h by that scale and divides omega by it.
    """
    n = A0.shape[0]
    S = A0 + A1
    if not np.max(np.linalg.eigvals(S).real) < 0.0:
        return np.inf, None
    scale = float(np.linalg.norm(A0, 1) + np.linalg.norm(A1, 1))
    A0, A1, S = A0 / scale, A1 / scale, S / scale
    eye = np.eye(n)
    right, left = _kron(A1, eye), _kron(eye, A1)
    both = _kron(A0, eye) + _kron(eye, A0)
    # (mu^2 C0 + mu C1 + C2) v = 0 with C0 = S (+) S, C1 = 2 (right - left)
    # and C2 = right + left - both, as a first-order companion.
    m = n * n
    companion = np.zeros((2 * m, 2 * m))
    companion[:m, m:] = np.eye(m)
    companion[m:] = -np.linalg.solve(_kron(S, eye) + _kron(eye, S),
                                     np.hstack([right + left - both, 2.0 * (right - left)]))
    if not np.all(np.isfinite(companion)):   # S too close to singular
        return np.inf, None
    mu = np.linalg.eigvals(companion)
    mu = mu[np.abs(mu.real) <= 1e-6 * (1.0 + np.abs(mu))]
    z = (mu + 1.0) / (mu - 1.0)
    z /= np.abs(z)
    lam = np.linalg.eigvals(A0 + z[:, None, None] * A1)
    crossing = (np.abs(lam.real) <= 1e-6) & (lam.imag > 0.0)
    h = np.divide(np.mod(-np.angle(z), 2.0 * np.pi)[:, None], lam.imag,
                  out=np.full(lam.shape, np.inf), where=crossing)
    if not np.any(h < np.inf):
        return np.inf, None
    k = np.unravel_index(np.argmin(h), h.shape)
    if not float(h[k]) / scale < np.inf:   # past the float range, as for a tiny scale
        return np.inf, None
    return float(h[k]) / scale, float(lam[k].imag) * scale


def critical_delay(system, scheme="legendre", N=20, bracket=(1.0, 10.0), tol=1e-4):
    """Delay at which the closure's spectral abscissa crosses zero.

    The search starts from the delay system's own margin h_e and crossing
    frequency omega_e (`_delay_margin`), to which the closure's crossing
    converges with N.  Where the abscissa changes sign across
    [h_e - tol/2, h_e + tol/2], the result is h_e after 2 closure
    evaluations.  The window's lower end takes an eigen-solve.  At its upper
    end one eigenvalue with Re lam >= 0 suffices, which
    `linalg._certify_unstable` looks for by inverse iteration about
    i omega_e; only where it finds none does that end take an eigen-solve
    too.  The search reads only the sign of a certified value.  Otherwise
    ITP root-finding (`_itp`) finishes between that window and the end of
    the bracket on the side of the sign change, reusing the value at the
    window's edge; where h_e is infinite or outside the bracket, it
    searches the whole bracket.  Every other evaluation is an eigen-solve.
    A call takes at most ITP's count on the whole bracket with its ends,
    ceil(log2((hi - lo) / tol)) + 3 evaluations.  h_e only places the
    window: the result is the midpoint of a final bracket at most `tol`
    wide across which the closure's abscissa changes sign, so that
    crossing lies within tol/2 of it.  The one DEBUG record gives the
    evaluation count, h_e, the final bracket and how the window's upper end
    was decided ("certified in k steps" or "full solve").

    The lower bracket must be stable and the upper bracket unstable for the
    chosen closure (an abscissa >= 0 counts as unstable), checked where the
    search evaluates them.  Raises ValueError for a bad bracket or a `tol`
    at or below 8 ulps of its upper end, which no bracket can reach.
    """
    h_lo, h_hi, tol = _check_bracket(bracket, tol)
    N = _check_order(N)
    evaluations = 0
    upper_end = "full solve"

    def abscissa(h, omega=None):
        """The closure's spectral abscissa at h or, given omega, the real
        part >= 0 of an eigenvalue certified about i omega where one is."""
        nonlocal evaluations, upper_end
        evaluations += 1
        A = build_model(dataclasses.replace(system, h=h), scheme, N).A
        found = None if omega is None else _certify_unstable(A, omega)
        if found is None:
            a = is_hurwitz(A)[1]
        else:
            a, steps = found
            upper_end = f"certified in {steps} steps"
        if h == h_lo and a >= 0.0:
            raise ValueError(f"system is not stable at the lower bracket h = {h_lo}")
        if h == h_hi and a < 0.0:
            raise ValueError(f"system is still stable at the upper bracket h = {h_hi}")
        return a

    h_e, omega_e = _delay_margin(system.A0, system.A1)
    n_max = int(np.ceil(np.log2((h_hi - h_lo) / tol))) + 1   # ITP's, n0 = 1
    a = max(h_lo, h_e - 0.5 * tol)
    b = min(h_hi, a + tol)
    while b - a > tol:   # a + tol can round an ulp past tol
        b = float(np.nextafter(b, a))
    # A window that misses the crossing costs its 2 points and an end of the
    # bracket, so it is tried only where ITP can finish on either side of it
    # in n_max - 1 steps (`_itp`'s feasible course), which holds for every
    # tol^2 >= 8 ulp(hi) (hi - lo).
    goal = tol - 4.0 * np.spacing(h_hi)
    if h_lo < h_e < h_hi and max(a - h_lo, h_hi - b) <= goal * 2.0 ** (n_max - 1):
        n_max -= 1
        f_a, f_b = abscissa(a), abscissa(b, omega_e)
        if f_b < 0.0:   # the crossing lies above the window
            lo, hi, f_lo, f_hi = b, h_hi, f_b, abscissa(h_hi)
        elif f_a >= 0.0:   # or below it
            lo, hi, f_lo, f_hi = h_lo, a, abscissa(h_lo), f_a
        else:
            lo, hi, f_lo, f_hi = a, b, f_a, f_b
        # The crossing lies near the window's edge, where the abscissa is
        # small, so the regula-falsi points are trusted from the first step.
        kappa1 = 0.2 / (hi - lo)
    else:
        # With no such point, three bisections first: on 40 random systems
        # 0.2 / (hi - lo) took 17 eigen-solves on average against 11.
        lo, hi, f_lo, f_hi = h_lo, h_hi, abscissa(h_lo), abscissa(h_hi)
        kappa1 = 2.0 / (hi - lo)
    lo, hi, _ = _itp(abscissa, lo, hi, f_lo, f_hi, tol, n_max, kappa1)
    _log.debug("critical_delay: %d abscissa evaluations, delay margin %r, "
               "final bracket [%r, %r], upper end: %s", evaluations, h_e, lo, hi,
               upper_end)
    return 0.5 * (lo + hi)
