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

import numpy as np
import scipy.linalg

from .discretize import (
    CostWeights,
    DiscreteModel,
    RfdeSystem,
    _coordinates,
    _grid_map,
    _to_combined,
    build_model,
)
from .linalg import (
    ConvergenceError,
    DimensionError,
    _is_psd,
    is_hurwitz,
    schur_complement,
    solve_lyapunov,
    sym_eigen,
)

__all__ = [
    "FunctionalApprox",
    "build_functional",
    "evaluate",
    "k1",
    "baseline_k1",
    "critical_delay",
]

_log = logging.getLogger(__name__)


@dataclass
class FunctionalApprox:
    """A built functional: V(phi) = c' P c in the closure's coordinates c.

    P is the grid-values matrix for the "cheb" scheme and the Legendre
    coefficient matrix for "legendre".  `residual` (gated by
    `solve_lyapunov`) and `hurwitz`/`max_re` come from the build's one
    Lyapunov solve, the same solve for both schemes; `lam_min`/`lam_max` are
    the extreme eigenvalues of P, and `psd` is the scale-free verdict
    lam_min >= -1e-8 max(|lam_min|, |lam_max|) that `schur_complement` also
    applies.
    """

    scheme: str
    system: RfdeSystem
    weights: CostWeights
    N: int
    model: DiscreteModel
    P: np.ndarray
    residual: float
    hurwitz: bool
    max_re: float
    lam_min: float
    lam_max: float
    psd: bool
    _grid_P: np.ndarray = None
    _k1: float = None

    def grid_matrix(self):
        """P expressed on the Chebyshev value grid (both schemes)."""
        if self._grid_P is None:
            T_vc = _grid_map(self.model)
            if T_vc is None:
                return self.P
            M = T_vc.T @ self.P @ T_vc
            self._grid_P = 0.5 * (M + M.T)
        return self._grid_P


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
    if weights.n != system.n:
        raise DimensionError(
            f"weights are {weights.n}-dimensional but the system is {system.n}-dimensional"
        )
    if not allow_incomplete and not weights.is_complete():
        raise ValueError(
            "weights do not satisfy the complete-type contract "
            "(Q0 > 0, Q1 > 0, Q2 >= 0); pass allow_incomplete=True to waive"
        )
    N = int(N)
    if N < 1:
        raise ValueError(f"order must be an integer >= 1, got {N!r}")

    model = build_model(system, scheme, N)
    e_e = np.outer(model.e, model.e)
    sol = solve_lyapunov(model.A, np.kron(e_e, weights.combined(system.h)))
    P = sol.P + np.kron(model.M1, weights.Q1)
    if np.any(weights.Q2):
        P = P + np.kron(model.M2, weights.Q2)

    max_re = float(np.max(sol.eigenvalues.real))
    ew = np.linalg.eigvalsh(P)
    lam_min, lam_max = float(ew[0]), float(ew[-1])
    return FunctionalApprox(
        scheme=scheme, system=system, weights=weights, N=N, model=model,
        P=P, residual=sol.residual,
        hurwitz=max_re < 0.0, max_re=max_re,
        lam_min=lam_min, lam_max=lam_max, psd=_is_psd(lam_min, lam_max),
    )


def evaluate(fa, phi):
    """V(phi) for a segment given as a FunctionSpec."""
    if phi.n != fa.system.n:
        raise DimensionError(
            f"segment is {phi.n}-dimensional but the system is {fa.system.n}-dimensional"
        )
    c = _coordinates(fa.model, phi)
    return float(c @ fa.P @ c)


def k1(fa, check_psd=True):
    """Tight coefficient of the quadratic lower bound k1 ||x(t)||^2 <= V.

    Eliminates the history blocks by a generalized Schur complement in
    combined coordinates, whose last block is the endpoint value (for
    collocation these are the grid values themselves).  With check_psd a
    functional that fails its `psd` verdict (past the stability boundary)
    raises instead of returning a negative number.
    """
    if fa._k1 is None:
        M = _to_combined(fa.P, fa.model.e, fa.system.n, rows=True)
        S = schur_complement(M, fa.system.n * fa.N, check_psd=False)
        fa._k1 = float(sym_eigen(S).eigenvalues[0])
    if check_psd and not fa.psd:
        raise ValueError(
            f"functional is indefinite (lam_min = {fa.lam_min:.3e}); "
            "pass check_psd=False to evaluate anyway"
        )
    return fa._k1


def baseline_k1(system, weights, method="norm-ratio"):
    """Classical lower-bound coefficients used as comparison baselines.

    "norm-ratio": min(lam_min(Q0)/(2||A0|| + ||A1||), lam_min(Q1)/||A1||),
    with the second ratio +inf for a delay-free system (A1 = 0).
    "alpha-max": the largest alpha keeping S + alpha M positive
    semidefinite, S = blkdiag(Q0, Q1) and M = [[A0' + A0, A1], [A1', 0]].
    For S > 0 it is -1/mu_min of the pencil (M, S), from one symmetric
    definite eigensolve; a singular S is reduced to its range (see
    `_range_pencil`).  Raises ConvergenceError when mu_min >= 0, where no
    finite alpha bounds the feasible set.
    """
    if weights.n != system.n:
        raise DimensionError("weights and system dimensions differ")
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

    S = scipy.linalg.block_diag(weights.Q0, weights.Q1)
    M = np.block([[system.A0.T + system.A0, system.A1],
                  [system.A1.T, np.zeros((n, n))]])
    try:
        mu = scipy.linalg.eigh(M, S, eigvals_only=True)
    except np.linalg.LinAlgError:
        mu = _range_pencil(S, M)
        if mu is None:
            return 0.0
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


def _itp(f, lo, hi, f_lo, f_hi, tol):
    """Shrink a bracket with f(lo) < 0 <= f(hi) to at most `tol` wide.

    The ITP method (interpolate, truncate, project; Oliveira & Takahashi,
    ACM TOMS 47(1), 2020) with kappa1 = 2 / (hi - lo), kappa2 = 2 and
    n0 = 1: each step starts from the regula-falsi point of the bracket's
    values, moves it towards the midpoint by kappa1 width^2, and projects it
    into the ball around the midpoint that keeps the bracket on course for
    n_max = ceil(log2((hi - lo) / tol)) + 1 steps, one more than bisection.
    A value f(x) < 0 moves lo to x, any other value moves hi.  `tol` must
    exceed 8 ulps of max(|lo|, |hi|).  Returns (lo, hi, steps), the final
    bracket and the number of evaluations of f.
    """
    kappa1 = 2.0 / (hi - lo)
    n_max = int(np.ceil(np.log2((hi - lo) / tol))) + 1
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


def critical_delay(system, scheme="legendre", N=20, bracket=(1.0, 10.0), tol=1e-4):
    """Delay at which the closure's spectral abscissa crosses zero.

    The lower bracket must be stable and the upper bracket unstable (both
    for the chosen closure; an abscissa >= 0 counts as unstable).  The
    bracket is shrunk by ITP root-finding on the abscissa (`_itp`), which
    uses the abscissa's value, not only its sign, and needs at most one
    closure eigen-solve more than bisection, usually about half as many.
    Returns the midpoint of a final bracket at most `tol` wide that holds a
    sign change, so the crossing lies within tol/2 of the result.  Raises
    ValueError for a bad bracket or a `tol` at or below 8 ulps of its upper
    end, which no bracket can reach.
    """
    h_lo, h_hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < h_lo < h_hi < np.inf):
        raise ValueError(f"bracket must satisfy 0 < lo < hi < inf, got {bracket!r}")
    tol = float(tol)
    if not tol > 0.0:   # NaN included
        raise ValueError("tol must be positive")
    if not tol > 8.0 * np.spacing(h_hi):
        # Below a few ulps of h no bracket can shrink to tol: the search
        # would never end.
        raise ValueError(f"tol {tol!r} is below the floating-point resolution "
                         f"of h near {h_hi}")

    def _abscissa(h):
        model = build_model(dataclasses.replace(system, h=h), scheme, N)
        return is_hurwitz(model.A)[1]

    a_lo = _abscissa(h_lo)
    if a_lo >= 0.0:
        raise ValueError(f"system is not stable at the lower bracket h = {h_lo}")
    a_hi = _abscissa(h_hi)
    if a_hi < 0.0:
        raise ValueError(f"system is still stable at the upper bracket h = {h_hi}")
    h_lo, h_hi, steps = _itp(_abscissa, h_lo, h_hi, a_lo, a_hi, tol)
    _log.debug("critical_delay: %d abscissa evaluations, final bracket [%r, %r]",
               steps + 2, h_lo, h_hi)
    return 0.5 * (h_lo + h_hi)
