"""Complete-type Lyapunov-Krasovskii functionals for one-delay linear systems.

Builds finite-dimensional approximations of the functional with prescribed
derivative weights (Q0, Q1, Q2) through two spectral ODE closures
(Chebyshev collocation and Legendre tau), extracts the tight quadratic
lower-bound coefficient, and cross-checks everything against a delay
Lyapunov matrix quadrature route.
"""

from .discretize import (
    CostWeights,
    DiscreteModel,
    FunctionSpec,
    RfdeSystem,
    build_cheb_model,
    build_leg_model,
    build_model,
    condition1_check,
    discretize_cheb,
    discretize_leg,
)
from .functional import (
    FunctionalApprox,
    baseline_k1,
    build_functional,
    critical_delay,
    evaluate,
    k1,
)
from .linalg import (
    ConvergenceError,
    DimensionError,
    NumericalFailureError,
    RangeError,
    SingularOperatorError,
    SymEigen,
    eigenvalues,
    expm,
    is_hurwitz,
    schur_complement,
    solve_lyapunov,
    sym_eigen,
)
from .oracle import (
    DelayLyapunovMatrix,
    LyapunovConditionError,
    assemble_quad,
    build_delay_lyap,
    k1_quad,
    property_residuals,
)
from .spectral import (
    NodeSet,
    cheb_diffmat,
    cheb_nodes,
    gauss_legendre,
    legendre_vals,
    transform_leg_to_chebvals,
)

__version__ = "0.1.0"
