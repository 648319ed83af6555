"""Complete-type Lyapunov-Krasovskii functionals for one-delay linear systems.

Builds finite-dimensional approximations of the functional with prescribed
derivative weights (Q0, Q1, Q2) through two spectral ODE closures
(Chebyshev collocation and Legendre tau), extracts the tight quadratic
lower-bound coefficient, and cross-checks everything against a delay
Lyapunov matrix quadrature route.

The top level holds what the `lk` command, the demos and the benchmark
call; the closures, grids and linear-algebra primitives stay importable
from their own modules.
"""

from .discretize import CostWeights, FunctionSpec, RfdeSystem
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
    eigenvalues,
)
from .oracle import (
    DelayLyapunovMatrix,
    LyapunovConditionError,
    assemble_quad,
    build_delay_lyap,
    k1_quad,
    property_residuals,
)

__version__ = "0.1.0"
