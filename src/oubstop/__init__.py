"""Optimal stopping of an Ornstein-Uhlenbeck bridge.

Computes the optimal stopping boundary of a bridge pinned at a terminal
value (gain = the process itself) by solving the associated Volterra
free-boundary integral equation with Picard iteration, evaluates the value
function from the solved boundary, and verifies both against independent
Monte Carlo and quadrature oracles.
"""
from .bridge import (
    CanonicalReduction,
    OUBParams,
    ProcessState,
    cond_mean,
    cond_std,
    drift,
    reduce_to_canonical,
    sample_transition,
)
from .kernel import (
    KernelQuery,
    KernelTable,
    density,
    drift_kernel,
    survival,
    transformed_integrand,
)
from .mc import (
    MCConfig,
    MCEstimate,
    PerturbationReport,
    kernel_oracle,
    perturbation_test,
    simulate_stopped_payoff,
)
from .pricing import ValueSurfaceQuery, transformed_value, value
from .solver import (
    BoundarySolution,
    ConvergenceError,
    ScalarSolveError,
    SolvedBoundary,
    SolverConfig,
    TimeGrid,
    backward_solve,
    boundary_eval,
    log_partition,
    picard_solve,
    solve_boundary,
    uniform_partition,
)
from .transform import (
    TransformContext,
    boundary_to_original,
    envelope,
    envelope_deriv,
    gain,
    gain_t,
    gain_x,
    kappa,
    kappa_inv,
    make_context,
    original_to_transformed,
    psi,
    upsilon,
    upsilon_inv,
    value_to_original,
)

__version__ = "0.1.0"
