"""Optimal stopping of an Ornstein-Uhlenbeck bridge.

Computes the optimal stopping boundary of a bridge pinned at a terminal
value (gain = the process itself) by solving the discretised Volterra
free-boundary integral equation exactly, node by node (by Picard iteration
where no root lies near a node), evaluates the value function from the
solved boundary, and verifies both against independent Monte Carlo and
quadrature oracles.
"""
from .bridge import (
    CanonicalReduction,
    OUBParams,
    cond_mean,
    cond_std,
    drift,
    reduce_to_canonical,
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
    SolvedBoundary,
    SolverConfig,
    TimeGrid,
    backward_solve,
    boundary_eval,
    log_partition,
    picard_solve,
    solve_boundary,
)
from .transform import (
    TransformContext,
    envelope,
    envelope_deriv,
    gain,
    gain_t,
    make_context,
    original_to_transformed,
    upsilon,
    upsilon_inv,
)

__version__ = "0.1.0"
