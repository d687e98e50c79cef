"""Optimal stopping of an Ornstein-Uhlenbeck bridge.

Computes the optimal stopping boundary of a bridge pinned at a terminal
value (gain = the process itself) by solving the discretised Volterra
free-boundary integral equation exactly, node by node (by Picard iteration
where no root lies near a node), evaluates the value function from the
solved boundary, and verifies both against independent Monte Carlo and
quadrature oracles.

The primitives (drift, drift_kernel, boundary_eval, the transform maps)
return a numpy float64 for scalar arguments and an array for arrays.
"""
from .bridge import (
    CanonicalReduction,
    OUBParams,
    drift,
    reduce_to_canonical,
)
from .kernel import (
    KernelQuery,
    drift_kernel,
)
from .mc import (
    MCConfig,
    MCEstimate,
    PerturbationReport,
    kernel_oracle,
    perturbation_test,
    simulate_stopped_payoff,
)
from .pricing import ValueSurfaceQuery, value
from .solver import (
    BoundarySolution,
    ConvergenceError,
    SolvedBoundary,
    SolverConfig,
    TimeGrid,
    backward_solve,
    boundary_eval,
    picard_solve,
    solve_boundary,
)
from .transform import (
    envelope,
    envelope_deriv,
    make_context,
    original_to_transformed,
)

__version__ = "0.1.0"
