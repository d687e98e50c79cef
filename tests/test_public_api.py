"""The public surface of oubstop, written out so that adding or removing a
name or a config field shows up as a deliberate edit here."""
import dataclasses
import inspect

import oubstop
from oubstop import MCConfig, SolverConfig

PUBLIC_NAMES = [
    "BoundarySolution",
    "CanonicalReduction",
    "ConvergenceError",
    "KernelQuery",
    "KernelTable",
    "MCConfig",
    "MCEstimate",
    "OUBParams",
    "PerturbationReport",
    "SolvedBoundary",
    "SolverConfig",
    "TimeGrid",
    "TransformContext",
    "ValueSurfaceQuery",
    "backward_solve",
    "boundary_eval",
    "cond_mean",
    "cond_std",
    "density",
    "drift",
    "drift_kernel",
    "envelope",
    "envelope_deriv",
    "gain",
    "gain_t",
    "kernel_oracle",
    "log_partition",
    "make_context",
    "original_to_transformed",
    "perturbation_test",
    "picard_solve",
    "reduce_to_canonical",
    "simulate_stopped_payoff",
    "solve_boundary",
    "survival",
    "transformed_integrand",
    "transformed_value",
    "upsilon",
    "upsilon_inv",
    "value",
]


def test_public_names():
    # submodules (oubstop.cli, ...) become attributes once imported; they
    # are not names of the API
    names = sorted(n for n, v in vars(oubstop).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC_NAMES


def test_config_fields():
    assert [f.name for f in dataclasses.fields(SolverConfig)] \
        == ["n", "eps", "max_iter"]
    assert [f.name for f in dataclasses.fields(MCConfig)] \
        == ["paths", "seed", "workers"]
