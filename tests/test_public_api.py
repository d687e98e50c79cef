"""The public surface of oubstop, written out so that adding or removing a
name or a config field shows up as a deliberate edit here."""
import dataclasses
import importlib
import inspect

import pytest

import oubstop
from oubstop import MCConfig, SolverConfig

PUBLIC_NAMES = [
    "BoundarySolution",
    "CanonicalReduction",
    "ConvergenceError",
    "KernelQuery",
    "MCConfig",
    "MCEstimate",
    "OUBParams",
    "PerturbationReport",
    "SolvedBoundary",
    "SolverConfig",
    "TimeGrid",
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
    "kernel_oracle",
    "log_partition",
    "make_context",
    "original_to_transformed",
    "perturbation_test",
    "picard_solve",
    "reduce_to_canonical",
    "simulate_stopped_payoff",
    "solve_boundary",
    "value",
]


def test_public_names():
    # submodules (oubstop.cli, ...) become attributes once imported; they
    # are not names of the API
    names = sorted(n for n, v in vars(oubstop).items()
                   if not n.startswith("_") and not inspect.ismodule(v))
    assert names == PUBLIC_NAMES


@pytest.mark.parametrize("name", ["kernel", "pricing", "solver", "mc",
                                  "bridge"])
def test_production_modules_hold_nothing_from_transform(name):
    # the transformed coordinates serve verify's initial-node bound in cli
    # only; the tests keep the rest of the mirror (tests/mirror.py)
    module = importlib.import_module(f"oubstop.{name}")
    held = [n for n, v in vars(module).items()
            if v is oubstop.transform
            or getattr(v, "__module__", None) == "oubstop.transform"]
    assert held == []


def test_config_fields():
    assert [f.name for f in dataclasses.fields(SolverConfig)] \
        == ["n", "eps", "max_iter"]
    assert [f.name for f in dataclasses.fields(MCConfig)] \
        == ["paths", "seed", "workers"]
