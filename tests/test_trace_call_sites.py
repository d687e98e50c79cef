"""The benchmark's traced runs wrap library functions at fixed call sites
(perfbench/workloads.py CALL_SITES) and exit with an error when one is
missing. Check here that every site still resolves, so a refactor that
drops an import the trace wraps fails in the test suite."""
import importlib.util
from pathlib import Path

WORKLOADS = (Path(__file__).resolve().parent.parent
             / "perfbench" / "workloads.py")


def test_every_trace_call_site_resolves():
    spec = importlib.util.spec_from_file_location(
        "_perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.CALL_SITES
    missing = [f"{module.__name__}.{func}"
               for module, func, _ in workloads.CALL_SITES
               if not callable(getattr(module, func, None))]
    assert not missing, f"trace call sites not found: {missing}"
