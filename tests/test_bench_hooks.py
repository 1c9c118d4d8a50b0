"""The benchmark's hooks into the library: every traced function exists and every
workload builds its calls, so an API change that would break ``bench/run.py``
fails here first. The calls themselves are not run."""

import importlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module, name", [(m, f) for m, f, _, _ in tracing.TRACED])
def test_traced_function_is_a_module_level_callable(module, name):
    assert callable(vars(importlib.import_module(module)).get(name)), f"{module}.{name}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds_its_calls(name):
    workload = workloads.WORKLOADS[name]()
    workload.setup(1)
    calls = workload.calls()
    assert calls and all(callable(c.run) and c.n_ops >= 1 for c in calls)
