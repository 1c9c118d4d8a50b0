"""The benchmark's hooks into the library: every traced function exists, every
workload builds its calls, and every library attribute the workloads name, in
their calls and checks too, resolves, so an API change that would break
``bench/run.py`` fails here first. The workloads' calls are not run; one tiny
engine call checks the result the tracer reads, and two traced rounds, one of
the capacity sweeps and one of the distortion-side solvers, check that the
tracer and its metrics still run and that each traced name is still on the
path a solve takes."""

import ast
import importlib
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402

import sideinfo.ba as ba  # noqa: E402
import sideinfo.case2 as case2  # noqa: E402
import sideinfo.gpdual as gpdual  # noqa: E402
from sideinfo.ba import alternating_strategy_max  # noqa: E402
from sideinfo.case2 import Case2Options  # noqa: E402
from sideinfo.problems import example1_channel, example2_source, example3_source  # noqa: E402


@pytest.mark.parametrize("module, name", [(m, f) for m, f, _, _ in tracing.TRACED])
def test_traced_function_is_a_module_level_callable(module, name):
    assert callable(vars(importlib.import_module(module)).get(name)), f"{module}.{name}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_builds_its_calls(name):
    workload = workloads.WORKLOADS[name]()
    workload.setup(1)
    calls = workload.calls()
    assert calls and all(callable(c.run) and c.n_ops >= 1 for c in calls)


def test_engine_returns_what_the_tracer_reads():
    # tracing._asm_attrs reads the iteration count at [2] and convergence at [6]
    p_ote = np.array([[[0.9, 0.1]], [[0.2, 0.8]]])
    result = alternating_strategy_max(np.ones(1), p_ote, 1e-6, 100)
    assert isinstance(result, tuple) and len(result) == 7
    assert isinstance(result[2], int) and result[2] >= 1
    assert isinstance(result[6], bool)


def _library_attributes(path: pathlib.Path) -> list[tuple[str, str]]:
    """(module, attribute) for every ``alias.name`` in ``path`` whose alias imports a sideinfo module."""
    tree = ast.parse(path.read_text())
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name.split(".")[0] == "sideinfo"
    }
    return sorted({
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    })


WORKLOAD_ATTRIBUTES = _library_attributes(pathlib.Path(workloads.__file__))


def test_workload_attributes_cover_every_library_module():
    # the names read only inside a Call's lambda or a check, which building the calls misses
    assert {m for m, _ in WORKLOAD_ATTRIBUTES} == {
        "sideinfo", "sideinfo.ba", "sideinfo.case2", "sideinfo.gpdual"
    }
    for name in ("capacity_case2_sweep", "causal_inner_max"):
        assert ("sideinfo.case2", name) in WORKLOAD_ATTRIBUTES
    for name in ("rd_case1_sweep", "wz_rate_via_gp"):
        assert ("sideinfo.gpdual", name) in WORKLOAD_ATTRIBUTES


@pytest.mark.parametrize("module, name", WORKLOAD_ATTRIBUTES)
def test_workload_attribute_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_traced_round_runs_the_capacity_sweeps():
    # a traced benchmark round: the tracer installed, both kinds of sweep, then
    # the per-layer metrics of the round, as bench/worker.py reads them
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        ch, opts = example1_channel(), Case2Options(grid_step=0.25)
        points = case2.capacity_case2_sweep(ch, [0.1], opts)
        points += case2.capacity_case2_sweep(ch, [0.1], opts, causal=True)
        tracer.active = False
        metrics = tracing.layer_metrics(tracer, 0)
    finally:
        tracer.uninstall()
    assert [pt.status for pt in points] == ["ok", "ok"]
    assert metrics["case2.r_w.calls"] > 0 and metrics["trace.spans"] > 0
    assert not hasattr(case2.r_w, "__wrapped__")  # uninstalled


def test_traced_round_runs_the_distortion_solvers():
    # one Wyner-Ziv rate with its primal cross-check, one BA R(D) and a
    # one-point case-1 curve: a solver that stops calling a traced name reads
    # 0 or a wrong count here, not only in a benchmark metric
    # the case-1 curve solves its programs through the stacked entry, which the
    # tracer does not wrap; each call's program count is recorded here
    solve_gps, stacked = gpdual.solve_gps, []

    def counted(programs):
        programs = list(programs)
        stacked.append(len(programs))
        return solve_gps(programs)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        gpdual.solve_gps = counted
        tracer.active = True
        wz = gpdual.wz_rate_via_gp(example3_source(), 0.1)
        rd = ba.ba_rate_distortion(np.array([0.5, 0.5]), 1.0 - np.eye(2), 0.1)
        opts = gpdual.Case1Options(grid_step=0.5)
        (pt,) = gpdual.rd_case1_sweep(example2_source(), 0.1, [0.2], opts)
        tracer.active = False
        metrics = tracing.layer_metrics(tracer, 0)
    finally:
        gpdual.solve_gps = solve_gps
        tracer.uninstall()
    assert [wz.status, rd.status, pt.status] == ["ok", "ok", "ok"]
    assert metrics["ba.wz_primal.calls"] == 1  # the cross-check; BA R(D) is not a Wyner-Ziv call
    assert metrics["ba.wz_primal.probes"] == wz.extras["primal_report"].iterations
    assert metrics["ba.ba_rate_distortion.probes"] == rd.extras["probes"] > 0
    assert metrics["gpdual.build_gp.s"] > 0
    assert metrics["gpdual.solve_gp.calls"] == 1  # the Wyner-Ziv dual, a stack of one
    assert stacked == [1, pt.extras["kernels_solved"]]  # the Wyner-Ziv dual, then the curve
    assert metrics["gpdual.description_rate_case1.calls"] > 0
    assert not hasattr(ba.wz_primal, "__wrapped__")  # uninstalled
