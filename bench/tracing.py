"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` rebinds each traced function in every ``sideinfo`` module
namespace that holds it, so calls made inside the library (for example
``sideinfo.case2.alternating_strategy_max`` or ``sideinfo.gpdual.solve_gp``)
go through a wrapper. Nothing in the library is edited. A span records name,
start, end, parent span, operation id and the counts read from the returned
report. Spans stay in memory until ``write``.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _no_attrs(args, result):
    return {}


def _grid_attrs(args, result):
    return {"kernels": len(result)}


def _rate_key(args, result):
    model, w = args[0], args[1]
    joint = model.state_joint if hasattr(model, "state_joint") else model.joint
    return {"key": _digest(joint.probs, w.probs)}


def _inner_attrs(args, result):
    """Whether the returned q(t|s1,v2) has a weight that underflowed to 0."""
    ch, w = args[0], args[1]
    p_e = ch.state_joint.probs @ w.probs  # p(s1, v2)
    q = result.argopt.probs
    return {"underflowed": bool(((q == 0.0) & (p_e[:, :, None] > 0.0)).any())}


def _asm_attrs(args, result):
    return {"iters": result[2], "converged": bool(result[6])}


def _iters_attrs(args, result):
    return {"iters": result.iterations}


def _gp_attrs(args, result):
    p = args[0]
    return {
        "key": _digest(p.c, p.a_mat, p.b_vec),
        "newton": result.newton_steps,
        "stages": result.barrier_iters,
    }


# (module, function, span name, attribute reader); build_wz_gp and
# build_case1_rd_gp share one span name: both build a dual program
TRACED = (
    ("sideinfo.probability", "simplex_grid", "probability.simplex_grid", _grid_attrs),
    ("sideinfo.case2", "r_w", "case2.r_w", _rate_key),
    ("sideinfo.case2", "inner_max", "case2.inner_max", _inner_attrs),
    ("sideinfo.ba", "alternating_strategy_max", "ba.alternating_strategy_max", _asm_attrs),
    ("sideinfo.ba", "ba_capacity", "ba.ba_capacity", _iters_attrs),
    ("sideinfo.ba", "wz_primal", "ba.wz_primal", _iters_attrs),
    ("sideinfo.ba", "ba_rate_distortion", "ba.ba_rate_distortion", _iters_attrs),
    ("sideinfo.gpdual", "description_rate_case1", "gpdual.description_rate_case1", _rate_key),
    ("sideinfo.gpdual", "build_wz_gp", "gpdual.build_gp", _no_attrs),
    ("sideinfo.gpdual", "build_case1_rd_gp", "gpdual.build_gp", _no_attrs),
    ("sideinfo.gpdual", "solve_gp", "gpdual.solve_gp", _gp_attrs),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    round: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while active; ``op`` and ``round`` label the spans opened."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.op = ""
        self.round = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, read_attrs):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, 0.0, parent, tracer.op, tracer.round)
            tracer.spans.append(span)
            tracer._stack.append(sid)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            span.attrs = read_attrs(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function wherever a sideinfo module holds it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "sideinfo"]
        for mod_name, fn_name, span_name, read_attrs in TRACED:
            fn = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(fn, span_name, read_attrs)
            for mod in modules:
                if getattr(mod, fn_name, None) is fn:
                    self._saved.append((mod, fn_name, fn))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self) -> None:
        for mod, fn_name, fn in reversed(self._saved):
            setattr(mod, fn_name, fn)
        self._saved.clear()

    def write(self, path) -> None:
        rows = [
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "op": s.op, "round": s.round, **s.attrs}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, round_no: int) -> dict[str, float]:
    """Per-layer counts and times over one round's spans (absent layers read 0).

    A span whose call raised has no counts and adds 0 to them.
    """
    spans = tracer.spans
    self_times = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s.round == round_no:
            by_name.setdefault(s.name, []).append(i)

    def group(name):
        idx = by_name.get(name, [])
        return [spans[i] for i in idx], idx

    def total(ss):
        return sum(s.duration for s in ss)

    def unique(ss):
        return _ratio(len({s.attrs.get("key") for s in ss}), len(ss))

    m: dict[str, float] = {}
    grid, _ = group("probability.simplex_grid")
    m["probability.simplex_grid.kernels"] = sum(s.attrs.get("kernels", 0) for s in grid)
    m["probability.simplex_grid.s"] = total(grid)

    rw, _ = group("case2.r_w")
    m["case2.r_w.calls"] = len(rw)
    m["case2.r_w.s"] = total(rw)
    m["case2.r_w.unique_ratio"] = unique(rw)

    inner, idx = group("case2.inner_max")
    m["case2.inner_max.calls"] = len(inner)
    m["case2.inner_max.self_s"] = sum(self_times[i] for i in idx)
    m["case2.inner_max.underflowed"] = sum(s.attrs.get("underflowed", False) for s in inner)

    asm, _ = group("ba.alternating_strategy_max")
    iters = [s.attrs.get("iters", 0) for s in asm]
    m["ba.alternating_strategy_max.iters"] = sum(iters)
    m["ba.alternating_strategy_max.iters_p50"] = statistics.median(iters) if iters else 0
    m["ba.alternating_strategy_max.iters_max"] = max(iters, default=0)
    m["ba.alternating_strategy_max.nonconverged"] = sum(not s.attrs.get("converged", False) for s in asm)
    m["ba.alternating_strategy_max.s"] = total(asm)
    m["ba.alternating_strategy_max.us_per_iter"] = 1e6 * _ratio(total(asm), sum(iters))

    bac, _ = group("ba.ba_capacity")
    m["ba.ba_capacity.calls"] = len(bac)
    m["ba.ba_capacity.iters"] = sum(s.attrs.get("iters", 0) for s in bac)
    m["ba.ba_capacity.s"] = total(bac)

    wz, _ = group("ba.wz_primal")
    probes = sum(s.attrs.get("iters", 0) for s in wz)
    m["ba.wz_primal.calls"] = len(wz)
    m["ba.wz_primal.probes"] = probes
    m["ba.wz_primal.s"] = total(wz)
    m["ba.wz_primal.ms_per_probe"] = 1e3 * _ratio(total(wz), probes)

    rd, _ = group("ba.ba_rate_distortion")
    m["ba.ba_rate_distortion.probes"] = sum(s.attrs.get("iters", 0) for s in rd)
    m["ba.ba_rate_distortion.s"] = total(rd)

    desc, _ = group("gpdual.description_rate_case1")
    m["gpdual.description_rate_case1.calls"] = len(desc)
    m["gpdual.description_rate_case1.unique_ratio"] = unique(desc)
    m["gpdual.description_rate_case1.s"] = total(desc)

    build, _ = group("gpdual.build_gp")
    m["gpdual.build_gp.s"] = total(build)

    gp, _ = group("gpdual.solve_gp")
    newton = sum(s.attrs.get("newton", 0) for s in gp)
    m["gpdual.solve_gp.calls"] = len(gp)
    m["gpdual.solve_gp.unique_ratio"] = unique(gp)
    m["gpdual.solve_gp.newton_steps"] = newton
    m["gpdual.solve_gp.stages"] = sum(s.attrs.get("stages", 0) for s in gp)
    m["gpdual.solve_gp.s"] = total(gp)
    m["gpdual.solve_gp.ms_per_newton"] = 1e3 * _ratio(total(gp), newton)
    m["trace.spans"] = sum(len(idx) for idx in by_name.values())
    return m
