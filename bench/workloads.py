"""The benchmark's four workloads: inputs, solver calls and checks.

A workload builds its inputs in ``setup`` (outside the timed window), lists
its solver calls in ``calls`` (the timed part of one round), and judges each
call's result in ``check`` against ``refs`` or a property the method must
have: a list of problems per operation, empty when it passes. An operation
is one curve point or one inner instance; a call that returns a whole curve
covers several operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import sideinfo
import sideinfo.ba as ba
import sideinfo.case2 as case2
import sideinfo.gpdual as gpdual
from sideinfo.probability import Alphabet, CondKernel, JointPmf

import refs

LN2 = math.log(2.0)
# the slack a recomputation in another summation order may show on an O(1) value
ROUNDOFF = 1e-12


@dataclass
class Call:
    """One timed solver call covering ``n_ops`` operations."""

    label: str
    n_ops: int
    run: Callable[[], object]


class Workload:
    """Defaults for the optional parts of a workload."""

    def references(self) -> None:
        """Compute the references the checks need (after the timed rounds)."""

    def notes(self) -> list[str]:
        """What the checks could not judge, printed with every run."""
        return []


def _grid(a: float, b: float, step: float) -> list[float]:
    """a:b:step as the CLI expands it."""
    return [round(a + i * step, 12) for i in range(int(round((b - a) / step)) + 1)]


def _band_errors(points, maximize: bool, tol) -> list[list[str]]:
    """Per point, the problems found by comparing its raw value with the others'.

    A kernel is admissible at R' when its rate lies in the band
    [R' - eps, R'], so raw values need not be monotone in R' on a finite
    grid. What the method does promise: the best value over a band is no
    worse than that of any kernel in it, so a point may not fall behind
    another point, by more than ``tol(other)``, whose winning kernel is
    admissible here. Then the reported ``value`` must be the running best of
    the raw values, which makes the curve monotone in R'.
    """
    sign = 1.0 if maximize else -1.0
    errs = [[] for _ in points]
    for pt, bad in zip(points, errs):
        hi = pt.extras["clamped_r_prime"] + 1e-12
        lo = hi - pt.extras["epsilon"] - 2e-12
        for other in points:
            if (other.extras["grid_step"] == pt.extras["grid_step"]
                    and lo <= other.winning_r_w <= hi
                    and sign * pt.raw_value < sign * other.raw_value - tol(other)):
                bad.append(f"raw value {pt.raw_value!r} behind {other.raw_value!r} of "
                           f"R'={other.r_prime}, whose winning kernel is admissible here")
    best = -math.inf
    for pt, bad in sorted(zip(points, errs), key=lambda pe: pe[0].r_prime):
        if pt.status != "ok" or math.isnan(pt.raw_value):
            continue
        best = max(best, sign * pt.raw_value)
        if sign * pt.value != best:
            bad.append(f"value {pt.value!r} is not the running best of the raw values")
    return errs


def _point_problems(points, errs: list[list[str]]) -> list[list[str]]:
    return [[f"R'={pt.r_prime}: {m}" for m in e] for pt, e in zip(points, errs)]


class CapacitySweep(Workload):
    """README ``capacity-case2`` (example1, R' = 0:0.72:0.06) and
    ``capacity-case2c`` (R' = 0:0.6:0.2) sweeps at the default options."""

    name = "capacity-sweep"

    def setup(self, seed: int) -> None:
        self.ch = sideinfo.example1_channel()
        self.opts = case2.Case2Options()
        self.noncausal = _grid(0.0, 0.72, 0.06)
        self.causal = _grid(0.0, 0.6, 0.2)

    def calls(self) -> list[Call]:
        ch, opts = self.ch, self.opts
        return [
            Call("case2", len(self.noncausal),
                 lambda: case2.capacity_case2_sweep(ch, self.noncausal, opts)),
            Call("case2c", len(self.causal),
                 lambda: case2.capacity_case2_sweep(ch, self.causal, opts, causal=True)),
        ]

    def references(self) -> None:
        kern, sj = self.ch.kernel.probs, self.ch.state_joint.probs
        self.lower = refs.no_encoder_csi_bound(kern, sj)
        self.upper = refs.full_csi_bound(kern, sj)
        self.causal_upper = refs.causal_full_s2_bound(kern, sj)

    def check(self, label: str, points) -> list[list[str]]:
        ch, opts = self.ch, self.opts
        kern, sj = ch.kernel.probs, ch.state_joint.probs
        causal = label == "case2c"
        upper = self.causal_upper[1] if causal else self.upper[1]
        # an inner solve returns a feasible q within delta of its kernel's
        # optimum, and the winner is picked within 1e-9 of the best
        errs = _band_errors(points, True, lambda other: opts.delta + 1e-9)
        for pt, bad in zip(points, errs):
            if pt.status != "ok":
                bad.append(f"status {pt.status}")
            elif pt.gap > opts.delta:
                bad.append(f"gap {pt.gap:.3e} > delta")
            if not self.lower[0] - pt.gap - ROUNDOFF <= pt.raw_value <= upper + ROUNDOFF:
                bad.append(f"value {pt.raw_value!r} outside [{self.lower[0]}, {upper}]")
            w = pt.winning_kernel
            if causal:
                rep = case2.causal_inner_max(ch, w, opts)
                tables = refs.strategy_tables(ch.s1.size, ch.x.size)
                again = refs.causal_objective(kern, sj, w.probs, rep.argopt.probs)
            else:
                rep = case2.inner_max(ch, w, opts)
                tables = refs.strategy_tables(ch.s1.size * w.probs.shape[1], ch.x.size)
                again = refs.inner_objective(kern, sj, w.probs, rep.argopt.probs)
            if not np.array_equal(rep.extras["strategies"].tables, tables):
                bad.append("strategy order differs from the reference")
            elif abs(again - pt.raw_value) > 1e-9:
                bad.append(f"objective at the winner's q {again!r} != raw_value {pt.raw_value!r}")
        return _point_problems(points, errs)


class InnerTail(Workload):
    """``inner_max`` at delta = 5e-9 on random binary instances.

    Instances are drawn the way the acceptance lemma suite draws them
    (uniform + 0.05, normalized) from one fixed stream; ``--seed`` relabels
    every binary alphabet of each instance at random and shuffles their
    order. Independent draws per seed would make the run time a lottery: the
    iteration counts are heavy-tailed (one instance can cost 48,788
    iterations, 29% of its batch of 40), so the total over 60 fresh
    instances varies 2.1x (84k to 175k iterations) across streams 1-10. A
    relabeling is the same problem in another array layout, so the
    work stays put (iteration counts move by at most a few in 48,788) while
    every input array differs between seeds. Stream 1 costs 118.7k
    iterations for its 60 draws, near the median (123.1k) of streams 1-10.
    """

    name = "inner-tail"
    base_seed = 1
    count = 60
    delta = 5e-9
    max_iters = 10**6

    def setup(self, seed: int) -> None:
        base = np.random.default_rng(self.base_seed)
        rng = np.random.default_rng(seed)
        x, y, s1, s2, v2 = (Alphabet(2, n) for n in ("X", "Y", "S1", "S2", "V2"))
        self.instances = []
        for _ in range(self.count):
            sj = base.random((2, 2)) + 0.05
            kern = base.random((2, 2, 2, 2)) + 0.05  # (X, S1, S2, Y)
            wp = base.random((2, 2)) + 0.05  # (S2, V2)
            fx, fs1, fs2, fy, fv2 = rng.integers(0, 2, size=5)
            kern = kern[:: 1 - 2 * fx, :: 1 - 2 * fs1, :: 1 - 2 * fs2, :: 1 - 2 * fy]
            sj = sj[:: 1 - 2 * fs1, :: 1 - 2 * fs2]
            wp = wp[:: 1 - 2 * fs2, :: 1 - 2 * fv2]
            sj = sj / sj.sum()
            kern = kern / kern.sum(axis=3, keepdims=True)
            wp = wp / wp.sum(axis=1, keepdims=True)
            ch = ba.ChannelInstance(
                x, y, s1, s2, JointPmf((s1, s2), sj), CondKernel((x, s1, s2), (y,), kern)
            )
            self.instances.append((ch, CondKernel((s2,), (v2,), wp)))
        order = rng.permutation(self.count)
        self.instances = [self.instances[i] for i in order]
        self.labels = [f"tail{int(i)}" for i in order]
        self.opts = case2.Case2Options(delta=self.delta, max_inner_iters=self.max_iters)

    def calls(self) -> list[Call]:
        return [
            Call(label, 1, lambda ch=ch, w=w: case2.inner_max(ch, w, self.opts))
            for label, (ch, w) in zip(self.labels, self.instances)
        ]

    def references(self) -> None:
        self.by_label = dict(zip(self.labels, self.instances))
        self.underflowed: set[str] = set()

    def notes(self) -> list[str]:
        return [f"{len(self.underflowed)} of {self.count} instances returned q with weights "
                f"that underflowed to 0 ({', '.join(sorted(self.underflowed))}); U(q) is "
                "checked over their positive weights only"]

    def check(self, label: str, rep) -> list[list[str]]:
        ch, w = self.by_label[label]
        kern, sj = ch.kernel.probs, ch.state_joint.probs
        bad = []
        if rep.status != "ok":
            bad.append(f"status {rep.status} after {rep.iterations} iterations")
        tables = refs.strategy_tables(ch.s1.size * w.probs.shape[1], ch.x.size)
        if not np.array_equal(rep.extras["strategies"].tables, tables):
            bad.append("strategy order differs from the reference")
        else:
            q = rep.argopt.probs
            if (q == 0.0).any():
                self.underflowed.add(label)
            j = refs.inner_objective(kern, sj, w.probs, q)
            u = refs.inner_bound(kern, sj, w.probs, q)
            if u - j > self.delta + ROUNDOFF:
                bad.append(f"U(q) - J(q) = {u - j:.3e} > delta")
            if abs(j - rep.value) > 1e-9:
                bad.append(f"J(q) = {j!r} != value {rep.value!r}")
        js = [t[0] for t in rep.trace]
        if any(b < a - ROUNDOFF for a, b in zip(js, js[1:])):
            bad.append("J trace decreases")
        return [bad]


class WzSweep(Workload):
    """README ``wz-rate --via both`` (example3, D = 0:0.3:0.05) and BA R(D)
    of a Bernoulli(1/2) source under Hamming distortion on the same D grid."""

    name = "wz-sweep"
    crossover = 0.3

    def setup(self, seed: int) -> None:
        self.src = sideinfo.example3_source()
        self.opts = ba.SolverOptions()
        self.ds = _grid(0.0, 0.3, 0.05)
        self.p_x = np.array([0.5, 0.5])
        self.hamming = 1.0 - np.eye(2)

    def calls(self) -> list[Call]:
        src, opts = self.src, self.opts
        wz = [
            Call(f"wz D={d}", 1, lambda d=d: gpdual.wz_rate_via_gp(src, d, opts, tight_tol=1e-3))
            for d in self.ds
        ]
        rd = [
            Call(f"rd D={d}", 1,
                 lambda d=d: ba.ba_rate_distortion(self.p_x, self.hamming, d, opts))
            for d in self.ds
        ]
        return wz + rd

    def check(self, label: str, rep) -> list[list[str]]:
        kind, d = label.split(" D=")
        d = float(d)
        delta = self.opts.delta
        bad = []
        if kind == "rd":
            closed = refs.bss_rate_distortion(d)
            reports = {"BA R(D)": rep}
        else:
            closed = refs.dsbs_wyner_ziv(self.crossover, d)
            primal = rep.extras["primal_report"]
            reports = {"dual": rep, "primal": primal}
            worst = max(v for _, v in rep.extras["gp_report"].trace) / LN2
            if worst > closed + 1e-9:
                bad.append(f"barrier iterate {worst!r} above R(D) {closed!r}")
        for name, r in reports.items():
            if r.status != "ok":
                bad.append(f"{name} status {r.status}")
            elif r.gap > delta:
                bad.append(f"{name} status ok with gap {r.gap:.3e} > delta {delta:g}")
            if abs(r.value - closed) > 1e-6:
                bad.append(f"{name} {r.value!r} vs closed form {closed!r}")
        return [bad]


class RdGrid(Workload):
    """``rd_case1_sweep`` on example2 at D = 0.1, R' = 0:0.3:0.1, grid step 0.1
    (121 kernels), whose admissibility bands overlap across R'."""

    name = "rd-grid"
    d = 0.1

    def setup(self, seed: int) -> None:
        self.src = sideinfo.example2_source()
        self.opts = gpdual.Case1Options(grid_step=0.1)
        self.r_primes = _grid(0.0, 0.3, 0.1)

    def calls(self) -> list[Call]:
        return [Call("rd-grid", len(self.r_primes),
                     lambda: gpdual.rd_case1_sweep(self.src, self.d, self.r_primes, self.opts))]

    def check(self, label: str, points) -> list[list[str]]:
        # a dual value is at most its kernel's rate and within its gap of it,
        # and the winner is picked within 1e-9 of the best
        errs = _band_errors(points, False, lambda other: other.gap + 1e-9)
        for pt, bad in zip(points, errs):
            closed = refs.modulo_sum_value(self.d, pt.r_prime)
            if pt.status != "ok":
                bad.append(f"status {pt.status}")
            for name, v in (("value", pt.value), ("raw_value", pt.raw_value)):
                if not closed - 1e-6 <= v <= closed + 2e-2:
                    bad.append(f"{name} {v!r} outside [{closed} - 1e-6, {closed} + 2e-2]")
            if not pt.extras["gp_report"].certified:
                bad.append("winning dual solve not certified")
        return _point_problems(points, errs)


WORKLOADS = {w.name: w for w in (CapacitySweep, InnerTail, WzSweep, RdGrid)}

# Failures that every run shows because of a known program fault, by workload,
# operation and the start of the one problem they may show; any other problem
# on the same operation still makes the run incorrect. wz_primal at D = 0.25
# on example3 reports status "ok" with a certified gap of 1.07e-4 bits against
# delta = 1e-6.
KNOWN_FAULTS = {("wz-sweep", "wz D=0.25"): "primal status ok with gap "}


def is_known_fault(workload: str, label: str, problems: list[str]) -> bool:
    prefix = KNOWN_FAULTS.get((workload, label))
    return prefix is not None and all(p.startswith(prefix) for p in problems)
