"""Geometric-programming dual of the Wyner-Ziv problem, in convex form.

The dual maximizes a linear objective subject to affine constraints and
log-sum-exp constraints; it is solved with a log-barrier Newton method. With
a strictly feasible start (Slater) the dual value is tight, so the solves
here return the rate-distortion value itself, not just a bound. The same
machinery generalizes to rate-limited encoder-state descriptions: a grid over
description kernels w(v1|s1) with one dual program per admissible kernel, the
programs of one shape solved together as one stacked barrier run.

Internally the programs are posed in nats; the rate-level wrappers report
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .ba import (
    LN2,
    SolveReport,
    SolverOptions,
    SourceInstance,
    _excess_target,
    _source_strategies,
    wz_primal,
)
from .case2 import CurvePoint, _grid_sweep
from .probability import (
    Alphabet,
    CondKernel,
    ZERO_TOL,
    _description_rate,
    _kernel_table,
    grid_divisions,
)


class GpInfeasibleError(RuntimeError):
    """No strictly feasible point could be constructed."""


def _as_trace(rows) -> np.ndarray:
    """(barrier t, objective) pairs as an (n, 2) float array."""
    return np.array(rows, dtype=float).reshape(-1, 2)


class GpNumericalError(RuntimeError):
    """Newton iteration failed to make progress."""

    def __init__(self, message: str, trace=()):
        super().__init__(message)
        self.trace = _as_trace(trace)


@dataclass
class GpProblem:
    """maximize c.z subject to A z + b <= 0, logsumexp(z[G]) <= 0, z_i >= 0.

    ``bounds`` lists optional per-variable upper bounds (handled by the
    barrier like the sign constraints, and not counted as affine rows).
    """

    c: np.ndarray
    a_mat: np.ndarray
    b_vec: np.ndarray
    lse_groups: list[np.ndarray]
    nonneg: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    bounds: list[tuple[int, float]] = field(default_factory=list)
    start: np.ndarray | None = None
    var_labels: list[str] | None = None

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    def validate(self) -> None:
        n = self.num_vars
        if self.a_mat.shape[1] != n or self.b_vec.shape[0] != self.a_mat.shape[0]:
            raise ValueError("affine constraint shapes are inconsistent")
        for g in self.lse_groups:
            if len(g) == 0:
                raise ValueError("empty log-sum-exp group")
            if np.any(g < 0) or np.any(g >= n):
                raise ValueError("log-sum-exp index out of range")
            if np.unique(g).size != len(g):
                raise ValueError("log-sum-exp group repeats an index")
        if not (isinstance(self.nonneg, np.ndarray) and self.nonneg.dtype.kind in "iu"):
            raise ValueError("nonneg must be an integer array")
        if self.nonneg.size and (self.nonneg.min() < 0 or self.nonneg.max() >= n):
            raise ValueError("nonneg index out of range")
        for i, ub in self.bounds:
            if not isinstance(i, (int, np.integer)) or not 0 <= i < n:
                raise ValueError(f"bound index {i!r} is not an integer in [0, {n})")
            if not math.isfinite(ub):
                raise ValueError(f"bound {ub!r} on variable {i} is not finite")
        if self.start is not None and np.shape(self.start) != (n,):
            raise ValueError(f"start has shape {np.shape(self.start)}, expected ({n},)")


_T0 = 1.0
_MU = 20.0
_NEWTON_TOL = 1e-10  # on half the squared Newton decrement
_GAP_TOL = 1e-9      # outer stop and certificate: m / t < _GAP_TOL
_MAX_NEWTON = 200    # Newton steps per barrier stage
_MAX_BACKTRACKS = 60
# elements of a stack's (B, n, n) Newton systems: it bounds a run's memory, not its results
STACK_ELEMENTS = 16 * 41 * 41


@dataclass
class GpReport:
    value: float               # objective units of the problem (nats here)
    z_opt: np.ndarray
    barrier_iters: int
    newton_steps: int
    stages_uncentered: int     # stages that ended before their Newton decrement met _NEWTON_TOL
    certified: bool
    slater_ok: bool
    gap_bound: float           # m / t at exit, same units
    trace: np.ndarray          # (n, 2): (barrier t, objective) per Newton iterate
    stage_values: np.ndarray   # objective at the end of each barrier stage


def _canonical_rows(p: GpProblem):
    """All affine rows including sign constraints and upper bounds."""
    eye = np.eye(p.num_vars)  # "0.0 -" below keeps the zeros of the sign rows positive
    bounds = np.array(p.bounds, dtype=float).reshape(-1, 2)
    rows = np.vstack([p.a_mat, 0.0 - eye[p.nonneg], eye[bounds[:, 0].astype(np.intp)]])
    return rows, np.concatenate([p.b_vec, np.zeros(p.nonneg.size), -bounds[:, 1]])


def _at(arr, sel):
    """The members ``sel`` (index array) of a stacked array, or all of it, uncopied, if None."""
    return arr if sel is None else arr[sel]


def _broken(f: np.ndarray) -> list[bool]:
    """Per member (a row of f), whether one of its constraint values is >= 0."""
    return (np.maximum.reduce(f, axis=1, initial=-np.inf) >= 0).tolist()


class _Barrier:
    """Barrier-function oracle for a stack of programs min -t c.z - sum log(-f_i).

    Member i of the stack has the affine constraints a[i] z + b[i] <= 0, and
    row k of its 0/1 matrix ``member[i]`` selects group k of its log-sum-exp
    constraints log sum_{j in group k} exp(z_j) + extra[k] @ z <= 0. Every
    member has the same shape; ``extra`` is shared by all of them and is
    None (zero) except in phase one. Each member goes through the same
    reductions over the same axes, in the same memory layout, as it would
    alone (``np.matvec``, ``np.vecdot`` and batched ``matmul`` equal the 2-D
    calls on each slice), so its numbers do not depend on the stack it is in.

    Contract, per member: the Newton loop evaluates ``value`` once per point,
    at its first stage start and at each line-search trial, and hands the
    (f, sigma) it returned for the accepted point to ``grad_hess``. A point
    that breaks an affine row costs no log-sum-exp.
    """

    # the per-member arrays, kept in step by ``take``
    _STACKED = ("c", "a", "b", "member")

    def __init__(self, c, a, b, member, extra=None):
        self.c, self.a, self.b, self.member, self.extra = c, a, b, member, extra
        self.m = a.shape[1] + member.shape[1]
        # the Hessians and a work array of their shape, made at the first ``grad_hess``
        # and reused in place
        self.buf_h = self.buf_s = None

    def take(self, keep: np.ndarray) -> None:
        """Keep only the members ``keep``, a mask over the stack."""
        for name in self._STACKED:
            setattr(self, name, getattr(self, name)[keep])
        if self.buf_h is not None:
            k = self.c.shape[0]
            self.buf_h, self.buf_s = self.buf_h[:k], self.buf_s[:k]

    def _lse(self, z, sel=None):
        """Each group's constraint value and softmax weights (zero off the group), per member."""
        e = np.where(_at(self.member, sel), z[:, None, :], -np.inf)
        mx = np.maximum.reduce(e, axis=2, keepdims=True)
        np.exp(np.subtract(e, mx, out=e), out=e)
        s = np.add.reduce(e, axis=2, keepdims=True)
        f = (mx + np.log(s))[..., 0]
        return (f if self.extra is None else f + np.matvec(self.extra, z)), np.divide(e, s, out=e)

    def constraints(self, z):
        return np.concatenate([np.matvec(self.a, z) + self.b, self._lse(z)[0]], axis=1)

    def value(self, t, z, sel=None):
        """(barrier value, f, sigma, c.z, barrier term) of the members ``sel`` at their points z.

        ``sel`` indexes the stack (None: every member) and ``t`` holds those
        members' own t. f is every constraint value, affine rows first, and
        sigma the groups' softmax weights. Where some f_i >= 0 the barrier
        term -sum log(-f_i), and so the value, is inf, and f and sigma are
        not set in full (None when no member passes). The affine rows are
        tested before any log-sum-exp, which runs once, on the members that
        pass them.
        """
        n_aff = self.a.shape[1]
        f_aff = np.matvec(_at(self.a, sel), z) + _at(self.b, sel)
        cz = np.vecdot(_at(self.c, sel), z)
        broken = _broken(f_aff)
        if all(broken):
            return np.full(len(broken), np.inf), None, None, cz, np.full(len(broken), np.inf)
        if not any(broken):
            f_lse, sigma = self._lse(z, sel)
            broken = _broken(f_lse)
            f = np.concatenate([f_aff, f_lse], axis=1)
        else:
            rows = [r for r, bad in enumerate(broken) if not bad]
            f = np.zeros((z.shape[0], self.m))
            f[:, :n_aff] = f_aff
            sigma = np.zeros((z.shape[0],) + self.member.shape[1:])
            f[rows, n_aff:], sigma[rows] = self._lse(z[rows], rows if sel is None else sel[rows])
            broken = [bad or lse_bad for bad, lse_bad in zip(broken, _broken(f[:, n_aff:]))]
        if not any(broken):
            phi = -np.add.reduce(np.log(-f), axis=1)
        else:
            rows = [r for r, bad in enumerate(broken) if not bad]
            phi = np.full(z.shape[0], np.inf)
            if rows:
                phi[rows] = -np.add.reduce(np.log(-f[rows]), axis=1)
        return -t * cz + phi, f, sigma, cz, phi

    def grad_hess(self, t, z, f, sigma):
        """Each member's gradient and Hessian at z from the (f, sigma) ``value`` returned there.

        The Hessians are ``buf_h``, valid until the next call; ``buf_s`` is work space.
        """
        if self.buf_h is None:
            self.buf_h, self.buf_s = (np.empty(self.c.shape + self.c.shape[1:]) for _ in range(2))
        n_aff = self.a.shape[1]
        inv_aff = 1.0 / -f[:, :n_aff]
        inv_lse = 1.0 / -f[:, n_aff:]
        u = sigma if self.extra is None else sigma + self.extra  # each group's constraint gradient
        grad = -t[:, None] * self.c + np.matvec(self.a.mT, inv_aff) + np.matvec(u.mT, inv_lse)
        hess, tmp = self.buf_h, self.buf_s
        np.matmul(self.a.mT * (inv_aff**2)[:, None, :], self.a, out=hess)
        np.add(hess, np.matmul(u.mT * (inv_lse**2)[:, None, :], u, out=tmp), out=hess)
        # the softmax part, diag(sigma' inv_lse) - (sigma' * inv_lse) sigma: 0 - M
        # off the diagonal, as np.diag(...) - M computes it
        soft = np.matmul(sigma.mT * inv_lse[:, None, :], sigma, out=tmp)
        diagonal = soft.reshape(len(soft), -1)[:, :: soft.shape[1] + 1]  # a view
        d = np.matvec(sigma.mT, inv_lse) - diagonal
        np.subtract(0.0, soft, out=soft)
        diagonal[...] = d
        np.add(hess, soft, out=hess)
        return grad, hess


def _newton_direction(hess, grad, eye, work):
    """Each member's Newton step, solving hess + ridge I against -grad.

    The ridge is 1e-12 times the member's mean diagonal, and at least 1e-12.
    ``work`` is work space of hess's shape. A singular member makes the stacked
    solve fail for all; the stack is then solved member by member, and a
    singular member takes the least-squares step of hess + 1e-8 I.
    """
    n = hess.shape[1]
    ridge = [1e-12 * max(1.0, trace / n) for trace in np.trace(hess, axis1=1, axis2=2).tolist()]
    system = np.add(hess, np.multiply(np.array(ridge)[:, None, None], eye, out=work), out=work)
    try:
        return np.linalg.solve(system, -grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        dz = np.empty_like(grad)
        for i, (sys_i, hess_i, grad_i) in enumerate(zip(system, hess, grad)):
            try:
                dz[i] = np.linalg.solve(sys_i, -grad_i)
            except np.linalg.LinAlgError:
                dz[i] = np.linalg.lstsq(hess_i + 1e-8 * eye, -grad_i, rcond=None)[0]
        return dz


def _newton_stages(barrier: _Barrier, z: np.ndarray, stop_early=None) -> list:
    """Run the barrier path of every member of the stack, in lockstep.

    Returns, per member, (z, t_final, stages, newton_steps, stages_uncentered,
    trace, stage_values), or the GpNumericalError that ended its path. Each
    member keeps its own t, stage, step count, ``centered`` flag, step
    length, trace and stage values, and ends its path when ``stop_early(z)``
    holds at a stage end or m / t < _GAP_TOL; it then leaves the stack. The
    per-member scalars are Python floats, as they are for one program alone.

    The oracle is evaluated once per member point: at the first stage start
    and at each line-search trial, where one call evaluates the members still
    pending. The accepted trial's value, f and sigma carry into the next
    step; at a later stage start only t changes, so the value is -t c.z plus
    the stored barrier term, and a restage costs no log-sum-exp. A stage is
    uncentered when it ends, at the step cap or on a failed line search,
    without half the squared Newton decrement reaching _NEWTON_TOL.
    """
    n_b, n = z.shape
    z = z.copy()
    t = np.full(n_b, _T0)
    val, f, sigma, cz, phi = barrier.value(t, z)
    val, cz, phi = val.tolist(), cz.tolist(), phi.tolist()
    stages, steps, uncentered, newton = ([0] * n_b for _ in range(4))
    traces: list[list] = [[] for _ in range(n_b)]
    stage_values: list[list] = [[] for _ in range(n_b)]
    results: list = [None] * n_b
    ids = list(range(n_b))  # the member at each stack position
    eye = np.eye(n)
    while ids:
        k = len(ids)
        grad, hess = barrier.grad_hess(t, z, f, sigma)
        dz = _newton_direction(hess, grad, eye, barrier.buf_s)
        decrement = np.vecdot(-grad, dz).tolist()
        ascent = [p for p, d in enumerate(decrement) if d < 0]
        if ascent:  # the solve failed to produce a descent direction
            dz[ascent] = -grad[ascent]
            for p, d in zip(ascent, np.vecdot(grad[ascent], grad[ascent]).tolist()):
                decrement[p] = d
        centered = [d / 2.0 <= _NEWTON_TOL for d in decrement]
        alpha = [1.0] * k
        accepted = [False] * k
        pending = list(range(k))  # the stack positions still searching
        for _bt in range(_MAX_BACKTRACKS):
            if len(pending) == k:  # every member at one step length: 1 on the first trial
                sel, cand = None, (z + dz if _bt == 0 else z + alpha[0] * dz)
            else:
                sel = np.array(pending)
                cand = z[sel] + np.array([alpha[p] for p in pending])[:, None] * dz[sel]
            trial = barrier.value(_at(t, sel), cand, sel)
            tval = trial[0].tolist()
            rows = [
                r for r, p in enumerate(pending)
                if tval[r] < val[p] - 0.25 * alpha[p] * decrement[p] + 1e-14 * abs(val[p])
            ]
            if len(rows) == k:
                z, f, sigma = cand, trial[1], trial[2]
                val, cz, phi = tval, trial[3].tolist(), trial[4].tolist()
                accepted = [True] * k
                break
            if rows:
                pos = [pending[r] for r in rows]
                z[pos], f[pos], sigma[pos] = cand[rows], trial[1][rows], trial[2][rows]
                tcz, tphi = trial[3].tolist(), trial[4].tolist()
                for r, p in zip(rows, pos):
                    val[p], cz[p], phi[p] = tval[r], tcz[r], tphi[r]
                    accepted[p] = True
                pending = [p for p in pending if not accepted[p]]
                if not pending:
                    break
            for p in pending:
                alpha[p] *= 0.5
        t_now = t.tolist()
        keep = [True] * k
        for p, i in enumerate(ids):
            newton[p] += 1
            if accepted[p]:
                steps[p] += 1
                traces[i].append((t_now[p], cz[p]))
                if not centered[p] and newton[p] < _MAX_NEWTON:
                    continue
            elif decrement[p] / 2.0 > max(_NEWTON_TOL, 1e-8):
                results[i] = GpNumericalError(
                    f"line search failed at barrier t={t_now[p]} (decrement {decrement[p]})",
                    traces[i],
                )
                keep[p] = False
                continue
            stages[p] += 1
            uncentered[p] += not centered[p]
            stage_values[i].append(cz[p])
            if (stop_early is not None and stop_early(z[p])) or barrier.m / t_now[p] < _GAP_TOL:
                results[i] = (z[p].copy(), t_now[p], stages[p], steps[p], uncentered[p],
                              traces[i], stage_values[i])
                keep[p] = False
                continue
            t[p] = t_next = t_now[p] * _MU
            val[p] = -t_next * cz[p] + phi[p]
            newton[p] = 0
        if not all(keep):
            ids, val, cz, phi, stages, steps, uncentered, newton = (
                [x for x, kp in zip(xs, keep) if kp]
                for xs in (ids, val, cz, phi, stages, steps, uncentered, newton)
            )
            if ids:
                mask = np.array(keep)
                barrier.take(mask)
                z, t, f, sigma = z[mask], t[mask], f[mask], sigma[mask]
    return results


def _phase_one(barrier: _Barrier) -> list:
    """Each member's strictly feasible point, from minimizing its worst violation.

    A member whose search fails gets the error that ended it in place of a point.
    """
    n_b, n = barrier.c.shape
    s0 = barrier.constraints(np.zeros((n_b, n))).max(axis=1) + 1.0
    # augmented programs over (z, s): minimize s with every f_i <= s

    def with_s(mat, coef):
        return np.concatenate([mat, np.full(mat.shape[:-1] + (1,), coef)], axis=-1)

    aug = _Barrier(
        with_s(np.zeros((n_b, n)), -1.0),  # maximize -s
        with_s(barrier.a, -1.0), barrier.b, with_s(barrier.member, False),
        with_s(np.zeros(barrier.member.shape[1:]), -1.0),
    )
    z = np.concatenate([np.zeros((n_b, n)), s0[:, None]], axis=1)
    points = []
    for res in _newton_stages(aug, z, stop_early=lambda zz: zz[-1] < -1e-7):
        if isinstance(res, Exception):
            points.append(res)
        elif res[0][-1] >= 0:
            points.append(
                GpInfeasibleError(f"no strictly feasible point found (margin {res[0][-1]:.3e})")
            )
        else:
            points.append(res[0][:-1])
    return points


def _member(p: GpProblem):
    """A validated program as arrays of one stack member: (c, a, b, member, start).

    a and b hold every affine row (``_canonical_rows``). Programs whose a and
    member have the same shapes (variables, affine rows, groups) can share a stack.
    """
    a, b = _canonical_rows(p)
    member = np.zeros((len(p.lse_groups), p.num_vars), dtype=bool)
    for k, g in enumerate(p.lse_groups):
        member[k, g] = True
    return p.c, a, b, member, p.start


def _solve_stack(barrier: _Barrier, starts: Sequence) -> list:
    """``solve_gp`` on each member of a stack, as one barrier run.

    ``starts`` holds each member's start, or None. Returns, per member, its
    GpReport, or the error its solve raised.
    """
    n_b, n = barrier.c.shape
    c = barrier.c
    z = np.zeros((n_b, n))
    for i, start in enumerate(starts):
        if start is not None:
            z[i] = start
    results: list = [None] * n_b
    need = np.array([s is None for s in starts]) | (barrier.constraints(z).max(axis=1) >= 0)
    if need.any():
        sub = _Barrier(c[need], barrier.a[need], barrier.b[need], barrier.member[need])
        for i, point in zip(np.flatnonzero(need).tolist(), _phase_one(sub)):
            if isinstance(point, Exception):
                results[i] = point
            else:
                z[i] = point
    live = np.array([r is None for r in results])
    if not live.all():
        barrier.take(live)
        z = z[live]
    slater = (-barrier.constraints(z).max(axis=1) >= 1e-8).tolist()
    for i, res, slater_ok in zip(np.flatnonzero(live).tolist(), _newton_stages(barrier, z), slater):
        if isinstance(res, Exception):
            results[i] = res
            continue
        z_opt, t_final, stages, steps, uncentered, trace, stage_values = res
        gap = barrier.m / t_final
        results[i] = GpReport(
            value=float(c[i] @ z_opt),
            z_opt=z_opt,
            barrier_iters=stages,
            newton_steps=steps,
            stages_uncentered=uncentered,
            certified=bool(slater_ok and gap < _GAP_TOL),
            slater_ok=slater_ok,
            gap_bound=gap,
            trace=_as_trace(trace),
            stage_values=np.array(stage_values, dtype=float),
        )
    return results


def solve_gps(problems: Iterable[GpProblem]) -> list[GpReport]:
    """``solve_gp`` on each program, as stacked barrier runs: one report per program, in order.

    The programs are read one at a time, kept as arrays (``_member``) and
    grouped by shape. A group is solved as one run (``_solve_stack``) once
    its Newton systems hold STACK_ELEMENTS elements, and what is left of
    each group at the end, so a program is held only until its stack runs,
    and a program too large to share runs alone. Every report equals
    ``solve_gp``'s on that program alone, bit for bit. A program whose solve
    fails does not stop the others; the first such error, in program order,
    is raised once every stack has run.
    """
    results: list = []
    stacks: dict[tuple, list] = {}

    def run(key):
        at, members = zip(*stacks.pop(key))
        arrays = [np.stack(col) for col in list(zip(*members))[:4]]
        starts = [m[4] for m in members]
        del members  # the stacked arrays replace each program's own
        for i, res in zip(at, _solve_stack(_Barrier(*arrays), starts)):
            results[i] = res

    for i, p in enumerate(problems):
        results.append(None)
        try:
            p.validate()
        except ValueError as exc:
            results[i] = exc
            continue
        member = _member(p)
        key = member[1].shape + member[3].shape
        stacks.setdefault(key, []).append((i, member))
        if len(stacks[key]) * p.num_vars**2 >= STACK_ELEMENTS:
            run(key)
    for key in list(stacks):
        run(key)
    for res in results:
        if isinstance(res, Exception):
            raise res
    return results


def solve_gp(p: GpProblem) -> GpReport:
    """Maximize the linear objective by a log-barrier Newton method.

    Deterministic: t grows geometrically from _T0 by _MU until m/t < _GAP_TOL,
    each stage centered by damped Newton with backtracking. This is the
    stack of one of ``solve_gps``.
    """
    return solve_gps([p])[0]


# ---------------------------------------------------------------------------
# Wyner-Ziv dual construction
# ---------------------------------------------------------------------------


def _gamma_cap(excess: np.ndarray) -> float:
    positive = excess[excess > ZERO_TOL]
    return 400.0 / float(positive.min()) if positive.size else 1.0


def build_wz_gp(src: SourceInstance, d_target: float) -> GpProblem:
    """Dual of the Wyner-Ziv problem at distortion D, as a convex program.

    Any source is accepted: the encoder sees (X, S1) and the decoder S2, so
    this is exactly the case-1 program of ``build_case1_rd_gp`` with a
    one-letter description, variables and labels included: (alpha_{x,s1,0} |
    gamma | y_{x,s1,s2,0,t}), one affine row per (x, s1, t) and one
    log-sum-exp group per (s2, t). Cells of mass <= ZERO_TOL are absent. The
    program is posed in nats.
    """
    return _build_dual(src, src.joint.probs[..., None], d_target)


def _dual_value(report: GpReport, status: str) -> tuple[float, float, str]:
    """(value, gap) in bits of a solved dual program, and its status: ``status`` if certified."""
    status = status if report.certified else "uncertified"
    return max(report.value / LN2, 0.0), report.gap_bound / LN2, status


def wz_rate_via_gp(
    src: SourceInstance,
    d_target: float,
    opts: SolverOptions | None = None,
    cross_check: bool = True,
    tight_tol: float = 1e-3,
) -> SolveReport:
    """Wyner-Ziv rate from the dual program, with an optional primal cross-check.

    The program is posed as the primal poses it (``_excess_target``). The
    status is "uncertified" when the barrier solve is not certified, else
    "distortion-floor" when D is below the distortion floor and the program
    was posed at the floor, else "not-tight" when the cross-check misses the
    primal by more than ``tight_tol``.
    """
    opts = opts or SolverOptions()
    _, _, posed, status = _excess_target(src, d_target)
    report = solve_gp(build_wz_gp(src, posed))
    value, gap, status = _dual_value(report, status)
    extras = {"gp_report": report, "certified": report.certified}
    if cross_check:
        primal = wz_primal(src, d_target, opts)
        extras["primal_value"] = primal.value
        extras["primal_report"] = primal
        extras["tight"] = abs(primal.value - value) <= tight_tol
        if status == "ok" and not extras["tight"]:
            status = "not-tight"
    return SolveReport(
        value=value,
        gap=gap,
        iterations=report.newton_steps,
        argopt=None,
        trace=np.repeat(report.stage_values[:, None] / LN2, 2, axis=1),
        status=status,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Rate-limited encoder-state description: the distortion-side curve
# ---------------------------------------------------------------------------


def build_case1_rd_gp(src: SourceInstance, w: CondKernel, d_target: float) -> GpProblem:
    """Dual program for a fixed description kernel w(v1|s1).

    Variables (alpha_{x,s1,v1} | gamma | y_{x,s1,s2,v1,t}); one affine row per
    (x, s1, v1, t) and one log-sum-exp group per (s2, v1, t). Reconstruction
    strategies are maps S2 -> Xhat, applied per v1 (the joint map S2 x V1 ->
    Xhat decomposes across v1, giving an equivalent, smaller program).

    A cell (x, s1, s2, v1) is in the program exactly when its mass is
    > ZERO_TOL, and everything else follows from that: the alpha cells are
    the (x, s1, v1) with a kept cell, the y variables and each row's s2 terms
    are the kept cells, and each (s2, v1, t) group holds the y variables of
    its kept cells. With |V1| = 1 this is exactly ``build_wz_gp``.
    """
    p4 = src.joint.probs[..., None] * _kernel_table(w, src.s1, src.s2, "S1")[:, None]
    return _build_dual(src, p4, d_target)


def _build_dual(src: SourceInstance, p4: np.ndarray, d_target: float) -> GpProblem:
    """The dual program of ``build_case1_rd_gp`` for the joint p4 over (X, S1, S2, V1).

    The strategies are all maps S2 -> Xhat. As in the primal, the program
    sees ``_excess_target``'s excess distortion and is posed at D less its
    offset, which leaves the rate unchanged and keeps the multiplier's
    coefficients and cap on the scale of the excess; D itself is not raised
    to the floor.
    """
    excess, offset, _, _ = _excess_target(src, d_target)
    strategies = _source_strategies(src)
    n_t = len(strategies)
    live = p4 > ZERO_TOL  # the cells the program holds
    kept = live.any(axis=2)  # the alpha cells (x, s1, v1)
    n_a = int(kept.sum())
    gamma_idx = n_a
    n = gamma_idx + 1 + int(live.sum()) * n_t
    # the variable of y[x, s1, s2, v1, t] and the row of (x, s1, v1, t); -1 where absent
    y_idx = np.full(live.shape + (n_t,), -1, dtype=np.intp)
    y_idx[live] = np.arange(gamma_idx + 1, n).reshape(-1, n_t)
    row_idx = np.full(kept.shape + (n_t,), -1, dtype=np.intp)
    row_idx[kept] = np.arange(n_a * n_t).reshape(n_a, n_t)

    with np.errstate(divide="ignore", invalid="ignore"):
        # p(s2|x,s1) and log p(x,s1|s2,v1) on the live cells, 0 elsewhere
        weight = np.where(live, (p4.sum(axis=3) / p4.sum(axis=(2, 3))[:, :, None])[..., None], 0.0)
        log_post = np.where(live, np.log(p4 / p4.sum(axis=(0, 1))), 0.0)
    dist = excess[:, strategies.tables.T]  # excess d(x, t(s2)) as (X, S2, T)
    gamma_coef = 0.0 - (weight[..., None] * dist[:, None, :, None, :]).sum(axis=2)

    rows = np.arange(n_a * n_t)
    a_mat = np.zeros((n_a * n_t, n))
    a_mat[rows, rows // n_t] = 1.0
    a_mat[rows, gamma_idx] = gamma_coef[kept].ravel()
    y_rows = np.broadcast_to(row_idx[:, :, None], y_idx.shape)[live]
    a_mat[y_rows, y_idx[live]] = -weight[live][:, None]
    b_vec = np.repeat((weight * log_post).sum(axis=2)[kept], n_t)

    by_group = y_idx.transpose(2, 3, 4, 0, 1).reshape(-1, p4.shape[0] * p4.shape[1])
    groups = [g[g >= 0] for g in by_group if g.max() >= 0]

    c = np.zeros(n)
    c[:n_a] = p4.sum(axis=2)[kept]
    c[gamma_idx] = -(d_target - offset)

    start = np.zeros(n)
    # y below log(1 / #kept (x, s1) cells) keeps every group's log-sum-exp < 0
    start[gamma_idx + 1 :] = math.log(1.0 / np.count_nonzero(live.any(axis=(2, 3)))) - 0.1
    start[gamma_idx] = 0.1
    # alpha = -max_t(row residual) - 0.1, residual evaluated at (gamma0, y0)
    start[:n_a] = -(a_mat @ start + b_vec).reshape(n_a, n_t).max(axis=1) - 0.1

    labels = [f"alpha[{','.join(map(str, cell))}]" for cell in np.argwhere(kept).tolist()]
    labels.append("gamma")
    labels += [f"y[{','.join(map(str, cell))}]" for cell in np.argwhere(y_idx >= 0).tolist()]

    return GpProblem(
        c=c,
        a_mat=a_mat,
        b_vec=b_vec,
        lse_groups=groups,
        nonneg=np.array([gamma_idx], dtype=np.intp),
        bounds=[(gamma_idx, _gamma_cap(excess))],
        start=start,
        var_labels=labels,
    )


@dataclass
class Case1Options:
    """Grid controls for the distortion-side description sweep."""

    epsilon: float | None = None
    grid_step: float = 0.05
    v1_size: int = 2

    def __post_init__(self) -> None:
        if self.epsilon is not None and not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and > 0")
        grid_divisions(self.grid_step)
        if self.v1_size < 1:
            raise ValueError("v1_size must be >= 1")


def description_rate_case1(src: SourceInstance, w: CondKernel) -> float:
    """I(V1;S1|S2) = H(V1|S2) - H(V1|S1) of a description kernel w(v1|s1), in bits."""
    return _description_rate(src.joint.probs.sum(axis=0), _kernel_table(w, src.s1, src.s2, "S1"))


def rd_case1_sweep(
    src: SourceInstance,
    d_target: float,
    r_primes: Sequence[float],
    opts: Case1Options | None = None,
) -> list[CurvePoint]:
    """Rate-distortion curve in the encoder-description rate R' at distortion D.

    R' is clamped to H(S1|S2); kernels w(v1|s1) whose I(V1;S1|S2) is
    eps-close to R' from below are admissible, each solved through the dual
    program, and the smallest rate wins (smallest grid index on ties); see
    ``_grid_sweep``. The programs are posed as the primal poses D
    (``_excess_target``): below the distortion floor, at the floor, and a
    certified solve has status "distortion-floor". The curve's fresh
    programs are built as their stacks run and solved as stacked barrier runs
    (``solve_gps``), each report bit for bit that of one ``solve_gp`` call.
    Each point's extras carry ``d_target``, as given.
    """
    opts = opts or Case1Options()
    _, _, posed, floor_status = _excess_target(src, d_target)

    def solve_ws(ws: np.ndarray):
        results = []
        kernels = (CondKernel((src.s1,), (Alphabet(opts.v1_size, "V1"),), w) for w in ws)
        for report in solve_gps(build_case1_rd_gp(src, w, posed) for w in kernels):
            value, gap, status = _dual_value(report, floor_status)
            results.append((value, report.newton_steps, gap, status, {"gp_report": report}))
        return results

    r_max = _description_rate(src.joint.probs.sum(axis=0), np.eye(src.s1.size))
    points = _grid_sweep(
        lambda reps: description_rate_case1(src, reps), solve_ws, src.s1.size,
        Alphabet(opts.v1_size, "V1"), r_primes, r_max, opts, maximize=False,
    )
    for point in points:
        point.extras["d_target"] = d_target
    return points
