"""Geometric-programming dual of the Wyner-Ziv problem, in convex form.

The dual maximizes a linear objective subject to affine constraints and
log-sum-exp constraints; it is solved with a log-barrier Newton method. With
a strictly feasible start (Slater) the dual value is tight, so the solves
here return the rate-distortion value itself, not just a bound. The same
machinery generalizes to rate-limited encoder-state descriptions: a grid over
description kernels w(v1|s1) with one dual solve per admissible kernel.

Internally the programs are posed in nats; the rate-level wrappers report
bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

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


class _Barrier:
    """Barrier-function oracle for min -t c.z - sum log(-f_i).

    The affine constraints are a z + b <= 0. Row k of the 0/1 matrix
    ``member`` selects group k of the log-sum-exp constraints
    log sum_{i in group k} exp(z_i) + extra[k] @ z <= 0; ``extra`` is zero
    except in phase one.

    Contract: the Newton loop evaluates ``value`` once per point, at each
    stage start and at each line-search trial, and hands the (f, sigma) it
    returned for the accepted point to ``grad_hess``. A point that breaks an
    affine row costs no log-sum-exp.
    """

    def __init__(self, c, a_mat, b_vec, member, extra):
        self.c = c
        self.a = a_mat
        self.b = b_vec
        self.member = member
        self.extra = extra
        self.m = a_mat.shape[0] + member.shape[0]

    def _lse(self, z):
        """Each group's constraint value and softmax weights (zero off the group)."""
        zg = np.where(self.member, z, -np.inf)
        mx = zg.max(axis=1, keepdims=True)
        e = np.exp(zg - mx)
        s = e.sum(axis=1, keepdims=True)
        return (mx + np.log(s))[:, 0] + self.extra @ z, e / s

    def constraints(self, z):
        return np.concatenate([self.a @ z + self.b, self._lse(z)[0]])

    def value(self, t, z):
        """(barrier value, f, sigma) at z, or (inf, None, None) once some f_i >= 0.

        f is every constraint value, affine rows first, and sigma the groups'
        softmax weights. The affine rows are tested before any log-sum-exp.
        """
        f_aff = self.a @ z + self.b
        if f_aff.max(initial=-np.inf) >= 0:
            return np.inf, None, None
        f_lse, sigma = self._lse(z)
        if f_lse.max(initial=-np.inf) >= 0:
            return np.inf, None, None
        f = np.concatenate([f_aff, f_lse])
        return -t * float(self.c @ z) + float(-np.log(-f).sum()), f, sigma

    def grad_hess(self, t, z, f, sigma):
        """Gradient and Hessian at z from the (f, sigma) that ``value`` returned there."""
        n_aff = self.a.shape[0]
        inv_aff = 1.0 / -f[:n_aff]
        inv_lse = 1.0 / -f[n_aff:]
        u = sigma + self.extra  # gradient of each group's constraint
        grad = -t * self.c + self.a.T @ inv_aff + u.T @ inv_lse
        softmax = np.diag(sigma.T @ inv_lse) - (sigma.T * inv_lse) @ sigma
        hess = (self.a.T * inv_aff**2) @ self.a + (u.T * inv_lse**2) @ u + softmax
        return grad, hess


def _newton_stages(
    barrier: _Barrier,
    z: np.ndarray,
    trace: list,
    stage_values: list,
    stop_early=None,
):
    """Run the barrier path; returns (z, t_final, stages, newton_steps, stages_uncentered).

    The oracle is evaluated once per point: at each stage start, where t
    changes, and at each line-search trial. The accepted trial's value, f
    and sigma carry into the next step. A stage is uncentered when it ends,
    at the step cap or on a failed line search, without half the squared
    Newton decrement reaching _NEWTON_TOL.
    """
    t = _T0
    stages = 0
    steps = 0
    uncentered = 0
    eye = np.eye(z.size)
    while True:
        val, f, sigma = barrier.value(t, z)
        centered = False
        for _ in range(_MAX_NEWTON):
            grad, hess = barrier.grad_hess(t, z, f, sigma)
            ridge = 1e-12 * max(1.0, float(np.trace(hess)) / hess.shape[0])
            try:
                dz = np.linalg.solve(hess + ridge * eye, -grad)
            except np.linalg.LinAlgError:
                dz = np.linalg.lstsq(hess + 1e-8 * eye, -grad, rcond=None)[0]
            decrement = float(-grad @ dz)
            if decrement < 0:  # solve failed to produce a descent direction
                dz = -grad
                decrement = float(grad @ grad)
            centered = decrement / 2.0 <= _NEWTON_TOL
            alpha = 1.0
            ok = False
            for _bt in range(_MAX_BACKTRACKS):
                cand = z + alpha * dz
                vnew, fnew, snew = barrier.value(t, cand)
                if vnew < val - 0.25 * alpha * decrement + 1e-14 * abs(val):
                    z, val, f, sigma = cand, vnew, fnew, snew
                    ok = True
                    break
                alpha *= 0.5
            if not ok:
                if decrement / 2.0 <= max(_NEWTON_TOL, 1e-8):
                    break
                raise GpNumericalError(
                    f"line search failed at barrier t={t} (decrement {decrement})", trace
                )
            steps += 1
            trace.append((t, float(barrier.c @ z)))
            if centered:
                break
        stages += 1
        uncentered += not centered
        stage_values.append(float(barrier.c @ z))
        if stop_early is not None and stop_early(z):
            return z, t, stages, steps, uncentered
        if barrier.m / t < _GAP_TOL:
            return z, t, stages, steps, uncentered
        t *= _MU


def _phase_one(barrier: _Barrier) -> np.ndarray:
    """Find a strictly feasible point by minimizing the worst violation."""
    n = barrier.c.shape[0]
    s0 = float(barrier.constraints(np.zeros(n)).max()) + 1.0
    # augmented problem over (z, s): minimize s with every f_i <= s
    c_aug = np.zeros(n + 1)
    c_aug[-1] = -1.0  # maximize -s

    def with_s(mat, coef):
        return np.hstack([mat, np.full((mat.shape[0], 1), coef)])

    aug = _Barrier(
        c_aug, with_s(barrier.a, -1.0), barrier.b,
        with_s(barrier.member, False), with_s(barrier.extra, -1.0),
    )
    z = np.append(np.zeros(n), s0)
    z = _newton_stages(aug, z, [], [], stop_early=lambda zz: zz[-1] < -1e-7)[0]
    if z[-1] >= 0:
        raise GpInfeasibleError(f"no strictly feasible point found (margin {z[-1]:.3e})")
    return z[:-1]


def solve_gp(p: GpProblem) -> GpReport:
    """Maximize the linear objective by a log-barrier Newton method.

    Deterministic: t grows geometrically from _T0 by _MU until m/t < _GAP_TOL,
    each stage centered by damped Newton with backtracking.
    """
    p.validate()
    a_all, b_all = _canonical_rows(p)
    member = np.zeros((len(p.lse_groups), p.num_vars), dtype=bool)
    for k, g in enumerate(p.lse_groups):
        member[k, g] = True
    barrier = _Barrier(p.c, a_all, b_all, member, np.zeros(member.shape))

    z = None if p.start is None else np.asarray(p.start, dtype=float).copy()
    if z is None or barrier.constraints(z).max() >= 0:
        z = _phase_one(barrier)
    slater_ok = bool(-barrier.constraints(z).max() >= 1e-8)

    trace: list = []
    stage_values: list = []
    z, t_final, stages, steps, uncentered = _newton_stages(barrier, z, trace, stage_values)
    gap = barrier.m / t_final
    return GpReport(
        value=float(p.c @ z),
        z_opt=z,
        barrier_iters=stages,
        newton_steps=steps,
        stages_uncentered=uncentered,
        certified=bool(slater_ok and gap < _GAP_TOL),
        slater_ok=slater_ok,
        gap_bound=gap,
        trace=_as_trace(trace),
        stage_values=np.array(stage_values, dtype=float),
    )


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
    p4 = src.joint.probs[..., None] * _kernel_table(w, src.s1, "S1")[:, None]
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
    return _description_rate(src.joint.probs.sum(axis=0), _kernel_table(w, src.s1, "S1"))


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
    certified solve has status "distortion-floor". Each point's extras carry
    ``d_target``, as given.
    """
    opts = opts or Case1Options()
    _, _, posed, floor_status = _excess_target(src, d_target)

    def solve_w(w: CondKernel):
        report = solve_gp(build_case1_rd_gp(src, w, posed))
        value, gap, status = _dual_value(report, floor_status)
        return value, report.newton_steps, gap, status, {"gp_report": report}

    r_max = _description_rate(src.joint.probs.sum(axis=0), np.eye(src.s1.size))
    points = _grid_sweep(
        lambda w: description_rate_case1(src, w), lambda ws: [solve_w(w) for w in ws], src.s1.size,
        Alphabet(opts.v1_size, "V1"), r_primes, r_max, opts, maximize=False,
    )
    for point in points:
        point.extras["d_target"] = d_target
    return points
