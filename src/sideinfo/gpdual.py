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

from .ba import LN2, SolveReport, SolverOptions, SourceInstance, wz_primal
from .case2 import CurvePoint, _grid_sweep, monotone_post_pass
from .probability import (
    Alphabet,
    CondKernel,
    ProbabilityError,
    ZERO_TOL,
    chain,
    conditional_entropy,
    conditional_mutual_information,
    grid_divisions,
    marginalize,
    simplex_grid,
)
from .strategies import StrategySpace, enumerate_strategies


class GpInfeasibleError(RuntimeError):
    """No strictly feasible point could be constructed."""


class GpNumericalError(RuntimeError):
    """Newton iteration failed to make progress."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


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

    @property
    def num_constraints(self) -> int:
        return self.a_mat.shape[0] + len(self.lse_groups) + self.nonneg.size + len(self.bounds)

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
        if self.nonneg.size and (self.nonneg.min() < 0 or self.nonneg.max() >= n):
            raise ValueError("nonneg index out of range")


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
    certified: bool
    slater_ok: bool
    gap_bound: float           # m / t at exit, same units
    trace: list[tuple[float, float]]        # (barrier t, objective) per Newton iterate
    stage_values: list[float]  # objective at the end of each barrier stage


def _canonical_rows(p: GpProblem):
    """All affine rows including sign constraints and upper bounds."""
    n = p.num_vars
    rows = [p.a_mat]
    consts = [p.b_vec]
    for i in p.nonneg:
        r = np.zeros(n)
        r[i] = -1.0
        rows.append(r[None, :])
        consts.append(np.zeros(1))
    for i, ub in p.bounds:
        r = np.zeros(n)
        r[i] = 1.0
        rows.append(r[None, :])
        consts.append(np.array([-ub]))
    return np.vstack(rows), np.concatenate(consts)


class _Barrier:
    """Barrier-function oracle for min -t c.z - sum log(-f_i).

    The affine constraints are a z + b <= 0. Row k of the 0/1 matrix
    ``member`` selects group k of the log-sum-exp constraints
    log sum_{i in group k} exp(z_i) + extra[k] @ z <= 0; ``extra`` is zero
    except in phase one.
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
        f = self.constraints(z)
        if f.max(initial=-np.inf) >= 0:
            return np.inf, f
        return -t * float(self.c @ z) + float(-np.log(-f).sum()), f

    def grad_hess(self, t, z):
        f_lse, sigma = self._lse(z)
        inv_aff = 1.0 / -(self.a @ z + self.b)
        inv_lse = 1.0 / -f_lse
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
    """Run the barrier path; returns (z, t_final, stages, newton_steps)."""
    t = _T0
    stages = 0
    steps = 0
    while True:
        for _ in range(_MAX_NEWTON):
            grad, hess = barrier.grad_hess(t, z)
            ridge = 1e-12 * max(1.0, float(np.trace(hess)) / hess.shape[0])
            try:
                dz = np.linalg.solve(hess + ridge * np.eye(hess.shape[0]), -grad)
            except np.linalg.LinAlgError:
                dz = np.linalg.lstsq(hess + 1e-8 * np.eye(hess.shape[0]), -grad, rcond=None)[0]
            decrement = float(-grad @ dz)
            if decrement < 0:  # solve failed to produce a descent direction
                dz = -grad
                decrement = float(grad @ grad)
            val, _ = barrier.value(t, z)
            alpha = 1.0
            ok = False
            for _bt in range(_MAX_BACKTRACKS):
                cand = z + alpha * dz
                vnew, _ = barrier.value(t, cand)
                if vnew < val - 0.25 * alpha * decrement + 1e-14 * abs(val):
                    z = cand
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
            if decrement / 2.0 <= _NEWTON_TOL:
                break
        stages += 1
        stage_values.append(float(barrier.c @ z))
        if stop_early is not None and stop_early(z):
            return z, t, stages, steps
        if barrier.m / t < _GAP_TOL:
            return z, t, stages, steps
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
    z, _, _, _ = _newton_stages(aug, z, [], [], stop_early=lambda zz: zz[-1] < -1e-7)
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
    z, t_final, stages, steps = _newton_stages(barrier, z, trace, stage_values)
    gap = barrier.m / t_final
    return GpReport(
        value=float(p.c @ z),
        z_opt=z,
        barrier_iters=stages,
        newton_steps=steps,
        certified=bool(slater_ok and gap < _GAP_TOL),
        slater_ok=slater_ok,
        gap_bound=gap,
        trace=trace,
        stage_values=stage_values,
    )


# ---------------------------------------------------------------------------
# Wyner-Ziv dual construction
# ---------------------------------------------------------------------------


def _gamma_cap(distortion: np.ndarray) -> float:
    positive = distortion[distortion > ZERO_TOL]
    return 400.0 / float(positive.min()) if positive.size else 1.0


def build_wz_gp(
    src: SourceInstance,
    d_target: float,
    strategies: StrategySpace | None = None,
) -> GpProblem:
    """Dual of the Wyner-Ziv problem at distortion D, as a convex program.

    Variables are ordered (alpha_x | gamma | y_{x,s,t}); one affine row per
    (x, t) and one log-sum-exp group per (s, t). Source symbols with zero
    probability are dropped. The program is posed in nats. It is the
    case-1 program with a one-letter description (see ``build_case1_rd_gp``).
    """
    if src.s1.size != 1:
        raise ProbabilityError("build_wz_gp uses S2 as the side axis; merge S1 first")
    return _build_dual(src, src.joint.probs[..., None], d_target, strategies, wz_labels=True)


def wz_rate_via_gp(
    src: SourceInstance,
    d_target: float,
    opts: SolverOptions | None = None,
    strategies: StrategySpace | None = None,
    cross_check: bool = True,
    tight_tol: float = 1e-3,
) -> SolveReport:
    """Wyner-Ziv rate from the dual program, with an optional primal cross-check.

    The status is "uncertified" when the barrier solve is not certified, else
    "not-tight" when the cross-check misses the primal by more than ``tight_tol``.
    """
    opts = opts or SolverOptions()
    problem = build_wz_gp(src, d_target, strategies)
    report = solve_gp(problem)
    value = max(report.value / LN2, 0.0)
    extras = {"gp_report": report, "certified": report.certified}
    status = "ok" if report.certified else "uncertified"
    if cross_check:
        primal = wz_primal(src, d_target, opts, strategies)
        extras["primal_value"] = primal.value
        extras["primal_report"] = primal
        extras["tight"] = abs(primal.value - value) <= tight_tol
        if status == "ok" and not extras["tight"]:
            status = "not-tight"
    return SolveReport(
        value=value,
        gap=report.gap_bound / LN2,
        iterations=report.newton_steps,
        argopt=None,
        trace=[(v / LN2, v / LN2) for v in report.stage_values],
        status=status,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Rate-limited encoder-state description: the distortion-side curve
# ---------------------------------------------------------------------------


def build_case1_rd_gp(
    src: SourceInstance,
    w: CondKernel,
    d_target: float,
    strategies: StrategySpace | None = None,
) -> GpProblem:
    """Dual program for a fixed description kernel w(v1|s1).

    Variables (alpha_{x,s1,v1} | gamma | y_{x,s1,s2,v1,t}); one affine row per
    (x, s1, v1, t) and one log-sum-exp group per (s2, v1, t). Reconstruction
    strategies are maps S2 -> Xhat, applied per v1 (the joint map S2 x V1 ->
    Xhat decomposes across v1, giving an equivalent, smaller program). Cells
    of zero probability are dropped. With |V1| = 1 this reduces exactly to
    the plain Wyner-Ziv dual on the (X, S1) pair source.
    """
    if w.given_shape != (src.s1.size,):
        raise ProbabilityError("description kernel must condition on S1")
    return _build_dual(src, chain(src.joint, w, bind=(1,)).probs, d_target, strategies)


def _build_dual(
    src: SourceInstance,
    p4: np.ndarray,
    d_target: float,
    strategies: StrategySpace | None,
    wz_labels: bool = False,
) -> GpProblem:
    """The dual program of ``build_case1_rd_gp`` for the joint p4 over (X, S1, S2, V1).

    ``wz_labels`` names variables by (x) and (x, s2, t) only, as the
    Wyner-Ziv dual does.
    """
    if d_target < 0:
        raise ValueError("distortion target must be >= 0")
    if strategies is None:
        strategies = enumerate_strategies((src.s2,), src.xhat)
    if strategies.domain_shape != (src.s2.size,):
        raise ProbabilityError("strategies must map S2 to Xhat")

    n_x, n_s1, n_s2, n_v1 = p4.shape
    n_t = len(strategies)
    tbl = strategies.tables  # (T, S2)

    p_xs1 = p4.sum(axis=(2, 3))
    p_xs1v1 = p4.sum(axis=2)
    p_s2v1 = p4.sum(axis=(0, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        p_s2_given_xs1 = np.where(
            p_xs1[:, :, None] > ZERO_TOL, p4.sum(axis=3) / p_xs1[:, :, None], 0.0
        )
        p_xs1_given_s2v1 = np.where(
            p_s2v1[None, None, :, :] > ZERO_TOL, p4 / p_s2v1[None, None, :, :], 0.0
        )

    alpha_cells = [
        (x, s1, v1)
        for x in range(n_x)
        for s1 in range(n_s1)
        for v1 in range(n_v1)
        if p_xs1v1[x, s1, v1] > ZERO_TOL
    ]
    alpha_idx = {cell: i for i, cell in enumerate(alpha_cells)}
    gamma_idx = len(alpha_cells)
    labels = [f"alpha[{x}]" if wz_labels else f"alpha[{x},{s1},{v1}]" for x, s1, v1 in alpha_cells]
    labels.append("gamma")
    y_idx: dict[tuple[int, int, int, int, int], int] = {}
    for x in range(n_x):
        for s1 in range(n_s1):
            for s2 in range(n_s2):
                for v1 in range(n_v1):
                    if p4[x, s1, s2, v1] <= ZERO_TOL:
                        continue
                    for t in range(n_t):
                        y_idx[(x, s1, s2, v1, t)] = len(labels)
                        cell = (x, s2, t) if wz_labels else (x, s1, s2, v1, t)
                        labels.append(f"y[{','.join(map(str, cell))}]")
    n = len(labels)

    rows = []
    consts = []
    for (x, s1, v1) in alpha_cells:
        for t in range(n_t):
            row = np.zeros(n)
            row[alpha_idx[(x, s1, v1)]] = 1.0
            const = 0.0
            for s2 in range(n_s2):
                weight = p_s2_given_xs1[x, s1, s2]
                if weight <= ZERO_TOL:
                    continue
                const += weight * math.log(p_xs1_given_s2v1[x, s1, s2, v1])
                row[gamma_idx] -= weight * float(src.distortion[x, tbl[t, s2]])
                row[y_idx[(x, s1, s2, v1, t)]] = -weight
            rows.append(row)
            consts.append(const)

    groups = []
    for s2 in range(n_s2):
        for v1 in range(n_v1):
            if p_s2v1[s2, v1] <= ZERO_TOL:
                continue
            for t in range(n_t):
                g = [
                    y_idx[(x, s1, s2, v1, t)]
                    for x in range(n_x)
                    for s1 in range(n_s1)
                    if (x, s1, s2, v1, t) in y_idx
                ]
                if g:
                    groups.append(np.array(g, dtype=np.intp))

    c = np.zeros(n)
    for cell in alpha_cells:
        c[alpha_idx[cell]] = p_xs1v1[cell]
    c[gamma_idx] = -d_target

    a_mat = np.vstack(rows)
    b_vec = np.asarray(consts)
    start = np.zeros(n)
    # y below log(1 / #kept (x, s1) cells) keeps every group's log-sum-exp < 0
    y0 = math.log(1.0 / np.count_nonzero(p_xs1 > ZERO_TOL)) - 0.1
    for idx in y_idx.values():
        start[idx] = y0
    start[gamma_idx] = 0.1
    # alpha = -max_t(row residual) - 0.1, residual evaluated at (gamma0, y0)
    per_row = a_mat @ start + b_vec  # alpha coefficients hit zeros in start
    k = 0
    for cell in alpha_cells:
        worst = max(per_row[k : k + n_t])
        start[alpha_idx[cell]] = -worst - 0.1
        k += n_t

    return GpProblem(
        c=c,
        a_mat=a_mat,
        b_vec=b_vec,
        lse_groups=groups,
        nonneg=np.array([gamma_idx], dtype=np.intp),
        bounds=[(gamma_idx, _gamma_cap(src.distortion))],
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
    """I(V1;S1|S2) of a description kernel w(v1|s1), in bits."""
    p_s1s2 = marginalize(src.joint, (1, 2))
    joint = chain(p_s1s2, w, bind=(0,))  # (S1, S2, V1)
    return conditional_mutual_information(joint, (2,), (0,), (1,))


def rd_case1(
    src: SourceInstance,
    d_target: float,
    r_prime: float,
    opts: Case1Options | None = None,
) -> CurvePoint:
    """Rate-distortion at distortion D and encoder-description rate R'.

    R' is clamped to H(S1|S2); kernels w(v1|s1) whose I(V1;S1|S2) is
    eps-close to R' from below are admissible, each solved through the dual
    program, and the smallest rate wins (smallest grid index on ties). This
    is the one-point case of ``rd_case1_sweep``.
    """
    return _rd_curve(src, d_target, [r_prime], opts)[0]


def _rd_curve(src, d_target, r_primes, opts) -> list[CurvePoint]:
    """One point per R' at distortion D, each admissible kernel orbit's program solved once."""
    opts = opts or Case1Options()
    if any(rp < 0 for rp in r_primes):
        raise ValueError("r_prime must be >= 0")
    if d_target < 0:
        raise ValueError("distortion target must be >= 0")
    p_s1s2 = marginalize(src.joint, (1, 2))
    v1 = Alphabet(opts.v1_size, "V1")
    strategies = enumerate_strategies((src.s2,), src.xhat)

    def solve_w(w: CondKernel):
        report = solve_gp(build_case1_rd_gp(src, w, d_target, strategies))
        value = max(report.value / LN2, 0.0)
        status = "ok" if report.certified else "uncertified"
        return value, report.newton_steps, report.gap_bound / LN2, status, {"gp_report": report}

    points = _grid_sweep(
        rate_of_w=lambda w: description_rate_case1(src, w),
        solve_w=solve_w,
        grid_factory=lambda step: simplex_grid(src.s1.size, v1, step),
        r_primes=r_primes,
        r_max=conditional_entropy(p_s1s2, (0,), (1,)),
        opts=opts,
        maximize=False,
    )
    for point in points:
        point.extras["d_target"] = d_target
    return points


def rd_case1_sweep(
    src: SourceInstance,
    d_target: float,
    r_primes: Sequence[float],
    opts: Case1Options | None = None,
) -> list[CurvePoint]:
    """Solve an R' grid at fixed distortion as one curve, then enforce monotonicity (min)."""
    return monotone_post_pass(_rd_curve(src, d_target, r_primes, opts), maximize=False)
