"""Semi-iterative capacity solver: rate-limited state description at the encoder.

The lower-bound capacity with a rate-R' description of the decoder state S2
at the encoder is computed by an outer grid search over description kernels
w(v2|s2) combined with an inner alternating maximization over distributions
q(t|s1,v2) on input strategies t: S1 x V2 -> X. A kernel w is admissible for
rate R' when its description rate R_w = I(V2;S2|S1) lies in [R' - eps, R'].
The causal variant constrains I(V2;S2) instead, and its inner problem is the
same strategy solve over q(t|v2), t: S1 -> X, with encoder view V2 and decoder
view (Y, S2, V2). Both rates, and R''s clamp, are the one description rate
of ``sideinfo.probability``, read from p(s1, s2) and w(v2|s2) as arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .ba import (
    LN2,
    ChannelInstance,
    SolveReport,
    _cell_strategies,
    _functionals,
    _stacked_strategy_max,
    _strategy_solve,
    _strategy_tables,
)
from .probability import (
    Alphabet,
    CondKernel,
    ProbabilityError,
    SimplexGrid,
    _description_rate,
    _kernel_table,
    grid_divisions,
    simplex_grid,
)


@dataclass
class Case2Options:
    """Grid and termination controls for the semi-iterative solver.

    epsilon: half-width of the admissibility band on R_w; ``None`` selects
        max(0.02, coarsest gap between adjacent grid R_w values).
    delta: inner termination gap in bits.
    grid_step: spacing of the description-kernel grid; it must divide 1.
    v2_size: description alphabet size.
    max_inner_iters: inner iteration cap, at least 1.
    """

    epsilon: float | None = None
    delta: float = 1e-6
    grid_step: float = 0.05
    v2_size: int = 2
    max_inner_iters: int = 5000

    def __post_init__(self) -> None:
        if self.epsilon is not None and not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and > 0")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be finite and > 0")
        grid_divisions(self.grid_step)
        if self.v2_size < 1:
            raise ValueError("v2_size must be >= 1")
        if self.max_inner_iters < 1:
            raise ValueError("max_inner_iters must be >= 1")


@dataclass
class CurvePoint:
    r_prime: float
    value: float
    raw_value: float
    winning_w: int
    status: str
    iterations: int = 0
    gap: float = 0.0
    winning_kernel: CondKernel | None = None
    winning_r_w: float = 0.0
    extras: dict = field(default_factory=dict)


# kernels solved in one stacked engine run: it bounds a run's memory, not its results
STACK_CAP = 16

# the (enc, cell, dec) views of the two inner solves on the state joint (S1, S2, V2)
_NONCAUSAL = ((0, 2), (0, 2), (1, 2))
_CAUSAL = ((2,), (0,), (1, 2))


def _state_v2_joint(ch: ChannelInstance, w: CondKernel) -> np.ndarray:
    return ch.state_joint.probs[:, :, None] * _kernel_table(w, ch.s2, ch.s1, "S2")  # (S1, S2, V2)


def r_w(ch: ChannelInstance, w: CondKernel) -> float:
    """Description rate R_w = I(V2;S2|S1) of a kernel w(v2|s2), in bits.

    V2 - S2 - S1 is a Markov chain, so this is H(V2|S1) - H(V2|S2), read
    from p(s2, s1) and w alone.
    """
    return _description_rate(ch.state_joint.probs.T, _kernel_table(w, ch.s2, ch.s1, "S2"))


def _inner_tables(ch: ChannelInstance, w: CondKernel):
    """p(e) over (s1, v2) and p(o|t, e) over (y, s2, v2) for the inner solve."""
    strategies = _cell_strategies(ch, (ch.s1, ch.s2, w.out_axes[0]), _NONCAUSAL[1])
    return _strategy_tables(ch, strategies, _state_v2_joint(ch, w), *_NONCAUSAL)


def inner_max(
    ch: ChannelInstance, w: CondKernel, opts: Case2Options | None = None
) -> SolveReport:
    """max over q(t|s1,v2) of I(T;Y,S2|V2) - I(T;S1|V2) for a fixed w(v2|s2).

    Alternates q <- q* (exponential update weighted by p(s2,y|t,s1,v2)) and
    Q <- Q* (posterior of t given the decoder view), starting from uniform Q,
    and stops once the dominance bound U(q) is within delta of J(q, Q).
    ``extras["log_q"]`` and ``extras["log_posterior"]`` hold the natural logs of ``argopt``
    and the posterior as solved; ``u_w_bound`` re-checks the certificate from them exactly.
    ``argopt`` holds 0 where a weight is below the smallest normal double. The
    report is ``_strategy_solve``'s; its status is "ok" or "nonconverged".
    """
    opts = opts or Case2Options()
    return _strategy_solve(
        ch, _state_v2_joint(ch, w), (ch.s1, ch.s2, w.out_axes[0]), _NONCAUSAL,
        opts.delta, opts.max_inner_iters,
    )


def u_w_bound(
    ch: ChannelInstance, w: CondKernel, log_q: np.ndarray, log_posterior: np.ndarray
) -> float:
    """Dominance bound U(q) in bits from log q(t|s1,v2) and log Q(t|y,s2,v2).

    The natural-log tables are laid out as ``inner_max``'s ``extras["log_q"]``
    and ``extras["log_posterior"]``. Always at least J(q, Q*) and equal to the
    inner optimum at its fixed point.
    """
    n_t = log_q.shape[-1]
    p_e, p_ote = _inner_tables(ch, w)
    if p_ote.shape[0] != n_t:
        raise ProbabilityError("strategy count does not match q's codomain")
    u = _functionals(p_e, p_ote, log_q.reshape(-1, n_t).T, log_posterior.reshape(-1, n_t).T)[1]
    return u / LN2


def _auto_epsilon(rws: Sequence[float]) -> float:
    values = np.sort(np.unique(np.concatenate(([0.0], np.asarray(rws)))))
    gaps = np.diff(values)
    coarsest = float(gaps.max()) if gaps.size else 0.0
    return max(0.02, coarsest)


def _grid_sweep(
    rate_of_w: Callable[[CondKernel], float],
    solve_ws: Callable[[list[CondKernel]], list[tuple[float, int, float, str, dict]]],
    slices: int,
    codomain: Alphabet,
    r_primes: Sequence[float],
    r_max: float,
    opts: Case2Options,
    maximize: bool,
) -> list[CurvePoint]:
    """A description-rate curve: the best solved value over the kernels admissible at each R'.

    Every R' must be >= 0 (``ValueError`` otherwise, NaN included). The
    kernels w are ``simplex_grid(slices, codomain, step)``'s. R' is
    clamped to ``r_max``, and a kernel is admissible when its rate lies in
    [R' - eps, R']; when none is, the grid is refined once to half the
    step. The curve is the unit of work: each grid it uses is built once, and
    each orbit of it (``SimplexGrid.orbit``) has its rate computed once and
    is solved at most once, for the first point that needs it, always on its
    representative, the orbit's smallest index. Every member reads the
    representative's rate and result. The table of solved orbits lives only
    for this call. The sweep plans first (each point's grid step, admissible
    kernels and fresh orbits), then hands the whole curve's fresh orbits'
    representatives to ``solve_ws`` as one list, point by point and in orbit
    order within a point, gets one result per kernel back, and then builds
    the points.

    Contract: ``rate_of_w`` and the solve are invariant under relabeling
    the codomain letters of w, as the description rates are, and the inner
    solves and dual programs are up to their certified gaps. Members of an
    orbit then carry equal values, so the winner (ties within 1e-9 go to
    the smallest grid index) is always a representative, solved exactly as
    if every kernel were.

    A result is (value, iterations, gap, status, extras); the winner's
    extras join the point's. ``kernels_admissible`` counts the point's
    admissible kernels, ``kernels_solved`` the orbits among them solved for
    this point and not an earlier one, ``solve_iterations`` the iterations
    summed over those, and ``kernels_not_ok`` the kernels, winner included,
    whose status is not "ok". ``opts`` supplies ``grid_step`` and ``epsilon``.

    The point takes the winner's status. On a maximizing curve a loser that
    is not "ok" may still beat the winner, so the point is "ok" only when
    each such loser's value + gap is at most the winner's; else it takes
    the first such loser's status. On a minimizing curve each value is a
    dual value, a lower bound on its kernel's rate, so no loser can beat
    the winner and the winner's status stands.

    The true curves are monotone in R', but a finite grid need not be: in
    order of R', each "ok" point's ``value`` is the running max (or min) of
    the "ok" points' raw values so far, and ``raw_value`` keeps its own.
    """
    if not all(rp >= 0 for rp in r_primes):
        raise ValueError("r_prime must be >= 0")
    grids: dict[float, tuple[SimplexGrid, list[float], float]] = {}

    def grid_at(step: float):
        if step not in grids:
            grid = simplex_grid(slices, codomain, step)
            rates = {r: rate_of_w(grid.points[r]) for r in sorted(set(grid.orbit))}
            rws = [rates[r] for r in grid.orbit]
            eps = opts.epsilon if opts.epsilon is not None else _auto_epsilon(rws)
            grids[step] = grid, rws, eps
        return grids[step]

    # the plan: each point's grid step and admissible kernels, and the
    # orbits it is the first to need
    plan = []
    fresh: dict[tuple[float, int], None] = {}  # in the order the points first need them
    for r_prime in r_primes:
        r_clamped = min(r_prime, r_max)
        step = opts.grid_step
        for _ in range(2):
            grid, rws, eps = grid_at(step)
            feasible = [
                i for i, rw in enumerate(rws)
                if r_clamped - eps - 1e-12 <= rw <= r_clamped + 1e-12
            ]
            if feasible:
                break
            step /= 2.0  # refine once, then fail loudly
        else:
            plan.append((r_prime, None))
            continue
        own = sorted({(step, grid.orbit[i]) for i in feasible} - fresh.keys())
        fresh.update(dict.fromkeys(own))
        plan.append((r_prime, (r_clamped, step, feasible, own)))
    solved = dict(zip(
        fresh, solve_ws([grids[step][0].points[r] for step, r in fresh]), strict=True
    ))

    sign = 1.0 if maximize else -1.0
    points = []
    for r_prime, planned in plan:
        if planned is None:
            points.append(CurvePoint(r_prime, math.nan, math.nan, -1, "no-feasible-w"))
            continue
        r_clamped, step, feasible, own = planned
        grid, rws, eps = grids[step]
        results = [solved[step, grid.orbit[i]] for i in feasible]
        best_idx = None
        best_val = -math.inf
        for i, (val, _, _, _, _) in zip(feasible, results):
            sval = sign * val
            if sval > best_val + 1e-9 or (sval > best_val - 1e-9 and best_idx is None):
                best_val = sval
                best_idx = i
        value, iters, gap, status, extras = solved[step, grid.orbit[best_idx]]
        if maximize and status == "ok":
            status = next(
                (r[3] for r in results if r[3] != "ok" and r[0] + r[2] > value + gap), "ok"
            )
        points.append(CurvePoint(
            r_prime=r_prime,
            value=value,
            raw_value=value,
            winning_w=best_idx,
            status=status,
            iterations=iters,
            gap=gap,
            winning_kernel=grid.points[best_idx],
            winning_r_w=rws[best_idx],
            extras={
                "epsilon": eps, "grid_step": step, "clamped_r_prime": r_clamped,
                "kernels_admissible": len(feasible), "kernels_solved": len(own),
                "kernels_not_ok": sum(r[3] != "ok" for r in results),
                "solve_iterations": sum(solved[key][1] for key in own), **extras,
            },
        ))

    best = -math.inf if maximize else math.inf
    for pt in sorted(points, key=lambda pt: pt.r_prime):
        if pt.status != "ok" or math.isnan(pt.raw_value):
            continue
        best = max(best, pt.raw_value) if maximize else min(best, pt.raw_value)
        pt.value = best
    return points


def _causal_rate(ch: ChannelInstance, w: CondKernel) -> float:
    p_s2 = ch.state_joint.probs.sum(axis=0)[:, None]  # S1 of one letter
    return _description_rate(p_s2, _kernel_table(w, ch.s2, ch.s1, "S2"))


def causal_inner_max(
    ch: ChannelInstance, w: CondKernel, opts: Case2Options | None = None
) -> SolveReport:
    """max over p(u|v2) of I(U;Y,S2|V2), U ranging over strategies S1 -> X.

    This is one strategy solve with encoder view E = V2 and decoder view
    O = (Y, S2, V2): since O contains E, I(T;O) - I(T;E) = I(T;Y,S2|V2), and
    the strategy cell that picks x is s1. ``iterations`` counts that one
    solve; ``argopt`` is p(t|v2), uniform at a v2 without mass. The report
    has the shape of ``inner_max``'s, with ``log_q`` laid out (V2, T).
    """
    opts = opts or Case2Options()
    return _strategy_solve(
        ch, _state_v2_joint(ch, w), (ch.s1, ch.s2, w.out_axes[0]), _CAUSAL,
        opts.delta, opts.max_inner_iters,
    )


def capacity_case2_sweep(
    ch: ChannelInstance,
    r_primes: Sequence[float],
    opts: Case2Options | None = None,
    causal: bool = False,
) -> list[CurvePoint]:
    """Lower-bound capacity curve in the description rate R', one point per R'.

    Noncausal encoder states: a kernel w(v2|s2) is admissible when R_w is
    eps-close to R' from below, R' is clamped to H(S2|S1) (beyond which more
    description of S2 is useless), and each kernel's inner solve is
    ``inner_max``'s. Causal states: the rate is I(V2;S2) (the causal
    description cannot be binned against S1), R' is clamped to H(S2), and
    each kernel's inner solve is ``causal_inner_max``'s. The best inner
    maximum wins (smallest grid index on ties within 1e-9); see
    ``_grid_sweep``. The curve's fresh kernels are solved as stacks of at most
    ``STACK_CAP``, one engine run each, with the values, gaps, iterations
    and statuses of one call per kernel, bit for bit. Each point's extras
    carry ``r_max``.
    """
    opts = opts or Case2Options()
    rate, views = (_causal_rate, _CAUSAL) if causal else (r_w, _NONCAUSAL)
    p_ab = ch.state_joint.probs.sum(axis=0)[:, None] if causal else ch.state_joint.probs.T
    r_max = _description_rate(p_ab, np.eye(ch.s2.size))
    v2 = Alphabet(opts.v2_size, "V2")
    strategies = _cell_strategies(ch, (ch.s1, ch.s2, v2), views[1])

    def solve_ws(ws: list[CondKernel]):
        results = []
        for at in range(0, len(ws), STACK_CAP):
            tables = [
                _strategy_tables(ch, strategies, _state_v2_joint(ch, w), *views)
                for w in ws[at : at + STACK_CAP]
            ]
            p_e, p_ote = (np.stack(t) for t in zip(*tables))
            results += [
                (value, iters, gap, "ok" if ok else "nonconverged", {})
                for value, gap, iters, *_, ok in _stacked_strategy_max(
                    p_e, p_ote, opts.delta, opts.max_inner_iters
                )
            ]
        return results

    points = _grid_sweep(
        lambda w: rate(ch, w), solve_ws, ch.s2.size, v2, r_primes, r_max, opts, maximize=True,
    )
    for point in points:
        point.extras["r_max"] = r_max
    return points
