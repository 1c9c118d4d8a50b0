"""Semi-iterative capacity solver: rate-limited state description at the encoder.

The lower-bound capacity with a rate-R' description of the decoder state S2
at the encoder is computed by an outer grid search over description kernels
w(v2|s2) combined with an inner alternating maximization over distributions
q(t|s1,v2) on input strategies t: S1 x V2 -> X. A kernel w is admissible for
rate R' when its description rate R_w = I(V2;S2|S1) lies in [R' - eps, R'].
The causal variant constrains I(V2;S2) instead, and its inner problem is the
same strategy solve over q(t|v2), t: S1 -> X, with encoder view V2 and decoder
view (Y, S2, V2).
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
    _functionals,
    _strategy_solve,
    _strategy_tables,
)
from .probability import (
    Alphabet,
    CondKernel,
    JointPmf,
    ProbabilityError,
    SimplexGrid,
    chain,
    conditional_entropy,
    conditional_mutual_information,
    entropy,
    grid_divisions,
    mutual_information,
    simplex_grid,
)
from .strategies import StrategySpace, enumerate_strategies


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


# the (enc, cell, dec) views of the two inner solves on the state joint (S1, S2, V2)
_NONCAUSAL = ((0, 2), (0, 2), (1, 2))
_CAUSAL = ((2,), (0,), (1, 2))


def _state_v2_joint(ch: ChannelInstance, w: CondKernel) -> JointPmf:
    if w.given_shape != (ch.s2.size,):
        raise ProbabilityError("description kernel must condition on S2")
    return chain(ch.state_joint, w, bind=(1,))  # axes (S1, S2, V2)


def r_w(ch: ChannelInstance, w: CondKernel) -> float:
    """Description rate R_w = I(V2;S2) - I(V2;S1) of a kernel w(v2|s2), in bits.

    By construction V2 - S2 - S1 is a Markov chain, so this equals
    I(V2;S2|S1); both are computed and compared as an internal sanity check.
    """
    joint = _state_v2_joint(ch, w)
    direct = mutual_information(joint, (2,), (1,)) - mutual_information(joint, (2,), (0,))
    conditional = conditional_mutual_information(joint, (2,), (1,), (0,))
    if abs(direct - conditional) > 1e-10:
        raise ProbabilityError(
            f"R_w cross-check failed: {direct} vs {conditional}"
        )
    return conditional


def _inner_tables(ch: ChannelInstance, w: CondKernel, strategies: StrategySpace):
    """p(e) over (s1, v2) and p(o|t, e) over (y, s2, v2) for the inner solve."""
    return _strategy_tables(ch, strategies, _state_v2_joint(ch, w).probs, *_NONCAUSAL)


def inner_max(
    ch: ChannelInstance,
    w: CondKernel,
    opts: Case2Options | None = None,
    strategies: StrategySpace | None = None,
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
        ch, _state_v2_joint(ch, w).probs, (ch.s1, ch.s2, w.out_axes[0]), _NONCAUSAL,
        opts.delta, opts.max_inner_iters, strategies,
    )


def u_w_bound(
    ch: ChannelInstance,
    w: CondKernel,
    log_q: np.ndarray,
    log_posterior: np.ndarray,
    strategies: StrategySpace | None = None,
) -> float:
    """Dominance bound U(q) in bits from log q(t|s1,v2) and log Q(t|y,s2,v2).

    The natural-log tables are laid out as ``inner_max``'s ``extras["log_q"]``
    and ``extras["log_posterior"]``. Always at least J(q, Q*) and equal to the
    inner optimum at its fixed point.
    """
    v2_axis = w.out_axes[0]
    n_t = log_q.shape[-1]
    if strategies is None:
        strategies = enumerate_strategies((ch.s1, v2_axis), ch.x)
    if len(strategies) != n_t:
        raise ProbabilityError("strategy count does not match q's codomain")
    p_e, p_ote = _inner_tables(ch, w, strategies)
    u = _functionals(p_e, p_ote, log_q.reshape(-1, n_t).T, log_posterior.reshape(-1, n_t).T)[1]
    return u / LN2


def _auto_epsilon(rws: Sequence[float]) -> float:
    values = np.sort(np.unique(np.concatenate(([0.0], np.asarray(rws)))))
    gaps = np.diff(values)
    coarsest = float(gaps.max()) if gaps.size else 0.0
    return max(0.02, coarsest)


def _grid_sweep(
    rate_of_w: Callable[[CondKernel], float],
    solve_w: Callable[[CondKernel], tuple[float, int, float, str, dict]],
    grid_factory: Callable[[float], SimplexGrid],
    r_primes: Sequence[float],
    r_max: float,
    opts: Case2Options,
    maximize: bool,
) -> list[CurvePoint]:
    """One point per R': the best ``solve_w`` value over the kernels admissible there.

    R' is clamped to ``r_max``, and a kernel is admissible when its rate lies
    in [R' - eps, R']; when none is, the grid is refined once to half the
    step. The curve is the unit of work: each grid it uses is built once, and
    each orbit of it (``SimplexGrid.orbit``) has its rate computed once and
    is solved at most once, by the first point that needs it, always on its
    representative, the orbit's smallest index. Every member reads the
    representative's rate and result. The table of solved orbits lives only
    for this call.

    Contract: ``rate_of_w`` and ``solve_w`` are invariant under relabeling
    the codomain letters of w, as the description rates are, and the inner
    solves and dual programs are up to their certified gaps. Members of an
    orbit then carry equal values, so the winner (ties within 1e-9 go to
    the smallest grid index) is always a representative, solved exactly as
    if every kernel were.

    ``solve_w(w)`` returns (value, iterations, gap, status, extras); the
    winner's extras join the point's. ``kernels_admissible`` counts the
    point's admissible kernels, ``kernels_solved`` the orbits among them
    solved for this point and not an earlier one, and ``kernels_not_ok``
    the kernels, winner included, whose status is not "ok". ``opts``
    supplies ``grid_step`` and ``epsilon``.

    The point takes the winner's status. On a maximizing curve a loser that
    is not "ok" may still beat the winner, so the point is "ok" only when
    each such loser's value + gap is at most the winner's; else it takes
    the first such loser's status. On a minimizing curve each value is a
    dual value, a lower bound on its kernel's rate, so no loser can beat
    the winner and the winner's status stands.
    """
    grids: dict[float, tuple[SimplexGrid, list[float], float]] = {}
    solved: dict[tuple[float, int], tuple] = {}

    def grid_at(step: float):
        if step not in grids:
            grid = grid_factory(step)
            rates = {r: rate_of_w(grid.points[r]) for r in sorted(set(grid.orbit))}
            rws = [rates[r] for r in grid.orbit]
            eps = opts.epsilon if opts.epsilon is not None else _auto_epsilon(rws)
            grids[step] = grid, rws, eps
        return grids[step]

    sign = 1.0 if maximize else -1.0
    points = []
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
            points.append(CurvePoint(r_prime, math.nan, math.nan, -1, "no-feasible-w"))
            continue

        fresh = sorted({(step, grid.orbit[i]) for i in feasible} - solved.keys())
        for key in fresh:
            solved[key] = solve_w(grid.points[key[1]])
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
                "kernels_admissible": len(feasible), "kernels_solved": len(fresh),
                "kernels_not_ok": sum(r[3] != "ok" for r in results), **extras,
            },
        ))
    return points


def capacity_case2(
    ch: ChannelInstance,
    r_prime: float,
    opts: Case2Options | None = None,
) -> CurvePoint:
    """Lower-bound capacity at description rate R', noncausal encoder states.

    R' is clamped to H(S2|S1) (beyond which extra description of S2 is
    useless); the grid over w(v2|s2) keeps kernels whose R_w is eps-close to
    R' from below, and the best inner maximum wins (smallest grid index on
    ties within 1e-9). This is the one-point case of ``capacity_case2_sweep``.
    """
    return _capacity_curve(ch, [r_prime], opts, causal=False)[0]


def _capacity_curve(ch, r_primes, opts, causal: bool) -> list[CurvePoint]:
    """The sweep over w(v2|s2) behind both capacity curves, one point per R'.

    The noncausal curve checks R_w against R' clamped to H(S2|S1) and solves
    each admissible kernel with ``inner_max``; the causal one checks I(V2;S2)
    against R' clamped to H(S2) and solves with ``causal_inner_max``.
    """
    opts = opts or Case2Options()
    if any(rp < 0 for rp in r_primes):
        raise ValueError("r_prime must be >= 0")
    v2 = Alphabet(opts.v2_size, "V2")
    if causal:
        r_max = entropy(JointPmf((ch.s2,), ch.state_joint.probs.sum(axis=0)))
        rate, inner, views = _causal_rate, causal_inner_max, _CAUSAL
    else:
        r_max = conditional_entropy(ch.state_joint, (1,), (0,))
        rate, inner, views = r_w, inner_max, _NONCAUSAL
    strategies = enumerate_strategies([(ch.s1, ch.s2, v2)[i] for i in views[1]], ch.x)

    def solve_w(w: CondKernel):
        rep = inner(ch, w, opts, strategies)
        return rep.value, rep.iterations, rep.gap, rep.status, {}

    points = _grid_sweep(
        rate_of_w=lambda w: rate(ch, w),
        solve_w=solve_w,
        grid_factory=lambda step: simplex_grid(ch.s2.size, v2, step),
        r_primes=r_primes,
        r_max=r_max,
        opts=opts,
        maximize=True,
    )
    for point in points:
        point.extras["r_max"] = r_max
    return points


def _causal_rate(ch: ChannelInstance, w: CondKernel) -> float:
    joint = _state_v2_joint(ch, w)
    return mutual_information(joint, (2,), (1,))


def causal_inner_max(
    ch: ChannelInstance,
    w: CondKernel,
    opts: Case2Options | None = None,
    strategies: StrategySpace | None = None,
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
        ch, _state_v2_joint(ch, w).probs, (ch.s1, ch.s2, w.out_axes[0]), _CAUSAL,
        opts.delta, opts.max_inner_iters, strategies,
    )


def capacity_case2_causal(
    ch: ChannelInstance,
    r_prime: float,
    opts: Case2Options | None = None,
) -> CurvePoint:
    """Capacity at description rate R' when the encoder state is causal.

    The admissibility band uses the unconditional rate I(V2;S2) (the causal
    description cannot be binned against S1), so R' is clamped to H(S2).
    This is the one-point case of ``capacity_case2_sweep(..., causal=True)``.
    """
    return _capacity_curve(ch, [r_prime], opts, causal=True)[0]


def monotone_post_pass(points: list[CurvePoint], maximize: bool = True) -> list[CurvePoint]:
    """Enforce curve monotonicity in R' by a running max (or min); raw kept.

    The true curves are monotone in R'; finite grids can violate that, so the
    post-pass restores it while ``raw_value`` retains the grid output.
    """
    ordered = sorted(range(len(points)), key=lambda i: points[i].r_prime)
    best = -math.inf if maximize else math.inf
    for i in ordered:
        pt = points[i]
        if pt.status != "ok" or math.isnan(pt.raw_value):
            continue
        best = max(best, pt.raw_value) if maximize else min(best, pt.raw_value)
        pt.value = best
    return points


def capacity_case2_sweep(
    ch: ChannelInstance,
    r_primes: Sequence[float],
    opts: Case2Options | None = None,
    causal: bool = False,
) -> list[CurvePoint]:
    """Solve a whole R' grid as one curve and apply the monotone post-pass."""
    return monotone_post_pass(_capacity_curve(ch, r_primes, opts, causal), maximize=True)
