"""Blahut-Arimoto style alternating solvers.

* ``ba_capacity`` -- classic channel capacity with the per-iteration
  upper bound certificate: the strategy objective below with one encoder
  letter, whose strategies are the inputs (Blahut 1972).
* ``wz_primal`` -- the Wyner-Ziv rate over distributions on reconstruction
  strategies: at a fixed distortion multiplier beta the negated Lagrangian
  is the strategy objective below with encoder letter e = (x, s1), decoder
  view s2, p(o|t,e) = p(s2|e) and the linear cost
  beta * ln 2 * sum_s2 p(s2|e) d(x, t(s2)), inside a bisection on the
  multiplier that stops on the certified gap.
* ``ba_rate_distortion`` -- classic rate-distortion, the same problem with a
  single side letter, whose strategies are the reconstruction letters
  (Blahut 1972); both run through ``_lagrangian_sweep``.
* ``gp_channel_capacity`` -- Gelfand-Pinsker-type capacity
  max I(T;O) - I(T;E) over distributions q(t|e) on input strategies.

``alternating_strategy_max`` is the one alternating iteration, with one
step and one certificate, the concavity bound U(q): classic capacity, these
oracles, both state-description capacity solvers and every multiplier probe
run on it; every capacity solve is one ``_strategy_solve``, whose tables come
from ``_strategy_tables``, given a state joint and its encoder, cell and
decoder views. The engine returns its log tables and shares one set of strategy
functionals with the helpers and the sweep.

All values are in bits. Every report carries a certified optimality gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .probability import (
    Alphabet,
    CondKernel,
    JointPmf,
    ProbabilityError,
    ZERO_TOL,
)
from .strategies import StrategySpace, enumerate_strategies, lift_source

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ChannelInstance:
    """A discrete memoryless channel p(y|x,s1,s2) with state joint p(s1,s2)."""

    x: Alphabet
    y: Alphabet
    s1: Alphabet
    s2: Alphabet
    state_joint: JointPmf
    kernel: CondKernel

    def __post_init__(self) -> None:
        if tuple(a.size for a in self.state_joint.axes) != (self.s1.size, self.s2.size):
            raise ProbabilityError("state joint axes do not match (S1, S2)")
        expected = (self.x.size, self.s1.size, self.s2.size)
        if tuple(a.size for a in self.kernel.given_axes) != expected:
            raise ProbabilityError("channel kernel given axes do not match (X, S1, S2)")
        if tuple(a.size for a in self.kernel.out_axes) != (self.y.size,):
            raise ProbabilityError("channel kernel out axis does not match Y")


@dataclass(frozen=True)
class SourceInstance:
    """A source p(x,s1,s2) with reconstruction alphabet and distortion d(x,xhat) >= 0."""

    x: Alphabet
    xhat: Alphabet
    s1: Alphabet
    s2: Alphabet
    joint: JointPmf
    distortion: np.ndarray

    def __post_init__(self) -> None:
        if tuple(a.size for a in self.joint.axes) != (self.x.size, self.s1.size, self.s2.size):
            raise ProbabilityError("source joint axes do not match (X, S1, S2)")
        d = np.asarray(self.distortion, dtype=float)
        if d.shape != (self.x.size, self.xhat.size):
            raise ProbabilityError("distortion matrix shape does not match (X, Xhat)")
        if not np.all(np.isfinite(d)) or d.min() < 0:
            raise ProbabilityError("distortion entries must be finite and >= 0")
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "distortion", d)


@dataclass
class SolverOptions:
    """Termination controls shared by the iterative solvers.

    delta: target certified gap in bits.
    max_iters: inner iteration cap; exceeding it yields status "nonconverged".
        A multiplier sweep passes it to each probe and reports
        "nonconverged" when its final certified gap exceeds ``delta``.
    """

    delta: float = 1e-6
    max_iters: int = 10000

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError("delta must be finite and > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class SolveReport:
    value: float
    gap: float
    iterations: int
    argopt: object
    trace: np.ndarray  # (n, 2): (lower, upper) in bits, one row per iteration or stage
    status: str = "ok"
    extras: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == "ok"


def _as_channel_matrix(kernel) -> np.ndarray:
    if isinstance(kernel, CondKernel):
        if len(kernel.given_axes) != 1 or len(kernel.out_axes) != 1:
            raise ProbabilityError("ba_capacity expects a single-input single-output kernel")
        return kernel.probs
    arr = np.asarray(kernel, dtype=float)
    if arr.ndim != 2:
        raise ProbabilityError("channel matrix must be 2-D (inputs x outputs)")
    return arr


def ba_capacity(kernel, opts: SolverOptions | None = None) -> SolveReport:
    """Capacity of a memoryless channel p(y|x) by Blahut-Arimoto.

    This is the strategy objective of ``alternating_strategy_max`` with one
    encoder letter, whose strategies are the inputs x: there U(q) is the
    bracket max_x D(p(y|x) || p_q(y)) and J the mutual information I(q), so
    each trace entry is (lower, upper) in bits and iteration stops once the
    bracket is narrower than ``opts.delta``. ``argopt`` is the input
    distribution.
    """
    opts = opts or SolverOptions()
    p = _as_channel_matrix(kernel)
    value, gap, iters, log_q, _, trace, ok = alternating_strategy_max(
        np.ones(1), p[:, None, :], opts.delta, opts.max_iters
    )
    status = "ok" if ok else "nonconverged"
    return SolveReport(value, gap, iters, _probs(log_q[:, 0]), trace, status=status)


# ---------------------------------------------------------------------------
# Lagrangian rate-distortion family and the multiplier sweep
# ---------------------------------------------------------------------------


def _assemble_sweep(probes, d_target: float, measure, slack: float, floor_arg):
    """Certified value and gap for R(D) from the Lagrangian probes.

    Each probe yields the lower bound rate + beta*(dist - D) - gap. Probes
    with dist <= D are achievability witnesses; time-shared mixtures of
    probes straddling D are achievable at distortion exactly D (distortion is
    linear and the objective convex in the distribution), which keeps the
    achievable side tight across the linear segments of R(D). The reported
    value is the best achievable candidate, the gap its distance to the best
    Lagrangian lower bound.

    ``measure(arg)`` returns the exact (rate, dist, arg) of a distribution;
    a chord is realized as the mixture (1-mu) * arg_a + mu * arg_b. A probe
    is feasible when its distortion is at most D + ``slack``. With no
    feasible probe the witness is ``floor_arg``, the deterministic map from
    each letter to its least-distortion answer, measured exactly; only if it
    too misses D + ``slack`` is the gap infinite.

    Returns (value, gap, argopt, argopt_rate, argopt_dist); the rate and
    distortion of ``argopt`` are exact functionals of that distribution.
    """
    lower = max([_probe_bound(p, d_target) for p in probes] + [0.0])

    feasible = [p for p in probes if p[2] <= d_target + slack]
    infeasible = [p for p in probes if p[2] > d_target + slack]
    if not feasible:
        rate, dist, arg = measure(floor_arg)
        if dist > d_target + slack:
            return lower, math.inf, arg, rate, dist
        return max(rate, lower), max(rate - lower, 0.0), arg, rate, dist

    best_rate, best_dist, best_arg = math.inf, math.nan, None
    for _, rate, dist, _, arg in feasible:
        if rate < best_rate:
            best_rate, best_dist, best_arg = rate, dist, arg
    # the most promising chord, realized exactly as a mixture distribution
    chord_best = None
    for _, r_f, d_f, _, a_f in feasible:
        for _, r_i, d_i, _, a_i in infeasible:
            mu = (d_target - d_f) / (d_i - d_f)
            val = (1.0 - mu) * r_f + mu * r_i
            if chord_best is None or val < chord_best[0]:
                chord_best = (val, a_f, a_i, mu)
    if chord_best is not None:
        _, a_f, a_i, mu = chord_best
        rate_mix, dist_mix, arg_mix = measure((1.0 - mu) * a_f + mu * a_i)
        if dist_mix <= d_target + 1e-9 and rate_mix < best_rate:
            best_rate, best_dist, best_arg = rate_mix, dist_mix, arg_mix
    value = max(best_rate, lower)  # bracket can invert by solver roundoff
    return value, max(best_rate - lower, 0.0), best_arg, best_rate, best_dist


def _probe_bound(probe, d_target: float) -> float:
    """The Lagrangian lower bound rate + beta * (dist - D) - gap of one probe."""
    beta, rate, dist, gap, _ = probe
    return rate + beta * (dist - d_target) - gap


def _norm(a) -> float:
    """Euclidean norm of an array or a scalar, summed as ``np.linalg.norm`` sums it."""
    flat = np.ravel(a)
    return math.sqrt(flat.dot(flat))


def _accelerated_fixed_point(step, x, max_iters: int, out=None, record=None, dist=None):
    """Iterate ``x <- step(x)`` with one squared-extrapolation candidate per two steps.

    The candidate is SQUAREM's (Varadhan & Roland 2008) with the step length
    clamped to [1, 1e4].
    ``step(x)`` returns (next_x, objective, done, out). The objective is
    maximized: an extrapolated candidate is kept only when its objective is
    not below the last step's, so a rejected candidate is neither counted as
    an iteration nor passed to ``record``, which sees the ``out`` of every
    counted step. Stops once a counted step reports ``done`` or after
    ``max_iters`` counted steps.

    The candidate is formed on the points, but its step length is measured on
    ``dist(x)``, the distribution a point stands for (default: the point),
    called on each point of a cycle before it is stepped from: a coordinate
    such as the log weight of a vanishing strategy drifts at a constant rate,
    which on the points holds the length at the clamp and overshoots the rest.

    Returns (iterations, x, out) after the last counted step; ``out`` is the
    given default when no step ran.
    """
    dist = dist or (lambda point: point)
    iters, obj = 0, -math.inf

    def count(result) -> bool:
        nonlocal iters, x, obj, out
        x, obj, done, out = result
        iters += 1
        if record is not None:
            record(out)
        return done or iters >= max_iters

    while iters < max_iters:
        x0, q0 = x, dist(x)
        if count(step(x0)):
            break
        x1, q1 = x, dist(x)
        if count(step(x1)):
            break
        r = q1 - q0  # SQUAREM's r and v, measured on what the points stand for
        vn = _norm(dist(x) - q1 - r)
        if vn > 1e-300:
            alpha = -max(1.0, min(_norm(r) / vn, 1e4))
            cand = step(x0 - 2.0 * alpha * (x1 - x0) + alpha * alpha * (x - 2.0 * x1 + x0))
            if cand[1] >= obj and count(cand):
                break
    return iters, x, out


def ba_rate_distortion(p_x, d, d_target: float, opts: SolverOptions | None = None) -> SolveReport:
    """R(D) = min I(X;Xhat) s.t. E[d(X,Xhat)] <= D, by Blahut's algorithm.

    This is the Wyner-Ziv problem with one side letter, whose strategies are
    the reconstruction letters, so it runs through ``_lagrangian_sweep``;
    ``argopt`` is the test channel w(xhat|x).
    """
    opts = opts or SolverOptions()
    p_x = np.asarray(p_x, dtype=float)
    d = np.asarray(d, dtype=float)
    if p_x.ndim != 1 or d.ndim != 2 or d.shape[0] != p_x.shape[0]:
        raise ProbabilityError("p_x and distortion shapes are inconsistent")
    p_x = p_x / p_x.sum()
    return _lagrangian_sweep(p_x[:, None], d[:, :, None], d_target, opts)


def _lagrangian_sweep(p_xs, d_xts, d_target, opts) -> SolveReport:
    """R(D) = min over q(t|x) of I(T;X|S) s.t. E[d(X, t, S)] <= D, by the multiplier sweep.

    ``p_xs`` is the source joint p(x, s) and ``d_xts[x, t, s]`` the
    distortion of answer t (a reconstruction strategy) at source letter x and
    side letter s. The sweep works in excess units: it subtracts from d its
    least value at each (x, s), which leaves every minimizer unchanged and
    keeps exp2(-beta * d) from underflowing a whole row, and moves the target
    by the offset sum p(x, s) * least(x, s). The probes, the zero-rate
    shortcut, the distortion floor, the feasibility slack and the mixtures
    all see the excess; the reported distortions have the offset added back.

    Targets at or above the best constant answer's distortion have rate 0
    exactly; targets below the distortion floor are raised to it with status
    "distortion-floor". The multiplier is bisected on [0, gamma_max] by the
    sign of each probe's dist - D, a subgradient of the concave Lagrangian
    lower bound g(beta) = min_q rate + beta * (dist - D), until
    ``_assemble_sweep`` certifies a gap of at most half of ``opts.delta`` or
    the bracket collapses; while no probe meets the target, the map from
    each letter to its least-dbar answer is the witness. Each probe is one
    ``alternating_strategy_max`` solve with the cost beta * ln 2 * dbar, to a
    quarter of ``opts.delta``. It stops early once its q has
    rate + beta * (dist - D) at most L, the best probe bound
    rate + beta * (dist - D) - gap so far: then g(beta) <= L <= g(beta_L)
    for the multiplier beta_L of that bound, so by concavity a maximizer
    lies on beta_L's side, and the bisection moves toward it. A stopped
    probe's witness and weak bound are kept, so no reported bound depends
    on the stop. A final gap above ``opts.delta`` gives status
    "nonconverged". ``extras`` counts the ``probes``, the ``probes_stopped``
    early, the ``probes_capped`` that reached ``opts.max_iters`` short of
    their own gap, and ``probe_iterations``, the engine's iterations summed
    over the probes.
    """
    p_x = p_xs.sum(axis=1)
    sup_x = p_x > ZERO_TOL
    p_s_given_x = np.where(sup_x[:, None], p_xs / np.where(sup_x, p_x, 1.0)[:, None], 0.0)
    least = d_xts.min(axis=1)
    offset = float((p_xs * least).sum())
    excess = d_xts - least[:, None, :]
    dbar = np.einsum("xs,xts->xt", p_s_given_x, excess)
    target = d_target - offset

    counts = {"probes_capped": 0, "probes_stopped": 0, "probe_iterations": 0}
    d_zero_rate = float((p_x @ dbar).min())  # best constant answer
    if target >= d_zero_rate - 1e-12:
        arg = np.zeros_like(dbar)
        arg[:, int((p_x @ dbar).argmin())] = 1.0
        extras = {"argopt_rate": 0.0, "argopt_distortion": d_zero_rate + offset,
                  "probes": 0, **counts}
        return SolveReport(0.0, 0.0, 0, arg, np.zeros((1, 2)), extras=extras)

    status = "ok"
    d_floor = float(p_x @ dbar.min(axis=1))
    if target < d_floor - 1e-12:
        status = "distortion-floor"
        target = d_floor

    # the negated Lagrangian is the strategy objective with encoder letter x,
    # decoder view s and the linear cost beta * ln 2 * dbar
    p_ote = np.broadcast_to(p_s_given_x, (dbar.shape[1],) + p_s_given_x.shape)

    def measure(q):
        """Exact (rate, dist, q) of the test channel q(t|x); the rate is -J(q, Q*(q)), no cost."""
        rate = -_functionals(p_x, p_ote, _log(q.T))[0] / LN2
        return max(rate, 0.0), float((p_x[:, None] * q * dbar).sum()), q

    # the multiplier range follows the per-(x, t, s) excess, not its average
    positive = excess[excess > ZERO_TOL]
    gamma_max = 50.0 / float(positive.min()) if positive.size else 1.0
    inner_delta = opts.delta / 4.0
    slack = 1e-12 * max(1.0, float(dbar.max()))
    probes = []  # (beta, rate, dist, gap, argopt)
    floor_arg = np.zeros_like(dbar)  # each letter's least-dbar answer, at the floor
    floor_arg[np.arange(dbar.shape[0]), dbar.argmin(axis=1)] = 1.0

    def probe(beta: float) -> bool:
        """Solve at ``beta``; True when a maximizer of the bound lies above it.

        The probe reports the engine's own next table from its log
        posterior, half a step past its q; its gap L(q') + U keeps the lower
        bound rate + beta * (dist - D) - gap equal to the engine's -U - beta * D.
        The engine's J is -ln 2 * (rate + beta * dist) at its q, so it stops
        once that is at most the best bound so far.
        """
        cost = (beta * LN2) * dbar.T
        best = max(probes, key=lambda p: _probe_bound(p, target), default=None)
        j_stop = math.inf if best is None else -LN2 * (_probe_bound(best, target) + beta * target)
        value, gap, iters, _, log_big_q, _, ok = alternating_strategy_max(
            p_x, p_ote, inner_delta, opts.max_iters, cost, j_stop
        )
        nxt = _StrategyModel(p_x, p_ote, cost).scores(log_big_q)
        rate, dist, q = measure(np.exp(_log_weights(nxt)).T)
        probes.append((beta, rate, dist, max(rate + beta * dist + value + gap, 0.0), q))
        # short of its gap, the engine ends before the cap only on reaching j_stop
        stopped = not ok and iters < opts.max_iters
        counts["probes_stopped"] += stopped
        counts["probes_capped"] += not ok and not stopped
        counts["probe_iterations"] += iters
        return best[0] > beta if stopped else dist > target

    lo, hi = 0.0, gamma_max
    probe(lo)
    probe(hi)
    while True:
        value, gap, arg, arg_rate, arg_dist = _assemble_sweep(
            probes, target, measure, slack, floor_arg
        )
        if gap <= opts.delta / 2.0 or hi - lo <= 1e-8 * max(1.0, gamma_max):
            break
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    if gap > opts.delta:
        status = "nonconverged"
    return SolveReport(
        value, gap, len(probes), arg, np.array([[value, value + gap]]), status=status,
        extras={
            "distortion_floor": d_floor + offset,
            "zero_rate_distortion": d_zero_rate + offset,
            "argopt_rate": arg_rate,
            "argopt_distortion": arg_dist + offset,
            "probes": len(probes),
            **counts,
        },
    )


# ---------------------------------------------------------------------------
# Wyner-Ziv primal over reconstruction strategies
# ---------------------------------------------------------------------------


def wz_primal(
    src: SourceInstance,
    d_target: float,
    opts: SolverOptions | None = None,
    strategies: StrategySpace | None = None,
) -> SolveReport:
    """Wyner-Ziv rate R(D) = min_{q(t|x,s1)} I(T;X,S1|S2) s.t. E[d(x, t(s2))] <= D.

    Any source is accepted: the encoder sees (X, S1) and the decoder S2, so
    this is source case 1 with no description, and a source with |S1| = 1 is
    the classic problem. The encoder letter is the pair (x, s1) in row-major
    order; strategies map S2 to Xhat. ``argopt`` is q(t|x,s1).
    """
    opts = opts or SolverOptions()
    if strategies is None:
        strategies = enumerate_strategies((src.s2,), src.xhat)
    if strategies.domain_shape != (src.s2.size,):
        raise ProbabilityError("strategies must map the side alphabet S2 to Xhat")

    p_es = src.joint.probs.reshape(src.x.size * src.s1.size, src.s2.size)
    rep = _lagrangian_sweep(p_es, lift_source(src, strategies), d_target, opts)
    shape = (src.x.size, src.s1.size, len(strategies))
    rep.argopt = CondKernel((src.x, src.s1), (strategies.alphabet,), rep.argopt.reshape(shape))
    return rep


# ---------------------------------------------------------------------------
# Gelfand-Pinsker-type alternating maximization over input strategies
# ---------------------------------------------------------------------------


class _StrategyModel:
    """The strategy functionals of p(e) q(t|e) p(o|t,e) on natural-log tables, in nats.

    ``cost[t, e]`` is in nats; ``live[t, e]`` (default: all) marks the pairs
    whose weight may be positive. Rows of other pairs and of letters with
    p(e) <= ZERO_TOL are dropped: a zero weight adds 0 to J (0 log 0 = 0), and
    a view reached only via zero-mass letters cannot make J nan.
    """

    def __init__(self, p_e, p_ote, cost=None, live=True):
        n_t, n_e, n_o = p_ote.shape
        self.p_e, self.cost, self.live = np.asarray(p_e, dtype=float), cost, live
        self.sup_e = self.p_e > ZERO_TOL
        self.pm_mask = (p_ote > ZERO_TOL) & self.sup_e[None, :, None] & np.asarray(live)[..., None]
        self.pm = np.where(self.pm_mask, p_ote, 0.0)
        self.ln_pe_pm = _log(self.p_e)[None, :, None] + _log(self.pm)  # constant part of the joint
        # structural zeros: the (t, o) cells no e reaches, and the views no t reaches
        self.reach_to = self.pm_mask.any(axis=1)
        self.reach_o = self.reach_to.any(axis=0)
        # fixed masks, so skipped cells keep these fills: log p(t, o) is -inf at unreached
        # cells, uniform at unreached views (log p(o) 0); pm log Q and score - log q are 0
        self.buf_to = np.tile(np.where(self.reach_o, -np.inf, -math.log(n_t)), (n_t, 1))
        self.buf_o, self.buf_te = np.zeros(n_o), np.zeros((n_t, n_e))
        self.buf_terms = np.zeros(p_ote.shape)

    def log_posterior(self, log_q: np.ndarray) -> np.ndarray:
        """log Q*(t|o), the decoder posterior of q; each log-sum-exp shifts by its max."""
        joint = self.ln_pe_pm + log_q[:, :, None]
        m_to = np.where(self.reach_to, joint.max(axis=1), 0.0)
        log_p_to = np.log(
            np.exp(joint - m_to[:, None, :]).sum(axis=1), out=self.buf_to, where=self.reach_to
        ) + m_to
        m_o = np.where(self.reach_o, log_p_to.max(axis=0), 0.0)
        log_p_o = np.log(np.exp(log_p_to - m_o).sum(axis=0), out=self.buf_o, where=self.reach_o)
        return log_p_to - (log_p_o + m_o)

    def scores(self, log_big_q: np.ndarray) -> np.ndarray:
        """The (T, E) table sum_o p(o|t,e) log Q(t|o) - cost[t, e]."""
        prod = np.multiply(self.pm, log_big_q[:, None, :], out=self.buf_terms, where=self.pm_mask)
        return prod.sum(axis=2) if self.cost is None else prod.sum(axis=2) - self.cost

    def bounds(self, q: np.ndarray, log_q: np.ndarray, scores: np.ndarray) -> tuple[float, float]:
        """(J, U): sum_e p(e) times the q-average, and the max over t, of score - log q."""
        diff = np.subtract(scores, log_q, out=self.buf_te, where=self.live)
        j_val = float(np.einsum("e,te,te->", self.p_e, q, diff))
        return j_val, float(self.p_e @ np.where(self.sup_e, diff.max(axis=0), 0.0))


def _log_weights(table: np.ndarray) -> np.ndarray:
    """log q(t|e) = s - log sum_t exp(s) from a log-weight table s[t, e].

    The shift-then-clip keeps the normalization exact for extrapolated tables
    whose entries are too large for the correction to survive rounding.
    """
    table = np.maximum(table - table.max(axis=0, keepdims=True), -800.0)
    return table - np.log(np.exp(table).sum(axis=0))


def _probs(log_table: np.ndarray) -> np.ndarray:
    """exp of a natural-log table, with weights below the smallest normal double set to 0.

    A subnormal weight keeps too few bits for a certificate to be re-checked
    from it, as an underflowed one does; the log table keeps the exact value.
    """
    q = np.exp(log_table)
    q[q < np.finfo(float).tiny] = 0.0
    return q


def _log(a) -> np.ndarray:
    """The natural log of a probability table, with log 0 = -inf."""
    return np.log(a, out=np.full(a.shape, -np.inf), where=a > 0)


def _functionals(p_e, p_ote, log_q, log_big_q=None, cost=None) -> tuple[float, float]:
    """(J, U) in nats at log q and log Q (default: Q*(q)); a zero weight makes U +inf (-log 0)."""
    live = log_q > -np.inf
    f = _StrategyModel(p_e, p_ote, cost, live)
    log_big_q = f.log_posterior(log_q) if log_big_q is None else log_big_q
    j_val, u_val = f.bounds(np.exp(log_q), log_q, f.scores(log_big_q))
    return j_val, u_val if live[:, f.sup_e].all() else math.inf


def alternating_strategy_max(
    p_e: np.ndarray,
    p_ote: np.ndarray,
    delta_bits: float,
    max_iters: int,
    cost: np.ndarray | None = None,
    j_stop: float = math.inf,
):
    """max over q(t|e) of I(T;O) - I(T;E) - E[cost] for the model p(e) q(t|e) p(o|t,e).

    ``cost[t, e]`` is in nats; None means no cost. Alternates the
    exponential-family update of q with the marginal update of the decoder
    posterior Q(t|o); terminates when the per-iterate upper bound U(q) is
    within ``delta_bits`` of the objective J(q, Q). J is jointly concave in
    (q, Q), so the optimum is concave in q, and with the scores
    sum_o p(o|t,e) log Q(t|o) of the posterior of q, U(q) = sum_e p(e)
    max_t (score - cost - log q) is its Frank-Wolfe bound; a linear cost
    keeps it valid. Every third iterate is a squared-extrapolation candidate
    in the log-weight table, kept only when it does not decrease J, so the
    recorded trace stays monotone and every certificate is measured at a
    valid distribution. Its step length is measured on the q(t|e) the tables
    stand for: in the tables the log weight of a vanishing strategy drifts
    toward -inf at a near-constant rate, which would hold the length at the
    clamp and overshoot the strategies that still converge. A counted step
    whose J reaches ``j_stop`` (nats) also ends the solve, for a caller that
    only needs to know the optimum is at least that; ``converged`` still
    means the gap is below ``delta_bits``.

    Each step runs the one set of strategy functionals (``_StrategyModel``).
    Returns (value_bits, gap_bits, iterations, log_q, log_big_q, trace, converged):
    the natural-log tables (T, E) and (T, O) of the gap, finite where weights underflow,
    and the (J, U) bits of each iteration as an (iterations, 2) array.
    """
    f = _StrategyModel(p_e, p_ote, cost)
    last = [None, None, None]  # the table dist normalized last, its log q and its q

    def normalized(table):
        log_q = _log_weights(table)
        return table, log_q, np.exp(log_q)

    def dist(table):
        """q(t|e) of a log-weight table, whose normalization the next step reuses."""
        if table is not last[0]:
            last[:] = normalized(table)
        return last[2]

    def step(table):
        """One alternating cycle from the log-weight table s[t, e]."""
        _, log_q, q = last if table is last[0] else normalized(table)
        log_big_q = f.log_posterior(log_q)
        nxt = f.scores(log_big_q)
        j_val, u_val = f.bounds(q, log_q, nxt)
        done = u_val - j_val < delta_bits * LN2 or j_val >= j_stop
        return nxt, j_val, done, (j_val, u_val, log_q, log_big_q)

    trace: list[tuple[float, float]] = []
    iters, _, state = _accelerated_fixed_point(
        step, np.full(p_ote.shape[:2], -math.log(p_ote.shape[0])), max_iters,
        record=lambda out: trace.append(out[:2]), dist=dist,
    )
    j_val, u_val, log_q, log_big_q = state
    gap = max(u_val - j_val, 0.0)
    trace_bits = np.array(trace, dtype=float).reshape(-1, 2) / LN2
    return j_val / LN2, gap / LN2, iters, log_q, log_big_q, trace_bits, gap < delta_bits * LN2


def strategy_bound(p_e, p_ote, q, big_q) -> float:
    """The dominance bound U(q) in bits for given q(t|e) and Q(t|o); +inf where q has a zero."""
    return _functionals(p_e, p_ote, _log(q), _log(big_q))[1] / LN2


def strategy_objective(p_e, p_ote, q, big_q) -> float:
    """The objective J(q, Q) in bits for given q(t|e) and Q(t|o), with 0 log 0 = 0."""
    return _functionals(p_e, p_ote, _log(q), _log(big_q))[0] / LN2


def strategy_posterior(p_e, p_ote, q) -> np.ndarray:
    """The maximizing decoder posterior Q*(t|o) for a given q(t|e), uniform at unreached views."""
    log_q = _log(q)
    return np.exp(_StrategyModel(p_e, p_ote, live=log_q > -np.inf).log_posterior(log_q))


def strategy_q_update(p_ote, big_q) -> np.ndarray:
    """The maximizing q*(t|e) for a given decoder posterior Q(t|o)."""
    return np.exp(_log_weights(_StrategyModel(np.ones(p_ote.shape[1]), p_ote).scores(_log(big_q))))


def _axis_indices(names: Sequence[str]) -> tuple[int, ...]:
    lookup = {"s1": 0, "s2": 1}
    try:
        axes = tuple(lookup[n] for n in names)
    except KeyError as exc:
        raise ProbabilityError(f"unknown state axis {exc.args[0]!r}; use 's1'/'s2'") from exc
    if len(set(axes)) != len(axes):
        raise ProbabilityError(f"state axes {tuple(names)!r} name an axis more than once")
    return axes


def _view_index(shape, idx, axes) -> np.ndarray:
    """Row-major index over the axes ``axes`` of ``shape`` of each state in ``idx``; 0 if empty."""
    flat = np.ravel_multi_index([idx[i] for i in axes], [shape[i] for i in axes])
    return np.broadcast_to(flat, idx[0].shape)


def _strategy_tables(ch: ChannelInstance, strategies: StrategySpace, p_state, enc, cell, dec):
    """(p_e, p(o|t,e)) of the strategy solve on ``p_state`` with views ``enc``, ``cell``, ``dec``.

    ``p_state`` is the state joint with axes (S1, S2, ...); each view is a tuple
    of its axes: the encoder view e, the strategy cell whose entry picks x, and
    the decoder's state view d, with decoder view o = y * |d| + d. A view's index
    is row-major over its axes, 0 for an empty tuple. States with mass at most
    ZERO_TOL are skipped, the others summed in row-major state order; encoder
    views left without mass get zero rows.
    """
    def dims(axes):
        return tuple(p_state.shape[i] for i in axes)

    if strategies.domain_shape != dims(cell) or strategies.codomain.size != ch.x.size:
        raise ProbabilityError(
            f"strategies map {strategies.domain_shape} to {strategies.codomain.size} letters; "
            f"this solve needs the cell axes {dims(cell)} mapped to X of size {ch.x.size}"
        )
    mass = p_state.ravel()
    live = np.flatnonzero(mass > ZERO_TOL)
    idx = np.unravel_index(live, p_state.shape)
    e, c, d = (_view_index(p_state.shape, idx, axes) for axes in (enc, cell, dec))
    n_t, n_y, n_d = len(strategies), ch.y.size, math.prod(dims(dec))
    p_e = np.zeros(math.prod(dims(enc)))
    np.add.at(p_e, e, mass[live])
    # one (T, Y) block per live state, added into p(o|t,e) in state order
    x = strategies.tables[:, c].T
    rows = mass[live, None, None] * ch.kernel.probs[x, idx[0][:, None], idx[1][:, None]]
    p_ote = np.zeros((n_t, p_e.size, n_y * n_d))
    o = np.arange(n_y) * n_d + d[:, None, None]
    np.add.at(p_ote, (np.arange(n_t)[:, None], e[:, None, None], o), rows)
    sup = p_e > ZERO_TOL
    p_ote[:, sup, :] /= p_e[sup][None, :, None]
    p_ote[:, ~sup, :] = 0.0
    return p_e, p_ote


def _strategy_solve(ch, p_state, axes, views, delta, max_iters, strategies=None) -> SolveReport:
    """The strategy solve on ``p_state``, whose axes have the alphabets ``axes``.

    ``views`` is (enc, cell, dec) as in ``_strategy_tables``; the default
    strategies map the cell's alphabets to X. ``argopt`` is q(t|e) over the
    encoder view's alphabets, 0 where a weight is below the smallest normal
    double. ``extras`` holds the natural-log tables of the certificate,
    ``log_q`` laid out (enc..., T) and ``log_posterior`` laid out
    (Y, dec..., T), the ``posterior`` Q(t|y, dec) and the ``strategies``.
    """
    enc, cell, dec = views
    if strategies is None:
        strategies = enumerate_strategies([axes[i] for i in cell], ch.x)
    p_e, p_ote = _strategy_tables(ch, strategies, p_state, enc, cell, dec)
    value, gap, iters, log_q, log_big_q, trace, ok = alternating_strategy_max(
        p_e, p_ote, delta, max_iters
    )
    given, seen = [axes[i] for i in enc], [ch.y] + [axes[i] for i in dec]
    log_q = log_q.T.reshape([a.size for a in given] + [-1])
    log_posterior = log_big_q.T.reshape([a.size for a in seen] + [-1])
    t_axis = (strategies.alphabet,)
    return SolveReport(
        value, gap, iters, CondKernel(given, t_axis, _probs(log_q)), trace,
        status="ok" if ok else "nonconverged",
        extras={"log_q": log_q, "log_posterior": log_posterior, "strategies": strategies,
                "posterior": CondKernel(seen, t_axis, np.exp(log_posterior))},
    )


def _strategy_joint(ch, p_state, axes, q, strategies: StrategySpace, enc, cell) -> JointPmf:
    """The joint p(state) q(t|e) 1{x = t(c)} p(y|x,s1,s2) over (state..., T, X, Y).

    ``q`` is laid out (enc..., T); the views index every state as in
    ``_strategy_tables``, zero-mass states included.
    """
    idx = np.unravel_index(np.arange(p_state.size), p_state.shape)
    e, c = (_view_index(p_state.shape, idx, v) for v in (enc, cell))
    x = strategies.tables[:, c].T  # (states, T)
    n_t = len(strategies)
    out = np.zeros((p_state.size, n_t, ch.x.size, ch.y.size))
    out[np.arange(p_state.size)[:, None], np.arange(n_t), x] = (
        p_state.ravel()[:, None] * np.reshape(q, (-1, n_t))[e]
    )[..., None] * ch.kernel.probs[x, idx[0][:, None], idx[1][:, None]]
    return JointPmf(
        tuple(axes) + (strategies.alphabet, ch.x, ch.y), out.reshape(p_state.shape + out.shape[1:])
    )


def gp_channel_capacity(
    ch: ChannelInstance,
    encoder_axes: Sequence[str],
    decoder_axes: Sequence[str],
    opts: SolverOptions | None = None,
    strategies: StrategySpace | None = None,
) -> SolveReport:
    """max I(T;O) - I(T;E) over q(t|e), T the strategies encoder-state -> X.

    ``encoder_axes`` lists the state axes visible at the encoder;
    the decoder observes Y plus ``decoder_axes``. The report is
    ``_strategy_solve``'s, whose strategy cell is the encoder view.
    """
    opts = opts or SolverOptions()
    enc, dec = _axis_indices(encoder_axes), _axis_indices(decoder_axes)
    return _strategy_solve(
        ch, ch.state_joint.probs, (ch.s1, ch.s2), (enc, enc, dec), opts.delta, opts.max_iters,
        strategies,
    )
