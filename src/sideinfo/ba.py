"""Blahut-Arimoto style alternating solvers.

* ``ba_capacity`` -- classic channel capacity with the per-iteration
  upper bound certificate: the strategy objective below with one encoder
  letter, whose strategies are the inputs (Blahut 1972).
* ``wz_primal`` -- the Wyner-Ziv rate over distributions on reconstruction
  strategies: at a fixed distortion multiplier beta the negated Lagrangian
  is the strategy objective below with encoder letter x, decoder view s,
  p(o|t,e) = p(s|x) and the linear cost beta * ln 2 * sum_s p(s|x) d(x, t, s),
  inside a bisection on the multiplier that stops on the certified gap.
* ``ba_rate_distortion`` -- classic rate-distortion, the same problem with a
  single side letter, whose strategies are the reconstruction letters
  (Blahut 1972); both run through ``_lagrangian_sweep``.
* ``gp_channel_capacity`` -- Gelfand-Pinsker-type capacity
  max I(T;O) - I(T;E) over distributions q(t|e) on input strategies.

``alternating_strategy_max`` is the one alternating iteration, with one
step and one certificate, the concavity bound U(q): classic capacity, these
oracles, both state-description capacity solvers and every multiplier probe
run on it; capacity tables come from ``_strategy_tables``. It returns its log
tables and shares one set of strategy functionals with the helpers and the sweep.

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


def pair_source(src: SourceInstance) -> SourceInstance:
    """Merge (X, S1) into a single source axis; side information becomes S2 alone.

    The distortion of a merged symbol depends only on its X part.
    """
    nx, ns1 = src.x.size, src.s1.size
    merged = Alphabet(nx * ns1, f"{src.x.label}{src.s1.label}")
    joint = src.joint.probs.reshape(nx * ns1, 1, src.s2.size)
    d = np.repeat(src.distortion, ns1, axis=0)
    return SourceInstance(
        x=merged,
        xhat=src.xhat,
        s1=Alphabet(1, "S1"),
        s2=src.s2,
        joint=JointPmf((merged, Alphabet(1, "S1"), src.s2), joint),
        distortion=d,
    )


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
    trace: list[tuple[float, float]]
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
    return SolveReport(value, gap, iters, np.exp(log_q[:, 0]), trace, status=status)


# ---------------------------------------------------------------------------
# Lagrangian rate-distortion family and the multiplier sweep
# ---------------------------------------------------------------------------


def _assemble_sweep(probes, d_target: float, measure, slack: float):
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
    is feasible when its distortion is at most D + ``slack``; with no
    feasible probe there is no achievable witness and the gap is infinite.

    Returns (value, gap, argopt, argopt_rate, argopt_dist); the rate and
    distortion of ``argopt`` are exact functionals of that distribution.
    """
    lower = -math.inf
    for beta, rate, dist, gap, _ in probes:
        lower = max(lower, rate + beta * (dist - d_target) - gap)
    lower = max(lower, 0.0)

    feasible = [p for p in probes if p[2] <= d_target + slack]
    infeasible = [p for p in probes if p[2] > d_target + slack]
    if not feasible:
        _, rate, dist, _, arg = min(probes, key=lambda p: p[2])
        return lower, math.inf, arg, rate, dist

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


def _norm(a) -> float:
    """Euclidean norm of an array or a scalar, summed as ``np.linalg.norm`` sums it."""
    flat = np.ravel(a)
    return math.sqrt(flat.dot(flat))


def _accelerated_fixed_point(step, x, max_iters: int, out=None, record=None):
    """Iterate ``x <- step(x)`` with one squared-extrapolation candidate per two steps.

    The candidate is SQUAREM's (Varadhan & Roland 2008) with the step length
    clamped to [1, 1e4].
    ``step(x)`` returns (next_x, objective, done, out). The objective is
    maximized: an extrapolated candidate is kept only when its objective is
    not below the last step's, so a rejected candidate is neither counted as
    an iteration nor passed to ``record``, which sees the ``out`` of every
    counted step. Stops once a counted step reports ``done`` or after
    ``max_iters`` counted steps.

    Returns (iterations, x, out) after the last counted step; ``out`` is the
    given default when no step ran.
    """
    iters, obj = 0, -math.inf

    def count(result) -> bool:
        nonlocal iters, x, obj, out
        x, obj, done, out = result
        iters += 1
        if record is not None:
            record(out)
        return done or iters >= max_iters

    while iters < max_iters:
        x0 = x
        if count(step(x0)):
            break
        x1 = x
        if count(step(x1)):
            break
        r = x1 - x0
        v = x - 2.0 * x1 + x0
        vn = _norm(v)
        if vn > 1e-300:
            alpha = -max(1.0, min(_norm(r) / vn, 1e4))
            cand = step(x0 - 2.0 * alpha * r + alpha * alpha * v)
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
    lower bound rate + beta * (dist - D) - gap, until ``_assemble_sweep``
    certifies a gap of at most half of ``opts.delta`` or the bracket
    collapses. Each probe is one ``alternating_strategy_max`` solve with the
    cost beta * ln 2 * dbar, to a quarter of ``opts.delta``. A final
    gap above ``opts.delta`` gives status "nonconverged". ``extras`` counts
    the ``probes`` and the ``probes_capped`` that stopped at
    ``opts.max_iters`` short of their own gap.
    """
    p_x = p_xs.sum(axis=1)
    sup_x = p_x > ZERO_TOL
    p_s_given_x = np.where(sup_x[:, None], p_xs / np.where(sup_x, p_x, 1.0)[:, None], 0.0)
    least = d_xts.min(axis=1)
    offset = float((p_xs * least).sum())
    excess = d_xts - least[:, None, :]
    dbar = np.einsum("xs,xts->xt", p_s_given_x, excess)
    target = d_target - offset

    d_zero_rate = float((p_x @ dbar).min())  # best constant answer
    if target >= d_zero_rate - 1e-12:
        arg = np.zeros_like(dbar)
        arg[:, int((p_x @ dbar).argmin())] = 1.0
        extras = {"distortion": d_zero_rate + offset, "probes": 0, "probes_capped": 0}
        return SolveReport(0.0, 0.0, 0, arg, [(0.0, 0.0)], extras=extras)

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

    def probe(beta: float) -> bool:
        """Solve at ``beta``; True when the maximizer of the bound lies above it.

        The probe reports the engine's own next table from its log
        posterior, half a step past its q; its gap L(q') + U keeps the lower
        bound rate + beta * (dist - D) - gap equal to the engine's -U - beta * D.
        """
        cost = (beta * LN2) * dbar.T
        value, gap, _, _, log_big_q, _, _ = alternating_strategy_max(
            p_x, p_ote, inner_delta, opts.max_iters, cost
        )
        nxt = _StrategyModel(p_x, p_ote, cost).scores(log_big_q)
        rate, dist, q = measure(np.exp(_log_weights(nxt)).T)
        probes.append((beta, rate, dist, max(rate + beta * dist + value + gap, 0.0), q))
        return dist > target

    lo, hi = 0.0, gamma_max
    probe(lo)
    probe(hi)
    while True:
        value, gap, arg, arg_rate, arg_dist = _assemble_sweep(probes, target, measure, slack)
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
        value, gap, len(probes), arg, [(value, value + gap)], status=status,
        extras={
            "distortion_floor": d_floor + offset,
            "zero_rate_distortion": d_zero_rate + offset,
            "argopt_rate": arg_rate,
            "argopt_distortion": arg_dist + offset,
            "probes": len(probes),
            "probes_capped": sum(p[3] >= inner_delta for p in probes),
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
    """Wyner-Ziv rate R(D) = min_{q(t|x)} I(T;X|S) s.t. E[d(x, t(s))] <= D.

    The side information axis is S2; an encoder-side axis must be merged into
    the source first (see ``pair_source``). Strategies map S2 to Xhat.
    """
    opts = opts or SolverOptions()
    if src.s1.size != 1:
        raise ProbabilityError(
            "wz_primal uses S2 as the only side axis; merge S1 via pair_source first"
        )
    if strategies is None:
        strategies = enumerate_strategies((src.s2,), src.xhat)
    if strategies.domain_shape != (src.s2.size,):
        raise ProbabilityError("strategies must map the side alphabet S2 to Xhat")

    p_xs = src.joint.probs.reshape(src.x.size, src.s2.size)
    rep = _lagrangian_sweep(p_xs, lift_source(src, strategies), d_target, opts)
    rep.argopt = CondKernel((src.x,), (strategies.alphabet,), rep.argopt)
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

    def bounds(self, log_q: np.ndarray, scores: np.ndarray) -> tuple[float, float]:
        """(J, U): sum_e p(e) times the q-average, and the max over t, of score - log q."""
        diff = np.subtract(scores, log_q, out=self.buf_te, where=self.live)
        j_val = float(np.einsum("e,te,te->", self.p_e, np.exp(log_q), diff))
        return j_val, float(self.p_e @ np.where(self.sup_e, diff.max(axis=0), 0.0))


def _log_weights(table: np.ndarray) -> np.ndarray:
    """log q(t|e) = s - log sum_t exp(s) from a log-weight table s[t, e].

    The shift-then-clip keeps the normalization exact for extrapolated tables
    whose entries are too large for the correction to survive rounding.
    """
    table = np.maximum(table - table.max(axis=0, keepdims=True), -800.0)
    return table - np.log(np.exp(table).sum(axis=0))


def _log(a) -> np.ndarray:
    """The natural log of a probability table, with log 0 = -inf."""
    return np.log(a, out=np.full(a.shape, -np.inf), where=a > 0)


def _functionals(p_e, p_ote, log_q, log_big_q=None, cost=None) -> tuple[float, float]:
    """(J, U) in nats at log q and log Q (default: Q*(q)); a zero weight makes U +inf (-log 0)."""
    live = log_q > -np.inf
    f = _StrategyModel(p_e, p_ote, cost, live)
    log_big_q = f.log_posterior(log_q) if log_big_q is None else log_big_q
    j_val, u_val = f.bounds(log_q, f.scores(log_big_q))
    return j_val, u_val if live[:, f.sup_e].all() else math.inf


def alternating_strategy_max(
    p_e: np.ndarray,
    p_ote: np.ndarray,
    delta_bits: float,
    max_iters: int,
    cost: np.ndarray | None = None,
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
    valid distribution.

    Each step runs the one set of strategy functionals (``_StrategyModel``).
    Returns (value_bits, gap_bits, iterations, log_q, log_big_q, trace, converged):
    the natural-log tables (T, E) and (T, O) of the gap, finite where weights underflow.
    """
    f = _StrategyModel(p_e, p_ote, cost)

    def step(table):
        """One alternating cycle from the log-weight table s[t, e]."""
        log_q = _log_weights(table)
        log_big_q = f.log_posterior(log_q)
        nxt = f.scores(log_big_q)
        j_val, u_val = f.bounds(log_q, nxt)
        return nxt, j_val, u_val - j_val < delta_bits * LN2, (j_val, u_val, log_q, log_big_q)

    trace: list[tuple[float, float]] = []
    iters, _, state = _accelerated_fixed_point(
        step, np.full(p_ote.shape[:2], -math.log(p_ote.shape[0])), max_iters,
        record=lambda out: trace.append((out[0] / LN2, out[1] / LN2)),
    )
    j_val, u_val, log_q, log_big_q = state
    gap = max(u_val - j_val, 0.0)
    return j_val / LN2, gap / LN2, iters, log_q, log_big_q, trace, gap < delta_bits * LN2


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
        return tuple(lookup[n] for n in names)
    except KeyError as exc:
        raise ProbabilityError(f"unknown state axis {exc.args[0]!r}; use 's1'/'s2'") from exc


def strategy_channel_tables(
    ch: ChannelInstance,
    encoder_axes: Sequence[str],
    decoder_axes: Sequence[str],
    strategies: StrategySpace,
):
    """Assemble (p_e, p(o|t,e)) for strategies over the encoder-visible state axes.

    The decoder observes Y together with ``decoder_axes``. Conditioning slices
    with zero state probability are skipped.
    """
    enc = _axis_indices(encoder_axes)
    dec = _axis_indices(decoder_axes)
    sizes = (ch.s1.size, ch.s2.size)
    enc_shape = tuple(sizes[i] for i in enc)
    if strategies.domain_shape != enc_shape:
        raise ProbabilityError(
            f"strategy domain {strategies.domain_shape} does not match encoder axes {enc_shape}"
        )
    dec_shape = tuple(sizes[i] for i in dec)
    idx = np.indices(sizes).reshape(2, -1)  # (s1, s2) of every state, row-major

    def flat(axes):
        out = np.zeros(idx.shape[1], dtype=np.intp)
        for i in axes:
            out = out * sizes[i] + idx[i]
        return out

    e = flat(enc)
    states = zip(ch.state_joint.probs.ravel(), idx[0], idx[1], e, e, flat(dec))
    n_e = int(np.prod(enc_shape))
    return _strategy_tables(ch, strategies, states, n_e, ch.y.size * int(np.prod(dec_shape)))


def _strategy_tables(ch: ChannelInstance, strategies: StrategySpace, states, n_e: int, n_o: int):
    """(p_e, p(o|t,e)) accumulated over flattened states.

    Each state is (mass, s1, s2, e, c, d): its probability, the channel state
    it selects, its encoder index, the strategy cell c whose entry picks x,
    and its decoder-state index; the decoder view is o = y * (n_o / |Y|) + d.
    States with mass at most ZERO_TOL are skipped, and encoder views left
    without mass get zero rows.
    """
    n_y = ch.y.size
    y_cols = np.arange(n_y) * (n_o // n_y)
    tables = strategies.tables
    p_e = np.zeros(n_e)
    p_ote = np.zeros((len(strategies), n_e, n_o))
    for mass, s1, s2, e, c, d in states:
        if mass <= ZERO_TOL:
            continue
        p_e[e] += mass
        p_ote[:, e, y_cols + d] += mass * ch.kernel.probs[tables[:, c], s1, s2, :]
    sup = p_e > ZERO_TOL
    p_ote[:, sup, :] /= p_e[sup][None, :, None]
    p_ote[:, ~sup, :] = 0.0
    return p_e, p_ote


def gp_channel_capacity(
    ch: ChannelInstance,
    encoder_axes: Sequence[str],
    decoder_axes: Sequence[str],
    opts: SolverOptions | None = None,
    strategies: StrategySpace | None = None,
) -> SolveReport:
    """max I(T;O) - I(T;E) over q(t|e), T the strategies encoder-state -> X.

    ``encoder_axes`` lists the state axes visible at the encoder;
    the decoder observes Y plus ``decoder_axes``.
    """
    opts = opts or SolverOptions()
    given = tuple((ch.s1, ch.s2)[i] for i in _axis_indices(encoder_axes))
    if strategies is None:
        strategies = enumerate_strategies(given, ch.x)
    p_e, p_ote = strategy_channel_tables(ch, encoder_axes, decoder_axes, strategies)
    value, gap, iters, log_q, log_big_q, trace, ok = alternating_strategy_max(
        p_e, p_ote, opts.delta, opts.max_iters
    )
    shape = tuple(a.size for a in given) + (len(strategies),)
    arg = CondKernel(given, (strategies.alphabet,), np.exp(log_q).T.reshape(shape))
    return SolveReport(
        value, gap, iters, arg, trace,
        status="ok" if ok else "nonconverged",
        extras={"decoder_posterior": np.exp(log_big_q), "strategies": strategies},
    )
