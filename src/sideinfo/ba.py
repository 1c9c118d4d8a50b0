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
* ``ba_rate_distortion`` -- classic rate-distortion (Blahut 1972): that sweep,
  ``_lagrangian_sweep``, on a source with one-letter S1 and S2. One helper,
  ``_excess_target``, poses every distortion target, the dual programs' too.
* ``gp_channel_capacity`` -- Gelfand-Pinsker-type capacity
  max I(T;O) - I(T;E) over distributions q(t|e) on input strategies.

``alternating_strategy_max`` is the one alternating iteration, with one
step, one certificate, the concavity bound U(q), and its own accelerated
loop, which ``_stacked_strategy_max`` runs on a stack of same-shape
instances at once: classic capacity, these oracles, both state-description
capacity solvers and every multiplier probe run on it. Every capacity solve
takes its tables from ``_strategy_tables``, given a state joint and its
encoder, cell and decoder views; a single one is a ``_strategy_solve``, and
the capacity sweep stacks the tables of a curve point's kernels. The engine
returns its log tables; ``_functionals`` evaluates (J, U) at any tables, for
the sweep's measurements and for re-checking a certificate.

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
from .strategies import StrategySpace, enumerate_strategies

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
        d = _distortion_matrix(self.distortion, (self.x.size, self.xhat.size))
        object.__setattr__(self, "distortion", d)


def _distortion_matrix(distortion, shape: tuple[int, int]) -> np.ndarray:
    """A read-only copy of d(x, xhat): shape ``shape`` = (|X|, |Xhat|), finite and >= 0.

    The one check of a distortion matrix; anything else is a ``ProbabilityError``.
    """
    d = np.asarray(distortion, dtype=float)
    if d.shape != shape:
        raise ProbabilityError(f"distortion shape {d.shape} does not match (X, Xhat) {shape}")
    if not np.all(np.isfinite(d)) or d.min() < 0:
        raise ProbabilityError("distortion entries must be finite and >= 0")
    d = d.copy()
    d.setflags(write=False)
    return d


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
    """p(y|x) of a one-input one-output ``CondKernel``, or of a 2-D array validated as one."""
    if not isinstance(kernel, CondKernel):
        arr = np.asarray(kernel, dtype=float)
        if arr.ndim != 2:
            raise ProbabilityError("channel matrix must be 2-D (inputs x outputs)")
        kernel = CondKernel((Alphabet(arr.shape[0], "X"),), (Alphabet(arr.shape[1], "Y"),), arr)
    if len(kernel.given_axes) != 1 or len(kernel.out_axes) != 1:
        raise ProbabilityError("ba_capacity expects a single-input single-output kernel")
    return kernel.probs


def ba_capacity(kernel, opts: SolverOptions | None = None) -> SolveReport:
    """Capacity of a memoryless channel p(y|x) by Blahut-Arimoto.

    This is the strategy objective of ``alternating_strategy_max`` with one
    encoder letter, whose strategies are the inputs x: there U(q) is the
    bracket max_x D(p(y|x) || p_q(y)) and J the mutual information I(q), so
    each trace entry is (lower, upper) in bits and iteration stops once the
    bracket is narrower than ``opts.delta``. ``argopt`` is the input
    distribution. An array is checked as a ``CondKernel`` is: finite entries
    >= 0, each row summing to 1 within ``SUM_TOL``.
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


def _norms(a: np.ndarray) -> list[float]:
    """The Euclidean norm of each instance of a stack, summed as ``np.linalg.norm`` sums it.

    ``np.vecdot`` makes one ``ddot`` per instance, as ``a.dot(a)`` is alone.
    """
    flat = a.reshape(a.shape[0], -1)
    return [math.sqrt(x) for x in np.vecdot(flat, flat).tolist()]


def ba_rate_distortion(p_x, d, d_target: float, opts: SolverOptions | None = None) -> SolveReport:
    """R(D) = min I(X;Xhat) s.t. E[d(X,Xhat)] <= D, by Blahut's algorithm.

    This is the Wyner-Ziv sweep on the source with one-letter S1 and S2,
    whose strategies are the reconstruction letters; ``argopt`` is the test
    channel w(xhat|x). ``p_x`` must be finite and >= 0 with a positive sum,
    which is divided out, and ``d`` an (|X|, |Xhat|) matrix, which
    ``SourceInstance`` checks.
    """
    opts = opts or SolverOptions()
    p_x = np.asarray(p_x, dtype=float)
    d = np.asarray(d, dtype=float)
    if p_x.ndim != 1 or d.ndim != 2 or d.shape[0] != p_x.shape[0]:
        raise ProbabilityError("p_x and distortion shapes are inconsistent")
    if not (np.all(np.isfinite(p_x)) and p_x.min(initial=0.0) >= 0 and p_x.sum() > 0):
        raise ProbabilityError("p_x must be finite and >= 0 with a positive sum")
    x, xhat = Alphabet(d.shape[0], "X"), Alphabet(d.shape[1], "Xhat")
    s1, s2 = Alphabet(1, "S1"), Alphabet(1, "S2")
    joint = JointPmf((x, s1, s2), (p_x / p_x.sum())[:, None, None])
    return _lagrangian_sweep(SourceInstance(x, xhat, s1, s2, joint, d), d_target, opts)


def _check_distortion_target(d_target: float) -> None:
    """The one rule for a distortion target D: finite and >= 0, else ``ValueError``."""
    if not (math.isfinite(d_target) and d_target >= 0):
        raise ValueError(f"distortion target must be finite and >= 0, got {d_target!r}")


def _excess_target(src: SourceInstance, d_target: float):
    """(excess, offset, posed, status): how the primal sweep and the dual programs pose D.

    ``excess`` is d(x, xhat) - least(x), least(x) the least d(x, .); every
    test channel's distortion is its excess plus ``offset`` = sum p(x, s1, s2)
    * least(x), the floor. ``posed`` is D, status "ok", or, with D below the
    floor by more than 1e-12, the floor, status "distortion-floor". D is
    checked first.
    """
    _check_distortion_target(d_target)
    least = src.distortion.min(axis=1)
    excess = src.distortion - least[:, None]
    offset = float((src.joint.probs * least[:, None, None]).sum())
    if d_target - offset < -1e-12:
        return excess, offset, offset, "distortion-floor"
    return excess, offset, d_target, "ok"


def _lagrangian_sweep(src: SourceInstance, d_target: float, opts: SolverOptions) -> SolveReport:
    """Wyner-Ziv R(D) = min over q(t|x,s1) of I(T;X,S1|S2) s.t. E[d(X, t(S2))] <= D.

    The encoder letter is the pair (x, s1) in row-major order, the decoder
    view s2, and the answers t all maps S2 -> Xhat. D is posed by
    ``_excess_target``; the excess units leave every minimizer unchanged and
    keep exp2(-beta * d) from underflowing a whole row. The reported
    distortions have the offset added back.

    A posed target, the floor's too, at or above the best constant answer's
    distortion has rate 0 exactly and runs no probe. The multiplier is
    bisected on [0, gamma_max] by the
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
    over the probes. ``argopt`` is q(t|e) as an (E, T) array.
    """
    excess, offset, posed, status = _excess_target(src, d_target)
    target = posed - offset
    p_xs = src.joint.probs.reshape(src.x.size * src.s1.size, src.s2.size)
    p_x = p_xs.sum(axis=1)
    sup_x = p_x > ZERO_TOL
    p_s_given_x = np.where(sup_x[:, None], p_xs / np.where(sup_x, p_x, 1.0)[:, None], 0.0)
    # the excess d(x, t(s2)) of each encoder letter, answer and side letter
    excess_xts = np.repeat(excess, src.s1.size, axis=0)[:, _source_strategies(src).tables]
    dbar = np.einsum("xs,xts->xt", p_s_given_x, excess_xts)

    counts = {"probes_capped": 0, "probes_stopped": 0, "probe_iterations": 0}
    d_zero_rate = float((p_x @ dbar).min())  # best constant answer
    if target >= d_zero_rate - 1e-12:
        arg = np.zeros_like(dbar)
        arg[:, int((p_x @ dbar).argmin())] = 1.0
        extras = {"argopt_rate": 0.0, "argopt_distortion": d_zero_rate + offset,
                  "probes": 0, **counts}
        return SolveReport(0.0, 0.0, 0, arg, np.zeros((1, 2)), status=status, extras=extras)

    # the negated Lagrangian is the strategy objective with encoder letter x,
    # decoder view s and the linear cost beta * ln 2 * dbar
    p_ote = np.broadcast_to(p_s_given_x, (dbar.shape[1],) + p_s_given_x.shape)

    def measure(q):
        """Exact (rate, dist, q) of the test channel q(t|x); the rate is -J(q, Q*(q)), no cost."""
        rate = -_functionals(p_x, p_ote, _log(q.T))[0] / LN2
        return max(rate, 0.0), float((p_x[:, None] * q * dbar).sum()), q

    # the multiplier range follows the per-(x, xhat) excess, not its average
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
        nxt = _StrategyModel(p_x[None], p_ote[None], cost[None]).scores(log_big_q[None])[0]
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
            "distortion_floor": offset,
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


def _source_strategies(src: SourceInstance) -> StrategySpace:
    """All maps S2 -> Xhat: the reconstruction strategies of every source solve."""
    return enumerate_strategies((src.s2,), src.xhat)


def wz_primal(
    src: SourceInstance, d_target: float, opts: SolverOptions | None = None
) -> SolveReport:
    """Wyner-Ziv rate R(D) = min_{q(t|x,s1)} I(T;X,S1|S2) s.t. E[d(x, t(s2))] <= D.

    Any source is accepted: the encoder sees (X, S1) and the decoder S2, so
    this is source case 1 with no description, and a source with |S1| = 1 is
    the classic problem. The encoder letter is the pair (x, s1) in row-major
    order; the strategies are all maps S2 -> Xhat. ``argopt`` is q(t|x,s1).
    """
    opts = opts or SolverOptions()
    rep = _lagrangian_sweep(src, d_target, opts)
    q = rep.argopt.reshape(src.x.size, src.s1.size, -1)
    rep.argopt = CondKernel((src.x, src.s1), (_source_strategies(src).alphabet,), q)
    return rep


# ---------------------------------------------------------------------------
# Gelfand-Pinsker-type alternating maximization over input strategies
# ---------------------------------------------------------------------------


class _StrategyModel:
    """The strategy functionals of a stack of models p(e) q(t|e) p(o|t,e), in nats.

    Every table has a leading stack axis: ``p_e`` is (B, E), ``p_ote`` (B, T, E, O),
    ``cost`` (B, T, E) in nats or None, and ``live`` (B, T, E) (default: all) marks
    the pairs whose weight may be positive. Each instance goes through the same
    reductions over the same axes, in the same memory layout, as it would alone,
    so its numbers do not depend on the stack it is in. Rows of pairs that are
    not live and of letters with p(e) <= ZERO_TOL are dropped: a zero weight adds
    0 to J (0 log 0 = 0), and a view reached only via zero-mass letters cannot
    make J nan.
    """

    # the per-instance tables, kept in step by ``take``
    _STACKED = ("p_e", "sup_e", "pm_mask", "pm", "ln_pe_pm", "reach_to", "reach_o",
                "buf_to", "buf_o", "buf_te", "buf_terms")

    def __init__(self, p_e, p_ote, cost=None, live=True):
        n_b, n_t, n_e, n_o = p_ote.shape
        self.p_e, self.cost, self.live = np.asarray(p_e, dtype=float), cost, live
        self.sup_e = self.p_e > ZERO_TOL
        live_e = self.sup_e[:, None, :, None] & np.asarray(live)[..., None]
        self.pm_mask = (p_ote > ZERO_TOL) & live_e
        self.pm = np.where(self.pm_mask, p_ote, 0.0)
        # the constant part of the joint
        self.ln_pe_pm = _log(self.p_e)[:, None, :, None] + _log(self.pm)
        # structural zeros: the (t, o) cells no e reaches, and the views no t reaches
        self.reach_to = self.pm_mask.any(axis=2)
        self.reach_o = self.reach_to.any(axis=1, keepdims=True)
        # fixed masks, so skipped cells keep these fills: log p(t, o) is -inf at unreached
        # cells, uniform at unreached views (log p(o) 0); pm log Q and score - log q are 0
        self.buf_to = np.repeat(np.where(self.reach_o, -np.inf, -math.log(n_t)), n_t, axis=1)
        self.buf_o, self.buf_te = np.zeros((n_b, 1, n_o)), np.zeros((n_b, n_t, n_e))
        self.buf_terms = np.zeros(p_ote.shape)

    def take(self, keep: np.ndarray) -> None:
        """Keep only the instances ``keep``, a mask over the stack; ``live`` must be all."""
        for name in self._STACKED:
            setattr(self, name, getattr(self, name)[keep])
        if self.cost is not None:
            self.cost = self.cost[keep]

    def log_posterior(self, log_q: np.ndarray) -> np.ndarray:
        """log Q*(t|o), the decoder posterior of q; each log-sum-exp shifts by its max."""
        joint = self.ln_pe_pm + log_q[..., None]
        m_to = np.where(self.reach_to, joint.max(axis=2), 0.0)
        joint -= m_to[:, :, None, :]  # in place: one (B, T, E, O) temporary per call
        log_p_to = np.log(
            np.exp(joint, out=joint).sum(axis=2), out=self.buf_to, where=self.reach_to
        ) + m_to
        m_o = np.where(self.reach_o, log_p_to.max(axis=1, keepdims=True), 0.0)
        log_p_o = np.log(
            np.exp(log_p_to - m_o).sum(axis=1, keepdims=True), out=self.buf_o, where=self.reach_o
        )
        return log_p_to - (log_p_o + m_o)

    def scores(self, log_big_q: np.ndarray) -> np.ndarray:
        """The (B, T, E) table sum_o p(o|t,e) log Q(t|o) - cost[t, e]."""
        prod = np.multiply(
            self.pm, log_big_q[:, :, None, :], out=self.buf_terms, where=self.pm_mask
        )
        return prod.sum(axis=3) if self.cost is None else prod.sum(axis=3) - self.cost

    def bounds(self, q: np.ndarray, log_q: np.ndarray, scores: np.ndarray):
        """(J, U), each (B,): sum_e p(e) times the q-average, and the max over t, of score - log q.

        U is one ``ddot`` per instance (``np.vecdot``), as ``p_e @ v`` is alone.
        """
        diff = np.subtract(scores, log_q, out=self.buf_te, where=self.live)
        j_val = np.einsum("be,bte,bte->b", self.p_e, q, diff)
        return j_val, np.vecdot(self.p_e, np.where(self.sup_e, diff.max(axis=1), 0.0))


def _log_weights(table: np.ndarray) -> np.ndarray:
    """log q(t|e) = s - log sum_t exp(s) from a log-weight table s[t, e], or a stack of them.

    The shift-then-clip keeps the normalization exact for extrapolated tables
    whose entries are too large for the correction to survive rounding.
    """
    table = np.maximum(table - table.max(axis=-2, keepdims=True), -800.0)
    return table - np.log(np.exp(table).sum(axis=-2, keepdims=True))


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
    stack_cost = None if cost is None else cost[None]
    f = _StrategyModel(np.asarray(p_e, dtype=float)[None], p_ote[None], stack_cost, live[None])
    log_big_q = f.log_posterior(log_q[None]) if log_big_q is None else log_big_q[None]
    j_val, u_val = f.bounds(np.exp(log_q)[None], log_q[None], f.scores(log_big_q))
    return float(j_val[0]), float(u_val[0]) if live[:, f.sup_e[0]].all() else math.inf


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
    posterior Q(t|o), each step through the one set of strategy functionals
    (``_StrategyModel``). J is jointly concave in (q, Q), so the optimum is
    concave in q, and with the scores sum_o p(o|t,e) log Q(t|o) of the
    posterior of q, U(q) = sum_e p(e) max_t (score - cost - log q) is its
    Frank-Wolfe bound; a linear cost keeps it valid. The solve ends once U(q)
    is within ``delta_bits`` of J(q, Q) (``converged``), once J reaches
    ``j_stop`` (nats), for a caller that only needs to know the optimum is at
    least that, or after ``max_iters`` (>= 1) counted steps.

    This is the stack of one of ``_stacked_strategy_max``, whose loop it is.

    Returns (value_bits, gap_bits, iterations, log_q, log_big_q, trace, converged):
    the natural-log tables (T, E) and (T, O) of the gap, finite where weights underflow,
    and the (J, U) bits of each counted step as an (iterations, 2) array.
    """
    p_e = np.asarray(p_e, dtype=float)
    return _stacked_strategy_max(
        p_e[None], p_ote[None], delta_bits, max_iters,
        None if cost is None else cost[None], [j_stop],
    )[0]


def _stacked_strategy_max(p_e, p_ote, delta_bits, max_iters, cost=None, j_stop=None) -> list:
    """``alternating_strategy_max`` on each instance of a stack, in one run.

    ``p_e`` is (B, E), ``p_ote`` (B, T, E, O), ``cost`` (B, T, E) or None and
    ``j_stop`` B values (default: none). Returns one 7-tuple per instance, as
    ``alternating_strategy_max`` returns it, and equal to it bit for bit:
    every array operation is per instance (``_StrategyModel``), and each
    instance keeps its own trace, stop test and candidate acceptance.

    Each cycle counts two steps from points (table, log q, q), a log-weight
    table s[t, e] and the q(t|e) it stands for, then steps once from a
    squared-extrapolation candidate (SQUAREM, Varadhan & Roland 2008) formed
    on the three tables, its step length clamped to [1, 1e4]. The candidate
    is counted and traced only when its J is at least the last counted
    step's, so the trace stays monotone and every certificate is measured at
    a valid distribution. The step length is measured on q: in the tables
    the log weight of a vanishing strategy drifts toward -inf at a
    near-constant rate, which would hold the length at the clamp and
    overshoot the strategies that still converge. The stack runs the cycle in
    lockstep; an instance whose candidate is rejected, or has no step length
    (its SQUAREM v vanishes), ignores it, and an instance that ends leaves
    the stack.
    """
    f = _StrategyModel(p_e, p_ote, cost)
    n_b, n_t = p_ote.shape[:2]
    stops = [math.inf] * n_b if j_stop is None else list(j_stop)
    traces: list[list[tuple[float, float]]] = [[] for _ in range(n_b)]
    results: list = [None] * n_b
    ids = list(range(n_b))  # the instance at each stack position
    tol = delta_bits * LN2

    def normalize(table):
        """The point (table, log q, q) of a log-weight table s[t, e]."""
        log_q = _log_weights(table)
        return table, log_q, np.exp(log_q)

    def step(point):
        """One alternating step from a point: (J, U, log q, log Q, the next table)."""
        _, log_q, q = point
        log_big_q = f.log_posterior(log_q)
        nxt = f.scores(log_big_q)
        return (*f.bounds(q, log_q, nxt), log_q, log_big_q, nxt)

    def count(out, counted=None):
        """Trace a counted step of each instance (or of those ``counted``).

        Returns None when every instance runs on, else the mask of those that
        do, after recording the others' results and dropping them from ``f``.
        """
        nonlocal ids
        ended = []
        for pos, (i, j_val, u_val) in enumerate(zip(ids, out[0].tolist(), out[1].tolist())):
            if counted is not None and not counted[pos]:
                continue
            trace = traces[i]
            trace.append((j_val, u_val))
            if u_val - j_val < tol or j_val >= stops[i] or len(trace) >= max_iters:
                gap = max(u_val - j_val, 0.0)
                trace_bits = np.array(trace, dtype=float).reshape(-1, 2) / LN2
                results[i] = (j_val / LN2, gap / LN2, len(trace), out[2][pos], out[3][pos],
                              trace_bits, gap < tol)
                ended.append(pos)
        if not ended:
            return None
        keep = np.ones(len(ids), dtype=bool)
        keep[ended] = False
        ids = [i for i, k in zip(ids, keep) if k]
        if ids:
            f.take(keep)
        return keep

    def compact(keep, *points):
        """Each of ``points`` (tuples of stacked arrays) with only the instances ``keep``."""
        return [tuple(a[keep] for a in point) for point in points]

    point = normalize(np.full(p_ote.shape[:3], -math.log(n_t)))
    while ids:
        x0, out = point, step(point)
        keep = count(out)
        if keep is not None:
            if not ids:
                break
            x0, out = compact(keep, x0, out)
        x1 = normalize(out[4])
        out = step(x1)
        keep = count(out)
        if keep is not None:
            if not ids:
                break
            x0, x1, out = compact(keep, x0, x1, out)
        point = normalize(out[4])
        r = x1[2] - x0[2]  # SQUAREM's r and v, measured on q
        vns = _norms(point[2] - x1[2] - r)
        moves = [vn > 1e-300 for vn in vns]
        if not any(moves):
            continue
        alpha = [
            -max(1.0, min(rn / vn, 1e4)) if move else -1.0
            for rn, vn, move in zip(_norms(r), vns, moves)
        ]
        # one step length per instance, as a (B, 1, 1) column; a stack of one keeps
        # its Python float, the same values, which numpy applies with less overhead
        alpha = np.array(alpha)[:, None, None] if len(alpha) > 1 else alpha[0]
        t0, t1, t2 = x0[0], x1[0], point[0]
        cand = step(normalize(t0 - 2.0 * alpha * (t1 - t0) + alpha * alpha * (t2 - 2.0 * t1 + t0)))
        kept = [move and c >= o for move, c, o in zip(moves, cand[0].tolist(), out[0].tolist())]
        if not any(kept):
            continue
        table = cand[4] if all(kept) else np.where(np.array(kept)[:, None, None], cand[4], out[4])
        keep = count(cand, kept)
        if keep is not None:
            if not ids:
                break
            table = table[keep]
        point = normalize(table)
    return results


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


def _cell_strategies(ch: ChannelInstance, axes, cell) -> StrategySpace:
    """All maps from the alphabets of the strategy cell ``cell`` of ``axes`` to X."""
    return enumerate_strategies([axes[i] for i in cell], ch.x)


def _strategy_tables(ch: ChannelInstance, strategies: StrategySpace, p_state, enc, cell, dec):
    """(p_e, p(o|t,e)) of the strategy solve on ``p_state`` with views ``enc``, ``cell``, ``dec``.

    ``p_state`` is the state joint with axes (S1, S2, ...); each view is a tuple
    of its axes: the encoder view e, the strategy cell whose entry picks x, and
    the decoder's state view d, with decoder view o = y * |d| + d. A view's index
    is row-major over its axes, 0 for an empty tuple. ``strategies`` are the
    cell's (``_cell_strategies``). States with mass at most ZERO_TOL are
    skipped, the others summed in row-major state order; encoder views left
    without mass get zero rows.
    """
    def dims(axes):
        return tuple(p_state.shape[i] for i in axes)

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


def _strategy_solve(ch, p_state, axes, views, delta, max_iters) -> SolveReport:
    """The strategy solve on ``p_state``, whose axes have the alphabets ``axes``.

    ``views`` is (enc, cell, dec) as in ``_strategy_tables``; the strategies
    are all maps from the cell's alphabets to X. ``argopt`` is q(t|e) over the
    encoder view's alphabets, 0 where a weight is below the smallest normal
    double. ``extras`` holds the natural-log tables of the certificate,
    ``log_q`` laid out (enc..., T) and ``log_posterior`` laid out
    (Y, dec..., T), the ``posterior`` Q(t|y, dec) and the ``strategies``.
    """
    enc, cell, dec = views
    strategies = _cell_strategies(ch, axes, cell)
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


def _strategy_joint(ch, p_state, axes, q, enc, cell) -> JointPmf:
    """The joint p(state) q(t|e) 1{x = t(c)} p(y|x,s1,s2) over (state..., T, X, Y).

    ``q`` is laid out (enc..., T) over the cell's strategies, else
    ``ProbabilityError``; the views index every state as in
    ``_strategy_tables``, zero-mass states included.
    """
    strategies = _cell_strategies(ch, axes, cell)
    layout = tuple(p_state.shape[i] for i in enc) + (len(strategies),)
    if np.shape(q) != layout:
        names = ", ".join([axes[i].label for i in enc] + ["T"])
        raise ProbabilityError(f"q must be laid out ({names}) with shape {layout}, got {np.shape(q)}")
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
) -> SolveReport:
    """max I(T;O) - I(T;E) over q(t|e), T the strategies encoder-state -> X.

    ``encoder_axes`` lists the state axes visible at the encoder;
    the decoder observes Y plus ``decoder_axes``. The report is
    ``_strategy_solve``'s, whose strategy cell is the encoder view.
    """
    opts = opts or SolverOptions()
    enc, dec = _axis_indices(encoder_axes), _axis_indices(decoder_axes)
    return _strategy_solve(
        ch, ch.state_joint.probs, (ch.s1, ch.s2), (enc, enc, dec), opts.delta, opts.max_iters
    )
