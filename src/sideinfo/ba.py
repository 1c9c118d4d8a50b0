"""Blahut-Arimoto style alternating-maximization solvers.

Four engines live here:

* ``ba_capacity`` -- classic channel capacity with the per-iteration
  upper bound certificate.
* ``ba_rate_distortion`` -- classic rate-distortion via the Lagrangian
  family, with a golden-section sweep on the multiplier.
* ``wz_primal`` -- Wyner-Ziv rate over distributions on reconstruction
  strategies, alternating minimization plus the same multiplier sweep.
* ``gp_channel_capacity`` -- Gelfand-Pinsker-type capacity
  max I(T;O) - I(T;E) over distributions q(t|e) on input strategies,
  the engine shared with the state-description capacity solver.

All values are in bits. Every report carries a certified optimality gap.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
# floor for log-probabilities (natural log); exp(LOG_FLOOR) underflows to ~1e-304
LOG_FLOOR = -700.0


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
    dist_tol: multiplier sweeps stop once the achieved distortion is within
        this of the target (or the bracket collapses).
    """

    delta: float = 1e-6
    max_iters: int = 10000
    dist_tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise ValueError("delta must be > 0")


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

    The per-iteration bracket is I(r) <= C <= max_x D(p(y|x) || p_r(y));
    iteration stops once the bracket is narrower than ``opts.delta``.
    """
    opts = opts or SolverOptions()
    p = _as_channel_matrix(kernel)
    n_x = p.shape[0]
    mask = p > ZERO_TOL
    logp = np.where(mask, np.log2(np.where(mask, p, 1.0)), 0.0)
    r = np.full(n_x, 1.0 / n_x)
    trace: list[tuple[float, float]] = []
    value = 0.0
    gap = math.inf
    iters = 0
    for iters in range(1, opts.max_iters + 1):
        py = r @ p
        logpy = np.where(py > ZERO_TOL, np.log2(np.where(py > ZERO_TOL, py, 1.0)), LOG_FLOOR)
        d_x = np.where(mask, p * (logp - logpy[None, :]), 0.0).sum(axis=1)
        value = float(r @ d_x)
        upper = float(d_x.max())
        gap = max(upper - value, 0.0)
        trace.append((value, upper))
        if gap < opts.delta:
            return SolveReport(value, gap, iters, r, trace)
        r = r * np.exp2(d_x - d_x.max())
        r /= r.sum()
    return SolveReport(value, gap, iters, r, trace, status="nonconverged")


# ---------------------------------------------------------------------------
# Lagrangian rate-distortion family and the multiplier sweep
# ---------------------------------------------------------------------------


def _sweep_multiplier(
    inner: Callable[[float], tuple[float, float, float, object]],
    d_target: float,
    gamma_max: float,
    dist_tol: float,
):
    """Golden-section search on the distortion multiplier.

    ``inner(beta)`` solves the Lagrangian problem and returns
    (rate, achieved_distortion, certified_gap, argopt). The achieved
    distortion is nonincreasing in beta, so |achieved - target| is unimodal.
    Returns the list of all probes as (beta, rate, dist, gap, argopt).
    """
    probes = []

    def probe(beta: float):
        rate, dist, gap, arg = inner(beta)
        probes.append((beta, rate, dist, gap, arg))
        return abs(dist - d_target)

    lo, hi = 0.0, gamma_max
    if probe(lo) <= dist_tol or probe(hi) <= dist_tol:
        return probes
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = probe(c), probe(d)
    while hi - lo > 1e-8 * max(1.0, gamma_max):
        if min(fc, fd) <= dist_tol:
            break
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = probe(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = probe(d)
    return probes


def _assemble_sweep(probes, d_target: float, evaluate_mix):
    """Certified value and gap for R(D) from the Lagrangian probes.

    Each probe yields the lower bound rate + beta*(dist - D) - gap. Probes
    with dist <= D are achievability witnesses; time-shared mixtures of
    probes straddling D are achievable at distortion exactly D (distortion is
    linear and the objective convex in the distribution), which keeps the
    achievable side tight across the linear segments of R(D). The reported
    value is the best achievable candidate, the gap its distance to the best
    Lagrangian lower bound.

    ``evaluate_mix(arg_a, arg_b, mu)`` returns the exact (rate, dist, arg) of
    the mixture (1-mu) * arg_a + mu * arg_b.

    Returns (value, gap, argopt, argopt_rate, argopt_dist); the rate and
    distortion of ``argopt`` are exact functionals of that distribution.
    """
    lower = -math.inf
    for beta, rate, dist, gap, _ in probes:
        lower = max(lower, rate + beta * (dist - d_target) - gap)
    lower = max(lower, 0.0)

    feasible = [p for p in probes if p[2] <= d_target + 1e-12]
    infeasible = [p for p in probes if p[2] > d_target + 1e-12]
    if not feasible:
        # target below every probe's distortion (clamped floors make this rare)
        _, rate, dist, _, arg = min(probes, key=lambda p: abs(p[2] - d_target))
        return lower, 0.0, arg, rate, dist

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
        rate_mix, dist_mix, arg_mix = evaluate_mix(a_f, a_i, mu)
        if dist_mix <= d_target + 1e-9 and rate_mix < best_rate:
            best_rate, best_dist, best_arg = rate_mix, dist_mix, arg_mix
    value = max(best_rate, lower)  # bracket can invert by solver roundoff
    return value, max(best_rate - lower, 0.0), best_arg, best_rate, best_dist


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
        vn = float(np.linalg.norm(v))
        if vn > 1e-300:
            alpha = -max(1.0, min(float(np.linalg.norm(r)) / vn, 1e4))
            cand = step(x0 - 2.0 * alpha * r + alpha * alpha * v)
            if cand[1] >= obj and count(cand):
                break
    return iters, x, out


def _rd_fixed_multiplier(p_x, d, beta, delta_bits, max_iters, q_init=None):
    """min over w(xhat|x) of I(X;Xhat) + beta E[d], with certificate.

    The reproduction marginal is iterated in log space by the shared
    accelerated driver; the certificate is Blahut's bound
    F >= f(q) - log2 max_xhat c(xhat) with c the one-step growth ratios.

    Returns (rate, achieved_distortion, gap, w, q, iterations): rate is the
    exact mutual information of the final w; the gap certifies the Lagrangian
    value.
    """
    n_x, n_hat = d.shape
    expd = np.exp2(-beta * d)

    def step(lq):
        # shift before normalizing: extrapolated tables can carry entries so
        # large that subtracting the log-normalizer would round away the
        # correction entirely; the clip keeps all later arithmetic exact
        lq = np.maximum(lq - lq.max(), -800.0)
        lq = lq - _logsumexp(lq, axis=0)
        q = np.exp(lq)
        z = expd @ q
        c = (p_x / z) @ expd
        gap = math.log2(max(float(c.max()), 1.0))
        # the driver maximizes, so it gets the negated Lagrangian value
        return lq + np.log(c), float(p_x @ np.log2(z)), gap < delta_bits, (gap, q)

    lq = np.full(n_hat, -math.log(n_hat)) if q_init is None else np.log(q_init)
    iters, _, (gap, q) = _accelerated_fixed_point(step, lq, max_iters, (math.inf, np.exp(lq)))
    z = expd @ q
    w = expd * q[None, :] / z[:, None]
    dist = float(p_x @ (w * d).sum(axis=1))
    rate = float(-(p_x @ np.log2(z))) - beta * dist
    return max(rate, 0.0), dist, gap, w, q, iters


def ba_rate_distortion(p_x, d, d_target: float, opts: SolverOptions | None = None) -> SolveReport:
    """R(D) = min I(X;Xhat) s.t. E[d(X,Xhat)] <= D, by Blahut's algorithm.

    The multiplier is swept by golden-section search on [0, gamma_max]; the
    reported value is the best Lagrangian lower bound, with the gap measured
    against the cheapest feasible probe.
    """
    opts = opts or SolverOptions()
    p_x = np.asarray(p_x, dtype=float)
    d = np.asarray(d, dtype=float)
    if p_x.ndim != 1 or d.shape[0] != p_x.shape[0]:
        raise ProbabilityError("p_x and distortion shapes are inconsistent")
    p_x = p_x / p_x.sum()

    def evaluate_mix(w_a, w_b, mu):
        w_mix = (1.0 - mu) * w_a + mu * w_b
        py = p_x @ w_mix
        mask = w_mix > ZERO_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(mask, np.log2(np.where(mask, w_mix, 1.0) / py[None, :]), 0.0)
        rate = float((p_x[:, None] * w_mix * ratio).sum())
        dist = float(p_x @ (w_mix * d).sum(axis=1))
        return max(rate, 0.0), dist, w_mix

    fixed = functools.partial(_rd_fixed_multiplier, p_x, d)
    return _lagrangian_sweep(p_x, d, d[d > ZERO_TOL], d_target, opts, fixed, evaluate_mix)


def _lagrangian_sweep(p_x, dbar, positive, d_target, opts, fixed, evaluate_mix) -> SolveReport:
    """R(D) through the Lagrangian family, shared by BA R(D) and the Wyner-Ziv primal.

    ``dbar[x, a]`` is the expected distortion of answer a (a reconstruction
    or a strategy) at source letter x, and ``positive`` the positive
    distortion values, which set the multiplier range.
    ``fixed(beta, delta_bits, max_iters)`` solves one Lagrangian problem and
    returns (rate, dist, gap, argopt, ...). Targets at or above the best
    constant answer's distortion have rate 0 exactly; targets below the
    distortion floor are raised to it with status "distortion-floor".
    """
    d_zero_rate = float((p_x @ dbar).min())  # best constant answer
    if d_target >= d_zero_rate - 1e-12:
        arg = np.zeros_like(dbar)
        arg[:, int((p_x @ dbar).argmin())] = 1.0
        return SolveReport(0.0, 0.0, 0, arg, [(0.0, 0.0)], extras={"distortion": d_zero_rate})

    status = "ok"
    d_floor = float(p_x @ dbar.min(axis=1))
    target = d_target
    if d_target < d_floor - 1e-12:
        status = "distortion-floor"
        target = d_floor

    gamma_max = 50.0 / float(positive.min()) if positive.size else 1.0
    inner_delta = min(opts.delta, 1e-8)

    def inner(beta):
        return fixed(beta, inner_delta, opts.max_iters)[:4]

    probes = _sweep_multiplier(inner, target, gamma_max, opts.dist_tol)
    value, gap, arg, arg_rate, arg_dist = _assemble_sweep(probes, target, evaluate_mix)
    return SolveReport(
        value, gap, len(probes), arg, [(value, value + gap)], status=status,
        extras={
            "distortion_floor": d_floor,
            "zero_rate_distortion": d_zero_rate,
            "argopt_rate": arg_rate,
            "argopt_distortion": arg_dist,
        },
    )


# ---------------------------------------------------------------------------
# Wyner-Ziv primal over reconstruction strategies
# ---------------------------------------------------------------------------


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Stable log-sum-exp that tolerates -inf entries (empty slices give -inf)."""
    m = np.max(a, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(a - m_safe).sum(axis=axis, keepdims=True)) + m_safe
    return np.squeeze(out, axis=axis)


def _wz_fixed_multiplier(p_xs, dbar, beta, delta_bits, max_iters, log_bq_init=None):
    """min over q(t|x) of I(T;X|S) + beta E[d], alternating minimization.

    ``dbar[x, t] = sum_s p(s|x) d(x, t(s))``. The certificate mirrors the
    capacity bound: the optimum is at least the current partition value minus
    log of the largest one-step multiplicative growth of the side-conditional
    marginal Q(t|s). The growth ratios are tracked in log space; clamping
    small entries would hide the slow revival of a strategy and stop early
    with an invalid certificate.
    """
    n_x, n_t = dbar.shape
    n_s = p_xs.shape[1]
    p_x = p_xs.sum(axis=1)
    p_s = p_xs.sum(axis=0)
    sup_x = p_x > ZERO_TOL
    sup_s = p_s > ZERO_TOL
    p_s_given_x = np.where(sup_x[:, None], p_xs / np.where(sup_x, p_x, 1.0)[:, None], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln_p_x_given_s = np.where(
            (p_xs > ZERO_TOL) & sup_s[None, :],
            np.log(np.where(p_xs > 0, p_xs, 1.0) / np.where(sup_s, p_s, 1.0)[None, :]),
            -np.inf,
        )

    def step(lbq):
        """One alternating cycle from log Q(t|s); also the Lagrangian value at lbq.

        The input is renormalized first: the growth certificate compares two
        conditional distributions, and extrapolated tables arrive unnormalized.
        The shift-then-clip keeps the renormalization exact even when an
        extrapolation produces entries so large that their floating-point
        spacing would otherwise swallow the correction.
        """
        lbq = np.maximum(lbq - lbq.max(axis=1, keepdims=True), -800.0)
        lbq = lbq - _logsumexp(lbq, axis=1)[:, None]
        s_term = p_s_given_x @ lbq - (beta * LN2) * dbar
        logz = _logsumexp(s_term, axis=1)
        logq = s_term - logz[:, None]
        neg_phi = float(p_x @ logz)  # -min_q of the Lagrangian at this Q, in nats
        lbq_next = _logsumexp(ln_p_x_given_s.T[:, :, None] + logq[None, :, :], axis=1)
        lbq_next = np.where(sup_s[:, None], lbq_next, 0.0)  # dead s: zero weight
        growth = np.where(sup_s[:, None], lbq_next - lbq, -np.inf)
        gap = max(float(growth.max()), 0.0) / LN2
        return lbq_next, neg_phi, gap < delta_bits, (gap, logq)

    log_bq = np.full((n_s, n_t), -math.log(n_t)) if log_bq_init is None else log_bq_init.copy()
    iters, log_bq, (gap, logq) = _accelerated_fixed_point(
        step, log_bq, max_iters, (math.inf, np.full((n_x, n_t), -math.log(n_t)))
    )

    # exact functionals at the final q
    weights = p_x[:, None] * np.exp(logq)
    rate = float((weights * (logq - p_s_given_x @ log_bq)).sum()) / LN2
    dist = float((weights * dbar).sum())
    return max(rate, 0.0), dist, gap, np.exp(logq), log_bq, iters


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
    d_xts = lift_source(src, strategies)  # (X, T, S)
    p_x = p_xs.sum(axis=1)
    sup_x = p_x > ZERO_TOL
    p_s_given_x = np.where(sup_x[:, None], p_xs / np.where(sup_x, p_x, 1.0)[:, None], 0.0)
    dbar = np.einsum("xs,xts->xt", p_s_given_x, d_xts)

    p_s = p_xs.sum(axis=0)
    sup_s = p_s > ZERO_TOL
    p_x_given_s = np.where(sup_s[None, :], p_xs / np.where(sup_s, p_s, 1.0)[None, :], 0.0)

    def evaluate_mix(q_a, q_b, mu):
        q_mix = (1.0 - mu) * q_a + mu * q_b
        big_q = p_x_given_s.T @ q_mix  # (S, T)
        mask_q = q_mix > ZERO_TOL
        with np.errstate(divide="ignore", invalid="ignore"):
            logq = np.where(mask_q, np.log2(np.where(mask_q, q_mix, 1.0)), 0.0)
            log_bq = np.where(big_q > ZERO_TOL, np.log2(np.where(big_q > ZERO_TOL, big_q, 1.0)), 0.0)
        weights = p_x[:, None] * q_mix
        rate = float((weights * np.where(mask_q, logq - p_s_given_x @ log_bq, 0.0)).sum())
        dist = float((weights * dbar).sum())
        return max(rate, 0.0), dist, q_mix

    fixed = functools.partial(_wz_fixed_multiplier, p_xs, dbar)
    rep = _lagrangian_sweep(p_x, dbar, d_xts[d_xts > ZERO_TOL], d_target, opts, fixed, evaluate_mix)
    rep.argopt = CondKernel((src.x,), (strategies.alphabet,), rep.argopt)
    return rep


# ---------------------------------------------------------------------------
# Gelfand-Pinsker-type alternating maximization over input strategies
# ---------------------------------------------------------------------------


def alternating_strategy_max(
    p_e: np.ndarray,
    p_ote: np.ndarray,
    delta_bits: float,
    max_iters: int,
):
    """max over q(t|e) of I(T;O) - I(T;E) for the model p(e) q(t|e) p(o|t,e).

    Alternates the exponential-family update of q with the marginal update of
    the decoder posterior Q(t|o); terminates when the per-iterate upper bound
    U(q) is within ``delta_bits`` of the objective J(q, Q). Every third
    iterate is a squared-extrapolation candidate in the log-weight table,
    kept only when it does not decrease J, so the recorded trace stays
    monotone and every certificate is measured at a valid distribution.

    Returns (value_bits, gap_bits, iterations, q, big_q, trace, converged);
    ``q`` is (T, E) and ``big_q`` is (T, O).
    """
    n_t, n_e, n_o = p_ote.shape
    p_e = np.asarray(p_e, dtype=float)
    sup_e = p_e > ZERO_TOL
    # drop the rows of zero-mass letters: a view reached only through them makes J 0 * nan
    pm = np.where((p_ote > ZERO_TOL) & sup_e[None, :, None], p_ote, 0.0)
    pm_mask = pm > 0
    with np.errstate(divide="ignore"):
        ln_pm = np.where(pm_mask, np.log(np.where(pm_mask, pm, 1.0)), -np.inf)
        ln_pe = np.where(sup_e, np.log(np.where(sup_e, p_e, 1.0)), -np.inf)
    ln_pe_pm = ln_pe[None, :, None] + ln_pm  # constant part of the joint

    def step(table):
        """One alternating cycle from the log-weight table s[t, e].

        The shift-then-clip keeps the normalization exact for extrapolated
        tables whose entries would otherwise be too large for the correction
        to survive floating-point rounding.
        """
        table = np.maximum(table - table.max(axis=0, keepdims=True), -800.0)
        logq = table - _logsumexp(table, axis=0)[None, :]
        q = np.exp(logq)
        log_p_to = _logsumexp(ln_pe_pm + logq[:, :, None], axis=1)
        log_p_o = _logsumexp(log_p_to, axis=0)
        with np.errstate(invalid="ignore"):
            log_big_q = log_p_to - log_p_o[None, :]
            nxt = np.where(pm_mask, pm * log_big_q[:, None, :], 0.0).sum(axis=2)
        diff = nxt - logq
        j_val = float(np.einsum("e,te,te->", p_e, q, diff))
        u_val = float(p_e @ np.where(sup_e, diff.max(axis=0), 0.0))
        out = (j_val, u_val, logq, log_big_q)
        return nxt, j_val, u_val - j_val < delta_bits * LN2, out

    trace: list[tuple[float, float]] = []
    iters, _, state = _accelerated_fixed_point(
        step, np.full((n_t, n_e), -math.log(n_t)), max_iters,
        record=lambda out: trace.append((out[0] / LN2, out[1] / LN2)),
    )
    j_val, u_val, logq, log_big_q = state
    gap = max(u_val - j_val, 0.0)
    converged = gap < delta_bits * LN2
    big_q = np.exp(np.where(np.isfinite(log_big_q), log_big_q, -np.inf))
    return j_val / LN2, gap / LN2, iters, np.exp(logq), big_q, trace, converged


def strategy_bound(p_e, p_ote, q, big_q) -> float:
    """The dominance bound U(q) in bits for given q(t|e) and Q(t|o)."""
    pm = np.where(p_ote > ZERO_TOL, p_ote, 0.0)
    log_big_q = np.where(big_q > ZERO_TOL, np.log(np.where(big_q > ZERO_TOL, big_q, 1.0)), LOG_FLOOR)
    logq = np.where(q > ZERO_TOL, np.log(np.where(q > ZERO_TOL, q, 1.0)), LOG_FLOOR)
    diff = np.einsum("teo,to->te", pm, log_big_q) - logq
    sup_e = p_e > ZERO_TOL
    return float(p_e @ np.where(sup_e, diff.max(axis=0), 0.0)) / LN2


def strategy_objective(p_e, p_ote, q, big_q) -> float:
    """The objective J(q, Q) in bits for given q(t|e) and Q(t|o)."""
    pm = np.where(p_ote > ZERO_TOL, p_ote, 0.0)
    log_big_q = np.where(big_q > ZERO_TOL, np.log(np.where(big_q > ZERO_TOL, big_q, 1.0)), LOG_FLOOR)
    logq = np.where(q > ZERO_TOL, np.log(np.where(q > ZERO_TOL, q, 1.0)), LOG_FLOOR)
    diff = np.einsum("teo,to->te", pm, log_big_q) - logq
    return float(np.einsum("e,te,te->", p_e, q, diff)) / LN2


def strategy_posterior(p_e, p_ote, q) -> np.ndarray:
    """The maximizing decoder posterior Q*(t|o) for a given q(t|e).

    Unreachable decoder views keep a uniform column.
    """
    n_t = p_ote.shape[0]
    pm = np.where(p_ote > ZERO_TOL, p_ote, 0.0)
    p_to = np.einsum("e,te,teo->to", p_e, q, pm)
    p_o = p_to.sum(axis=0)
    return np.where(p_o[None, :] > ZERO_TOL, p_to / np.where(p_o > ZERO_TOL, p_o, 1.0), 1.0 / n_t)


def strategy_q_update(p_ote, big_q) -> np.ndarray:
    """The maximizing q*(t|e) for a given decoder posterior Q(t|o)."""
    pm = np.where(p_ote > ZERO_TOL, p_ote, 0.0)
    log_big_q = np.where(big_q > ZERO_TOL, np.log(np.where(big_q > ZERO_TOL, big_q, 1.0)), LOG_FLOOR)
    s = np.einsum("teo,to->te", pm, log_big_q)
    logq = s - _logsumexp(s, axis=0)[None, :]
    return np.exp(logq)


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

    states = zip(ch.state_joint.probs.ravel(), idx[0], idx[1], flat(enc), flat(dec))
    n_e = int(np.prod(enc_shape))
    return _strategy_tables(ch, strategies, states, n_e, ch.y.size * int(np.prod(dec_shape)))


def _strategy_tables(ch: ChannelInstance, strategies: StrategySpace, states, n_e: int, n_o: int):
    """(p_e, p(o|t,e)) accumulated over flattened states.

    Each state is (mass, s1, s2, e, d): its probability, the channel state it
    selects, its encoder index (which is also the strategy cell that picks x)
    and its decoder-state index; the decoder view is o = y * (n_o / |Y|) + d.
    States with mass at most ZERO_TOL are skipped, and encoder views left
    without mass get zero rows.
    """
    n_y = ch.y.size
    y_cols = np.arange(n_y) * (n_o // n_y)
    tables = strategies.tables
    p_e = np.zeros(n_e)
    p_ote = np.zeros((len(strategies), n_e, n_o))
    for mass, s1, s2, e, d in states:
        if mass <= ZERO_TOL:
            continue
        p_e[e] += mass
        p_ote[:, e, y_cols + d] += mass * ch.kernel.probs[tables[:, e], s1, s2, :]
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
    if strategies is None:
        enc = _axis_indices(encoder_axes)
        axes = tuple((ch.s1, ch.s2)[i] for i in enc)
        strategies = enumerate_strategies(axes, ch.x)
    p_e, p_ote = strategy_channel_tables(ch, encoder_axes, decoder_axes, strategies)
    value, gap, iters, q, big_q, trace, ok = alternating_strategy_max(
        p_e, p_ote, opts.delta, opts.max_iters
    )
    enc = _axis_indices(encoder_axes)
    given = tuple((ch.s1, ch.s2)[i] for i in enc)
    arg = CondKernel(given, (strategies.alphabet,), q.T.reshape(
        tuple(a.size for a in given) + (len(strategies),)
    ))
    return SolveReport(
        value, gap, iters, arg, trace,
        status="ok" if ok else "nonconverged",
        extras={"decoder_posterior": big_q, "strategies": strategies},
    )
