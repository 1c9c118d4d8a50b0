"""Independent references for the benchmark's correctness checks.

Nothing here imports ``sideinfo``: every value is recomputed from plain
arrays with its own code, so a check that compares the library against these
functions compares two separate implementations. ``self_test`` reproduces
textbook values and must pass before any reference is trusted.

Arrays use the library's documented conventions, passed in as data:
a channel kernel is ``kern[x, s1, s2, y]``, a state joint ``sj[s1, s2]``, a
description kernel ``w[s2, v2]``, and strategies are the maps of
``strategy_tables``. Everything is in bits.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy(p: np.ndarray) -> float:
    x = np.asarray(p, dtype=float).ravel()
    x = x[x > 0.0]
    return float(-(x * np.log2(x)).sum())


# ---------------------------------------------------------------------------
# Blahut-Arimoto with its own bracket
# ---------------------------------------------------------------------------


def capacity_bracket(chan: np.ndarray, tol: float = 1e-12, max_iters: int = 200000):
    """Capacity of ``chan[x, y]`` by Blahut-Arimoto, as a bracket (lower, upper).

    lower = I(r) at the current input law r; upper = max_x D(chan[x] || r chan).
    Both bound the capacity for every r, so the bracket is a certificate.
    """
    chan = np.asarray(chan, dtype=float)
    n_x = chan.shape[0]
    r = np.full(n_x, 1.0 / n_x)
    with np.errstate(divide="ignore"):
        logc = np.where(chan > 0.0, np.log2(np.where(chan > 0.0, chan, 1.0)), 0.0)
    lower, upper = 0.0, math.inf
    for _ in range(max_iters):
        out = r @ chan
        with np.errstate(divide="ignore"):
            logout = np.log2(np.where(out > 0.0, out, 1.0))
        div = (chan * (logc - logout[None, :])).sum(axis=1)
        lower = max(lower, float(r @ div))
        upper = min(upper, float(div.max()))
        if upper - lower < tol:
            break
        r = r * np.exp2(div - div.max())
        r /= r.sum()
    return lower, upper


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def bss_rate_distortion(d: float) -> float:
    """R(D) = 1 - h(D) of a Bernoulli(1/2) source under Hamming distortion."""
    return 1.0 - h2(d) if d < 0.5 else 0.0


def modulo_sum_value(d: float, r_prime: float) -> float:
    """max(1 - h(D) - R', 0): rate-distortion of X = S1 xor S2 with a rate-R'
    description of S1 at the encoder and S2 at the decoder."""
    return max(bss_rate_distortion(d) - r_prime, 0.0)


def dsbs_wyner_ziv(p: float, d: float) -> float:
    """Wyner-Ziv rate of the doubly symmetric binary source with crossover p.

    The lower convex envelope of g(D) = h(p*D) - h(D) on [0, p] joined to the
    point (p, 0), with p*D = p(1-D) + D(1-p) (Wyner & Ziv 1976). The tangent
    point d_c solves g(d_c) = g'(d_c) (d_c - p); beyond it the curve is the
    chord to (p, 0).
    """
    if d >= p:
        return 0.0

    def g(x):
        return h2(p * (1.0 - x) + x * (1.0 - p)) - h2(x)

    def dg(x):
        conv = p * (1.0 - x) + x * (1.0 - p)
        return (1.0 - 2.0 * p) * math.log2((1.0 - conv) / conv) - math.log2((1.0 - x) / x)

    # tangent residual g(x) - g'(x)(x - p): g' -> -inf as x -> 0, so it is
    # negative near 0, and it is positive near p where g is convex and g(p) > 0
    lo, hi = 1e-12, p - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) - dg(mid) * (mid - p) < 0.0:
            lo = mid
        else:
            hi = mid
    d_c = 0.5 * (lo + hi)
    if d <= d_c:
        return g(d)
    return g(d_c) * (p - d) / (p - d_c)


# ---------------------------------------------------------------------------
# Channel bounds for the description-rate capacity curves
# ---------------------------------------------------------------------------


def no_encoder_csi_bound(kern: np.ndarray, sj: np.ndarray):
    """L = max_p(x) I(X; Y, S2): no state at the encoder, S2 at the decoder."""
    chan = np.einsum("ab,xaby->xyb", sj, kern).reshape(kern.shape[0], -1)
    return capacity_bracket(chan)


def full_csi_bound(kern: np.ndarray, sj: np.ndarray):
    """U = sum_s p(s) C(slice s): both states at both terminals."""
    lo = hi = 0.0
    for s1, s2 in itertools.product(range(sj.shape[0]), range(sj.shape[1])):
        if sj[s1, s2] > 0.0:
            a, b = capacity_bracket(kern[:, s1, s2, :])
            lo += sj[s1, s2] * a
            hi += sj[s1, s2] * b
    return lo, hi


def causal_full_s2_bound(kern: np.ndarray, sj: np.ndarray):
    """S1 causally and S2 fully at the encoder, S2 at the decoder.

    sum_s2 p(s2) max_p(u) I(U; Y | S2 = s2) over Shannon strategies u: S1 -> X.
    It bounds the causal curve at every R' (V2 is a function of S2 at best).
    """
    n_x, n_s1 = kern.shape[0], kern.shape[1]
    tables = strategy_tables(n_s1, n_x)
    lo = hi = 0.0
    p_s2 = sj.sum(axis=0)
    for s2 in range(sj.shape[1]):
        if p_s2[s2] <= 0.0:
            continue
        cond = sj[:, s2] / p_s2[s2]
        chan = np.array([
            sum(cond[s1] * kern[tbl[s1], s1, s2, :] for s1 in range(n_s1)) for tbl in tables
        ])
        a, b = capacity_bracket(chan)
        lo += p_s2[s2] * a
        hi += p_s2[s2] * b
    return lo, hi


# ---------------------------------------------------------------------------
# The inner strategy problem: J(q) and the dominance bound U(q)
# ---------------------------------------------------------------------------


def strategy_tables(n_cells: int, n_out: int) -> np.ndarray:
    """All maps from ``n_cells`` domain cells (C order) to ``n_out`` symbols,
    the value at the last cell varying fastest."""
    return np.array(list(itertools.product(range(n_out), repeat=n_cells)), dtype=int).reshape(
        -1, n_cells
    )


def inner_joint(kern: np.ndarray, sj: np.ndarray, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """p(s1, v2, t, y, s2) for strategies t: (s1, v2) -> x and q = q[s1, v2, t]."""
    n_x, n_s1, n_s2, n_y = kern.shape
    n_v2 = w.shape[1]
    tables = strategy_tables(n_s1 * n_v2, n_x)
    p = np.zeros((n_s1, n_v2, len(tables), n_y, n_s2))
    for s1, v2 in itertools.product(range(n_s1), range(n_v2)):
        xs = tables[:, s1 * n_v2 + v2]
        for s2 in range(n_s2):
            mass = sj[s1, s2] * w[s2, v2]
            p[s1, v2, :, :, s2] = mass * q[s1, v2, :, None] * kern[xs, s1, s2, :]
    return p


def inner_objective(kern, sj, w, q) -> float:
    """J(q) = I(T; Y, S2, V2) - I(T; S1, V2), the value of the inner problem at q."""
    p = inner_joint(kern, sj, w, q)  # (S1, V2, T, Y, S2)
    h_e = entropy(p.sum(axis=(2, 3, 4)))
    h_te = entropy(p.sum(axis=(3, 4)))
    h_o = entropy(p.sum(axis=(0, 2)))
    h_to = entropy(p.sum(axis=0))
    return h_o - h_to - h_e + h_te


def inner_bound(kern, sj, w, q) -> float:
    """Dominance bound U(q) = sum_e p(e) max_t [E log Q*(t|o) - log q(t|e)].

    Q* is the exact posterior of t given the decoder view o = (y, s2, v2).
    The max runs over the strategies with q(t|e) > 0. A weight that has
    underflowed to exactly 0 carries no ratio to the other weights, and the
    bound's term for it is undefined at such a q.
    """
    p = inner_joint(kern, sj, w, q)  # (S1, V2, T, Y, S2)
    p_e = p.sum(axis=(2, 3, 4))
    p_to = p.sum(axis=0)  # (V2, T, Y, S2)
    p_o = p_to.sum(axis=1, keepdims=True)
    post = p_to / np.where(p_o > 0.0, p_o, 1.0)
    log_post = np.log2(np.where(post > 0.0, post, 1.0))  # used only where p(o|t,e) > 0
    total = 0.0
    for s1, v2 in itertools.product(range(p.shape[0]), range(p.shape[1])):
        if p_e[s1, v2] <= 0.0:
            continue
        live = q[s1, v2] > 0.0
        cond = p[s1, v2][live] / (p_e[s1, v2] * q[s1, v2][live][:, None, None])  # p(y,s2|t,e)
        expected = (cond * log_post[v2][live]).sum(axis=(1, 2))
        total += p_e[s1, v2] * float((expected - np.log2(q[s1, v2][live])).max())
    return total


def causal_objective(kern, sj, w, u_given_v2) -> float:
    """I(U; Y, S2 | V2) for Shannon strategies u: S1 -> X drawn from p(u|v2)."""
    n_x, n_s1, n_s2, n_y = kern.shape
    tables = strategy_tables(n_s1, n_x)
    total = 0.0
    for v2 in range(w.shape[1]):
        p = np.zeros((len(tables), n_y, n_s2))  # p(u, y, s2, v2) for this v2
        for s1, s2 in itertools.product(range(n_s1), range(n_s2)):
            mass = sj[s1, s2] * w[s2, v2]
            p[:, :, s2] += mass * u_given_v2[v2][:, None] * kern[tables[:, s1], s1, s2, :]
        m = p.sum()
        if m > 0.0:
            p /= m
            total += m * (entropy(p.sum(axis=(1, 2))) + entropy(p.sum(axis=0)) - entropy(p))
    return total


# ---------------------------------------------------------------------------
# Self test
# ---------------------------------------------------------------------------


def self_test() -> list[str]:
    """Textbook values each reference must reproduce; returns the failures."""
    failures = []

    def expect(name, got, want, tol):
        if not abs(got - want) <= tol:
            failures.append(f"{name}: got {got!r}, want {want!r} (tol {tol})")

    eps = 0.1
    bsc = np.array([[1 - eps, eps], [eps, 1 - eps]])
    lo, hi = capacity_bracket(bsc)
    expect("BSC(0.1) capacity", lo, 1.0 - h2(eps), 1e-9)
    expect("BSC(0.1) capacity 6 digits", round(1.0 - h2(eps), 6), 0.531004, 0.0)
    z = np.array([[1.0, 0.0], [eps, 1.0 - eps]])
    lo, hi = capacity_bracket(z)
    z_closed = math.log2(1.0 + (1.0 - eps) * eps ** (eps / (1.0 - eps)))
    expect("Z(0.1) capacity", lo, z_closed, 1e-9)
    expect("Z(0.1) bracket", hi, z_closed, 1e-9)
    expect("BSS R(0.11)", bss_rate_distortion(0.11), 1.0 - h2(0.11), 0.0)
    expect("BSS R(0)", bss_rate_distortion(0.0), 1.0, 0.0)
    expect("modulo-sum R(0.1, 0)", modulo_sum_value(0.1, 0.0), 0.531004, 5e-7)
    expect("modulo-sum R(0.1, 0.6)", modulo_sum_value(0.1, 0.6), 0.0, 0.0)
    p = 0.3
    expect("DSBS R_WZ(0) = h(p)", dsbs_wyner_ziv(p, 0.0), h2(p), 1e-12)
    expect("DSBS R_WZ(p) = 0", dsbs_wyner_ziv(p, p), 0.0, 0.0)
    # the envelope lies between the conditional R(D) and g, and is convex
    ds = np.linspace(0.0, p, 61)
    vals = [dsbs_wyner_ziv(p, float(d)) for d in ds]
    for d, v in zip(ds, vals):
        g = h2(p * (1 - d) + d * (1 - p)) - h2(d)
        if not (h2(p) - h2(d) - 1e-12 <= v <= g + 1e-12):
            failures.append(f"DSBS envelope out of [h(p)-h(D), g(D)] at D={d}")
            break
    if np.any(np.diff(vals, 2) < -1e-12):
        failures.append("DSBS envelope is not convex")
    # J and U on a channel where the optimum is known: a noiseless bit with
    # no state has J = 1 at uniform q, and U(q) = J there
    kern = np.zeros((2, 1, 1, 2))
    kern[0, 0, 0, 0] = kern[1, 0, 0, 1] = 1.0
    sj = np.ones((1, 1))
    w = np.ones((1, 1))
    q = np.full((1, 1, 2), 0.5)
    expect("noiseless J(uniform)", inner_objective(kern, sj, w, q), 1.0, 1e-12)
    expect("noiseless U(uniform)", inner_bound(kern, sj, w, q), 1.0, 1e-12)
    q = np.array([[[0.8, 0.2]]])
    expect("noiseless J(0.8)", inner_objective(kern, sj, w, q), h2(0.2), 1e-12)
    return failures
