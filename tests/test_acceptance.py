"""End-to-end acceptance suite.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all).
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import time

import numpy as np
import pytest

from sideinfo.ba import (
    LN2,
    SolverOptions,
    _functionals,
    _log,
    _log_weights,
    _StrategyModel,
    ba_capacity,
    ba_rate_distortion,
    gp_channel_capacity,
    wz_primal,
)
from sideinfo.gpdual import wz_rate_via_gp
from sideinfo.case2 import (
    Case2Options,
    capacity_case2_sweep,
    causal_inner_max,
    inner_max,
    _inner_tables,
)
from sideinfo.evaluators import (
    build_case2_joint,
    build_case2c_joint,
    build_wz_joint,
    case_descriptor,
    dualize,
    eval_cc,
    eval_sc,
    example2_closed_form,
)
from sideinfo.gpdual import Case1Options, rd_case1_sweep
from sideinfo.probability import (
    Alphabet,
    CondKernel,
    JointPmf,
    binary_entropy,
    conditional_entropy,
)
from sideinfo.problems import example1_channel, example2_source, example3_source, example4_source


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def gp_primal_sweep():
    """The dual/primal D-sweep shared by the tightness and weak-duality checks."""
    src = example3_source()
    t0 = time.time()
    reports = {d: wz_rate_via_gp(src, d) for d in (0.0, 0.05, 0.1, 0.15, 0.2, 0.25)}
    return reports, time.time() - t0


def test_closed_form_blahut_arimoto_checks():
    target = 0.531004
    t0 = time.time()
    cap = ba_capacity(np.array([[0.9, 0.1], [0.1, 0.9]]), SolverOptions(delta=1e-9))
    t_cap = time.time() - t0
    t0 = time.time()
    rd = ba_rate_distortion(np.array([0.5, 0.5]), 1.0 - np.eye(2), 0.1, SolverOptions(delta=1e-9))
    t_rd = time.time() - t0
    ok = (
        abs(cap.value - target) <= 1e-6
        and abs(rd.value - target) <= 1e-6
        and t_cap < 1.0
        and t_rd < 1.0
    )
    report(
        "closed-form Blahut-Arimoto checks", ok,
        f"capacity={cap.value:.7f} rate={rd.value:.7f} times=({t_cap:.2f}s, {t_rd:.2f}s)",
    )


def test_wyner_ziv_endpoints():
    src = example3_source()
    low = wz_primal(src, 0.0, SolverOptions(delta=1e-9))
    ok = abs(low.value - 0.881291) <= 1e-4
    details = [f"R(0)={low.value:.6f}"]
    for d in (0.3, 0.4):
        rep = wz_primal(src, d)
        ok = ok and abs(rep.value) <= 1e-6
        details.append(f"R({d})={rep.value:.2e}")
    report("Wyner-Ziv endpoints", ok, " ".join(details))


def test_dual_program_tightness(gp_primal_sweep):
    reports, elapsed = gp_primal_sweep
    worst = max(abs(r.value - r.extras["primal_value"]) for r in reports.values())
    ok = worst <= 1e-3 and elapsed < 30.0
    report("dual-program tightness", ok, f"max gap={worst:.2e} time={elapsed:.1f}s")


def test_weak_duality_along_every_trace(gp_primal_sweep):
    reports, _ = gp_primal_sweep
    worst = -np.inf
    count = 0
    for rep in reports.values():
        primal = rep.extras["primal_value"]
        for _t, obj in rep.extras["gp_report"].trace:
            worst = max(worst, obj / LN2 - primal)
            count += 1
    ok = worst <= 1e-6
    report("weak duality along barrier traces", ok, f"max excess={worst:.2e} over {count} iterates")


def test_semi_iterative_capacity_structure():
    ch = example1_channel()  # crossover parameter 0.1
    opts = Case2Options(grid_step=0.05, v2_size=2)
    h = conditional_entropy(ch.state_joint, (1,), (0,))
    t0 = time.time()
    grid = [0.0, 0.12, 0.24, 0.36, 0.48, 0.6, h]
    pts = capacity_case2_sweep(ch, grid, opts)
    vals = [p.value for p in pts]
    monotone = all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))
    at_h = capacity_case2_sweep(ch, [h], opts)[0]
    beyond = capacity_case2_sweep(ch, [h + 0.3], opts)[0]
    saturated = at_h.value == beyond.value
    cc = gp_channel_capacity(ch, ("s1",), ("s2",), SolverOptions(delta=1e-7))
    full = gp_channel_capacity(ch, ("s1", "s2"), ("s2",), SolverOptions(delta=1e-7))
    zero_ok = abs(pts[0].value - cc.value) <= 5e-3
    top_ok = abs(at_h.value - full.value) <= 5e-3
    ordered = at_h.value >= pts[0].value
    elapsed = time.time() - t0
    ok = monotone and saturated and zero_ok and top_ok and ordered and elapsed < 300.0
    report(
        "semi-iterative capacity structure", ok,
        f"monotone={monotone} saturated={saturated} C(0)err={abs(pts[0].value - cc.value):.1e} "
        f"C(Rmax)err={abs(at_h.value - full.value):.1e} time={elapsed:.0f}s",
    )


def test_modulo_sum_closed_form_grid():
    src = example2_source()
    opts = Case1Options(grid_step=0.05, v1_size=2)
    t0 = time.time()
    worst = 0.0
    for d in (0.05, 0.1, 0.2):
        pts = rd_case1_sweep(src, d, [0.0, 0.1, 0.2, 0.4], opts)
        for pt in pts:
            worst = max(worst, abs(pt.value - example2_closed_form(d, pt.r_prime)))
    elapsed = time.time() - t0
    ok = worst <= 2e-2 and elapsed < 600.0
    report("modulo-sum closed-form grid", ok, f"max err={worst:.2e} time={elapsed:.0f}s")


def test_switched_noise_source_consistency():
    src = example4_source()
    opts = Case1Options(grid_step=0.05, v1_size=2)
    worst = 0.0
    for d in (0.1, 0.3):
        pt = rd_case1_sweep(src, d, [0.0], opts)[0]
        wz = wz_primal(src, d)
        worst = max(worst, abs(pt.value - wz.value))
    values = {}
    for d in (0.1, 0.3):
        pts = rd_case1_sweep(src, d, [0.0, 0.25], opts)
        values[d] = [p.value for p in pts]
    dec_rp = all(v[1] <= v[0] + 1e-9 for v in values.values())
    dec_d = all(values[0.3][j] <= values[0.1][j] + 1e-9 for j in range(2))
    ok = worst <= 1e-3 and dec_rp and dec_d
    report(
        "switched-noise source consistency", ok,
        f"max pair-source err={worst:.2e} nonincreasing(Rp)={dec_rp} nonincreasing(D)={dec_d}",
    )


def test_inner_solver_lemma_suite():
    rng = np.random.default_rng(20240809)
    v2 = Alphabet(2, "V2")
    deltas = {
        "concavity": 0.0,
        "posterior_opt": 0.0,
        "update_opt": 0.0,
        "dominance": 0.0,
        "fixed_gap": 0.0,
    }
    monotone = True
    t0 = time.time()
    for _ in range(200):
        x, y, s1, s2 = (Alphabet(2, n) for n in ("X", "Y", "S1", "S2"))
        sj = rng.random((2, 2)) + 0.05
        sj /= sj.sum()
        kern = rng.random((2, 2, 2, 2)) + 0.05
        kern /= kern.sum(axis=3, keepdims=True)
        from sideinfo.ba import ChannelInstance

        ch = ChannelInstance(x, y, s1, s2, JointPmf((s1, s2), sj), CondKernel((x, s1, s2), (y,), kern))
        wp = rng.random((2, 2)) + 0.05
        wp /= wp.sum(axis=1, keepdims=True)
        w = CondKernel((s2,), (v2,), wp)
        p_e, p_ote = _inner_tables(ch, w)
        n_t, n_e, n_o = p_ote.shape

        def rand_cols(shape):
            m = rng.random(shape) + 1e-3
            return m / m.sum(axis=0, keepdims=True)

        def j_u(q, big_q=None):
            """(J, U) in bits at q and Q (default: the posterior of q)."""
            log_big_q = None if big_q is None else _log(big_q)
            return np.array(_functionals(p_e, p_ote, _log(q), log_big_q)) / LN2

        # joint concavity probes
        for _ in range(3):
            q1, q2 = rand_cols((n_t, n_e)), rand_cols((n_t, n_e))
            b1, b2 = rand_cols((n_t, n_o)), rand_cols((n_t, n_o))
            j1, j2 = j_u(q1, b1)[0], j_u(q2, b2)[0]
            for a in (0.25, 0.5, 0.75):
                mix = j_u(a * q1 + (1 - a) * q2, a * b1 + (1 - a) * b2)[0]
                deltas["concavity"] = max(deltas["concavity"], a * j1 + (1 - a) * j2 - mix)

        # the posterior update beats 100 random alternatives for a random q
        q = rand_cols((n_t, n_e))
        best = j_u(q)[0]
        for _ in range(100):
            alt = j_u(q, rand_cols((n_t, n_o)))[0]
            deltas["posterior_opt"] = max(deltas["posterior_opt"], alt - best)

        # the q update beats 100 random alternatives for a random posterior
        big_q = rand_cols((n_t, n_o))
        scores = _StrategyModel(p_e[None], p_ote[None]).scores(_log(big_q)[None])[0]
        q_update = np.exp(_log_weights(scores))
        best_q = j_u(q_update, big_q)[0]
        for _ in range(100):
            alt = j_u(rand_cols((n_t, n_e)), big_q)[0]
            deltas["update_opt"] = max(deltas["update_opt"], alt - best_q)

        # dominance: U(q) covers J at any other point
        q_a, q_b = rand_cols((n_t, n_e)), rand_cols((n_t, n_e))
        u_a = j_u(q_a)[1]
        for q_other in (q_b, q):
            deltas["dominance"] = max(deltas["dominance"], j_u(q_other)[0] - u_a)

        rep = inner_max(ch, w, Case2Options(delta=5e-9, max_inner_iters=500000))
        deltas["fixed_gap"] = max(deltas["fixed_gap"], rep.gap)
        tr = [j for j, _u in rep.trace]
        monotone = monotone and all(tr[i + 1] >= tr[i] - 1e-10 for i in range(len(tr) - 1))

    ok = (
        deltas["concavity"] <= 1e-10
        and deltas["posterior_opt"] <= 1e-9
        and deltas["update_opt"] <= 1e-9
        and deltas["dominance"] <= 1e-9
        and deltas["fixed_gap"] < 1e-8
        and monotone
    )
    report(
        "inner-solver lemma suite", ok,
        f"concavity={deltas['concavity']:.1e} Qopt={deltas['posterior_opt']:.1e} "
        f"qopt={deltas['update_opt']:.1e} dom={deltas['dominance']:.1e} "
        f"gap={deltas['fixed_gap']:.1e} monotone={monotone} t={time.time()-t0:.0f}s",
    )


def test_evaluator_consistency_and_duality():
    ch = example1_channel()
    opts = Case2Options(delta=1e-9)
    worst = 0.0

    pt = capacity_case2_sweep(ch, [0.3], opts)[0]
    rep = inner_max(ch, pt.winning_kernel, opts)
    joint = build_case2_joint(ch, pt.winning_kernel, rep.argopt)
    res = eval_cc("2lb", joint)
    worst = max(worst, abs(res.objective - pt.raw_value))
    worst = max(worst, abs(res.r_prime_required - pt.winning_r_w))

    ptc = capacity_case2_sweep(ch, [0.3], opts, causal=True)[0]
    repc = causal_inner_max(ch, ptc.winning_kernel, opts)
    jointc = build_case2c_joint(ch, ptc.winning_kernel, repc.argopt)
    worst = max(worst, abs(eval_cc("2c", jointc).objective - ptc.raw_value))

    src = example3_source()
    wz = wz_primal(src, 0.1, SolverOptions(delta=1e-9))
    res_wz = eval_sc("1", build_wz_joint(src, wz.argopt), src.distortion)
    worst = max(worst, abs(res_wz.objective - wz.extras["argopt_rate"]))

    cases = [("channel", "1"), ("channel", "2"), ("channel", "2c"),
             ("source", "1"), ("source", "1c"), ("source", "2")]
    involution = all(dualize(dualize(case_descriptor(p, c))) == case_descriptor(p, c) for p, c in cases)

    ok = worst <= 1e-9 and involution
    report(
        "evaluator consistency and duality", ok,
        f"max mismatch={worst:.2e} involution={involution}",
    )
