import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from sideinfo.ba import (
    LN2,
    ChannelInstance,
    SolverOptions,
    SourceInstance,
    _assemble_sweep,
    _functionals,
    _log,
    _stacked_strategy_max,
    alternating_strategy_max,
    ba_capacity,
    ba_rate_distortion,
    gp_channel_capacity,
    wz_primal,
)
from sideinfo.case2 import Case2Options
from sideinfo.evaluators import build_wz_joint, eval_sc
from sideinfo.gpdual import build_case1_rd_gp, build_wz_gp, rd_case1_sweep, wz_rate_via_gp
from sideinfo.probability import Alphabet, CondKernel, JointPmf, ProbabilityError, binary_entropy
from sideinfo.problems import example1_channel, example2_source, example3_source, example4_source

HAMMING = 1.0 - np.eye(2)
TIGHT = SolverOptions(delta=1e-9)


class TestCapacity:
    def test_noiseless_binary(self):
        rep = ba_capacity(np.eye(2))
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_bsc_closed_form(self):
        rep = ba_capacity(np.array([[0.9, 0.1], [0.1, 0.9]]), TIGHT)
        assert rep.value == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-9)
        assert rep.converged

    def test_useless_channel(self):
        rep = ba_capacity(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("matrix", [
        [[0.5, 0.6], [0.2, 0.8]],  # a row sums to 1.1
        [[1.5, -0.5], [0.2, 0.8]],  # rows sum to 1, one entry negative
        [[np.nan, 1.0], [0.2, 0.8]],
    ])
    def test_matrix_that_is_not_a_channel_raises(self, matrix):
        with pytest.raises(ProbabilityError):
            ba_capacity(np.array(matrix))

    def test_trace_monotone_and_bracket(self):
        rng = np.random.default_rng(11)
        p = rng.random((3, 4)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        rep = ba_capacity(p, TIGHT)
        lows = [lo for lo, up in rep.trace]
        assert all(lows[i + 1] >= lows[i] - 1e-12 for i in range(len(lows) - 1))
        assert all(up >= lo for lo, up in rep.trace)
        assert rep.gap >= 0.0

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_plain_blahut_arimoto(self, seed, blahut_arimoto):
        rng = np.random.default_rng(seed)
        p = rng.random((3, 4)) + 0.05
        p /= p.sum(axis=1, keepdims=True)
        rep = ba_capacity(p, TIGHT)
        lower, upper = blahut_arimoto(p)
        assert rep.converged
        assert abs(rep.value - lower) <= rep.gap + (upper - lower) + 1e-12
        assert rep.argopt.shape == (3,) and rep.argopt.sum() == pytest.approx(1.0, abs=1e-12)
        lows = [lo for lo, _ in rep.trace]
        assert all(b >= a - 1e-12 for a, b in zip(lows, lows[1:]))
        assert all(up >= lo - 1e-12 for lo, up in rep.trace)

    def test_zary_symmetric(self):
        # ternary symmetric channel, closed form log2(3) - H(noise)
        e = 0.1
        p = np.full((3, 3), e / 2)
        np.fill_diagonal(p, 1 - e)
        rep = ba_capacity(p, TIGHT)
        expected = math.log2(3) - (-(1 - e) * math.log2(1 - e) - e * math.log2(e / 2))
        assert rep.value == pytest.approx(expected, abs=1e-8)


class TestRateDistortion:
    def test_binary_hamming_closed_form(self):
        rep = ba_rate_distortion(np.array([0.5, 0.5]), HAMMING, 0.1, TIGHT)
        assert rep.value == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-6)

    def test_zero_rate_beyond_half(self):
        rep = ba_rate_distortion(np.array([0.5, 0.5]), HAMMING, 0.5)
        assert rep.value == 0.0
        rep = ba_rate_distortion(np.array([0.5, 0.5]), HAMMING, 0.7)
        assert rep.value == 0.0

    def test_lossless_distortion_zero(self):
        rep = ba_rate_distortion(np.array([0.5, 0.5]), HAMMING, 0.0)
        assert rep.value == pytest.approx(1.0, abs=1e-3)

    def test_distortion_floor_flagged(self):
        d = np.array([[1.0, 2.0], [2.0, 1.0]])
        rep = ba_rate_distortion(np.array([0.5, 0.5]), d, 0.5)
        assert rep.status == "distortion-floor"
        assert rep.extras["distortion_floor"] == pytest.approx(1.0)

    @pytest.mark.parametrize("p_x, d", [
        ([0.5, 0.5], [[0.0, np.nan], [1.0, 0.0]]),
        ([0.0, 0.0], HAMMING),
        ([0.5, 0.5], [[0.0, -1.0], [1.0, 0.0]]),
        ([0.5, -0.1, 0.6], np.ones((3, 2))),
        ([0.5, np.inf], HAMMING),
        ([0.5, 0.5], np.zeros((2, 0))),
    ])
    def test_invalid_source_raises(self, p_x, d):
        with pytest.raises(ProbabilityError):
            ba_rate_distortion(np.array(p_x), np.array(d), 0.1)

    def test_curve_nonincreasing_and_convex(self):
        p = np.array([0.4, 0.6])
        ds = [0.02 * k for k in range(1, 16)]
        vals = [ba_rate_distortion(p, HAMMING, d).value for d in ds]
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))
        assert all(
            vals[i - 1] + vals[i + 1] - 2 * vals[i] >= -1e-6 for i in range(1, len(vals) - 1)
        )


class TestWynerZiv:
    def test_zero_distortion_is_conditional_entropy(self):
        src = example3_source()
        rep = wz_primal(src, 0.0, TIGHT)
        assert rep.value == pytest.approx(binary_entropy(0.3), abs=1e-4)
        # the probe at the largest multiplier is a feasible witness at the floor
        assert rep.status == "ok" and rep.gap <= TIGHT.delta
        assert rep.extras["probes"] == 2

    def test_zero_rate_at_crossover(self):
        src = example3_source()
        assert wz_primal(src, 0.3).value == pytest.approx(0.0, abs=1e-6)
        assert wz_primal(src, 0.45).value == pytest.approx(0.0, abs=1e-6)

    def test_known_strict_region_value(self):
        # below the time-sharing point the curve is H(0.3*D) - H(D)
        src = example3_source()
        rep = wz_primal(src, 0.1)
        pstar = 0.3 * 0.9 + 0.7 * 0.1
        assert rep.value == pytest.approx(binary_entropy(pstar) - binary_entropy(0.1), abs=1e-6)

    def test_independent_side_equals_rate_distortion(self):
        x = Alphabet(2, "X")
        s2 = Alphabet(2, "S")
        joint = np.einsum("x,s->xs", [0.4, 0.6], [0.5, 0.5]).reshape(2, 1, 2)
        from sideinfo.ba import SourceInstance

        src = SourceInstance(x, x, Alphabet(1, "S1"), s2, JointPmf((x, Alphabet(1, "S1"), s2), joint), HAMMING)
        for d in (0.05, 0.15, 0.25):
            wz = wz_primal(src, d, TIGHT)
            rd = ba_rate_distortion(np.array([0.4, 0.6]), HAMMING, d, TIGHT)
            assert wz.value == pytest.approx(rd.value, abs=1e-6)

    def test_degenerate_side_axis_equals_rate_distortion(self):
        x = Alphabet(2, "X")
        from sideinfo.ba import SourceInstance

        src = SourceInstance(
            x, x, Alphabet(1, "S1"), Alphabet(1, "S"),
            JointPmf((x, Alphabet(1, "S1"), Alphabet(1, "S")), np.array([[[0.35]], [[0.65]]])),
            HAMMING,
        )
        for d in (0.05, 0.2):
            wz = wz_primal(src, d, TIGHT)
            rd = ba_rate_distortion(np.array([0.35, 0.65]), HAMMING, d, TIGHT)
            assert wz.value == pytest.approx(rd.value, abs=1e-6)

    def test_curve_nonincreasing_and_convex(self):
        src = example3_source()
        ds = [0.03 * k for k in range(10)]
        vals = [wz_primal(src, d).value for d in ds]
        assert all(vals[i + 1] <= vals[i] + 1e-9 for i in range(len(vals) - 1))
        assert all(
            vals[i - 1] + vals[i + 1] - 2 * vals[i] >= -1e-6 for i in range(1, len(vals) - 1)
        )

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(*[st.integers(2, 3)] * 4),
        frac=st.floats(0.05, 0.95),
    )
    def test_two_sided_source_is_the_merged_one_sided_source(self, seed, sizes, frac):
        # the encoder sees (X, S1): the primal equals the primal on the source
        # whose letter is the pair (x, s1), the dual is the case-1 program with
        # a one-letter description, and the evaluator reproduces the argopt
        n_x, n_s1, n_s2, n_xhat = sizes
        rng = np.random.default_rng(seed)
        p = rng.random((n_x, n_s1, n_s2)) + 0.02
        p.flat[rng.choice(p.size, size=rng.integers(1, 3), replace=False)] = 0.0
        d = rng.random((n_x, n_xhat))
        d[np.arange(n_x), np.arange(n_x) % n_xhat] = 0.0  # some answer is free for each x
        x, s1, s2, xhat = (Alphabet(n, a) for n, a in zip(sizes, ("X", "S1", "S2", "Xhat")))
        src = SourceInstance(x, xhat, s1, s2, JointPmf((x, s1, s2), p / p.sum()), d)
        pair, one = Alphabet(n_x * n_s1, "XS1"), Alphabet(1, "S1")
        merged = SourceInstance(
            pair, xhat, one, s2,
            JointPmf((pair, one, s2), src.joint.probs.reshape(n_x * n_s1, 1, n_s2)),
            np.repeat(d, n_s1, axis=0),
        )
        floor = src.joint.probs.sum(axis=(1, 2)) @ d.min(axis=1)
        zero_rate = (src.joint.probs.sum(axis=1).T @ d).min(axis=1).sum()
        target = floor + frac * (zero_rate - floor)

        rep, ref = wz_primal(src, target), wz_primal(merged, target)
        assert (rep.value, rep.gap, rep.iterations, rep.status) == (
            ref.value, ref.gap, ref.iterations, ref.status
        )
        assert rep.argopt.given_shape == (n_x, n_s1)
        assert np.array_equal(rep.argopt.probs.reshape(ref.argopt.probs.shape), ref.argopt.probs)

        w = CondKernel((s1,), (Alphabet(1, "V1"),), np.ones((n_s1, 1)))
        prog, case1 = build_wz_gp(src, target), build_case1_rd_gp(src, w, target)
        for name in ("c", "a_mat", "b_vec", "nonneg", "start"):
            assert np.array_equal(getattr(prog, name), getattr(case1, name)), name
        assert len(prog.lse_groups) == len(case1.lse_groups)
        assert all(np.array_equal(g, h) for g, h in zip(prog.lse_groups, case1.lse_groups))
        assert (prog.bounds, prog.var_labels) == (case1.bounds, case1.var_labels)

        res = eval_sc("1", build_wz_joint(src, rep.argopt), d)
        assert res.objective == pytest.approx(rep.extras["argopt_rate"], abs=1e-9)
        assert res.distortion == pytest.approx(rep.extras["argopt_distortion"], abs=1e-9)
        assert res.r_prime_required == pytest.approx(0.0, abs=1e-12)


def random_binary_wyner_ziv_source(seed):
    """p(x, s2) = uniform + 0.02, normalized, and a distortion with a zero diagonal."""
    rng = np.random.default_rng(seed)
    p = rng.random((2, 2)) + 0.02
    d = rng.random((2, 2)) + 0.1
    np.fill_diagonal(d, 0.0)
    x, s1, s2 = Alphabet(2, "X"), Alphabet(1, "S1"), Alphabet(2, "S2")
    return SourceInstance(x, x, s1, s2, JointPmf((x, s1, s2), (p / p.sum()).reshape(2, 1, 2)), d)


def dsbs_wyner_ziv(p, d):
    """Wyner-Ziv rate of the doubly symmetric binary source with crossover p.

    It is the lower convex envelope of g(d) = h(p(1-d) + (1-p)d) - h(d) and
    the point (p, 0): g up to the point d_c where the line through (p, 0)
    touches g, then that line.
    """

    def g(x):
        return binary_entropy(p * (1 - x) + (1 - p) * x) - binary_entropy(x)

    def slope(x):
        conv = p * (1 - x) + (1 - p) * x
        return (1 - 2 * p) * math.log2((1 - conv) / conv) - math.log2((1 - x) / x)

    # the tangent to g at x passes below (p, 0) for x < d_c and above it after
    lo, hi = 1e-12, p - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) + slope(mid) * (p - mid) < 0:
            lo = mid
        else:
            hi = mid
    d_c = 0.5 * (lo + hi)
    return g(d) if d <= d_c else g(d_c) * (p - d) / (p - d_c)


class TestLagrangianSweep:
    @pytest.mark.parametrize("d", [0.15, 0.2, 0.25])
    def test_time_sharing_segment_certified(self, d):
        # example3 is the doubly symmetric binary source with crossover 0.3;
        # these targets lie on the segment to (0.3, 0), where the Lagrangian
        # minimizer at the kink multiplier is not unique
        opts = SolverOptions()
        rep = wz_primal(example3_source(), d, opts)
        assert rep.status == "ok"
        assert rep.gap <= opts.delta
        assert rep.extras["probes_capped"] == 0
        assert rep.extras["probes_stopped"] > 0
        assert rep.extras["probes"] == rep.iterations
        assert rep.value == pytest.approx(dsbs_wyner_ziv(0.3, d), abs=1e-6)

    def test_stopped_probes_skip_the_crawl_near_the_kink(self):
        # without the stop, four probes below the kink multiplier take 8,863
        # of the 10,170 iterations at D = 0.2 without raising the bound
        rep = wz_primal(example3_source(), 0.2)
        assert rep.status == "ok" and rep.extras["probes"] == 23
        assert rep.extras["probe_iterations"] <= 2500

    @pytest.mark.parametrize(
        "solve",
        [
            lambda opts: ba_rate_distortion(np.array([0.4, 0.6]), HAMMING, 0.1, opts),
            lambda opts: wz_primal(example3_source(), 0.1, opts),
        ],
        ids=["rate-distortion", "wyner-ziv"],
    )
    def test_capped_probes_are_not_ok(self, solve):
        rep = solve(SolverOptions(max_iters=2))
        assert rep.status == "nonconverged"
        assert rep.gap > 1e-6
        assert 0 < rep.extras["probes_capped"] <= rep.extras["probes"]
        assert rep.extras["probe_iterations"] <= 2 * rep.extras["probes"]
        assert solve(SolverOptions()).status == "ok"

    # the (seed, k) points of the recipe below that take 0.1 s or more
    SLOW_RANDOM_POINTS = {
        (1, 5), (2, 2), (2, 3), (4, 3), (4, 4), (6, 6), (9, 5), (9, 6),
        (11, 2), (12, 5), (12, 6), (13, 6), (14, 5), (15, 3), (15, 4), (17, 5),
    }

    @pytest.mark.parametrize("seed", range(18))
    def test_stopped_probes_keep_the_bracket_on_random_sources(self, seed):
        # targets k/7 of the way from the distortion floor to the zero-rate
        # distortion; a probe that stops early steers the bisection by the
        # best bound so far, and the primal must still meet the dual
        src = random_binary_wyner_ziv_source(seed)
        p, d = src.joint.probs.reshape(2, 2), src.distortion
        floor, zero_rate = p.sum(axis=1) @ d.min(axis=1), (p.T @ d).min(axis=1).sum()
        for k in range(1, 7):
            if (seed, k) in self.SLOW_RANDOM_POINTS:
                continue
            target = floor + k / 7 * (zero_rate - floor)
            primal, dual = wz_primal(src, target), wz_rate_via_gp(src, target, cross_check=False)
            assert primal.status == "ok" and dual.status == "ok"
            assert abs(primal.value - dual.value) <= primal.gap + dual.gap + 1e-12

    def test_capped_probes_at_the_distortion_floor_are_not_ok(self):
        d = np.array([[1.0, 2.0, 1.5], [2.0, 1.0, 1.5], [1.5, 1.5, 1.0]])
        p_x = np.array([0.2, 0.3, 0.5])
        assert ba_rate_distortion(p_x, d, 0.5).status == "distortion-floor"
        assert ba_rate_distortion(p_x, d, 0.5, SolverOptions(max_iters=1)).status == "nonconverged"

    def test_large_distortion_scale_has_a_witness(self):
        # at the largest multiplier the distortion is 8.9e-12, above D = 0 by
        # more than an absolute 1e-12: feasibility is judged relative to 1e4
        opts = SolverOptions()
        rep = ba_rate_distortion(np.array([0.5, 0.5]), 1e4 * HAMMING, 0.0, opts)
        assert rep.status == "ok" and rep.gap <= opts.delta
        assert rep.extras["argopt_distortion"] <= 1e-12 * 1e4
        assert rep.value == pytest.approx(1.0, abs=1e-6)

    def test_no_feasible_probe_gives_an_infinite_gap(self):
        # neither a probe nor the floor map (measured at 0.15) meets D = 0.1
        arg = np.eye(2)
        probes = [(0.0, 0.0, 0.5, 0.0, arg), (10.0, 0.9, 0.2, 1e-9, arg)]
        value, gap, _, _, dist = _assemble_sweep(probes, 0.1, lambda q: (3.0, 0.15, q), 1e-12, arg)
        assert gap == math.inf and dist == 0.15
        assert value == pytest.approx(0.9 + 10.0 * (0.2 - 0.1) - 1e-9)

    def test_no_feasible_probe_falls_back_to_the_floor_map(self):
        arg = np.eye(2)
        probes = [(0.0, 0.0, 0.5, 0.0, arg), (10.0, 0.9, 0.2, 1e-9, arg)]
        value, gap, witness, rate, dist = _assemble_sweep(
            probes, 0.1, lambda q: (3.0, 0.05, q), 1e-12, arg
        )
        assert (value, rate, dist) == (3.0, 3.0, 0.05) and witness is arg
        assert gap == pytest.approx(3.0 - (0.9 + 10.0 * (0.2 - 0.1) - 1e-9))

    @pytest.mark.parametrize(
        "make_src",
        [
            lambda: random_binary_wyner_ziv_source(11),
            example4_source,
        ],
        ids=["seed-11", "example4"],
    )
    def test_floor_map_is_a_witness_at_the_distortion_floor(self, make_src):
        # at D = 0 no multiplier probe reaches a distortion within the slack;
        # the map from each letter to its least-distortion answer does, exactly
        opts = SolverOptions()
        rep = wz_primal(make_src(), 0.0, opts)
        assert rep.status == "ok" and rep.gap <= opts.delta
        assert rep.extras["argopt_distortion"] == 0.0
        q = rep.argopt.probs
        assert np.array_equal(q, (q == 1.0).astype(float))

    @pytest.mark.parametrize("scale, offset", [(1.0, 100.0), (0.01, 1.0)])
    def test_shifted_distortion_rate_distortion(self, scale, offset):
        # a distortion scale * Hamming + offset has R(offset + scale * D) = R(D)
        # under Hamming; the multipliers it needs are set by the scale alone
        opts = SolverOptions()
        d = scale * HAMMING + offset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ba_rate_distortion(np.array([0.5, 0.5]), d, offset + scale * 0.1, opts)
        assert rep.status == "ok" and rep.gap <= opts.delta
        assert rep.value == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-6)

    @pytest.mark.parametrize("d", [0.05, 0.1, 0.2])
    @pytest.mark.parametrize(
        "scale, shift", [(1.0, [100.0, 40.0]), (0.01, [1000.0, 1000.0])], ids=["1-100-40", "0.01-1000-1000"]
    )
    def test_shifted_distortion_wyner_ziv(self, scale, shift, d):
        # at a large multiplier the rounding of beta * d must not swamp the
        # certificate: the certified gap has to contain the closed form
        from sideinfo.ba import SourceInstance

        opts = SolverOptions()
        src = example3_source()
        moved = scale * src.distortion + np.array(shift)[:, None]
        target = scale * d + float(src.joint.probs.sum(axis=(1, 2)) @ shift)
        rep = wz_primal(SourceInstance(src.x, src.xhat, src.s1, src.s2, src.joint, moved), target, opts)
        assert rep.status == "ok" and rep.gap <= opts.delta
        assert abs(rep.value - dsbs_wyner_ziv(0.3, d)) <= rep.gap + 1e-9

    def test_rate_distortion_raises_no_warning(self):
        p_x = np.array([0.88, 0.35, 0.77, 0.53])
        d = np.array([
            [0.0158, 0.0126, 0.0034, 0.0182],
            [0.0178, 0.0182, 0.0178, 0.009],
            [0.008, 0.0154, 0.0032, 0.0003],
            [0.0136, 0.0093, 0.0199, 0.0091],
        ])
        p = p_x / p_x.sum()
        floor, zero_rate = p @ d.min(axis=1), (p @ d).min()
        target = floor + 0.3 * (zero_rate - floor)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = ba_rate_distortion(p_x, d, target)
        assert rep.status == "ok"
        assert rep.value == pytest.approx(0.3455477687, abs=1e-6)


class TestStrategyCapacity:
    def make_state_channel(self, kern, sj=None):
        x, y = Alphabet(2, "X"), Alphabet(2, "Y")
        s1, s2 = Alphabet(2, "S1"), Alphabet(2, "S2")
        state = JointPmf((s1, s2), np.full((2, 2), 0.25) if sj is None else sj)
        return ChannelInstance(x, y, s1, s2, state, CondKernel((x, s1, s2), (y,), kern))

    def test_repeated_state_axis_rejected(self):
        with pytest.raises(ProbabilityError, match="more than once"):
            gp_channel_capacity(example1_channel(), ("s1", "s1"), ("s2",))

    def test_bound_is_infinite_at_a_zero_weight(self):
        # a point mass on one input of a BSC has J = 0, and U over its support
        # alone would certify it; -log 0 makes the bound +inf instead
        w = np.array([[0.9, 0.1], [0.1, 0.9]])[:, None, :]
        q = np.array([[1.0], [0.0]])
        assert _functionals(np.ones(1), w, _log(q)) == (0.0, math.inf)

    def test_state_independent_channel_equals_plain_capacity(self):
        rng = np.random.default_rng(13)
        k = rng.random((2, 2)) + 0.1
        k /= k.sum(axis=1, keepdims=True)
        kern = np.broadcast_to(k[:, None, None, :], (2, 2, 2, 2)).copy()
        ch = self.make_state_channel(kern)
        gp = gp_channel_capacity(ch, ("s1",), (), SolverOptions(delta=1e-8))
        ba = ba_capacity(k, SolverOptions(delta=1e-8))
        assert gp.value == pytest.approx(ba.value, abs=1e-6)

    def test_noiseless_channel_one_bit(self):
        kern = np.zeros((2, 2, 2, 2))
        for x in range(2):
            kern[x, :, :, x] = 1.0
        ch = self.make_state_channel(kern)
        gp = gp_channel_capacity(ch, ("s1",), ("s2",), SolverOptions(delta=1e-8))
        assert gp.value == pytest.approx(1.0, abs=1e-6)

    def test_trace_monotone(self):
        rng = np.random.default_rng(14)
        kern = rng.random((2, 2, 2, 2)) + 0.05
        kern /= kern.sum(axis=3, keepdims=True)
        sj = rng.random((2, 2)) + 0.05
        sj /= sj.sum()
        ch = self.make_state_channel(kern, sj)
        rep = gp_channel_capacity(ch, ("s1",), ("s2",), SolverOptions(delta=1e-8))
        lows = [lo for lo, up in rep.trace]
        assert all(lows[i + 1] >= lows[i] - 1e-10 for i in range(len(lows) - 1))
        assert all(up >= lo - 1e-12 for lo, up in rep.trace)


    def test_zero_mass_encoder_letter_with_nonzero_rows(self):
        # decoder view 4 is reachable only from e = 3, which has no mass
        rng = np.random.default_rng(5)
        p_ote = rng.random((3, 4, 5)) + 0.05
        p_ote[:, :3, 4] = 0.0
        p_ote /= p_ote.sum(axis=2, keepdims=True)
        p_e = np.array([0.25, 0.35, 0.4, 0.0])
        zeroed = p_ote.copy()
        zeroed[:, 3, :] = 0.0
        got = alternating_strategy_max(p_e, p_ote, 1e-9, 3000)
        want = alternating_strategy_max(p_e, zeroed, 1e-9, 3000)
        assert got[6] and math.isfinite(got[0])
        assert got[:3] == want[:3] and got[6] == want[6]
        assert all(np.array_equal(g, w) for g, w in zip(got[3:6], want[3:6]))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_t=st.integers(2, 4), n_e=st.integers(1, 3), n_o=st.integers(1, 4),
    )
    def test_certificate_holds_with_a_cost(self, seed, n_t, n_e, n_o):
        rng = np.random.default_rng(seed)
        p_e = rng.random(n_e) + 0.05
        p_e /= p_e.sum()
        p_ote = rng.random((n_t, n_e, n_o))
        p_ote[p_ote < 0.2] = 0.0  # structural zeros
        p_ote[:, :, 0] += 0.05
        p_ote /= p_ote.sum(axis=2, keepdims=True)
        cost = 2.0 * rng.random((n_t, n_e))
        _, gap, iters, log_q, log_big_q, trace, ok = alternating_strategy_max(
            p_e, p_ote, 1e-9, 20000, cost
        )
        assert ok and gap < 1e-9
        assert len(trace) == iters  # a rejected candidate is neither counted nor traced
        j_u = np.array(_functionals(p_e, p_ote, log_q, log_big_q, cost)) / LN2
        assert np.allclose(trace[-1], j_u, rtol=0.0, atol=1e-12)
        assert all(u >= j - 1e-12 for j, u in trace)
        lows = [j for j, _ in trace]
        assert all(b >= a - 1e-12 for a, b in zip(lows, lows[1:]))
        u_final = trace[-1][1]
        for _ in range(20):
            q = rng.random((n_t, n_e)) ** 3
            q /= q.sum(axis=0)
            j_cost = _functionals(p_e, p_ote, _log(q))[0] / LN2
            j_cost -= float(np.einsum("e,te,te->", p_e, q, cost)) / LN2
            assert u_final >= j_cost - 1e-9


class TestStackedEngine:
    """A stacked engine run equals one ``alternating_strategy_max`` call each, bit for bit."""

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_b=st.integers(2, 6), n_t=st.integers(2, 5), n_e=st.integers(1, 4), n_o=st.integers(1, 5),
        with_cost=st.booleans(), with_stop=st.booleans(), max_iters=st.integers(2, 40),
        delta=st.sampled_from([1e-12, 1e-17]),
    )
    def test_stack_equals_one_call_each(
        self, seed, n_b, n_t, n_e, n_o, with_cost, with_stop, max_iters, delta
    ):
        # at delta 1e-17 an instance can reach a fixed point in floating point
        # short of its gap: its q stops moving and it has no SQUAREM step
        rng = np.random.default_rng(seed)
        p_e = rng.random((n_b, n_e)) + 0.05
        p_e[rng.random((n_b, n_e)) < 0.25] = 0.0  # zero-mass letters
        total = p_e.sum(axis=1, keepdims=True)
        p_e /= np.where(total > 0, total, 1.0)
        p_ote = rng.random((n_b, n_t, n_e, n_o))
        p_ote[p_ote < 0.3] = 0.0  # structural zeros, whole rows included
        total = p_ote.sum(axis=3, keepdims=True)
        p_ote /= np.where(total > 0, total, 1.0)
        # instance 0 ignores the strategy, so its first step closes the gap
        p_ote[0] = p_ote[0, :1]
        cost = 2.0 * rng.random((n_b, n_t, n_e)) if with_cost else None
        j_stop = np.where(rng.random(n_b) < 0.5, 0.3 * rng.random(n_b), math.inf)
        if with_cost:
            cost[0] = 0.0

        stacked = _stacked_strategy_max(
            p_e, p_ote, delta, max_iters, cost, j_stop if with_stop else None
        )
        iters = [r[2] for r in stacked]
        assert iters[0] == 1
        assume(max_iters in iters)
        for b, got in enumerate(stacked):
            want = alternating_strategy_max(
                p_e[b], p_ote[b], delta, max_iters, None if cost is None else cost[b],
                j_stop[b] if with_stop else math.inf,
            )
            assert len(got) == len(want) == 7
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), b
            assert type(got[2]) is int and type(got[6]) is bool

    def test_stack_of_one_is_the_engine_call(self):
        p_ote = np.array([[[0.9, 0.1]], [[0.2, 0.8]]])
        (got,) = _stacked_strategy_max(np.ones((1, 1)), p_ote[None], 1e-9, 100)
        want = alternating_strategy_max(np.ones(1), p_ote, 1e-9, 100)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert got[3].shape == (2, 1) and got[4].shape == (2, 2)

    def test_empty_stack_has_no_results(self):
        assert _stacked_strategy_max(np.zeros((0, 1)), np.zeros((0, 2, 1, 2)), 1e-9, 100) == []


class TestAcceleratedDriver:
    """The engine's accelerated loop, held by its iteration counts and values."""

    @staticmethod
    def lagrangian_probe(p_xs, dbar, beta):
        """One multiplier probe as the engine call with a cost: (rate, dist, gap, iterations).

        The negated Lagrangian I(T;X|S) + beta * E[d] is the strategy
        objective with encoder letter x, decoder view s and the cost
        beta * ln 2 * dbar, so the rate is -J - beta * dist at the engine's q.
        """
        p_x = p_xs.sum(axis=1)
        p_ote = np.broadcast_to(p_xs / p_x[:, None], (dbar.shape[1],) + p_xs.shape)
        value, gap, iters, log_q, _, _, _ = alternating_strategy_max(
            p_x, p_ote, 1e-10, 10000, beta * LN2 * dbar.T
        )
        dist = float(np.einsum("x,tx,xt->", p_x, np.exp(log_q), dbar))
        return -value - beta * dist, dist, gap, iters

    @staticmethod
    def check_pinned(got, beta, pinned, references, parts=True):
        """``got`` matches ``pinned`` exactly; each reference lies within both gaps of it.

        The gap certifies the Lagrangian rate + beta * dist. With ``parts``
        the rate and the distortion must also lie within both gaps, which the
        gap does not certify: the Lagrangian's excess is quadratic in the
        distance from the optimum, its two parts are linear in it.
        """
        rate, dist, gap, iterations = pinned
        assert got[3] == iterations
        assert got[:3] == pytest.approx((rate, dist, gap), abs=1e-14)
        for ref_rate, ref_dist, ref_gap in references:
            both = ref_gap + gap
            if parts:
                assert abs(ref_rate - rate) <= both and abs(ref_dist - dist) <= both
            assert abs((ref_rate + beta * ref_dist) - (rate + beta * dist)) <= both

    # reference figures of the engine's loop: a change to its order of
    # operations, its acceptance rule, its counting or what its step length
    # is measured on moves them. The references are (rate, dist, gap) of the
    # former Wyner-Ziv alternating loop, which stopped on Q growth, and of a
    # loop that measured its step length on the log-weight table (265, 18, 23
    # and 21 iterations).
    @pytest.mark.parametrize(
        "beta, pinned, references",
        [
            (
                1.5,
                (0.05273329140662997, 0.4612038749277074, 1.2913652922178697e-11, 30),
                [
                    (0.052733291309234875, 0.46120387498775584, 9.40593293445978e-11),
                    (0.05273329130952087, 0.461203874987565, 9.331196994432398e-11),
                ],
            ),
            (
                3.0,
                (0.671608709193986, 0.18253968253994599, 7.951609336299465e-11, 16),
                [
                    (0.6716087091947653, 0.1825396825396862, 6.80471857924317e-11),
                    (0.6716087091948252, 0.18253968253966624, 6.727195658011328e-14),
                ],
            ),
        ],
        ids=["beta=1.5", "beta=3.0"],
    )
    def test_rd_probe_pinned(self, beta, pinned, references):
        p_x = np.array([0.2, 0.5, 0.3])
        d = np.abs(np.subtract.outer(np.arange(3), np.arange(3))).astype(float)
        got = self.lagrangian_probe(p_x[:, None], d, beta)
        self.check_pinned(got, beta, pinned, references)

    # At beta=2.5 only the Lagrangian is held to both gaps. Against a solve
    # to delta 1e-14 (rate 0.40049025803772353, dist 0.1209648845097041) the
    # pin's Lagrangian lies 2.0e-11 above the optimum, inside its gap, while
    # its rate lies 2.1e-10 below and its distortion 9.3e-11 above, nearly
    # along the Lagrangian's level set (slope -2.28 against -beta).
    @pytest.mark.parametrize(
        "beta, pinned, references, parts",
        [
            (
                2.5,
                (0.4004902578265882, 0.1209648846022276, 4.4222662199864177e-11, 66),
                [
                    (0.4004902580283156, 0.12096488451346502, 4.179342379635873e-11),
                    (0.4004902580497107, 0.12096488450490694, 5.269140067667449e-11),
                ],
                False,
            ),
            (
                4.0,
                (0.6414030757857456, 0.04400218153842386, 2.9513168379646837e-11, 34),
                [
                    (0.6414030758350817, 0.04400218151965954, 2.743542594927248e-11),
                    (0.6414030758392405, 0.04400218151861985, 2.3987257660566106e-11),
                ],
                True,
            ),
        ],
        ids=["beta=2.5", "beta=4.0"],
    )
    def test_wz_probe_pinned(self, beta, pinned, references, parts):
        # a doubly symmetric binary source (crossover 0.3) under Hamming
        # distortion, with the four strategies S -> Xhat
        p_xs = np.array([[0.35, 0.15], [0.15, 0.35]])
        tables = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        d = (np.arange(2)[:, None, None] != tables[None, :, :]).astype(float)  # (X, T, S)
        dbar = np.einsum("xs,xts->xt", p_xs / p_xs.sum(axis=1, keepdims=True), d)
        got = self.lagrangian_probe(p_xs, dbar, beta)
        self.check_pinned(got, beta, pinned, references, parts)

    def test_objective_stop_ends_at_the_first_step_reaching_it(self):
        # the beta=2.5 probe above: J gains 8.8e-5 at step 21, its gap is 6.9e-4
        p_xs = np.array([[0.35, 0.15], [0.15, 0.35]])
        tables = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        d = (np.arange(2)[:, None, None] != tables[None, :, :]).astype(float)
        p_x = p_xs.sum(axis=1)
        p_ote = np.broadcast_to(p_xs / p_x[:, None], (4, 2, 2))
        cost = 2.5 * LN2 * np.einsum("xs,xts->tx", p_xs / p_x[:, None], d)
        full = alternating_strategy_max(p_x, p_ote, 1e-10, 10000, cost)
        lows = full[5][:, 0]
        j_stop = LN2 * 0.5 * (lows[19] + lows[20])
        value, gap, iters, _, _, trace, ok = alternating_strategy_max(
            p_x, p_ote, 1e-10, 10000, cost, j_stop
        )
        assert (iters, ok, value) == (21, False, lows[20])
        assert gap > 1e-10 and np.array_equal(trace, full[5][:21])


@pytest.mark.parametrize(
    "make",
    [
        lambda: SolverOptions(max_iters=0),
        lambda: SolverOptions(max_iters=-3),
        lambda: Case2Options(max_inner_iters=0),
    ],
    ids=["zero", "negative", "inner-zero"],
)
def test_iteration_cap_below_one_is_rejected(make):
    # a cap below 1 runs no step, which leaves no iterate to report
    with pytest.raises(ValueError, match="iters must be >= 1"):
        make()


@pytest.mark.parametrize("d_target", [math.nan, math.inf, -0.1])
def test_distortion_target_must_be_finite_and_nonnegative(d_target):
    """Primal, dual and the description curve reject a target D the same way."""
    src = example3_source()
    w = CondKernel((src.s1,), (Alphabet(1, "V1"),), np.ones((src.s1.size, 1)))
    solves = [
        lambda: wz_primal(src, d_target),
        lambda: ba_rate_distortion(np.array([0.5, 0.5]), HAMMING, d_target),
        lambda: build_wz_gp(src, d_target),
        lambda: build_case1_rd_gp(src, w, d_target),
        lambda: wz_rate_via_gp(src, d_target),
        lambda: rd_case1_sweep(example2_source(), d_target, [0.1])[0],
    ]
    for solve in solves:
        with pytest.raises(ValueError, match="finite and >= 0"):
            solve()
