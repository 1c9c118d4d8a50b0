import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sideinfo.ba import (
    LN2,
    ChannelInstance,
    SolverOptions,
    _accelerated_fixed_point,
    _assemble_sweep,
    _functionals,
    alternating_strategy_max,
    ba_capacity,
    ba_rate_distortion,
    gp_channel_capacity,
    pair_source,
    strategy_bound,
    strategy_objective,
    strategy_posterior,
    wz_primal,
)
from sideinfo.case2 import Case2Options
from sideinfo.probability import Alphabet, CondKernel, JointPmf, binary_entropy
from sideinfo.problems import example3_source

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

    def test_rejects_two_sided_source(self):
        from sideinfo.ba import SourceInstance
        from sideinfo.probability import ProbabilityError

        x = Alphabet(2, "X")
        s = Alphabet(2, "S")
        src = SourceInstance(x, x, s, s, JointPmf((x, s, s), np.full((2, 2, 2), 0.125)), HAMMING)
        with pytest.raises(ProbabilityError):
            wz_primal(src, 0.1)
        merged = pair_source(src)
        assert merged.x.size == 4 and merged.s1.size == 1
        wz_primal(merged, 0.1)  # merged source is accepted


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
        assert rep.extras["probes"] == rep.iterations
        assert rep.value == pytest.approx(dsbs_wyner_ziv(0.3, d), abs=1e-6)

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
        assert solve(SolverOptions()).status == "ok"

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
        arg = np.eye(2)
        probes = [(0.0, 0.0, 0.5, 0.0, arg), (10.0, 0.9, 0.2, 1e-9, arg)]
        value, gap, _, _, dist = _assemble_sweep(probes, 0.1, None, 1e-12)
        assert gap == math.inf and dist == 0.2
        assert value == pytest.approx(0.9 + 10.0 * (0.2 - 0.1) - 1e-9)

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

    def test_bound_is_infinite_at_a_zero_weight(self):
        # a point mass on one input of a BSC has J = 0, and U over its support
        # alone would certify it; -log 0 makes the bound +inf instead
        w = np.array([[0.9, 0.1], [0.1, 0.9]])[:, None, :]
        q = np.array([[1.0], [0.0]])
        big_q = strategy_posterior(np.ones(1), w, q)
        assert strategy_objective(np.ones(1), w, q, big_q) == 0.0
        assert strategy_bound(np.ones(1), w, q, big_q) == math.inf

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
        assert got[:3] == want[:3] and got[5:] == want[5:]
        assert np.array_equal(got[3], want[3]) and np.array_equal(got[4], want[4])

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
        _, gap, _, log_q, log_big_q, trace, ok = alternating_strategy_max(
            p_e, p_ote, 1e-9, 20000, cost
        )
        assert ok and gap < 1e-9
        j_u = np.array(_functionals(p_e, p_ote, log_q, log_big_q, cost)) / LN2
        assert np.allclose(trace[-1], j_u, rtol=0.0, atol=1e-12)
        assert all(u >= j - 1e-12 for j, u in trace)
        lows = [j for j, _ in trace]
        assert all(b >= a - 1e-12 for a, b in zip(lows, lows[1:]))
        u_final = trace[-1][1]
        for _ in range(20):
            q = rng.random((n_t, n_e)) ** 3
            q /= q.sum(axis=0)
            j_cost = strategy_objective(p_e, p_ote, q, strategy_posterior(p_e, p_ote, q))
            j_cost -= float(np.einsum("e,te,te->", p_e, q, cost)) / LN2
            assert u_final >= j_cost - 1e-9


class TestAcceleratedDriver:
    @staticmethod
    def halving(objective):
        """x <- x / 2, with every evaluation logged."""
        evaluated = []

        def step(x):
            evaluated.append(x)
            nxt = x / 2.0
            return nxt, objective(nxt), False, nxt

        return step, evaluated

    def test_accepted_candidate_counts_and_is_recorded(self):
        # from 1 the squared extrapolation lands on the fixed point 0
        step, evaluated = self.halving(lambda x: -abs(x))
        recorded = []
        iters, x, out = _accelerated_fixed_point(step, 1.0, 5, record=recorded.append)
        assert evaluated == [1.0, 0.5, 0.0, 0.0, 0.0]
        assert iters == 5 and recorded == [0.5, 0.25, 0.0, 0.0, 0.0]
        assert x == out == 0.0

    def test_rejected_candidate_is_neither_counted_nor_recorded(self):
        step, evaluated = self.halving(abs)  # the candidate 0 lowers the objective
        recorded = []
        iters, x, _ = _accelerated_fixed_point(step, 1.0, 5, record=recorded.append)
        assert evaluated == [1.0, 0.5, 0.0, 0.25, 0.125, 0.0, 0.0625]
        assert iters == 5 and recorded == [0.5, 0.25, 0.125, 0.0625, 0.03125]
        assert x == 0.03125

    def test_no_step_returns_the_default(self):
        step, evaluated = self.halving(abs)
        assert _accelerated_fixed_point(step, 1.0, 0, out="init") == (0, 1.0, "init")
        assert evaluated == []

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SolverOptions(max_iters=0),
            lambda: SolverOptions(max_iters=-3),
            lambda: Case2Options(max_inner_iters=0),
        ],
        ids=["zero", "negative", "inner-zero"],
    )
    def test_iteration_cap_below_one_is_rejected(self, make):
        # a cap below 1 runs no step, which leaves no iterate to report
        with pytest.raises(ValueError, match="iters must be >= 1"):
            make()

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
    def check_pinned(got, beta, pinned, reference):
        """``got`` matches ``pinned`` exactly; ``reference`` lies within both gaps of it."""
        rate, dist, gap, iterations = pinned
        assert got[3] == iterations
        assert got[:3] == pytest.approx((rate, dist, gap), abs=1e-14)
        ref_rate, ref_dist, ref_gap = reference
        both = ref_gap + gap
        assert abs(ref_rate - rate) <= both and abs(ref_dist - dist) <= both
        assert abs((ref_rate + beta * ref_dist) - (rate + beta * dist)) <= both

    # reference figures of the engines that run on the driver: a change to its
    # order of operations, its acceptance rule or its counting moves them. The
    # references are (rate, dist, gap) of the former Wyner-Ziv alternating
    # loop, which stopped on Q growth; each lies within both gaps of the pin.
    @pytest.mark.parametrize(
        "beta, pinned, reference",
        [
            (
                1.5,
                (0.05273329130952087, 0.461203874987565, 9.331196994432398e-11, 265),
                (0.052733291309234875, 0.46120387498775584, 9.40593293445978e-11),
            ),
            (
                3.0,
                (0.6716087091948252, 0.18253968253966624, 6.727195658011328e-14, 18),
                (0.6716087091947653, 0.1825396825396862, 6.80471857924317e-11),
            ),
        ],
        ids=["beta=1.5", "beta=3.0"],
    )
    def test_rd_probe_pinned(self, beta, pinned, reference):
        p_x = np.array([0.2, 0.5, 0.3])
        d = np.abs(np.subtract.outer(np.arange(3), np.arange(3))).astype(float)
        got = self.lagrangian_probe(p_x[:, None], d, beta)
        self.check_pinned(got, beta, pinned, reference)

    @pytest.mark.parametrize(
        "beta, pinned, reference",
        [
            (
                2.5,
                (0.4004902580497107, 0.12096488450490694, 5.269140067667449e-11, 23),
                (0.4004902580283156, 0.12096488451346502, 4.179342379635873e-11),
            ),
            (
                4.0,
                (0.6414030758392405, 0.04400218151861985, 2.3987257660566106e-11, 21),
                (0.6414030758350817, 0.04400218151965954, 2.743542594927248e-11),
            ),
        ],
        ids=["beta=2.5", "beta=4.0"],
    )
    def test_wz_probe_pinned(self, beta, pinned, reference):
        # a doubly symmetric binary source (crossover 0.3) under Hamming
        # distortion, with the four strategies S -> Xhat
        p_xs = np.array([[0.35, 0.15], [0.15, 0.35]])
        tables = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        d = (np.arange(2)[:, None, None] != tables[None, :, :]).astype(float)  # (X, T, S)
        dbar = np.einsum("xs,xts->xt", p_xs / p_xs.sum(axis=1, keepdims=True), d)
        got = self.lagrangian_probe(p_xs, dbar, beta)
        self.check_pinned(got, beta, pinned, reference)
