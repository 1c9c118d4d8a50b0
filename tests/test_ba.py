import math

import numpy as np
import pytest

from sideinfo.ba import (
    ChannelInstance,
    SolverOptions,
    _accelerated_fixed_point,
    _rd_fixed_multiplier,
    _wz_fixed_multiplier,
    alternating_strategy_max,
    ba_capacity,
    ba_rate_distortion,
    gp_channel_capacity,
    pair_source,
    wz_primal,
)
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


class TestStrategyCapacity:
    def make_state_channel(self, kern, sj=None):
        x, y = Alphabet(2, "X"), Alphabet(2, "Y")
        s1, s2 = Alphabet(2, "S1"), Alphabet(2, "S2")
        state = JointPmf((s1, s2), np.full((2, 2), 0.25) if sj is None else sj)
        return ChannelInstance(x, y, s1, s2, state, CondKernel((x, s1, s2), (y,), kern))

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

    # reference figures of the three engines that run on the driver: a change
    # to its order of operations, its acceptance rule or its counting moves them
    @pytest.mark.parametrize(
        "beta, rate, dist, gap, iterations",
        [
            (1.5, 0.052733291309234875, 0.46120387498775584, 9.40593293445978e-11, 252),
            (3.0, 0.6716087091947653, 0.1825396825396862, 6.80471857924317e-11, 17),
        ],
    )
    def test_rd_fixed_multiplier_pinned(self, beta, rate, dist, gap, iterations):
        p_x = np.array([0.2, 0.5, 0.3])
        d = np.abs(np.subtract.outer(np.arange(3), np.arange(3))).astype(float)
        got = _rd_fixed_multiplier(p_x, d, beta, 1e-10, 10000)
        assert got[5] == iterations
        assert got[:3] == pytest.approx((rate, dist, gap), abs=1e-14)

    @pytest.mark.parametrize(
        "beta, rate, dist, gap, iterations",
        [
            (2.5, 0.4004902580283156, 0.12096488451346502, 4.179342379635873e-11, 19),
            (4.0, 0.6414030758350817, 0.04400218151965954, 2.743542594927248e-11, 15),
        ],
    )
    def test_wz_fixed_multiplier_pinned(self, beta, rate, dist, gap, iterations):
        # a doubly symmetric binary source (crossover 0.3) under Hamming
        # distortion, with the four strategies S -> Xhat
        p_xs = np.array([[0.35, 0.15], [0.15, 0.35]])
        tables = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        d = (np.arange(2)[:, None, None] != tables[None, :, :]).astype(float)  # (X, T, S)
        dbar = np.einsum("xs,xts->xt", p_xs / p_xs.sum(axis=1, keepdims=True), d)
        got = _wz_fixed_multiplier(p_xs, dbar, beta, 1e-10, 10000)
        assert got[5] == iterations
        assert got[:3] == pytest.approx((rate, dist, gap), abs=1e-14)
