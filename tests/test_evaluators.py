import numpy as np
import pytest

from sideinfo.ba import ChannelInstance, SolverOptions, wz_primal
from sideinfo.case2 import Case2Options, capacity_case2_sweep, causal_inner_max, inner_max
from sideinfo.evaluators import (
    build_case2_joint,
    build_case2c_joint,
    build_wz_joint,
    case_descriptor,
    dualize,
    eval_cc,
    eval_fact,
    eval_sc,
    example2_closed_form,
)
from sideinfo.probability import Alphabet, CondKernel, JointPmf, ProbabilityError, chain
from sideinfo.problems import example1_channel, example3_source

HAMMING = 1.0 - np.eye(2)


def degenerate_axis_joint(rng, sizes):
    t = rng.random(sizes) + 1e-3
    return t / t.sum()


def channel_joint_from_factors(rng, point_mass_v=False):
    """Random joint over (S1, S2, V, U, X, Y) built from a valid factorization."""
    s1 = rng.random((2,)) + 0.2
    s1 /= s1.sum()
    s2_given_s1 = rng.random((2, 2)) + 0.2
    s2_given_s1 /= s2_given_s1.sum(axis=1, keepdims=True)
    v_given_s2 = rng.random((2, 2)) + 0.2
    v_given_s2 /= v_given_s2.sum(axis=1, keepdims=True)
    if point_mass_v:
        v_given_s2 = np.array([[1.0, 0.0], [1.0, 0.0]])
    u_given_s1v = rng.random((2, 2, 2)) + 0.2
    u_given_s1v /= u_given_s1v.sum(axis=2, keepdims=True)
    x_given_us1v = rng.random((2, 2, 2, 2)) + 0.2
    x_given_us1v /= x_given_us1v.sum(axis=3, keepdims=True)
    y_given_xs1s2 = rng.random((2, 2, 2, 2)) + 0.2
    y_given_xs1s2 /= y_given_xs1s2.sum(axis=3, keepdims=True)
    j = np.zeros((2, 2, 2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            for v in range(2):
                for u in range(2):
                    for x in range(2):
                        for y in range(2):
                            j[a, b, v, u, x, y] = (
                                s1[a] * s2_given_s1[a, b] * v_given_s2[b, v]
                                * u_given_s1v[a, v, u] * x_given_us1v[u, a, v, x]
                                * y_given_xs1s2[x, a, b, y]
                            )
    axes = tuple(Alphabet(2, n) for n in ("S1", "S2", "V", "U", "X", "Y"))
    return JointPmf(axes, j)


class TestChannelEvaluator:
    def test_point_mass_auxiliary_gives_two_sided_form(self):
        rng = np.random.default_rng(41)
        joint = channel_joint_from_factors(rng, point_mass_v=True)
        res = eval_cc("2lb", joint)
        assert res.r_prime_required == pytest.approx(0.0, abs=1e-10)
        # upper- and lower-bound variants agree exactly on the same joint
        assert eval_cc("2ub1", joint).objective == res.objective
        assert eval_cc("2ub2", joint).objective == res.objective

    def test_independent_message_variable_scores_zero(self):
        rng = np.random.default_rng(42)
        base = degenerate_axis_joint(rng, (2, 2, 2, 2, 2))
        joint = np.einsum("abvxy,u->abvuxy", base, np.array([0.5, 0.5]))
        axes = tuple(Alphabet(2, n) for n in ("S1", "S2", "V", "U", "X", "Y"))
        res = eval_cc("2lb", JointPmf(axes, joint))
        assert res.objective == pytest.approx(0.0, abs=1e-10)

    def test_markov_violations_on_factorized_joint(self):
        rng = np.random.default_rng(43)
        joint = channel_joint_from_factors(rng)
        res = eval_cc("2lb", joint)
        # the random factorization uses p(v|s2): the first chain holds; the
        # second, p(u|s1,v), holds as well
        for name, violation in res.markov_violations:
            assert violation < 1e-10, name

    def test_kernel_mismatch_reports_a_known_perturbation(self):
        rng = np.random.default_rng(45)
        base = channel_joint_from_factors(rng)
        probs = base.probs.copy()
        probs[1, :, :, :, 0, :] = 0.0  # no mass at (x, s1) = (0, 1)
        joint = JointPmf(base.axes, probs / probs.sum())
        p = np.moveaxis(joint.probs.sum(axis=(2, 3)), 2, 0)  # (X, S1, S2, Y)
        mass = p.sum(axis=3, keepdims=True)
        kern = np.where(mass > 0, p / np.where(mass > 0, mass, 1.0), 0.5)
        kern[1, 0, 1] += [0.03, -0.03]  # a cell with mass
        kern[0, 1, 0] += [0.3, -0.3]  # a cell without mass is not compared
        x, y, s1, s2 = (Alphabet(2, n) for n in ("X", "Y", "S1", "S2"))
        ch = ChannelInstance(
            x, y, s1, s2, JointPmf((s1, s2), joint.probs.sum(axis=(2, 3, 4, 5))),
            CondKernel((x, s1, s2), (y,), kern),
        )
        res = eval_cc("2lb", joint, channel=ch)
        assert res.extras["kernel_max_abs_diff"] == pytest.approx(0.03, abs=1e-12)

    def test_case_axis_count_enforced(self):
        with pytest.raises(ProbabilityError):
            eval_cc("2lb", JointPmf.uniform(tuple(Alphabet(2, "A") for _ in range(5))))

    def test_unknown_case(self):
        rng = np.random.default_rng(44)
        with pytest.raises(ValueError):
            eval_cc("3", channel_joint_from_factors(rng))


class TestSourceEvaluator:
    def source_joint(self, rng, xhat_copies_x=False):
        base = degenerate_axis_joint(rng, (2, 2, 2, 2, 2))  # (X, S1, S2, V, U)
        if xhat_copies_x:
            j = np.zeros((2, 2, 2, 2, 2, 2))
            for x in range(2):
                j[x, :, :, :, :, x] = base[x]
        else:
            xh = rng.random((2, 2)) + 0.2
            xh /= xh.sum(axis=1, keepdims=True)
            j = np.einsum("xabvu,uh->xabvuh", base, xh)
        axes = tuple(Alphabet(2, n) for n in ("X", "S1", "S2", "V", "U", "Xh"))
        return JointPmf(axes, j)

    def test_perfect_reconstruction_zero_distortion(self):
        rng = np.random.default_rng(45)
        res = eval_sc("1", self.source_joint(rng, xhat_copies_x=True), HAMMING)
        assert res.distortion == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_auxiliary_zero_rate_requirement(self):
        rng = np.random.default_rng(46)
        base = degenerate_axis_joint(rng, (2, 2, 2, 2, 2))
        j = np.einsum("xabuh,v->xabvuh", base, np.array([1.0, 0.0]))
        axes = tuple(Alphabet(2, n) for n in ("X", "S1", "S2", "V", "U", "Xh"))
        res = eval_sc("1", JointPmf(axes, j), HAMMING)
        assert res.r_prime_required == pytest.approx(0.0, abs=1e-10)

    def test_causal_variant_drops_second_term(self):
        rng = np.random.default_rng(47)
        joint = self.source_joint(rng)
        full = eval_sc("1", joint, HAMMING)
        causal = eval_sc("1c", joint, HAMMING)
        assert causal.objective >= full.objective - 1e-12


BAD_DISTORTIONS = [
    pytest.param(np.array([0.0, 1.0]), id="shape-2"),
    pytest.param(np.zeros((2, 3)), id="shape-2x3"),
    pytest.param(np.ones((1, 1)), id="shape-1x1"),
    pytest.param(np.array([[0.0, np.nan], [1.0, 0.0]]), id="nan"),
    pytest.param(np.array([[0.0, -5.0], [1.0, 0.0]]), id="negative"),
    pytest.param(np.array([[0.0, np.inf], [1.0, 0.0]]), id="inf"),
]


class TestDistortionChecks:
    """A distortion is checked as ``SourceInstance`` checks it: (|X|, |Xhat|), finite, >= 0."""

    @staticmethod
    def source_joint():
        # Xhat = X except with probability 0.2, so the Hamming distortion is 0.2
        j = np.zeros((2, 1, 1, 1, 1, 2))
        j[:, 0, 0, 0, 0, :] = 0.5 * np.array([[0.8, 0.2], [0.2, 0.8]])
        return JointPmf([Alphabet(n) for n in j.shape], j)

    @pytest.mark.parametrize("d", BAD_DISTORTIONS)
    def test_eval_sc_rejects(self, d):
        assert eval_sc("1", self.source_joint(), HAMMING).distortion == pytest.approx(0.2)
        with pytest.raises(ProbabilityError, match="distortion"):
            eval_sc("1", self.source_joint(), d)

    @pytest.mark.parametrize("d", BAD_DISTORTIONS)
    def test_eval_fact_rejects(self, d):
        j = np.full((2, 1, 1, 1, 1, 1, 2), 0.25)
        joint = JointPmf([Alphabet(n) for n in j.shape], j)
        assert eval_fact(2, joint, HAMMING).distortion == pytest.approx(0.5)
        with pytest.raises(ProbabilityError, match="distortion"):
            eval_fact(2, joint, d)


class TestFactEvaluators:
    def seven_axis_channel_joint(self, rng, v_point=True):
        # (S1, S2, V1, V2, U, X, Y) with both descriptions degenerate
        base = channel_joint_from_factors(rng, point_mass_v=v_point).probs
        j = np.einsum("abvuxy,w->abvwuxy", base, np.array([1.0, 0.0]))
        j = np.moveaxis(j, 3, 3)  # (S1,S2,V1,V2,U,X,Y) with V1=base V, V2 point
        axes = tuple(Alphabet(2, n) for n in ("S1", "S2", "V1", "V2", "U", "X", "Y"))
        return JointPmf(axes, j)

    def test_point_mass_descriptions_reduce_to_two_sided_form(self):
        rng = np.random.default_rng(48)
        joint = self.seven_axis_channel_joint(rng)
        res = eval_fact(1, joint)
        rp1, rp2 = res.r_prime_required
        assert rp1 == pytest.approx(0.0, abs=1e-10)
        assert rp2 == pytest.approx(0.0, abs=1e-10)
        # with both descriptions constant the objective collapses to the
        # six-axis evaluator with a point-mass auxiliary
        six = np.einsum("abvwuxy->abvuxy", joint.probs)
        axes6 = tuple(Alphabet(2, n) for n in ("S1", "S2", "V", "U", "X", "Y"))
        collapsed = eval_cc("2lb", JointPmf(axes6, six))
        assert res.objective == pytest.approx(collapsed.objective, abs=1e-10)

    def test_fact2_distortion_reported(self):
        rng = np.random.default_rng(49)
        base = degenerate_axis_joint(rng, (2, 2, 2, 2, 2, 2, 2))
        axes = tuple(Alphabet(2, n) for n in ("X", "S1", "S2", "V1", "V2", "U", "Xh"))
        res = eval_fact(2, JointPmf(axes, base), HAMMING)
        assert res.distortion is not None and 0.0 <= res.distortion <= 1.0
        assert len(res.r_prime_required) == 2


class TestDuality:
    CASES = [("channel", "1"), ("channel", "2"), ("channel", "2c"),
             ("source", "1"), ("source", "1c"), ("source", "2")]
    PAIRING = {
        ("channel", "1"): ("source", "2"),
        ("channel", "2"): ("source", "1"),
        ("channel", "2c"): ("source", "1c"),
    }

    def test_involution_on_all_cases(self):
        for prob, case in self.CASES:
            d0 = case_descriptor(prob, case)
            assert dualize(dualize(d0)) == d0

    def test_pairing_table(self):
        for (p, c), (dp, dc) in self.PAIRING.items():
            d = dualize(case_descriptor(p, c))
            assert (d.problem, d.case) == (dp, dc)
            back = dualize(case_descriptor(dp, dc))
            assert (back.problem, back.case) == (p, c)

    def test_direction_flips(self):
        for prob, case in self.CASES:
            d0 = case_descriptor(prob, case)
            assert {d0.direction, dualize(d0).direction} == {"max", "min"}

    def test_alphabet_roles_swap(self):
        d0 = case_descriptor("channel", "1", {"X": 2, "Y": 3, "S1": 4, "S2": 5, "V1": 6, "U": 7})
        d1 = dualize(d0)
        roles = dict(d1.alphabets)
        assert roles["Xhat"] == 2  # channel input becomes the reconstruction
        assert roles["X"] == 3     # channel output becomes the source
        assert roles["S1"] == 5 and roles["S2"] == 4
        assert roles["V2"] == 6 and roles["U"] == 7


class TestClosedForm:
    def test_values(self):
        assert example2_closed_form(0.1, 0.2) == pytest.approx(0.3310, abs=5e-5)
        assert example2_closed_form(0.5, 0.0) == 0.0
        assert example2_closed_form(0.5, 3.0) == 0.0
        assert example2_closed_form(0.0, 0.0) == 1.0

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            example2_closed_form(1.5, 0.0)
        with pytest.raises(ValueError):
            example2_closed_form(0.1, -0.1)


class TestOptimizerConsistency:
    def test_noncausal_winner_reproduced_by_evaluator(self):
        ch = example1_channel()
        opts = Case2Options(delta=1e-9)
        pt = capacity_case2_sweep(ch, [0.3], opts)[0]
        rep = inner_max(ch, pt.winning_kernel, opts)
        joint = build_case2_joint(ch, pt.winning_kernel, rep.argopt)
        res = eval_cc("2lb", joint, channel=ch)
        assert res.objective == pytest.approx(pt.raw_value, abs=1e-9)
        assert res.r_prime_required == pytest.approx(pt.winning_r_w, abs=1e-9)
        for name, violation in res.markov_violations:
            assert violation < 1e-10, name
        assert res.extras["kernel_max_abs_diff"] < 1e-12

    def test_causal_winner_reproduced_by_evaluator(self):
        ch = example1_channel()
        opts = Case2Options(delta=1e-9)
        pt = capacity_case2_sweep(ch, [0.3], opts, causal=True)[0]
        rep = causal_inner_max(ch, pt.winning_kernel, opts)
        joint = build_case2c_joint(ch, pt.winning_kernel, rep.argopt)
        res = eval_cc("2c", joint)
        assert res.objective == pytest.approx(pt.raw_value, abs=1e-9)
        for name, violation in res.markov_violations:
            assert violation < 1e-10, name

    def test_q_of_the_other_solver_is_rejected(self):
        # each builder reads q over its own encoder view and strategies:
        # (S1, V2, T) with T: S1 x V2 -> X, or (V2, T) with T: S1 -> X
        ch = example1_channel()
        w = CondKernel((ch.s2,), (Alphabet(2, "V2"),), np.full((2, 2), 0.5))
        crossed = [
            (build_case2c_joint, inner_max(ch, w).argopt, r"\(V2, T\) with shape \(2, 4\)"),
            (build_case2_joint, causal_inner_max(ch, w).argopt, r"\(S1, V2, T\) with shape \(2, 2, 16\)"),
        ]
        for build, q, layout in crossed:
            with pytest.raises(ProbabilityError, match=layout):
                build(ch, w, q)

    def test_wyner_ziv_argopt_reproduced_by_evaluator(self):
        src = example3_source()
        rep = wz_primal(src, 0.1, SolverOptions(delta=1e-9))
        joint = build_wz_joint(src, rep.argopt)
        res = eval_sc("1", joint, src.distortion)
        assert res.objective == pytest.approx(rep.extras["argopt_rate"], abs=1e-9)
        assert res.distortion == pytest.approx(rep.extras["argopt_distortion"], abs=1e-12)
        assert res.r_prime_required == pytest.approx(0.0, abs=1e-10)
