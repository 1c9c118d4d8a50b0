import math
import warnings

import numpy as np
import pytest

from sideinfo.ba import LN2, SolverOptions, SourceInstance, wz_primal
from sideinfo.gpdual import (
    Case1Options,
    GpInfeasibleError,
    GpOptions,
    GpProblem,
    build_case1_rd_gp,
    build_wz_gp,
    description_rate_case1,
    rd_case1,
    rd_case1_sweep,
    solve_gp,
    wz_rate_via_gp,
)
from sideinfo.evaluators import example2_closed_form
from sideinfo.probability import Alphabet, CondKernel, JointPmf
from sideinfo.problems import example2_source, example3_source, example4_source


class TestBarrierSolver:
    def test_single_affine_constraint(self):
        p = GpProblem(c=np.array([1.0]), a_mat=np.array([[1.0]]), b_vec=np.array([0.0]), lse_groups=[])
        rep = solve_gp(p)
        assert -1e-6 <= rep.value <= 0.0
        assert rep.certified

    def test_lse_with_free_variable(self):
        # sup of z1 subject to log(e^z1 + e^z2) <= 0 is 0, approached as z2 -> -inf
        p = GpProblem(
            c=np.array([1.0, 0.0]), a_mat=np.zeros((0, 2)), b_vec=np.zeros(0),
            lse_groups=[np.array([0, 1])],
        )
        rep = solve_gp(p)
        assert -1e-6 <= rep.value <= 0.0

    def test_three_variable_analytic_optimum(self):
        # maximize z1 + 0.5 z2 with e^z1 + e^z2 <= 1: stationarity gives
        # e^z1 = 2/3, e^z2 = 1/3; the affine row and the sign constraint stay slack
        p = GpProblem(
            c=np.array([1.0, 0.5, 0.0]),
            a_mat=np.array([[1.0, 1.0, 1.0]]), b_vec=np.array([-1.0]),
            lse_groups=[np.array([0, 1])], nonneg=np.array([2]),
        )
        rep = solve_gp(p)
        expected = math.log(2.0 / 3.0) + 0.5 * math.log(1.0 / 3.0)
        assert rep.value == pytest.approx(expected, abs=1e-4)

    def test_infeasible_detected(self):
        p = GpProblem(
            c=np.array([1.0]), a_mat=np.array([[1.0], [-1.0]]), b_vec=np.array([-1.0, 2.0]),
            lse_groups=[],
        )
        # z <= 1 and z >= 2 cannot hold
        with pytest.raises(GpInfeasibleError):
            solve_gp(p)

    def test_deterministic_reports(self):
        src = example3_source()
        a = solve_gp(build_wz_gp(src, 0.07))
        b = solve_gp(build_wz_gp(src, 0.07))
        assert a.value == b.value
        assert np.array_equal(a.z_opt, b.z_opt)
        assert a.newton_steps == b.newton_steps

    def test_stage_objectives_nondecreasing(self):
        src = example3_source()
        rep = solve_gp(build_wz_gp(src, 0.1))
        sv = rep.stage_values
        assert all(sv[i + 1] >= sv[i] - 1e-12 for i in range(len(sv) - 1))


class TestWzDual:
    def test_layout_counts(self):
        src = example3_source()
        p = build_wz_gp(src, 0.1)
        assert p.num_vars == 19  # 2 alphas + gamma + 16 ys
        assert p.a_mat.shape[0] == 8  # one per (x, t)
        assert len(p.lse_groups) == 8  # one per (s, t)
        assert p.var_labels[:3] == ["alpha[0]", "alpha[1]", "gamma"]

    def test_start_strictly_feasible(self):
        src = example3_source()
        p = build_wz_gp(src, 0.1)
        rep = solve_gp(p)
        assert rep.slater_ok and rep.certified

    def test_zero_rate_region_value_zero(self):
        src = example3_source()
        rep = wz_rate_via_gp(src, 0.45, cross_check=False)
        assert rep.value == pytest.approx(0.0, abs=1e-5)

    def test_tight_against_primal_at_low_distortion(self):
        src = example3_source()
        rep = wz_rate_via_gp(src, 0.1)
        assert abs(rep.value - rep.extras["primal_value"]) <= 1e-3
        assert rep.extras["tight"]

    def test_zero_distortion_endpoint(self):
        src = example3_source()
        rep = wz_rate_via_gp(src, 0.0, cross_check=False)
        expected = -(0.3 * math.log2(0.3) + 0.7 * math.log2(0.7))
        assert rep.value == pytest.approx(expected, abs=1e-3)

    def test_weak_duality_along_trace(self):
        src = example3_source()
        rep = wz_rate_via_gp(src, 0.1)
        primal = rep.extras["primal_value"]
        gpr = rep.extras["gp_report"]
        assert all(obj / LN2 <= primal + 1e-6 for _t, obj in gpr.trace)


class TestCase1Dual:
    def test_degenerate_description_collapses_to_pair_source_dual(self):
        src = example4_source()
        w = CondKernel((src.s1,), (Alphabet(1, "V1"),), np.ones((2, 1)))
        p_case1 = build_case1_rd_gp(src, w, 0.1)
        from sideinfo.ba import pair_source

        p_wz = build_wz_gp(pair_source(src), 0.1)
        assert p_case1.num_vars == p_wz.num_vars
        assert p_case1.a_mat.shape == p_wz.a_mat.shape
        assert len(p_case1.lse_groups) == len(p_wz.lse_groups)
        r1, r2 = solve_gp(p_case1), solve_gp(p_wz)
        assert r1.value == pytest.approx(r2.value, abs=1e-10)

    def test_one_letter_description_builds_the_wyner_ziv_program(self):
        # X = 2 has zero mass, so the program drops its alpha and y variables
        x, xhat, s1, s2 = Alphabet(3, "X"), Alphabet(2, "Xhat"), Alphabet(1, "S1"), Alphabet(2, "S2")
        probs = np.array([[0.4, 0.1], [0.15, 0.35], [0.0, 0.0]]).reshape(3, 1, 2)
        distortion = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        src = SourceInstance(x, xhat, s1, s2, JointPmf((x, s1, s2), probs), distortion)
        w = CondKernel((s1,), (Alphabet(1, "V1"),), np.ones((1, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p_wz = build_wz_gp(src, 0.1)
            p_case1 = build_case1_rd_gp(src, w, 0.1)
        for name in ("c", "a_mat", "b_vec", "nonneg", "start"):
            assert np.array_equal(getattr(p_wz, name), getattr(p_case1, name)), name
        assert len(p_wz.lse_groups) == len(p_case1.lse_groups)
        assert all(np.array_equal(g, h) for g, h in zip(p_wz.lse_groups, p_case1.lse_groups))
        assert p_wz.bounds == p_case1.bounds
        assert p_wz.var_labels[:3] == ["alpha[0]", "alpha[1]", "gamma"]
        assert p_case1.var_labels[:3] == ["alpha[0,0,0]", "alpha[1,0,0]", "gamma"]
        assert solve_gp(p_wz).slater_ok

    def test_variable_count_binary_two_descriptions(self):
        src = example4_source()
        w = CondKernel((src.s1,), (Alphabet(2, "V1"),), np.array([[0.7, 0.3], [0.2, 0.8]]))
        p = build_case1_rd_gp(src, w, 0.1)
        assert p.num_vars == 73  # 8 alphas + gamma + 64 ys

    def test_zero_mass_cells_dropped(self):
        src = example2_source()  # the modulo-sum joint has zero cells
        w = CondKernel((src.s1,), (Alphabet(2, "V1"),), np.array([[1.0, 0.0], [0.4, 0.6]]))
        p = build_case1_rd_gp(src, w, 0.1)
        assert p.num_vars < 73
        solve_gp(p)  # still solvable

    def test_modulo_sum_degenerate_description_closed_form(self):
        src = example2_source()
        w = CondKernel((src.s1,), (Alphabet(1, "V1"),), np.ones((2, 1)))
        rep = solve_gp(build_case1_rd_gp(src, w, 0.1))
        assert rep.value / LN2 == pytest.approx(example2_closed_form(0.1, 0.0), abs=2e-2)


class TestCase1Curve:
    def test_description_rate_functional(self):
        src = example2_source()
        w = CondKernel((src.s1,), (Alphabet(2, "V1"),), np.eye(2))
        assert description_rate_case1(src, w) == pytest.approx(1.0, abs=1e-12)

    def test_modulo_sum_point_matches_closed_form(self):
        src = example2_source()
        pt = rd_case1(src, 0.1, 0.2, Case1Options())
        assert pt.status == "ok"
        assert pt.value == pytest.approx(example2_closed_form(0.1, 0.2), abs=2e-2)

    def test_high_distortion_zero(self):
        src = example2_source()
        for rp in (0.0, 0.3):
            pt = rd_case1(src, 0.5, rp, Case1Options())
            assert pt.value == pytest.approx(0.0, abs=1e-6)

    def test_zero_description_matches_pair_source_primal(self):
        src = example4_source()
        pt = rd_case1(src, 0.1, 0.0, Case1Options())
        from sideinfo.ba import pair_source

        wz = wz_primal(pair_source(src), 0.1, SolverOptions())
        assert pt.value == pytest.approx(wz.value, abs=1e-3)

    def test_sweep_monotone_post_pass(self):
        src = example2_source()
        pts = rd_case1_sweep(src, 0.1, [0.0, 0.2, 0.4], Case1Options())
        vals = [p.value for p in pts]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))
