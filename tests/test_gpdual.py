import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sideinfo.gpdual
from sideinfo.ba import LN2, SolverOptions, SourceInstance, wz_primal
from sideinfo.gpdual import (
    Case1Options,
    GpInfeasibleError,
    GpProblem,
    _Barrier,
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



def random_barrier(seed, n_aff, n_groups, phase_one):
    """A strictly feasible point of a random oracle, with its groups.

    Groups have uneven sizes and may overlap. With ``phase_one`` the last
    variable is the phase-one slack s: it is in no group, and every group's
    constraint is log-sum-exp - s, as in the augmented program.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    n_grp = n - 1 if phase_one else n
    groups = [
        rng.choice(n_grp, size=int(rng.integers(1, n_grp + 1)), replace=False)
        for _ in range(n_groups)
    ]
    member = np.zeros((n_groups, n), dtype=bool)
    extra = np.zeros((n_groups, n))
    for k, g in enumerate(groups):
        member[k, g] = True
    if phase_one:
        extra[:, -1] = -1.0
    z = rng.normal(size=n)
    z[:n_grp] -= max((np.log(np.exp(z[g]).sum()) for g in groups), default=0.0)
    z[:n_grp] -= rng.uniform(0.2, 2.0)  # every log-sum-exp <= -0.2 before the slack
    if phase_one:
        z[-1] = rng.uniform(-0.1, 1.0)
    a = rng.normal(size=(n_aff, n))
    b = -(a @ z) - rng.uniform(0.1, 2.0, size=n_aff)
    return _Barrier(rng.normal(size=n), a, b, member, extra), z, groups


def per_group_oracle(barrier, t, z, groups):
    """Reference: constraint values, gradient and Hessian, one group at a time."""
    n = z.size
    f_aff = barrier.a @ z + barrier.b
    grad = -t * barrier.c + barrier.a.T @ (1.0 / -f_aff)
    hess = (barrier.a.T * f_aff**-2) @ barrier.a
    fs = []
    for k, g in enumerate(groups):
        sigma = np.exp(z[g]) / np.exp(z[g]).sum()
        f = math.log(np.exp(z[g]).sum()) + barrier.extra[k] @ z
        u = barrier.extra[k].copy()
        u[g] += sigma
        grad += u / -f
        hess += np.outer(u, u) / f**2
        hess[np.ix_(g, g)] += (np.diag(sigma) - np.outer(sigma, sigma)) / -f
        fs.append(f)
    return np.concatenate([f_aff, fs]), grad, hess


class TestBarrierOracle:
    """The array oracle against a per-group loop and against finite differences."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_aff=st.integers(0, 4),
        n_groups=st.integers(0, 5),
        phase_one=st.booleans(),
        t=st.floats(0.1, 100.0),
    )
    @example(seed=1, n_aff=0, n_groups=3, phase_one=False, t=1.0)
    @example(seed=2, n_aff=3, n_groups=0, phase_one=False, t=1.0)
    @example(seed=3, n_aff=2, n_groups=4, phase_one=True, t=20.0)
    def test_matches_per_group_reference(self, seed, n_aff, n_groups, phase_one, t):
        barrier, z, groups = random_barrier(seed, n_aff, n_groups, phase_one)
        f_ref, grad_ref, hess_ref = per_group_oracle(barrier, t, z, groups)
        assert f_ref.max(initial=-np.inf) < 0
        np.testing.assert_allclose(barrier.constraints(z), f_ref, rtol=1e-13, atol=1e-13)
        grad, hess = barrier.grad_hess(t, z)
        assert np.abs(grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
        assert np.abs(hess - hess_ref).max() <= 1e-12 * np.abs(hess_ref).max()
        # the gradient is that of ``value``: central differences
        h = 1e-6
        fd = np.array([
            (barrier.value(t, z + h * e)[0] - barrier.value(t, z - h * e)[0]) / (2 * h)
            for e in np.eye(z.size)
        ])
        assert np.abs(fd - grad).max() <= 1e-6 * max(1.0, np.abs(grad).max())

    def test_group_with_a_repeated_index_rejected(self):
        p = GpProblem(
            c=np.array([1.0, 0.0]), a_mat=np.zeros((0, 2)), b_vec=np.zeros(0),
            lse_groups=[np.array([0, 1, 0])],
        )
        with pytest.raises(ValueError, match="repeats"):
            solve_gp(p)

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

    def test_status_not_tight(self):
        rep = wz_rate_via_gp(example3_source(), 0.1, tight_tol=1e-15)
        assert rep.extras["gp_report"].certified and not rep.extras["tight"]
        assert rep.status == "not-tight"

    def test_status_uncertified(self, monkeypatch):
        solve = sideinfo.gpdual.solve_gp
        monkeypatch.setattr(
            sideinfo.gpdual, "solve_gp", lambda p: dataclasses.replace(solve(p), certified=False)
        )
        rep = wz_rate_via_gp(example3_source(), 0.1, tight_tol=1e-15)
        assert rep.status == "uncertified"
        assert wz_rate_via_gp(example3_source(), 0.1, cross_check=False).status == "uncertified"

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
