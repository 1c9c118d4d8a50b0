import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import sideinfo.gpdual
from sideinfo.ba import LN2, SolverOptions, SourceInstance, _excess_target, wz_primal
from sideinfo.gpdual import (
    Case1Options,
    GpInfeasibleError,
    GpNumericalError,
    GpProblem,
    _Barrier,
    _newton_direction,
    build_case1_rd_gp,
    build_wz_gp,
    description_rate_case1,
    rd_case1_sweep,
    solve_gp,
    solve_gps,
    wz_rate_via_gp,
)
from sideinfo.evaluators import example2_closed_form
from sideinfo.probability import ZERO_TOL, Alphabet, CondKernel, JointPmf, simplex_grid
from sideinfo.problems import example2_source, example3_source, example4_source
from sideinfo.strategies import enumerate_strategies


# an example2 kernel w(v1|s1) that the rd-grid benchmark solves at D = 0.1
RD_GRID_KERNEL = CondKernel(
    (Alphabet(2, "S1"),), (Alphabet(2, "V1"),), np.array([[0.1, 0.9], [0.2, 0.8]])
)


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

    def test_trace_is_one_array_type(self):
        rep = solve_gp(build_wz_gp(example3_source(), 0.1))
        assert rep.trace.dtype == float and rep.trace.shape == (rep.newton_steps, 2)
        assert rep.stage_values.dtype == float and rep.stage_values.shape == (rep.barrier_iters,)
        assert GpNumericalError("failed").trace.shape == (0, 2)
        assert np.array_equal(GpNumericalError("failed", [(1.0, 2.0)]).trace, [[1.0, 2.0]])


class TestBarrierPath:
    """The Newton path pinned step for step, and what each step costs."""

    @pytest.mark.parametrize(
        "build, steps, stages, value",
        [
            (lambda: build_wz_gp(example3_source(), 0.0), 865, 9, 0.6108642979873247),
            (lambda: build_case1_rd_gp(example2_source(), RD_GRID_KERNEL, 0.1),
             84, 10, 0.3580978177335743),
            (lambda: dataclasses.replace(
                build_case1_rd_gp(example2_source(), RD_GRID_KERNEL, 0.1), start=None),
             136, 10, 0.35809781773357435),
        ],
        ids=["wz-example3-D0", "rd-grid-kernel", "phase-one"],
    )
    def test_pinned_path(self, build, steps, stages, value):
        rep = solve_gp(build())
        assert (rep.newton_steps, rep.barrier_iters) == (steps, stages)
        assert abs(rep.value - value) <= 1e-14

    @pytest.mark.parametrize("d, uncentered", [(0.0, 4), (0.15, 0)])
    def test_stages_uncentered(self, d, uncentered):
        # at D = 0 stages 6-9 each end at the step cap, still certified
        rep = solve_gp(build_wz_gp(example3_source(), d))
        assert rep.stages_uncentered == uncentered
        assert rep.certified

    def test_one_log_sum_exp_per_trial_point(self, monkeypatch):
        value, lse = _Barrier.value, _Barrier._lse
        evaluated = [0]  # members the log-sum-exp covered, over all calls
        rounds = []  # per value call: (members passing affine rows, members each _lse call covered)
        inside = []

        def counted_lse(self, z, sel=None):
            evaluated[0] += len(z)
            if inside:
                inside[-1].append(len(z))
            return lse(self, z, sel)

        def counted_value(self, t, z, sel=None):
            a, b = (self.a, self.b) if sel is None else (self.a[sel], self.b[sel])
            passing = int((np.matvec(a, z) + b < 0).all(axis=1).sum())
            inside.append([])
            out = value(self, t, z, sel)
            rounds.append((passing, inside.pop()))
            return out

        programs, reports, solve_gps = [], [], sideinfo.gpdual.solve_gps

        def recorded(ps):
            ps = list(ps)
            programs.extend(ps)
            reports.extend(solve_gps(ps))
            return reports[-len(ps):]

        monkeypatch.setattr(_Barrier, "_lse", counted_lse)
        monkeypatch.setattr(_Barrier, "value", counted_value)
        monkeypatch.setattr(sideinfo.gpdual, "solve_gps", recorded)
        # the rd-grid benchmark's curve: 47 programs, solved in stacks
        rd_case1_sweep(example2_source(), 0.1, [0.0, 0.1, 0.2, 0.3], Case1Options(grid_step=0.1))
        assert len(programs) == 47
        # each line-search round is one value call: one _lse call, on exactly the
        # members whose trial passes its affine rows, or none when no trial does
        assert all(calls == ([passing] if passing else []) for passing, calls in rounds)
        assert max(passing for passing, _ in rounds) >= 3  # stacks of at least 3 members
        assert evaluated[0] <= 1.25 * sum(rep.newton_steps for rep in reports)
        # and each program alone, a stack of one
        for p in list(programs):
            evaluated[0] = 0
            rep = solve_gp(p)
            assert evaluated[0] <= 1.25 * rep.newton_steps


REPORT_FIELDS = ("value", "z_opt", "newton_steps", "barrier_iters", "stages_uncentered", "trace",
                 "stage_values", "gap_bound", "certified", "slater_ok")


def case1_program(make_source, rows, d, phase_one):
    """The case-1 dual of example source ``make_source`` for the kernel w(v1|s1) = ``rows`` at D,
    posed as the sweep poses it; with ``phase_one`` it has no start."""
    src = make_source()
    w = CondKernel((src.s1,), (Alphabet(2, "V1"),), np.array(rows, dtype=float))
    p = build_case1_rd_gp(src, w, _excess_target(src, d)[2])
    return dataclasses.replace(p, start=None) if phase_one else p


def kernel_rows(a, b):
    return [[a / 10, 1 - a / 10], [b / 10, 1 - b / 10]]


# example2's three zero-rate kernels at D = 0.1 whose line searches backtrack
# about 36 times per Newton step, each with partners of its shape (the same
# zero cells); the numbers are tenths of w(0|s1) for s1 = 0, 1
HEAVY_STACKS = [
    [(1, 9), (2, 7), (3, 8), (4, 6)],
    [(2, 10), (3, 10), (6, 10), (9, 10)],
    [(0, 9), (0, 8), (0, 3), (0, 6)],
]


class TestStackedSolve:
    """A stack of programs of one shape, solved as one barrier run, is each of them solved alone."""

    @staticmethod
    def solve_both(programs):
        sizes = []
        newton_stages = sideinfo.gpdual._newton_stages
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sideinfo.gpdual, "_newton_stages",
                       lambda bar, z, **kw: sizes.append(len(z)) or newton_stages(bar, z, **kw))
            stacked = solve_gps(programs)
        for p, got in zip(programs, stacked, strict=True):
            want = solve_gp(p)
            for name in REPORT_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
        return stacked, sizes

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(
        make_source=st.sampled_from([example2_source, example4_source]),
        d=st.sampled_from([0.0, 0.05, 0.1, 0.3]),
        kernels=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9), st.booleans()),
                         min_size=3, max_size=5),
    )
    @example(make_source=example2_source, d=0.1,
             kernels=[(1, 2, False), (2, 1, True), (3, 3, False), (9, 1, True)])
    def test_stack_equals_each_member_alone(self, make_source, d, kernels):
        programs = [case1_program(make_source, kernel_rows(a, b), d, p1) for a, b, p1 in kernels]
        _, sizes = self.solve_both(programs)
        # kernels with no zero cell share one shape: one main run of them all
        assert len(programs) in sizes

    @pytest.mark.parametrize("stack", HEAVY_STACKS, ids=["full", "zero-at-1-1", "zero-at-0-0"])
    def test_backtracking_heavy_members(self, stack):
        programs = [case1_program(example2_source, kernel_rows(a, b), 0.1, False) for a, b in stack]
        programs.append(case1_program(example2_source, kernel_rows(*stack[1]), 0.1, True))
        stacked, sizes = self.solve_both(programs)
        assert len(programs) in sizes
        steps = [rep.newton_steps for rep in stacked]
        assert max(steps) > 250 and min(steps) < 150  # members leave the stack far apart

    def test_singular_member_takes_its_own_least_squares_step(self):
        # diag(-1e-12, 1) plus its ridge 1e-12 is exactly singular: the stacked
        # solve fails, and only that member falls back to least squares
        rng = np.random.default_rng(7)
        spd = [m @ m.T + np.eye(2) for m in rng.normal(size=(2, 2, 2))]
        hess = np.array([spd[0], np.diag([-1e-12, 1.0]), spd[1]])
        grad = rng.normal(size=(3, 2))
        eye = np.eye(2)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(hess + 1e-12 * eye, -grad[..., None])
        stacked = _newton_direction(hess.copy(), grad, eye, np.empty_like(hess))
        for i in range(3):
            one = slice(i, i + 1)
            alone = _newton_direction(hess[one].copy(), grad[one], eye, np.empty((1, 2, 2)))
            assert np.array_equal(stacked[i], alone[0])
        assert np.array_equal(
            stacked[1], np.linalg.lstsq(hess[1] + 1e-8 * eye, -grad[1], rcond=None)[0]
        )
        ridge = 1e-12 * max(1.0, float(np.trace(hess[0])) / 2)
        assert np.array_equal(stacked[0], np.linalg.solve(hess[0] + ridge * eye, -grad[0]))


class TestValidate:
    """A malformed program is rejected with ValueError before any solving."""

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("bounds", [(2, 1.0)], "bound index"),
            ("bounds", [(-1, 1.0)], "bound index"),
            ("bounds", [(0.0, 1.0)], "bound index"),
            ("bounds", [(0, math.nan)], "not finite"),
            ("bounds", [(0, math.inf)], "not finite"),
            ("nonneg", np.array([0.0]), "integer array"),
            ("nonneg", [0], "integer array"),
            ("start", np.zeros(3), "start has shape"),
            ("start", np.zeros((2, 1)), "start has shape"),
        ],
        ids=[
            "bound-index-out-of-range", "bound-index-negative", "bound-index-not-integer",
            "bound-nan", "bound-inf", "nonneg-float", "nonneg-list", "start-long",
            "start-column",
        ],
    )
    def test_rejected_before_solving(self, field, value, match):
        p = GpProblem(
            c=np.array([1.0, 0.0]), a_mat=np.array([[1.0, 1.0]]), b_vec=np.array([-1.0]),
            lse_groups=[], **{field: value},
        )
        with pytest.raises(ValueError, match=match):
            solve_gp(p)



def random_barrier(seed, n_aff, n_groups, phase_one, n_b=3):
    """A stack of ``n_b`` random oracles of one shape, a strictly feasible point of each, their groups.

    Groups have uneven sizes and may overlap. With ``phase_one`` the last
    variable is the phase-one slack s: it is in no group, and every group's
    constraint is log-sum-exp - s, as in the augmented program.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    n_grp = n - 1 if phase_one else n
    extra = None
    if phase_one:
        extra = np.zeros((n_groups, n))
        extra[:, -1] = -1.0
    c, a, b, member, z, groups = [], [], [], [], [], []
    for _ in range(n_b):
        grp = [
            rng.choice(n_grp, size=int(rng.integers(1, n_grp + 1)), replace=False)
            for _ in range(n_groups)
        ]
        mem = np.zeros((n_groups, n), dtype=bool)
        for k, g in enumerate(grp):
            mem[k, g] = True
        zi = rng.normal(size=n)
        zi[:n_grp] -= max((np.log(np.exp(zi[g]).sum()) for g in grp), default=0.0)
        zi[:n_grp] -= rng.uniform(0.2, 2.0)  # every log-sum-exp <= -0.2 before the slack
        if phase_one:
            zi[-1] = rng.uniform(-0.1, 1.0)
        ai = rng.normal(size=(n_aff, n))
        b.append(-(ai @ zi) - rng.uniform(0.1, 2.0, size=n_aff))
        c.append(rng.normal(size=n))
        a.append(ai)
        member.append(mem)
        z.append(zi)
        groups.append(grp)
    stacked = (np.array(c), np.array(a).reshape(n_b, n_aff, n), np.array(b).reshape(n_b, n_aff),
               np.array(member).reshape(n_b, n_groups, n))
    return _Barrier(*stacked, extra), np.array(z), groups


def per_group_oracle(barrier, i, t, z, groups):
    """Reference for member i: constraint values, gradient and Hessian, one group at a time."""
    a, b, c = barrier.a[i], barrier.b[i], barrier.c[i]
    extra = np.zeros((len(groups), z.size)) if barrier.extra is None else barrier.extra
    f_aff = a @ z + b
    grad = -t * c + a.T @ (1.0 / -f_aff)
    hess = (a.T * f_aff**-2) @ a
    fs = []
    for k, g in enumerate(groups):
        sigma = np.exp(z[g]) / np.exp(z[g]).sum()
        f = math.log(np.exp(z[g]).sum()) + extra[k] @ z
        u = extra[k].copy()
        u[g] += sigma
        grad += u / -f
        hess += np.outer(u, u) / f**2
        hess[np.ix_(g, g)] += (np.diag(sigma) - np.outer(sigma, sigma)) / -f
        fs.append(f)
    return np.concatenate([f_aff, fs]), grad, hess


class TestBarrierOracle:
    """The stacked oracle against a per-group loop on each member and against finite differences."""

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
        ts = t * np.array([1.0, 2.0, 0.5])  # each member its own t
        f_all = barrier.constraints(z)
        grad, hess = barrier.grad_hess(ts, z, *barrier.value(ts, z)[1:3])
        h = 1e-6
        fd = np.array([
            (barrier.value(ts, z + h * e)[0] - barrier.value(ts, z - h * e)[0]) / (2 * h)
            for e in np.eye(z.shape[1])
        ]).T
        for i in range(len(z)):
            f_ref, grad_ref, hess_ref = per_group_oracle(barrier, i, ts[i], z[i], groups[i])
            assert f_ref.max(initial=-np.inf) < 0
            np.testing.assert_allclose(f_all[i], f_ref, rtol=1e-13, atol=1e-13)
            assert np.abs(grad[i] - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
            assert np.abs(hess[i] - hess_ref).max() <= 1e-12 * np.abs(hess_ref).max()
            # the gradient is that of ``value``: central differences
            assert np.abs(fd[i] - grad[i]).max() <= 1e-6 * max(1.0, np.abs(grad[i]).max())

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_aff=st.integers(0, 4),
        n_groups=st.integers(0, 5),
        phase_one=st.booleans(),
        t=st.floats(0.1, 100.0),
    )
    @example(seed=3, n_aff=2, n_groups=4, phase_one=True, t=20.0)
    def test_cached_trial_oracle_equals_recomputed(self, seed, n_aff, n_groups, phase_one, t):
        # the (f, sigma) a line-search trial returns, fed to grad_hess at the
        # accepted point, is exactly what recomputing them from z gives
        barrier, z, _ = random_barrier(seed, n_aff, n_groups, phase_one)
        ts = np.full(len(z), t)
        val, f, sigma = barrier.value(ts, z)[:3]
        grad, hess = barrier.grad_hess(ts, z, f, sigma)
        dz = np.linalg.solve(hess + 1e-12 * np.eye(z.shape[1]), -grad[..., None])[..., 0]
        for alpha in 0.5 ** np.arange(60):
            cand = z + alpha * dz
            trial = barrier.value(ts, cand)
            if (trial[0] < val).all():
                break
        assert (trial[0] < val).all()
        grad_f, hess_f = barrier.grad_hess(ts, cand, barrier.constraints(cand), barrier._lse(cand)[1])
        fresh = grad_f, hess_f.copy()  # the Hessians are the oracle's buffer
        for got, want in zip(barrier.grad_hess(ts, cand, *trial[1:3]), fresh):
            assert np.array_equal(got, want)

    def test_affine_violation_costs_no_log_sum_exp(self, monkeypatch):
        barrier, z, _ = random_barrier(3, 2, 4, False)
        lse, covered = barrier._lse, []
        monkeypatch.setattr(barrier, "_lse", lambda z, sel=None: covered.append(len(z)) or lse(z, sel))
        # push member 1 along its first affine row until the row is violated
        row = barrier.a[1, 0]
        bad = z.copy()
        bad[1] += (1.0 - (row @ z[1] + barrier.b[1, 0])) / (row @ row) * row
        val = barrier.value(np.ones(3), bad)[0]
        assert covered == [2] and np.isinf(val[1]) and np.isfinite(val[[0, 2]]).all()
        covered.clear()
        assert np.isinf(barrier.value(np.ones(1), bad[1:2], np.array([1]))[0]).all()
        assert covered == []

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
        w = CondKernel((src.s1,), (Alphabet(1, "V1"),), np.ones((1, 1)))
        assert p.var_labels == build_case1_rd_gp(src, w, 0.1).var_labels

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

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), frac=st.floats(0.05, 0.95))
    def test_primal_and_dual_agree_within_their_gaps(self, seed, frac):
        # a random source p(x, s2) on 2 x 2 letters with 2 reconstructions and
        # a random distortion where xhat = x is the best answer to x, at a
        # target between the distortion floor and the distortion of the best
        # strategy s2 -> xhat
        rng = np.random.default_rng(seed)
        p_xs = rng.random((2, 2)) + 0.02
        p_xs /= p_xs.sum()
        d = np.sort(2.0 * rng.random((2, 2)), axis=1)
        d[1] = d[1, ::-1]
        x, s1, s2 = Alphabet(2, "X"), Alphabet(1, "S1"), Alphabet(2, "S2")
        src = SourceInstance(x, x, s1, s2, JointPmf((x, s1, s2), p_xs.reshape(2, 1, 2)), d)
        floor = p_xs.sum(axis=1) @ d.min(axis=1)
        zero_rate = (p_xs.T @ d).min(axis=1).sum()
        target = floor + frac * (zero_rate - floor)
        primal = wz_primal(src, target)
        dual = wz_rate_via_gp(src, target, cross_check=False)
        assert dual.status == "ok"
        assert abs(primal.value - dual.value) <= primal.gap + dual.gap + 1e-12
        if primal.status == "ok":
            assert primal.gap <= SolverOptions().delta

    def test_program_is_posed_in_excess_distortion(self):
        # every answer to x = 0 costs 1000 more and every answer to x = 1 500
        # more, so with D raised by the mean 750 the rate is unchanged
        src = example3_source()
        shifted = dataclasses.replace(
            src, distortion=0.01 * src.distortion + np.array([[1000.0], [500.0]])
        )
        rep = wz_rate_via_gp(shifted, 750.0005, cross_check=False)
        plain = wz_rate_via_gp(src, 0.05, cross_check=False)
        assert rep.status == plain.status == "ok"
        assert abs(rep.value - plain.value) <= rep.gap + plain.gap + 1e-9

    def test_below_the_floor_the_program_is_posed_at_the_floor(self):
        # d = Hamming + 0.5 has floor 0.5: D = 0.25 is met by no test channel,
        # and the dual, as the primal, answers for D = 0.5
        src = example3_source()
        shifted = dataclasses.replace(src, distortion=src.distortion + 0.5)
        rep = wz_rate_via_gp(shifted, 0.25, cross_check=False)
        at_floor = wz_rate_via_gp(shifted, 0.5, cross_check=False)
        primal = wz_primal(shifted, 0.25)
        assert rep.status == primal.status == "distortion-floor"
        assert at_floor.status == "ok" and rep.value == at_floor.value
        # the floor is the dual's D = 0 in excess units, where its value is
        # 5.9e-9 bits under the primal's (the wz-sweep workload's 1e-6)
        assert abs(rep.value - primal.value) <= 1e-6
        assert rep.value <= 1.0  # H(X)
        checked = wz_rate_via_gp(shifted, 0.25)
        assert checked.status == "distortion-floor" and checked.extras["tight"]

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_primal_and_dual_pose_the_floor_alike(self, seed):
        # a random source whose distortion has per-letter offsets: a hair below
        # its floor sum p(x) * least(x), at it and a hair above, the primal and
        # the dual give D the same status (each dual at the floor takes about
        # 1,000 Newton steps, so the alphabets stay small)
        rng = np.random.default_rng(seed)
        n_x, n_s1, n_xhat = rng.integers(2, 4), rng.integers(1, 3), 2
        x, xhat = Alphabet(n_x, "X"), Alphabet(n_xhat, "Xhat")
        s1, s2 = Alphabet(n_s1, "S1"), Alphabet(2, "S2")
        p = rng.random((n_x, n_s1, 2)) + 0.05
        d = rng.random((n_x, n_xhat)) + rng.uniform(0.5, 5.0, (n_x, 1))
        src = SourceInstance(x, xhat, s1, s2, JointPmf((x, s1, s2), p / p.sum()), d)
        floor = float(src.joint.probs.sum(axis=(1, 2)) @ d.min(axis=1))
        for target, status in ((floor - 1e-9, "distortion-floor"), (floor, "ok"), (floor + 1e-9, "ok")):
            primal = wz_primal(src, target)
            dual = wz_rate_via_gp(src, target, cross_check=False)
            assert primal.status == dual.status == status

    def test_below_a_floor_of_zero_rate_the_primal_runs_no_probe(self):
        # answer 0 is least for every x, so the floor's rate is exactly 0
        x, xhat, s1, s2 = Alphabet(2, "X"), Alphabet(3, "Xhat"), Alphabet(2, "S1"), Alphabet(2, "S2")
        p = np.random.default_rng(3).random((2, 2, 2)) + 0.05
        d = np.array([[0.5, 0.9, 1.2], [0.3, 0.8, 0.6]])
        src = SourceInstance(x, xhat, s1, s2, JointPmf((x, s1, s2), p / p.sum()), d)
        floor = float(src.joint.probs.sum(axis=(1, 2)) @ d.min(axis=1))
        primal = wz_primal(src, floor - 0.1)
        assert (primal.value, primal.gap, primal.iterations) == (0.0, 0.0, 0)
        assert primal.extras["probes"] == 0 and primal.status == "distortion-floor"
        dual = wz_rate_via_gp(src, floor - 0.1)
        assert dual.status == "distortion-floor" and dual.extras["tight"]
        assert dual.value <= dual.gap + 1e-9

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
        p_wz = build_wz_gp(src, 0.1)
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
        assert p_wz.var_labels == p_case1.var_labels
        assert solve_gp(p_wz).slater_ok

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1), n_v1=st.integers(2, 3), dead=st.booleans(),
        frac=st.floats(0.05, 0.95),
    )
    def test_relabeled_description_shares_rate_and_program_value(self, seed, n_v1, dead, frac):
        # a random source p(x, s1, s2) on binary letters with xhat = x free of
        # distortion, and a kernel w(v1|s1) against its columns permuted
        rng = np.random.default_rng(seed)
        x, s1, s2 = Alphabet(2, "X"), Alphabet(2, "S1"), Alphabet(2, "S2")
        p = rng.random((2, 2, 2)) + 0.02
        d = rng.random((2, 2)) + 0.1
        np.fill_diagonal(d, 0.0)
        src = SourceInstance(x, x, s1, s2, JointPmf((x, s1, s2), p / p.sum()), d)
        wp = rng.random((2, n_v1)) + 0.05
        if dead:
            wp[:, 0] = 0.0  # a v1 without mass
        wp /= wp.sum(axis=1, keepdims=True)
        v1 = Alphabet(n_v1, "V1")
        w = CondKernel((s1,), (v1,), wp)
        relabeled = CondKernel((s1,), (v1,), wp[:, rng.permutation(n_v1)])
        assert abs(description_rate_case1(src, w) - description_rate_case1(src, relabeled)) <= 1e-12
        target = frac * d.max()
        a, b = (solve_gp(build_case1_rd_gp(src, k, target)) for k in (w, relabeled))
        assert a.certified and b.certified
        assert abs(a.value - b.value) <= a.gap_bound + b.gap_bound + 1e-12

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


def parse_label(label):
    """(name, cell) of a variable label such as ``y[0,1,1,0,3]``."""
    name, _, cell = label.partition("[")
    return name, tuple(int(v) for v in cell.rstrip("]").split(",")) if cell else ()


class TestDualRows:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_v1=st.integers(1, 3))
    def test_rows_and_groups_follow_their_definition(self, seed, n_v1):
        # a random source and description kernel, each with zero cells
        rng = np.random.default_rng(seed)
        n_x, n_s1, n_s2, n_xhat = rng.integers(2, 4), rng.integers(1, 3), rng.integers(2, 4), 2
        p = rng.random((n_x, n_s1, n_s2)) * (rng.random((n_x, n_s1, n_s2)) > 0.3)
        p[0, 0, 0] += 0.1
        wp = rng.random((n_s1, n_v1)) * (rng.random((n_s1, n_v1)) > 0.3)
        wp[:, 0] += 0.05
        wp /= wp.sum(axis=1, keepdims=True)
        d = rng.random((n_x, n_xhat)) * (rng.random((n_x, n_xhat)) > 0.3)
        x, xhat = Alphabet(n_x, "X"), Alphabet(n_xhat, "Xhat")
        s1, s2 = Alphabet(n_s1, "S1"), Alphabet(n_s2, "S2")
        src = SourceInstance(x, xhat, s1, s2, JointPmf((x, s1, s2), p / p.sum()), d)
        prog = build_case1_rd_gp(src, CondKernel((s1,), (Alphabet(n_v1, "V1"),), wp), 0.2)

        p4 = src.joint.probs[..., None] * wp[None, :, None, :]
        live = p4 > ZERO_TOL
        cond = p4.sum(axis=3) / np.maximum(p4.sum(axis=(2, 3)), ZERO_TOL)[:, :, None]  # p(s2|x,s1)
        p_s2v1 = p4.sum(axis=(0, 1))
        tables = enumerate_strategies((s2,), xhat).tables
        labels = [parse_label(lab) for lab in prog.var_labels]
        gamma = prog.var_labels.index("gamma")
        # the program sees each x's excess over its least distortion, and D less its mean
        excess = d - d.min(axis=1, keepdims=True)
        assert abs(prog.c[gamma] + 0.2 - p4.sum(axis=(1, 2, 3)) @ d.min(axis=1)) <= 1e-12
        ys = {cell: i for i, (name, cell) in enumerate(labels) if name == "y"}
        alphas = {cell for name, cell in labels if name == "alpha"}
        assert set(ys) == {(*c, t) for c in np.argwhere(live).tolist() for t in range(len(tables))}
        assert alphas == {tuple(c) for c in np.argwhere(live.any(axis=2)).tolist()}
        rows = set()
        for row, b in zip(prog.a_mat, prog.b_vec):
            [a] = [i for i in np.flatnonzero(row) if labels[i][0] == "alpha"]
            assert row[a] == 1.0
            xx, ss1, vv1 = labels[a][1]
            in_row = sorted(labels[i][1] for i in np.flatnonzero(row) if labels[i][0] == "y")
            t = in_row[0][4]
            rows.add((xx, ss1, vv1, t))
            kept = [ss2 for ss2 in range(n_s2) if live[xx, ss1, ss2, vv1]]
            assert in_row == [(xx, ss1, ss2, vv1, t) for ss2 in kept]
            w = {ss2: cond[xx, ss1, ss2] for ss2 in kept}
            for ss2 in kept:
                assert abs(row[ys[xx, ss1, ss2, vv1, t]] + w[ss2]) <= 1e-12
            assert abs(row[gamma] + sum(w[ss2] * excess[xx, tables[t, ss2]] for ss2 in kept)) <= 1e-12
            log_post = {ss2: math.log(p4[xx, ss1, ss2, vv1] / p_s2v1[ss2, vv1]) for ss2 in kept}
            assert abs(b - sum(w[ss2] * log_post[ss2] for ss2 in kept)) <= 1e-12
        assert len(rows) == prog.a_mat.shape[0] == len(alphas) * len(tables)
        # each group is exactly the y variables of one (s2, v1, t), and each such set is a group
        groups = [sorted(g.tolist()) for g in prog.lse_groups]
        by_key = {}
        for cell, i in ys.items():
            by_key.setdefault(cell[2:], []).append(i)
        assert sorted(groups) == sorted(sorted(g) for g in by_key.values())


class TestNearZeroCells:
    """A cell of mass <= ZERO_TOL is absent from the program, and so are its row terms."""

    def test_case1_program_with_a_1e14_cell(self, cell_source):
        # w(0|0) = 0.05 puts 5e-16 on the cell, while p(s2=1|x=0,s1=0) = 4e-14
        w = CondKernel((Alphabet(2, "S1"),), (Alphabet(2, "V1"),), np.array([[0.05, 0.95], [0.5, 0.5]]))
        tiny, zero = (solve_gp(build_case1_rd_gp(cell_source("rd", m), w, 0.1))
                      for m in (1e-14, 0.0))
        assert tiny.certified and zero.certified
        assert abs(tiny.value - zero.value) <= tiny.gap_bound + zero.gap_bound + 1e-9

    def test_rd_case1_with_a_1e14_cell(self, cell_source):
        opts = Case1Options(grid_step=0.05)
        tiny, zero = (rd_case1_sweep(cell_source("rd", m), 0.1, [0.2], opts)[0] for m in (1e-14, 0.0))
        assert tiny.status == zero.status == "ok"
        assert abs(tiny.value - zero.value) <= tiny.gap + zero.gap + 1e-9

    def test_wz_program_with_a_1e16_cell(self, cell_source):
        # p(s2=1|x=0) = 2e-15 > ZERO_TOL, but the cell's mass is 1e-16
        tiny, zero = (solve_gp(build_wz_gp(cell_source("wz", m), 0.005)) for m in (1e-16, 0.0))
        assert tiny.certified and zero.certified
        assert abs(tiny.value - zero.value) <= tiny.gap_bound + zero.gap_bound + 1e-9


class TestWeakDualityOnRandomCase1Programs:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_barrier_iterate_is_below_the_primal(self, seed):
        # a random source p(x, s1, s2) on binary letters with xhat = x free of
        # distortion, a one-letter description, and a target between the
        # distortion floor and the zero-rate distortion
        rng = np.random.default_rng(seed)
        x, s1, s2 = Alphabet(2, "X"), Alphabet(2, "S1"), Alphabet(2, "S2")
        p = rng.random((2, 2, 2)) + 0.02
        d = rng.random((2, 2)) + 0.1
        np.fill_diagonal(d, 0.0)
        src = SourceInstance(x, x, s1, s2, JointPmf((x, s1, s2), p / p.sum()), d)
        # the encoder letter is the pair (x, s1)
        p_es, d_e = src.joint.probs.reshape(4, 2), np.repeat(src.distortion, 2, axis=0)
        floor = p_es.sum(axis=1) @ d_e.min(axis=1)
        zero_rate = (p_es.T @ d_e).min(axis=1).sum()
        target = floor + rng.uniform(0.05, 0.95) * (zero_rate - floor)
        primal = wz_primal(src, target)
        assert primal.status == "ok"
        w = CondKernel((s1,), (Alphabet(1, "V1"),), np.ones((2, 1)))
        rep = solve_gp(build_case1_rd_gp(src, w, target))
        assert rep.certified
        assert rep.trace[:, 1].max() / LN2 <= primal.value + 1e-9


class TestCase1Curve:
    def test_description_rate_functional(self):
        src = example2_source()
        w = CondKernel((src.s1,), (Alphabet(2, "V1"),), np.eye(2))
        assert description_rate_case1(src, w) == pytest.approx(1.0, abs=1e-12)

    def test_modulo_sum_point_matches_closed_form(self):
        src = example2_source()
        pt = rd_case1_sweep(src, 0.1, [0.2], Case1Options())[0]
        assert pt.status == "ok"
        assert pt.value == pytest.approx(example2_closed_form(0.1, 0.2), abs=2e-2)

    def test_high_distortion_zero(self):
        src = example2_source()
        for rp in (0.0, 0.3):
            pt = rd_case1_sweep(src, 0.5, [rp], Case1Options())[0]
            assert pt.value == pytest.approx(0.0, abs=1e-6)

    def test_zero_description_matches_pair_source_primal(self):
        src = example4_source()
        pt = rd_case1_sweep(src, 0.1, [0.0], Case1Options())[0]
        wz = wz_primal(src, 0.1, SolverOptions())
        assert pt.value == pytest.approx(wz.value, abs=1e-3)

    def test_status_uncertified(self, monkeypatch):
        src, opts = example2_source(), Case1Options(grid_step=0.5)
        assert rd_case1_sweep(src, 0.1, [0.2], opts)[0].status == "ok"
        solve = sideinfo.gpdual.solve_gps
        monkeypatch.setattr(
            sideinfo.gpdual, "solve_gps",
            lambda ps: [dataclasses.replace(rep, certified=False) for rep in solve(ps)],
        )
        assert rd_case1_sweep(src, 0.1, [0.2], opts)[0].status == "uncertified"

    def test_curve_is_posed_in_excess_distortion(self):
        src = example2_source()
        shifted = dataclasses.replace(src, distortion=0.01 * src.distortion + 1000.0)
        (pt,) = rd_case1_sweep(shifted, 1000.001, [0.0], Case1Options())
        (plain,) = rd_case1_sweep(src, 0.1, [0.0], Case1Options())
        assert pt.status == plain.status == "ok"
        assert abs(pt.value - plain.value) <= pt.gap + plain.gap + 1e-9

    def test_r_prime_must_be_at_least_zero(self):
        for bad in (math.nan, -0.1):
            with pytest.raises(ValueError, match="r_prime must be >= 0"):
                rd_case1_sweep(example2_source(), 0.1, [bad], Case1Options())

    def test_below_the_floor_the_curve_is_posed_at_the_floor(self):
        src = example2_source()
        shifted = dataclasses.replace(src, distortion=src.distortion + 0.5)
        below = rd_case1_sweep(shifted, 0.25, [0.0, 0.3], Case1Options())
        at_floor = rd_case1_sweep(shifted, 0.5, [0.0, 0.3], Case1Options())
        assert [pt.status for pt in below] == ["distortion-floor"] * 2
        assert [pt.status for pt in at_floor] == ["ok"] * 2
        assert [pt.raw_value for pt in below] == [pt.raw_value for pt in at_floor]
        assert [pt.extras["d_target"] for pt in below] == [0.25, 0.25]
        assert all(pt.raw_value <= 1.0 + 1e-9 for pt in below)  # H(X)

    def test_sweep_monotone_post_pass(self):
        src = example2_source()
        pts = rd_case1_sweep(src, 0.1, [0.0, 0.2, 0.4], Case1Options())
        vals = [p.value for p in pts]
        assert all(vals[i + 1] <= vals[i] + 1e-12 for i in range(len(vals) - 1))


class TestCase1CurveIsOneSweep:
    # with epsilon 0.05 no kernel of the step-0.25 grid is admissible at
    # R' = 0.25, so that grid is halved
    R_PRIMES = [0.0, 0.14, 0.18, 0.19, 0.22, 0.25]

    @pytest.mark.parametrize("epsilon", [None, 0.05])
    def test_sweep_points_equal_one_point_calls(self, epsilon):
        src, opts = example2_source(), Case1Options(epsilon=epsilon, grid_step=0.25)
        sweep = rd_case1_sweep(src, 0.1, self.R_PRIMES, opts)
        for rp, pt in zip(self.R_PRIMES, sweep):
            alone = rd_case1_sweep(src, 0.1, [rp], opts)[0]
            assert alone.value == alone.raw_value == pt.raw_value
            for name in ("winning_w", "iterations", "gap", "status", "winning_r_w"):
                assert getattr(alone, name) == getattr(pt, name), (rp, name)
            for name in ("epsilon", "grid_step", "kernels_not_ok"):
                assert alone.extras[name] == pt.extras[name], (rp, name)
        refined = [pt.extras["grid_step"] for pt in sweep if pt.extras["grid_step"] != 0.25]
        assert refined == ([] if epsilon is None else [0.125])

    def test_sweep_equals_solving_every_admissible_kernel(self, admissible_kernels):
        src, opts, v1 = example2_source(), Case1Options(grid_step=0.25), Alphabet(2, "V1")
        sweep = rd_case1_sweep(src, 0.1, self.R_PRIMES, opts)

        def rate(w):
            return description_rate_case1(src, w)

        bands, _ = admissible_kernels(sweep, rate, src.s1.size, v1)
        kernels = simplex_grid(src.s1.size, v1, 0.25).points
        reports = {}
        for pt, band in zip(sweep, bands):
            assert pt.extras["grid_step"] == 0.25
            best = None
            for _, i in sorted(band):
                if i not in reports:
                    rep = solve_gp(build_case1_rd_gp(src, kernels[i], 0.1))
                    reports[i] = (max(rep.value / LN2, 0.0), rep.newton_steps, rep.gap_bound / LN2,
                                  "ok" if rep.certified else "uncertified")
                if best is None or reports[i][0] < reports[best][0] - 1e-9:
                    best = i
            got = (pt.winning_w, pt.raw_value, pt.iterations, pt.gap, pt.status, pt.winning_r_w)
            assert got == (best, *reports[best], rate(kernels[best]))

    def test_each_admissible_kernel_solved_once(self, monkeypatch, admissible_kernels):
        src, opts = example2_source(), Case1Options(epsilon=0.05, grid_step=0.25)
        solve = sideinfo.gpdual.solve_gps
        calls, runs = [], []

        def counted(ps):
            ps = list(ps)
            calls.extend(ps)
            runs.append(len(ps))
            return solve(ps)

        monkeypatch.setattr(sideinfo.gpdual, "solve_gps", counted)
        for _ in range(2):  # the second sweep starts from nothing again
            calls.clear()
            runs.clear()
            sweep = rd_case1_sweep(src, 0.1, self.R_PRIMES, opts)
            assert runs == [len(calls)]  # the curve's fresh orbits go to one solve call
            bands, orbit = admissible_kernels(
                sweep, lambda w: description_rate_case1(src, w), src.s1.size, Alphabet(2, "V1")
            )
            admissible = set().union(*bands)
            assert len(calls) == len({orbit[k] for k in admissible}) < len(admissible)
            assert sum(pt.extras["kernels_solved"] for pt in sweep) == len(calls)
            assert [pt.extras["kernels_admissible"] for pt in sweep] == [len(b) for b in bands]
            assert {step for b in bands for step, _ in b} == {0.25, 0.125}
