import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import sideinfo.case2
import sideinfo.gpdual
from sideinfo.ba import (
    LN2,
    ChannelInstance,
    SourceInstance,
    SolverOptions,
    _functionals,
    _log,
    _strategy_tables,
    ba_capacity,
    gp_channel_capacity,
)
from sideinfo.case2 import (
    _CAUSAL,
    _NONCAUSAL,
    Case2Options,
    _causal_rate,
    _grid_sweep,
    capacity_case2_sweep,
    causal_inner_max,
    inner_max,
    r_w,
    u_w_bound,
    _inner_tables,
    _state_v2_joint,
)
from sideinfo.probability import (
    Alphabet,
    CondKernel,
    JointPmf,
    ProbabilityError,
    ZERO_TOL,
    conditional_entropy,
    conditional_mutual_information,
    chain,
    entropy,
    marginalize,
    mutual_information,
    simplex_grid,
)
from sideinfo.cli import main
from sideinfo.gpdual import build_case1_rd_gp, description_rate_case1, rd_case1_sweep
from sideinfo.problems import example1_channel, example2_source
from sideinfo.strategies import enumerate_strategies

V2 = Alphabet(2, "V2")
C3 = Alphabet(3, "C")


def degenerate_w(ch):
    return CondKernel((ch.s2,), (V2,), np.array([[1.0, 0.0], [1.0, 0.0]]))


def copy_w(ch):
    return CondKernel((ch.s2,), (V2,), np.eye(2))


def random_case2_instance(rng):
    x, y = Alphabet(2, "X"), Alphabet(2, "Y")
    s1, s2 = Alphabet(2, "S1"), Alphabet(2, "S2")
    sj = rng.random((2, 2)) + 0.05
    sj /= sj.sum()
    kern = rng.random((2, 2, 2, 2)) + 0.05
    kern /= kern.sum(axis=3, keepdims=True)
    ch = ChannelInstance(x, y, s1, s2, JointPmf((s1, s2), sj), CondKernel((x, s1, s2), (y,), kern))
    wp = rng.random((2, 2)) + 0.05
    wp /= wp.sum(axis=1, keepdims=True)
    return ch, CondKernel((s2,), (V2,), wp)


class TestDescriptionRate:
    def test_degenerate_kernel_zero(self):
        ch = example1_channel()
        assert r_w(ch, degenerate_w(ch)) == pytest.approx(0.0, abs=1e-12)

    def test_copy_kernel_reaches_conditional_entropy(self):
        ch = example1_channel()
        assert r_w(ch, copy_w(ch)) == pytest.approx(0.7219, abs=5e-5)

    def test_noisy_description_matches_direct_functional(self):
        ch = example1_channel()
        w = CondKernel((ch.s2,), (V2,), np.array([[0.75, 0.25], [0.25, 0.75]]))
        joint = chain(ch.state_joint, w, bind=(1,))
        direct = conditional_mutual_information(joint, (2,), (1,), (0,))
        assert r_w(ch, w) == pytest.approx(direct, abs=1e-12)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(*[st.integers(2, 3)] * 3),
        dead=st.booleans(),
    )
    def test_rates_and_clamps_match_the_functionals(self, seed, sizes, dead):
        # A = S2 and B = S1 on the channel, A = S1 and B = S2 on the source; the
        # rates and each sweep's R' clamp against the JointPmf functionals
        n_a, n_b, n_v = sizes
        rng = np.random.default_rng(seed)
        x, y, v = Alphabet(2, "X"), Alphabet(2, "Y"), Alphabet(n_v, "V")
        a, b = Alphabet(n_a, "A"), Alphabet(n_b, "B")
        p_ab = rng.random((n_a, n_b))
        p_ab[rng.random(p_ab.shape) < 0.3] = 0.0  # zero-mass states
        p_ab.flat[0] += 0.1
        wp = rng.random((n_a, n_v)) + 0.05
        if dead:
            wp[:, 0] = 0.0  # a v without mass
        w = CondKernel((a,), (v,), wp / wp.sum(axis=1, keepdims=True))
        kern = rng.random((2, n_b, n_a, 2)) + 0.05
        ch = ChannelInstance(
            x, y, b, a, JointPmf((b, a), (p_ab / p_ab.sum()).T),
            CondKernel((x, b, a), (y,), kern / kern.sum(axis=3, keepdims=True)),
        )
        p_x = rng.random((2, n_a, n_b)) + 0.05
        p_xab = p_x / p_x.sum(axis=0) * p_ab / p_ab.sum()
        src = SourceInstance(x, x, a, b, JointPmf((x, a, b), p_xab), 1.0 - np.eye(2))

        channel = chain(ch.state_joint, w, bind=(1,))  # (S1, S2, V)
        source = chain(marginalize(src.joint, (1, 2)), w, bind=(0,))  # (S1, S2, V)
        assert np.abs(_state_v2_joint(ch, w) - channel.probs).max() <= 1e-15
        assert abs(r_w(ch, w) - conditional_mutual_information(channel, (2,), (1,), (0,))) <= 1e-12
        assert abs(_causal_rate(ch, w) - mutual_information(channel, (2,), (1,))) <= 1e-12
        rate = conditional_mutual_information(source, (2,), (0,), (1,))
        assert abs(description_rate_case1(src, w) - rate) <= 1e-12

        r_maxes = []
        with pytest.MonkeyPatch.context() as mp:
            for module in (sideinfo.case2, sideinfo.gpdual):
                mp.setattr(module, "_grid_sweep", lambda *args, **kw: r_maxes.append(args[5]) or [])
            capacity_case2_sweep(ch, [0.1])
            capacity_case2_sweep(ch, [0.1], causal=True)
            rd_case1_sweep(src, 0.1, [0.1])
        want = [
            conditional_entropy(ch.state_joint, (1,), (0,)),
            entropy(marginalize(ch.state_joint, (1,))),
            conditional_entropy(src.joint, (1,), (2,)),
        ]
        assert np.abs(np.subtract(r_maxes, want)).max() <= 1e-12

    def test_a_kernel_on_the_other_state_is_rejected(self):
        x, y, s1, s2 = Alphabet(2, "X"), Alphabet(2, "Y"), Alphabet(3, "S1"), Alphabet(2, "S2")
        ch = ChannelInstance(
            x, y, s1, s2, JointPmf.uniform((s1, s2)), CondKernel.uniform((x, s1, s2), (y,))
        )
        on_s1 = CondKernel.uniform((s1,), (V2,))
        for call in (r_w, _causal_rate, inner_max, causal_inner_max):
            with pytest.raises(ProbabilityError, match="must condition on S2"):
                call(ch, on_s1)
        # the source's S1 has two letters and its S2 three
        src = SourceInstance(x, x, s2, s1, JointPmf.uniform((x, s2, s1)), 1.0 - np.eye(2))
        on_s2 = CondKernel.uniform((s1,), (V2,))
        for call in (description_rate_case1, lambda src, w: build_case1_rd_gp(src, w, 0.1)):
            with pytest.raises(ProbabilityError, match="must condition on S1"):
                call(src, on_s2)

    def test_a_kernel_on_the_other_state_of_equal_size_is_rejected(self):
        # |S1| = |S2| = 2 on both builtins: the sizes agree, the alphabets do not
        ch, src = example1_channel(), example2_source()
        for call in (r_w, _causal_rate, inner_max, causal_inner_max):
            with pytest.raises(ProbabilityError, match="must condition on S2"):
                call(ch, CondKernel((ch.s1,), (V2,), np.eye(2)))
            call(ch, CondKernel((ch.s2,), (V2,), np.eye(2)))  # the state itself
            call(ch, simplex_grid(2, V2, 0.5).points[1])  # a grid kernel, given "slice"
        for call in (description_rate_case1, lambda src, w: build_case1_rd_gp(src, w, 0.1)):
            with pytest.raises(ProbabilityError, match="must condition on S1"):
                call(src, CondKernel((src.s2,), (V2,), np.eye(2)))
            call(src, CondKernel((src.s1,), (V2,), np.eye(2)))
            call(src, simplex_grid(2, V2, 0.5).points[1])


class TestRelabelingInvariance:
    """A kernel and its V2-relabeling share rates and, within their gaps, inner optima."""

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_v2=st.integers(2, 3), dead=st.booleans())
    def test_permuted_columns(self, seed, n_v2, dead):
        rng = np.random.default_rng(seed)
        ch, _ = random_case2_instance(rng)
        wp = rng.random((2, n_v2)) + 0.05
        if dead:
            wp[:, 0] = 0.0  # a v2 without mass
        wp /= wp.sum(axis=1, keepdims=True)
        v2 = Alphabet(n_v2, "V2")
        w = CondKernel((ch.s2,), (v2,), wp)
        relabeled = CondKernel((ch.s2,), (v2,), wp[:, rng.permutation(n_v2)])

        for rate in (r_w, _causal_rate):
            assert abs(rate(ch, w) - rate(ch, relabeled)) <= 1e-12
        joint = chain(ch.state_joint, w, bind=(1,))
        direct = mutual_information(joint, (2,), (1,)) - mutual_information(joint, (2,), (0,))
        assert abs(direct - r_w(ch, w)) <= 1e-12

        opts = Case2Options(delta=1e-6, max_inner_iters=100000)
        for solve in (inner_max, causal_inner_max):
            a, b = solve(ch, w, opts), solve(ch, relabeled, opts)
            assert a.status == b.status == "ok"
            assert abs(a.value - b.value) <= a.gap + b.gap + 1e-12


def inner_tail_instance(index, flips=(0, 0, 0, 0, 0)):
    """Draw ``index`` of the benchmark's inner-tail stream 1: (channel, w).

    The labels of (X, S1, S2, Y, V2) are swapped where ``flips`` is 1, as the
    benchmark relabels its draws for a seed.
    """
    base = np.random.default_rng(1)
    x, y, s1, s2, v2 = (Alphabet(2, n) for n in ("X", "Y", "S1", "S2", "V2"))
    for _ in range(index + 1):
        sj = base.random((2, 2)) + 0.05
        kern = base.random((2, 2, 2, 2)) + 0.05
        wp = base.random((2, 2)) + 0.05
    fx, fs1, fs2, fy, fv2 = (1 - 2 * f for f in flips)
    kern, sj, wp = kern[::fx, ::fs1, ::fs2, ::fy], sj[::fs1, ::fs2], wp[::fs2, ::fv2]
    ch = ChannelInstance(
        x, y, s1, s2, JointPmf((s1, s2), sj / sj.sum()),
        CondKernel((x, s1, s2), (y,), kern / kern.sum(axis=3, keepdims=True)),
    )
    return ch, CondKernel((s2,), (v2,), wp / wp.sum(axis=1, keepdims=True))


def per_state_tables(ch, strategies, p_state, enc, cell, dec):
    """(p_e, p(o|t,e)) by a loop over the states of ``p_state`` in row-major order."""

    def flat(state, axes):
        index = 0
        for i in axes:
            index = index * p_state.shape[i] + state[i]
        return index

    n_e = int(np.prod([p_state.shape[i] for i in enc]))
    n_d = int(np.prod([p_state.shape[i] for i in dec]))
    p_e = np.zeros(n_e)
    p_ote = np.zeros((len(strategies), n_e, ch.y.size * n_d))
    for state in np.ndindex(p_state.shape):
        mass = p_state[state]
        if mass <= ZERO_TOL:
            continue
        e, c, d = flat(state, enc), flat(state, cell), flat(state, dec)
        p_e[e] += mass
        x = strategies.tables[:, c]
        p_ote[:, e, np.arange(ch.y.size) * n_d + d] += mass * ch.kernel.probs[x, state[0], state[1]]
    for e in range(n_e):
        p_ote[:, e, :] = p_ote[:, e, :] / p_e[e] if p_e[e] > ZERO_TOL else 0.0
    return p_e, p_ote


class TestStrategyTables:
    """One builder for every capacity solve: a state joint and three views of it."""

    VIEWS = [(), (0,), (1,), (0, 1), (1, 0)]

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(*[st.integers(1, 3)] * 5),
        layout=st.sampled_from(["gp", "inner", "causal"]),
        enc=st.sampled_from(VIEWS),
        dec=st.sampled_from(VIEWS),
    )
    @example(seed=0, sizes=(2, 2, 2, 2, 2), layout="gp", enc=(), dec=())
    def test_tables_match_a_per_state_loop(self, seed, sizes, layout, enc, dec):
        rng = np.random.default_rng(seed)
        n_x, n_y, n_s1, n_s2, n_v2 = sizes
        x, y, s1, s2, v2 = (Alphabet(n, a) for n, a in zip(sizes, ("X", "Y", "S1", "S2", "V2")))
        sj = rng.random((n_s1, n_s2))
        sj[rng.random(sj.shape) < 0.3] = 0.0  # zero-mass states
        sj[rng.random(sj.shape) < 0.1] = 1e-16
        sj.flat[0] += 0.1
        kern = rng.random((n_x, n_s1, n_s2, n_y)) + 0.05
        kern[rng.random(kern.shape) < 0.3] = 0.0
        kern[..., 0] += 0.05
        wp = rng.random((n_s2, n_v2))
        if n_v2 > 1:
            wp[:, -1] = 0.0  # a v2 that no state reaches
        wp[:, 0] += 0.05
        ch = ChannelInstance(
            x, y, s1, s2, JointPmf((s1, s2), sj / sj.sum()),
            CondKernel((x, s1, s2), (y,), kern / kern.sum(axis=3, keepdims=True)),
        )
        w = CondKernel((s2,), (v2,), wp / wp.sum(axis=1, keepdims=True))
        if layout == "gp":
            p_state, views = ch.state_joint.probs, (enc, enc, dec)
        else:
            p_state = _state_v2_joint(ch, w)
            views = ((0, 2), (0, 2), (1, 2)) if layout == "inner" else ((2,), (0,), (1, 2))
        assume(n_x ** int(np.prod([p_state.shape[i] for i in views[1]])) <= 4096)
        strategies = enumerate_strategies([(s1, s2, v2)[i] for i in views[1]], x)
        got = [t[0] for t in _strategy_tables(ch, strategies, p_state[None], *views)]
        want = per_state_tables(ch, strategies, p_state, *views)
        assert all(np.array_equal(g, r) for g, r in zip(got, want))
        if layout == "inner":
            assert all(np.array_equal(g, r) for g, r in zip(_inner_tables(ch, w), want))


class TestStackedGrid:
    """A curve's array layer: one rate call per grid and one table call per stack, each
    instance with the bits of one call of its own."""

    @pytest.mark.parametrize("views", [_NONCAUSAL, _CAUSAL], ids=["noncausal", "causal"])
    @pytest.mark.parametrize("seed", range(8))
    def test_stacked_tables_equal_one_call_per_kernel(self, views, seed):
        rng = np.random.default_rng(seed)
        n_x, n_y, n_s1, n_s2, n_v2 = (int(n) for n in rng.integers(1, [3, 4, 4, 4, 4]))
        x, y, s1, s2, v2 = (Alphabet(n, a) for n, a in zip(
            (n_x, n_y, n_s1, n_s2, n_v2), ("X", "Y", "S1", "S2", "V2")))
        sj = rng.random((n_s1, n_s2))
        sj[rng.random(sj.shape) < 0.3] = 0.0  # zero-mass states
        sj[rng.random(sj.shape) < 0.1] = 1e-16  # below ZERO_TOL
        sj.flat[0] += 0.1
        kern = rng.random((n_x, n_s1, n_s2, n_y)) + 0.05
        kern[rng.random(kern.shape) < 0.3] = 0.0
        kern[..., 0] += 0.05
        ch = ChannelInstance(
            x, y, s1, s2, JointPmf((s1, s2), sj / sj.sum()),
            CondKernel((x, s1, s2), (y,), kern / kern.sum(axis=3, keepdims=True)),
        )
        ws = rng.random((7, n_s2, n_v2))
        ws[rng.random(ws.shape) < 0.3] = 0.0
        ws[rng.random(ws.shape) < 0.1] = 1e-15  # cells of the joint below ZERO_TOL
        ws[..., 0] += 0.05
        ws /= ws.sum(axis=2, keepdims=True)
        p_state = ch.state_joint.probs[:, :, None] * ws[:, None]  # as the sweep stacks them
        strategies = enumerate_strategies([(s1, s2, v2)[i] for i in views[1]], x)
        p_e, p_ote = _strategy_tables(ch, strategies, p_state, *views)
        for b, w in enumerate(ws):
            joint = _state_v2_joint(ch, CondKernel((s2,), (v2,), w))
            assert joint.tobytes() == p_state[b].tobytes()
            one_e, one_ote = _strategy_tables(ch, strategies, joint[None], *views)
            assert p_e[b].tobytes() == one_e[0].tobytes()
            assert p_ote[b].tobytes() == one_ote[0].tobytes()
            want = per_state_tables(ch, strategies, joint, *views)
            assert np.array_equal(p_e[b], want[0]) and np.array_equal(p_ote[b], want[1])

    @staticmethod
    def models(n_s):
        """example1 and example2 (n_s = 2), or a random channel and source on n_s-letter states."""
        if n_s == 2:
            return example1_channel(), example2_source()
        rng = np.random.default_rng(n_s)
        x, s = Alphabet(2, "X"), (Alphabet(n_s, "S1"), Alphabet(n_s, "S2"))
        sj = rng.random((n_s, n_s))
        sj[0, 1] = 0.0
        ch = ChannelInstance(x, x, *s, JointPmf(s, sj / sj.sum()), CondKernel.uniform((x, *s), (x,)))
        p = rng.random((2, n_s, n_s))
        src = SourceInstance(x, x, *s, JointPmf((x, *s), p / p.sum()), 1.0 - np.eye(2))
        return ch, src

    @pytest.mark.parametrize("n_s, k, step", [(2, 2, 0.05), (2, 3, 0.25), (3, 3, 0.5), (3, 4, 0.5)])
    def test_stacked_rates_equal_one_kernel_calls(self, n_s, k, step):
        # every orbit representative's rate, from one call on the grid of them;
        # three-letter states give entropies of more than 8 terms
        ch, src = self.models(n_s)
        grid = simplex_grid(n_s, Alphabet(k, "V"), step)
        reps = np.unique(grid.orbit)
        rep_grid = dataclasses.replace(grid, ints=grid.ints[reps])
        for rate, model in ((r_w, ch), (_causal_rate, ch), (description_rate_case1, src)):
            stacked = rate(model, rep_grid)
            assert stacked.shape == reps.shape
            assert stacked.tobytes() == np.array([rate(model, w) for w in rep_grid.points]).tobytes()

    def test_orbit_members_read_their_representatives_rate(self):
        # each orbit is rated by its representative's position, so at R' = j with
        # epsilon 0.5 exactly orbit j is admissible, and every member with it
        grid = simplex_grid(2, C3, 0.25)
        reps, sizes = np.unique(grid.orbit, return_counts=True)
        rated = []
        points = _grid_sweep(
            lambda rep_grid: rated.append(len(rep_grid)) or np.arange(len(rep_grid), dtype=float),
            lambda ws: [(0.0, 1, 0.0, "ok", {})] * len(ws), 2, C3,
            [float(j) for j in range(len(reps))], math.inf,
            Case2Options(epsilon=0.5, grid_step=0.25), maximize=True,
        )
        assert rated == [len(reps)]
        assert [pt.extras["kernels_admissible"] for pt in points] == sizes.tolist()
        assert [pt.winning_w for pt in points] == reps.tolist()
        assert [pt.winning_r_w for pt in points] == [float(j) for j in range(len(reps))]
        assert all(type(pt.winning_r_w) is float for pt in points)


class TestSolveReports:
    """gp_channel_capacity, inner_max and causal_inner_max return one report shape."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        sizes=st.tuples(st.integers(2, 3), st.integers(2, 3), *[st.integers(1, 2)] * 3),
        solve=st.sampled_from(["gp", "inner", "causal"]),
        enc=st.sampled_from(TestStrategyTables.VIEWS),
        dec=st.sampled_from(TestStrategyTables.VIEWS),
    )
    def test_certificate_rechecks_from_the_report(self, seed, sizes, solve, enc, dec):
        rng = np.random.default_rng(seed)
        n_x, n_y, n_s1, n_s2, n_v2 = sizes
        x, y, s1, s2, v2 = (Alphabet(n, a) for n, a in zip(sizes, ("X", "Y", "S1", "S2", "V2")))
        sj = rng.random((n_s1, n_s2))
        sj[rng.random(sj.shape) < 0.3] = 0.0  # zero-mass states
        sj.flat[0] += 0.1
        kern = rng.random((n_x, n_s1, n_s2, n_y)) + 0.05
        wp = rng.random((n_s2, n_v2)) + 0.05
        ch = ChannelInstance(
            x, y, s1, s2, JointPmf((s1, s2), sj / sj.sum()),
            CondKernel((x, s1, s2), (y,), kern / kern.sum(axis=3, keepdims=True)),
        )
        w = CondKernel((s2,), (v2,), wp / wp.sum(axis=1, keepdims=True))
        names = ("s1", "s2")
        if solve == "gp":
            p_state, axes, views = ch.state_joint.probs, (s1, s2), (enc, enc, dec)
        else:
            p_state, axes = _state_v2_joint(ch, w), (s1, s2, v2)
            views = ((0, 2), (0, 2), (1, 2)) if solve == "inner" else ((2,), (0,), (1, 2))

        def run(max_iters):
            if solve == "gp":
                opts = SolverOptions(delta=1e-9, max_iters=max_iters)
                return gp_channel_capacity(ch, [names[i] for i in enc], [names[i] for i in dec], opts)
            opts = Case2Options(delta=1e-9, max_inner_iters=max_iters)
            return (inner_max if solve == "inner" else causal_inner_max)(ch, w, opts)

        for max_iters in (1, 200):
            rep = run(max_iters)
            strategies = rep.extras["strategies"]
            n_t = len(strategies)
            e_axes = tuple(axes[i] for i in views[0])
            o_axes = (y,) + tuple(axes[i] for i in views[2])
            assert rep.argopt.given_axes == e_axes and rep.argopt.out_axes == (strategies.alphabet,)
            assert rep.extras["log_q"].shape == rep.argopt.probs.shape
            assert rep.extras["posterior"].given_axes == o_axes
            np.testing.assert_allclose(
                rep.extras["posterior"].probs, np.exp(rep.extras["log_posterior"]), rtol=1e-12
            )
            p_e, p_ote = (t[0] for t in _strategy_tables(ch, strategies, p_state[None], *views))
            j_val, u_val = _functionals(
                p_e, p_ote,
                rep.extras["log_q"].reshape(-1, n_t).T,
                rep.extras["log_posterior"].reshape(-1, n_t).T,
            )
            assert abs(j_val / LN2 - rep.value) <= 1e-12
            assert u_val / LN2 - rep.value <= rep.gap + 1e-12
            if max_iters == 1:
                assert rep.status == "nonconverged" and rep.iterations == 1


class TestInnerMax:
    def test_state_ignoring_channel_reduces_to_plain_capacity(self):
        rng = np.random.default_rng(21)
        k = rng.random((2, 2)) + 0.1
        k /= k.sum(axis=1, keepdims=True)
        kern = np.broadcast_to(k[:, None, None, :], (2, 2, 2, 2)).copy()
        x, y, s1, s2 = (Alphabet(2, n) for n in "XY12")
        # independent states so the decoder's state view carries nothing about T
        sj = np.outer([0.5, 0.5], [0.5, 0.5])
        ch = ChannelInstance(x, y, s1, s2, JointPmf((s1, s2), sj), CondKernel((x, s1, s2), (y,), kern))
        rep = inner_max(ch, degenerate_w(ch), Case2Options(delta=1e-8))
        ba = ba_capacity(k, SolverOptions(delta=1e-8))
        assert rep.value == pytest.approx(ba.value, abs=1e-6)

    def test_degenerate_description_matches_two_sided_oracle(self):
        ch = example1_channel()
        rep = inner_max(ch, degenerate_w(ch), Case2Options(delta=1e-7))
        oracle = gp_channel_capacity(ch, ("s1",), ("s2",), SolverOptions(delta=1e-7))
        assert rep.value == pytest.approx(oracle.value, abs=1e-5)

    def test_copy_description_matches_full_knowledge_oracle(self):
        ch = example1_channel()
        rep = inner_max(ch, copy_w(ch), Case2Options(delta=1e-7))
        oracle = gp_channel_capacity(ch, ("s1", "s2"), ("s2",), SolverOptions(delta=1e-7))
        assert rep.value == pytest.approx(oracle.value, abs=1e-5)

    @pytest.mark.parametrize(
        "seed, value, gap, iterations, reference",
        [
            (3, 0.10879793422014941, 4.425578162563049e-10, 96,
             (0.10879793381017021, 9.94724193895635e-10)),
            (8, 0.006222909676767118, 8.694116399396371e-10, 231,
             (0.006222910359721305, 9.97374163401315e-10)),
        ],
        ids=["seed=3", "seed=8"],
    )
    def test_pinned_iterations_and_values(self, seed, value, gap, iterations, reference):
        # reference figures of the engine's accelerated loop: a change to its
        # order of operations, its acceptance rule or its counting moves them.
        # The reference (value, gap) is that of a loop that measured its step
        # length on the log-weight table (464 and 2,766 iterations); it lies
        # within both gaps of the pin.
        ch, w = random_case2_instance(np.random.default_rng(seed))
        rep = inner_max(ch, w, Case2Options(delta=1e-9, max_inner_iters=100000))
        assert rep.status == "ok"
        assert rep.iterations == iterations and len(rep.trace) == iterations
        assert rep.value == pytest.approx(value, abs=1e-14)
        assert rep.gap == pytest.approx(gap, abs=1e-14)
        ref_value, ref_gap = reference
        assert abs(ref_value - value) <= ref_gap + gap

    def test_tail_instance_converges_in_few_iterations(self):
        # draw 40 of the benchmark's inner-tail stream 1; with the step length
        # measured on the log-weight table it took 10,344 iterations
        ch, w = inner_tail_instance(40)
        rep = inner_max(ch, w, Case2Options(delta=5e-9, max_inner_iters=10**6))
        assert rep.status == "ok" and rep.iterations <= 3000
        u = u_w_bound(ch, w, rep.extras["log_q"], rep.extras["log_posterior"])
        assert abs(u - rep.value) <= rep.gap + 1e-12


class TestDominanceBound:
    def test_fixed_point_gap_closes(self):
        ch = example1_channel()
        rep = inner_max(ch, copy_w(ch), Case2Options(delta=1e-10, max_inner_iters=100000))
        u = u_w_bound(ch, copy_w(ch), rep.extras["log_q"], rep.extras["log_posterior"])
        assert u - rep.value >= -1e-12
        assert u - rep.value < 1e-9

    @pytest.mark.parametrize("index", [31, 44])
    def test_certificate_rechecks_where_weights_underflow(self, index):
        # the instances of the benchmark's inner-tail stream 1 whose returned q
        # holds weights below the double range
        ch, w = inner_tail_instance(index)
        rep = inner_max(ch, w, Case2Options(delta=5e-9, max_inner_iters=10**6))
        assert rep.status == "ok"
        assert (rep.argopt.probs == 0.0).any()
        u = u_w_bound(ch, w, rep.extras["log_q"], rep.extras["log_posterior"])
        assert -1e-12 <= u - rep.value <= rep.gap + 1e-12

    def test_subnormal_weights_are_returned_as_zero(self):
        # draw 31 relabeled as the benchmark's seed 2 relabels it ends with log
        # weights near -741, whose exp is subnormal and keeps a few bits: U
        # re-checked from such a q overshoots the value by 7.6e-3 bits
        ch, w = inner_tail_instance(31, flips=(0, 0, 1, 1, 1))
        rep = inner_max(ch, w, Case2Options(delta=5e-9, max_inner_iters=10**6))
        log_q, q = rep.extras["log_q"], rep.argopt.probs
        subnormal = (log_q < np.log(np.finfo(float).tiny)) & (log_q > -745.0)
        assert rep.status == "ok" and subnormal.any()
        assert (q[subnormal] == 0.0).all() and (q[~subnormal] == np.exp(log_q[~subnormal])).all()

    def test_uniform_q_bound_is_strict(self):
        ch = example1_channel()
        w = copy_w(ch)
        p_e, p_ote = _inner_tables(ch, w)
        n_t = p_ote.shape[0]
        q = np.full((n_t, p_e.size), 1.0 / n_t)
        p_to = np.einsum("e,te,teo->to", p_e, q, p_ote)
        p_o = p_to.sum(axis=0)
        big_q = np.where(p_o[None, :] > 0, p_to / np.where(p_o > 0, p_o, 1.0)[None, :], 1.0 / n_t)
        j, u = np.array(_functionals(p_e, p_ote, _log(q), _log(big_q))) / LN2
        assert u > j + 1e-6

    def test_single_strategy_bound_and_objective_vanish(self):
        ch = example1_channel()
        w = copy_w(ch)
        p_e, p_ote = _inner_tables(ch, w)
        one = p_ote[:1]  # restrict to a single strategy
        q = np.ones((1, p_e.size))
        big_q = np.ones((1, one.shape[2]))
        j, u = np.array(_functionals(p_e, one, _log(q), _log(big_q))) / LN2
        assert j == pytest.approx(0.0, abs=1e-12)
        assert u == pytest.approx(0.0, abs=1e-12)


class TestLemmaProbes:
    def test_concavity_and_update_optimality(self):
        rng = np.random.default_rng(33)
        ch, w = random_case2_instance(rng)
        p_e, p_ote = _inner_tables(ch, w)
        n_t, n_e, n_o = p_ote.shape

        def rand_cols(shape):
            m = rng.random(shape) + 1e-3
            return m / m.sum(axis=0, keepdims=True)

        def j_u(q, big_q):
            """(J, U) in bits at q and Q."""
            return np.array(_functionals(p_e, p_ote, _log(q), _log(big_q))) / LN2

        for _ in range(10):
            q1, q2 = rand_cols((n_t, n_e)), rand_cols((n_t, n_e))
            b1, b2 = rand_cols((n_t, n_o)), rand_cols((n_t, n_o))
            for a in (0.25, 0.5, 0.75):
                lhs = j_u(a * q1 + (1 - a) * q2, a * b1 + (1 - a) * b2)[0]
                rhs = a * j_u(q1, b1)[0] + (1 - a) * j_u(q2, b2)[0]
                assert lhs >= rhs - 1e-10

        rep = inner_max(ch, w, Case2Options(delta=1e-9, max_inner_iters=200000))
        q_fin = rep.argopt.probs.reshape(n_e, n_t).T
        b_fin = rep.extras["posterior"].probs.reshape(n_o, n_t).T
        j_star, u_star = j_u(q_fin, b_fin)
        for _ in range(25):
            assert j_u(q_fin, rand_cols((n_t, n_o)))[0] <= j_star + 1e-9
            q_alt = rand_cols((n_t, n_e))
            assert j_u(q_alt, b_fin)[0] <= j_star + 1e-9
            assert u_star >= j_u(q_alt, b_fin)[0] - 1e-9


class TestCapacityCurve:
    def test_zero_rate_matches_oracle(self):
        ch = example1_channel()
        pt = capacity_case2_sweep(ch, [0.0], Case2Options())[0]
        oracle = gp_channel_capacity(ch, ("s1",), ("s2",), SolverOptions(delta=1e-7))
        assert pt.status == "ok"
        assert pt.value == pytest.approx(oracle.value, abs=5e-3)

    def test_clamping_beyond_max_rate(self):
        ch = example1_channel()
        h = conditional_entropy(ch.state_joint, (1,), (0,))
        a = capacity_case2_sweep(ch, [h], Case2Options())[0]
        b = capacity_case2_sweep(ch, [h + 0.5], Case2Options())[0]
        assert a.value == b.value and a.winning_w == b.winning_w

    def test_winner_respects_feasibility_band(self):
        ch = example1_channel()
        pt = capacity_case2_sweep(ch, [0.3], Case2Options())[0]
        eps = pt.extras["epsilon"]
        assert pt.winning_r_w <= 0.3 + 1e-12
        assert pt.winning_r_w >= 0.3 - eps - 1e-12

    def test_sweep_monotone_after_post_pass(self):
        ch = example1_channel()
        pts = capacity_case2_sweep(ch, [0.0, 0.2, 0.4, 0.7219], Case2Options())
        vals = [p.value for p in pts]
        assert all(vals[i + 1] >= vals[i] - 1e-12 for i in range(len(vals) - 1))

    # (R', raw value, gap) of the README sweeps at the default options, by the
    # driver that measured its step length on the log-weight table
    FORMER_README_SWEEPS = {
        False: [
            (0.0, 0.7477894741611455, 7.247960128606075e-07),
            (0.06, 0.747810989681007, 8.226980174362337e-07),
            (0.12, 0.7478309005289413, 9.57536607714036e-07),
            (0.18, 0.7478503781241933, 9.493900291914626e-07),
            (0.24, 0.7478676028597864, 9.398859658527762e-07),
            (0.3, 0.7478857846079983, 8.797238220321186e-07),
            (0.36, 0.7479048873705785, 9.598671475859309e-07),
            (0.42, 0.7479148589518876, 9.911510091647047e-07),
            (0.48, 0.7479358438439632, 8.914127686429981e-07),
            (0.54, 0.7479468299474887, 8.57636925388187e-07),
            (0.6, 0.7479468299474887, 8.57636925388187e-07),
            (0.66, 0.7479581222063959, 9.537167701941333e-07),
            (0.72, 0.7479581222063959, 9.537167701941333e-07),
        ],
        True: [
            (0.0, 0.7423372018457157, 9.058632522963333e-07),
            (0.2, 0.7430096645554596, 7.324690853835995e-07),
            (0.4, 0.7436106784439958, 8.207895845856662e-07),
            (0.6, 0.7440016076419491, 8.638892763346812e-07),
        ],
    }

    @pytest.mark.parametrize("causal", [False, True], ids=["case2", "case2c"])
    def test_readme_sweeps_within_both_gaps_of_the_former_driver(self, causal):
        former = self.FORMER_README_SWEEPS[causal]
        pts = capacity_case2_sweep(
            example1_channel(), [r for r, _, _ in former], Case2Options(), causal=causal
        )
        for pt, (_, value, gap) in zip(pts, former):
            assert pt.status == "ok"
            assert abs(pt.raw_value - value) <= gap + pt.gap

    @pytest.mark.parametrize("causal", [False, True])
    def test_r_prime_must_be_at_least_zero(self, causal):
        for bad in (math.nan, -0.1):
            with pytest.raises(ValueError, match="r_prime must be >= 0"):
                capacity_case2_sweep(example1_channel(), [0.0, bad], Case2Options(), causal=causal)

    def test_infinite_r_prime_is_clamped(self):
        ch = example1_channel()
        h = conditional_entropy(ch.state_joint, (1,), (0,))
        beyond, at_h = capacity_case2_sweep(ch, [math.inf, h], Case2Options(grid_step=0.25))
        assert beyond.extras["clamped_r_prime"] == h
        assert (beyond.raw_value, beyond.winning_w) == (at_h.raw_value, at_h.winning_w)

    def test_deterministic_tie_break(self):
        ch = example1_channel()
        a = capacity_case2_sweep(ch, [0.0], Case2Options())[0]
        b = capacity_case2_sweep(ch, [0.0], Case2Options())[0]
        assert a.winning_w == b.winning_w and a.value == b.value

    def test_losing_kernels_that_did_not_converge_are_counted(self):
        # five kernels [a, 1 - a], all admissible, valued by their larger entry
        # m, which a relabeling keeps; the winners m = 1 are "ok" but the
        # losers m = 0.75 (two kernels) and m = 0.5 are not
        def solve_w(w):
            m = float(w.max())
            return m, 1, 0.0, "nonconverged" if m < 1.0 else "ok", {}

        point = self.one_point(solve_w)
        assert point.value == 1.0 and point.status == "ok" and point.winning_w == 0
        assert point.extras["kernels_not_ok"] == 3

    def test_losing_kernel_whose_bound_crosses_the_winner_is_not_ok(self):
        # as above, but the m = 0.75 losers stopped with gap 0.5: their optimum
        # may be as large as 1.25, above the winner's certified 1.0
        def solve_w(w):
            m = float(w.max())
            if m == 1.0:
                return m, 1, 0.0, "ok", {}
            return m, 1, 0.5 if m == 0.75 else 0.0, "nonconverged", {}

        point = self.one_point(solve_w)
        assert point.value == 1.0 and point.winning_w == 0
        assert point.status == "nonconverged"
        assert point.extras["kernels_not_ok"] == 3

    # kernels [a, 1 - a] with larger entry m have rate m - 0.5, so at epsilon
    # 0.1 each R' in (0, 0.25, 0.5) admits one orbit: m = 0.5, 0.75 and 1
    @staticmethod
    def three_points(r_primes, values, maximize, not_ok=()):
        def solve_w(w):
            m = float(w.max())
            return values[m], 1, 0.0, "nonconverged" if m in not_ok else "ok", {}

        return _grid_sweep(
            rate_of=lambda reps: reps.probs.max(axis=(1, 2)) - 0.5,
            solve_ws=lambda ws: [solve_w(w) for w in ws],
            slices=1,
            codomain=V2,
            r_primes=r_primes,
            r_max=0.5,
            opts=Case2Options(epsilon=0.1, grid_step=0.25),
            maximize=maximize,
        )

    @pytest.mark.parametrize("maximize", [True, False])
    def test_post_pass_runs_in_order_of_r_prime_and_keeps_raw_values(self, maximize):
        sign = 1.0 if maximize else -1.0
        raw = {0.5: sign * 2.0, 0.75: sign * 1.0, 1.0: sign * 3.0}  # at R' = 0, 0.25, 0.5
        points = self.three_points([0.5, 0.25, 0.0], raw, maximize)
        assert [pt.r_prime for pt in points] == [0.5, 0.25, 0.0]
        assert [pt.raw_value for pt in points] == [sign * 3.0, sign * 1.0, sign * 2.0]
        assert [pt.value for pt in points] == [sign * 3.0, sign * 2.0, sign * 2.0]

    @pytest.mark.parametrize("maximize", [True, False])
    def test_post_pass_skips_points_that_are_not_ok(self, maximize):
        # the R' = 0.25 point is not ok: its raw value neither moves nor leads
        sign = 1.0 if maximize else -1.0
        raw = {0.5: sign * 2.0, 0.75: sign * 5.0, 1.0: sign * 3.0}
        points = self.three_points([0.0, 0.25, 0.5], raw, maximize, not_ok=(0.75,))
        assert [pt.status for pt in points] == ["ok", "nonconverged", "ok"]
        assert [pt.raw_value for pt in points] == [sign * 2.0, sign * 5.0, sign * 3.0]
        assert [pt.value for pt in points] == [sign * 2.0, sign * 5.0, sign * 3.0]

    @staticmethod
    def one_point(solve_w):
        """The one point of five kernels [a, 1 - a], all admissible, valued by ``solve_w``."""
        (point,) = _grid_sweep(
            rate_of=lambda reps: np.zeros(len(reps)),
            solve_ws=lambda ws: [solve_w(w) for w in ws],
            slices=1,
            codomain=V2,
            r_primes=[0.0],
            r_max=0.0,
            opts=Case2Options(epsilon=0.1, grid_step=0.25),
            maximize=True,
        )
        return point


class TestCausal:
    def test_state_ignoring_channel_matches_marginal_capacity(self):
        rng = np.random.default_rng(29)
        # channel ignores s1; independent states
        k = rng.random((2, 2, 2)) + 0.1  # (x, s2, y)
        k /= k.sum(axis=2, keepdims=True)
        kern = np.broadcast_to(k[:, None, :, :], (2, 2, 2, 2)).copy()
        x, y, s1, s2 = (Alphabet(2, n) for n in "XY12")
        sj = np.outer([0.5, 0.5], [0.4, 0.6])
        ch = ChannelInstance(x, y, s1, s2, JointPmf((s1, s2), sj), CondKernel((x, s1, s2), (y,), kern))
        pt = capacity_case2_sweep(ch, [0.0], Case2Options(delta=1e-8), causal=True)[0]
        # oracle: plain capacity of the marginal channel x -> (y, s2)
        m = np.zeros((2, 4))
        for xx in range(2):
            for s in range(2):
                m[xx, 2 * s : 2 * s + 2] = sj[:, s].sum() * k[xx, s]
        ba = ba_capacity(m, SolverOptions(delta=1e-8))
        assert pt.value == pytest.approx(ba.value, abs=1e-5)

    def test_noiseless_channel_one_bit_any_rate(self):
        kern = np.zeros((2, 2, 2, 2))
        for xx in range(2):
            kern[xx, :, :, xx] = 1.0
        x, y, s1, s2 = (Alphabet(2, n) for n in "XY12")
        ch = ChannelInstance(
            x, y, s1, s2, JointPmf((s1, s2), np.full((2, 2), 0.25)),
            CondKernel((x, s1, s2), (y,), kern),
        )
        for rp in (0.0, 0.4, 2.0):
            pt = capacity_case2_sweep(ch, [rp], Case2Options(), causal=True)[0]
            assert pt.value == pytest.approx(1.0, abs=1e-6)

    def test_causal_below_noncausal_at_matched_rate(self):
        ch = example1_channel()
        opts = Case2Options(delta=1e-7)
        pt_c = capacity_case2_sweep(ch, [0.4], opts, causal=True)[0]
        # compare at the noncausal description rate of the causal winner
        matched = r_w(ch, pt_c.winning_kernel)
        pt_nc = capacity_case2_sweep(ch, [matched], opts)[0]
        assert pt_c.value <= pt_nc.value + 1e-6

    def test_causal_inner_consistent_with_point(self):
        ch = example1_channel()
        opts = Case2Options(delta=1e-8)
        pt = capacity_case2_sweep(ch, [0.3], opts, causal=True)[0]
        rep = causal_inner_max(ch, pt.winning_kernel, opts)
        assert rep.value == pytest.approx(pt.raw_value, abs=1e-12)


class TestCausalIsOneStrategySolve:
    """One joint solve over q(t|v2) against a plain capacity per v2, averaged by p(v2)."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_v2=st.integers(2, 3), dead=st.booleans())
    @example(seed=5, n_v2=2, dead=True)
    def test_matches_per_v2_capacities(self, seed, n_v2, dead, blahut_arimoto):
        rng = np.random.default_rng(seed)
        ch, _ = random_case2_instance(rng)
        kern, sj = ch.kernel.probs, ch.state_joint.probs
        w = rng.random((2, n_v2)) + 0.05
        if dead:
            w[:, -1] = 0.0  # the last v2 has no mass
        w /= w.sum(axis=1, keepdims=True)
        v2 = Alphabet(n_v2, "V2")
        rep = causal_inner_max(
            ch, CondKernel((ch.s2,), (v2,), w), Case2Options(delta=1e-8, max_inner_iters=100000)
        )

        # strategies u: S1 -> X in any order; row t of m holds p(y, s2 | u_t, v2)
        tables = np.array(list(itertools.product(range(2), repeat=2)))
        rows = kern[tables, np.arange(2)[None, :]]  # (T, S1, S2, Y)
        joint = sj[:, :, None] * w[None, :, :]  # p(s1, s2, v2)
        p_v2 = joint.sum(axis=(0, 1))
        value, ref_gap = 0.0, 0.0
        for v in np.flatnonzero(p_v2 > 0):
            m = np.einsum("ab,tabz->tbz", joint[:, :, v] / p_v2[v], rows).reshape(len(tables), -1)
            lower, upper = blahut_arimoto(m)
            value += p_v2[v] * lower
            ref_gap += p_v2[v] * (upper - lower)

        assert rep.status == "ok"
        assert abs(rep.value - value) <= rep.gap + ref_gap + 1e-12
        assert rep.argopt.probs.shape == (n_v2, len(tables))
        if dead:
            assert rep.argopt.probs[-1] == pytest.approx(1.0 / len(tables), abs=1e-15)
        lows = [lo for lo, _ in rep.trace]
        assert all(b >= a - 1e-12 for a, b in zip(lows, lows[1:]))
        assert all(up >= lo - 1e-12 for lo, up in rep.trace)


class TestCurveIsOneSweep:
    # with epsilon 0.05 no kernel of the step-0.25 grid is admissible at
    # R' = 0.3 and 0.31 (noncausal) or 0.25 (causal), so those grids are halved
    R_PRIMES = {False: [0.0, 0.1, 0.12, 0.13, 0.3, 0.31], True: [0.0, 0.14, 0.18, 0.19, 0.22, 0.25]}
    REFINED = {False: 2, True: 1}
    FIELDS = ("raw_value", "winning_w", "iterations", "gap", "status", "winning_r_w")
    EXTRAS = ("epsilon", "grid_step", "kernels_not_ok")

    @pytest.mark.parametrize("epsilon", [None, 0.05])
    @pytest.mark.parametrize("causal", [False, True])
    def test_sweep_points_equal_one_point_calls(self, causal, epsilon):
        ch = example1_channel()
        opts = Case2Options(epsilon=epsilon, grid_step=0.25)
        r_primes = self.R_PRIMES[causal]
        sweep = capacity_case2_sweep(ch, r_primes, opts, causal=causal)
        for rp, pt in zip(r_primes, sweep):
            (alone,) = capacity_case2_sweep(ch, [rp], opts, causal=causal)
            assert alone.value == alone.raw_value == pt.raw_value
            for name in self.FIELDS:
                assert getattr(alone, name) == getattr(pt, name), (rp, name)
            for name in self.EXTRAS:
                assert alone.extras[name] == pt.extras[name], (rp, name)
        refined = [pt.extras["grid_step"] for pt in sweep if pt.extras["grid_step"] != 0.25]
        assert refined == [0.125] * (0 if epsilon is None else self.REFINED[causal])

    @pytest.mark.parametrize("causal", [False, True])
    def test_sweep_equals_solving_every_admissible_kernel(self, causal, admissible_kernels):
        ch, opts = example1_channel(), Case2Options(grid_step=0.25)
        solve, rate = (causal_inner_max, _causal_rate) if causal else (inner_max, r_w)
        sweep = capacity_case2_sweep(ch, self.R_PRIMES[causal], opts, causal=causal)
        bands, _ = admissible_kernels(sweep, lambda w: rate(ch, w), ch.s2.size, V2)
        kernels = simplex_grid(ch.s2.size, V2, 0.25).points
        reports = {}
        for pt, band in zip(sweep, bands):
            assert pt.extras["grid_step"] == 0.25
            best = None
            for _, i in sorted(band):
                if i not in reports:
                    reports[i] = solve(ch, kernels[i], opts)
                if best is None or reports[i].value > reports[best].value + 1e-9:
                    best = i
            rep = reports[best]
            want = (best, rep.value, rep.iterations, rep.gap, rep.status, rate(ch, kernels[best]))
            assert (pt.winning_w, pt.raw_value, pt.iterations, pt.gap, pt.status, pt.winning_r_w) == want

    @pytest.mark.parametrize("causal", [False, True])
    def test_fresh_orbits_across_stack_runs_equal_one_call_each(self, causal, monkeypatch):
        # three kernels per stacked run, so a point's fresh orbits span several runs
        monkeypatch.setattr(sideinfo.case2, "STACK_CAP", 3)
        ch, opts = example1_channel(), Case2Options(grid_step=0.1)
        r_primes = [0.05, 0.3, 0.31]
        sweep = capacity_case2_sweep(ch, r_primes, opts, causal=causal)
        assert max(pt.extras["kernels_solved"] for pt in sweep) > 2 * 3

        solve, rate = (causal_inner_max, _causal_rate) if causal else (inner_max, r_w)

        def one_call_each(ws):
            reports = [solve(ch, CondKernel((ch.s2,), (V2,), w), opts) for w in ws]
            return [(r.value, r.iterations, r.gap, r.status, {}) for r in reports]

        def one_rate_each(reps):
            return np.array([rate(ch, w) for w in reps.points])

        r_max = sweep[0].extras["r_max"]
        want = _grid_sweep(one_rate_each, one_call_each, ch.s2.size, V2, r_primes, r_max, opts, True)
        for got, ref in zip(sweep, want, strict=True):
            for name in ("r_prime", "value", "raw_value", "winning_w", "status", "iterations",
                         "gap", "winning_r_w"):
                assert getattr(got, name) == getattr(ref, name), name
            assert np.array_equal(got.winning_kernel.probs, ref.winning_kernel.probs)
            assert got.extras == {**ref.extras, "r_max": r_max}

    @staticmethod
    def count_solves(monkeypatch, solves: list) -> None:
        """Append to ``solves`` the (p_e, p_ote) of every kernel the sweep's stacked runs solve."""
        engine = sideinfo.case2._stacked_strategy_max

        def counted(p_e, p_ote, *args):
            assert p_e.shape[0] <= sideinfo.case2.STACK_CAP
            solves.extend(zip(p_e, p_ote))
            return engine(p_e, p_ote, *args)

        monkeypatch.setattr(sideinfo.case2, "_stacked_strategy_max", counted)

    def test_readme_grid_solves_each_orbit_once(self, monkeypatch, capsys):
        # the README capacity-case2 curve: 441 kernels in 221 orbits, of which
        # 439 kernels in 220 orbits are admissible at some R'; the 221
        # representatives are rated in one call
        rates, solves = [], []
        r_w_fn = sideinfo.case2.r_w
        monkeypatch.setattr(sideinfo.case2, "r_w", lambda *a: rates.append(a) or r_w_fn(*a))
        self.count_solves(monkeypatch, solves)
        argv = "capacity-case2 --problem builtin:example1 --rprime-grid 0:0.72:0.06"
        assert main(argv.split()) == 0
        assert (len(solves), [len(reps) for _, reps in rates]) == (220, [221])

    @pytest.mark.parametrize("causal", [False, True])
    def test_each_admissible_kernel_solved_once(self, causal, monkeypatch, admissible_kernels):
        ch = example1_channel()
        opts = Case2Options(epsilon=0.05, grid_step=0.25)
        calls = []
        self.count_solves(monkeypatch, calls)
        rate = _causal_rate if causal else r_w
        for _ in range(2):  # the second sweep starts from nothing again
            calls.clear()
            sweep = capacity_case2_sweep(ch, self.R_PRIMES[causal], opts, causal=causal)
            bands, orbit = admissible_kernels(sweep, lambda w: rate(ch, w), ch.s2.size, V2)
            admissible = set().union(*bands)
            assert len(calls) == len({orbit[k] for k in admissible}) < len(admissible)
            assert sum(pt.extras["kernels_solved"] for pt in sweep) == len(calls)
            assert [pt.extras["kernels_admissible"] for pt in sweep] == [len(b) for b in bands]
            assert {step for b in bands for step, _ in b} == {0.25, 0.125}
