import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sideinfo.probability import (
    KERNEL_CAP,
    Alphabet,
    CondKernel,
    JointPmf,
    ProbabilityError,
    ZERO_TOL,
    _entropies,
    binary_entropy,
    chain,
    check_markov,
    conditional_mutual_information,
    entropy,
    entropy_of,
    grid_size,
    marginalize,
    mutual_information,
    simplex_grid,
)

A2 = Alphabet(2, "A")
B2 = Alphabet(2, "B")
C3 = Alphabet(3, "C")


def example1_states() -> JointPmf:
    return JointPmf((Alphabet(2, "S1"), Alphabet(2, "S2")), [[0.1, 0.4], [0.4, 0.1]])


def random_joint(rng, shape):
    t = rng.random(shape) + 1e-3
    return t / t.sum()


class TestConstruction:
    def test_rejects_negative_entries(self):
        with pytest.raises(ProbabilityError):
            JointPmf((A2,), [1.5, -0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ProbabilityError):
            JointPmf((A2,), [0.6, 0.6])

    def test_normalizes_small_deviation(self):
        p = JointPmf((A2,), [0.5 + 4e-10, 0.5])
        assert abs(p.probs.sum() - 1.0) < 1e-12

    def test_kernel_slices_validated(self):
        with pytest.raises(ProbabilityError):
            CondKernel((A2,), (B2,), [[0.7, 0.7], [0.5, 0.5]])

    def test_alphabet_size_positive(self):
        with pytest.raises(ProbabilityError):
            Alphabet(0, "Z")


class TestMarginalize:
    def test_uniform_keep_first(self):
        p = JointPmf.uniform((A2, B2))
        m = marginalize(p, (0,))
        np.testing.assert_allclose(m.probs, [0.5, 0.5])

    def test_correlated_state_row_sums(self):
        m = marginalize(example1_states(), (0,))
        np.testing.assert_allclose(m.probs, [0.5, 0.5], atol=1e-14)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(0)
        t = random_joint(rng, (3, 2, 2))
        p = JointPmf((C3, A2, B2), t)
        m = marginalize(p, (0, 2))
        manual = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(2):
                    manual[i, k] += t[i, j, k]
        np.testing.assert_allclose(m.probs, manual, atol=1e-14)

    def test_keep_order_respected(self):
        rng = np.random.default_rng(1)
        p = JointPmf((C3, A2), random_joint(rng, (3, 2)))
        m = marginalize(p, (1, 0))
        np.testing.assert_allclose(m.probs, p.probs.T)

    def test_rejects_empty_and_out_of_range(self):
        p = JointPmf.uniform((A2, B2))
        with pytest.raises(ProbabilityError):
            marginalize(p, ())
        with pytest.raises(ProbabilityError):
            marginalize(p, (2,))


class TestChain:
    def test_deterministic_copy_puts_mass_on_diagonal(self):
        p = example1_states()
        copy = CondKernel((Alphabet(2, "S2"),), (A2,), np.eye(2))
        j = chain(p, copy, bind=(1,))
        for s1 in range(2):
            for s2 in range(2):
                assert j.probs[s1, s2, s2] == pytest.approx(p.probs[s1, s2])
                assert j.probs[s1, s2, 1 - s2] == 0.0

    def test_uniform_kernel_splits_mass(self):
        p = example1_states()
        u = CondKernel.uniform((Alphabet(2, "S2"),), (A2,))
        j = chain(p, u, bind=(1,))
        for v in range(2):
            np.testing.assert_allclose(j.probs[:, :, v], p.probs / 2.0, atol=1e-14)

    def test_matches_entrywise_product(self):
        rng = np.random.default_rng(2)
        p = JointPmf((A2, B2), random_joint(rng, (2, 2)))
        kt = rng.random((2, 3)) + 0.1
        kt /= kt.sum(axis=1, keepdims=True)
        k = CondKernel((A2,), (C3,), kt)
        j = chain(p, k, bind=(0,))
        for a in range(2):
            for b in range(2):
                for c in range(3):
                    assert j.probs[a, b, c] == pytest.approx(p.probs[a, b] * kt[a, c])

    def test_size_mismatch_rejected(self):
        p = JointPmf.uniform((A2, B2))
        k = CondKernel.uniform((C3,), (A2,))
        with pytest.raises(ProbabilityError):
            chain(p, k, bind=(0,))


class TestInformationFunctionals:
    def test_point_mass_entropy_zero(self):
        assert entropy(JointPmf((A2,), [1.0, 0.0])) == 0.0

    def test_bernoulli_02_entropy(self):
        # equals the conditional state uncertainty of the correlated pair below
        h = entropy(JointPmf((A2,), [0.2, 0.8]))
        assert h == pytest.approx(0.7219, abs=5e-5)

    def test_bernoulli_03_closed_form(self):
        expected = -0.3 * math.log2(0.3) - 0.7 * math.log2(0.7)
        assert entropy(JointPmf((A2,), [0.3, 0.7])) == pytest.approx(expected, abs=1e-12)
        assert binary_entropy(0.3) == pytest.approx(expected, abs=1e-15)

    def test_independent_mi_zero(self):
        p = JointPmf((A2, B2), np.outer([0.3, 0.7], [0.6, 0.4]))
        assert mutual_information(p, (0,), (1,)) == pytest.approx(0.0, abs=1e-12)

    def test_copy_channel_one_bit(self):
        p = JointPmf((A2, B2), np.eye(2) / 2.0)
        assert conditional_mutual_information(p, (0,), (1,)) == pytest.approx(1.0, abs=1e-12)

    def test_correlated_state_mutual_information(self):
        expected = 1.0 - binary_entropy(0.2)
        assert mutual_information(example1_states(), (0,), (1,)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_overlapping_sets_rejected(self):
        p = JointPmf.uniform((A2, B2))
        with pytest.raises(ProbabilityError):
            conditional_mutual_information(p, (0,), (0,))


class TestCheckMarkov:
    def test_chain_constructed_holds(self):
        p = example1_states()
        kt = np.array([[0.8, 0.2], [0.3, 0.7]])
        j = chain(p, CondKernel((Alphabet(2, "S2"),), (A2,), kt), bind=(1,))
        ok, violation = check_markov(j, (2,), (1,), (0,))
        assert ok and violation < 1e-12

    def test_xor_violates(self):
        p = example1_states()
        j = np.zeros((2, 2, 2))
        for s1 in range(2):
            for s2 in range(2):
                j[s1, s2, s1 ^ s2] = p.probs[s1, s2]
        joint = JointPmf(p.axes + (A2,), j)
        ok, violation = check_markov(joint, (2,), (1,), (0,))
        assert not ok and violation > 0.1

    def test_point_mass_conditioned_holds(self):
        rng = np.random.default_rng(3)
        base = JointPmf((A2, B2), random_joint(rng, (2, 2)))
        point = chain(base, CondKernel((A2,), (Alphabet(1, "Z"),), np.ones((2, 1))), (0,))
        ok, violation = check_markov(point, (0,), (1,), (2,))
        assert ok and violation < 1e-12


class TestSimplexGrid:
    def test_single_slice_half_step(self):
        g = simplex_grid(1, A2, 0.5)
        rows = sorted(tuple(k.probs[0]) for k in g.points)
        assert rows == [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]

    def test_two_slices_product_rule(self):
        assert len(simplex_grid(2, A2, 0.5)) == 9

    def test_step_one_gives_degenerate_only(self):
        g = simplex_grid(2, A2, 1.0)
        assert len(g) == 4
        for k in g.points:
            assert set(np.unique(k.probs)) <= {0.0, 1.0}

    def test_count_formula(self):
        g = simplex_grid(2, C3, 0.25)
        assert len(g) == math.comb(4 + 2, 2) ** 2

    def test_degenerate_kernels_present(self):
        g = simplex_grid(2, A2, 0.2)
        corners = {tuple(k.probs.ravel()) for k in g.points if set(np.unique(k.probs)) <= {0.0, 1.0}}
        assert len(corners) == 4

    def test_non_divisor_step_rejected(self):
        with pytest.raises(ProbabilityError):
            simplex_grid(1, A2, 0.3)

    @pytest.mark.parametrize(
        "slices, codomain, step", [(2, A2, 0.05), (2, C3, 0.25), (3, C3, 0.5), (3, C3, 0.25)]
    )
    def test_orbit_is_smallest_index_of_relabelings(self, slices, codomain, step):
        g = simplex_grid(slices, codomain, step)
        index = {k.probs.tobytes(): i for i, k in enumerate(g.points)}
        perms = list(itertools.permutations(range(codomain.size)))
        expected = [min(index[k.probs[:, perm].tobytes()] for perm in perms) for k in g.points]
        assert list(g.orbit) == expected
        reps = set(expected)
        assert all(g.orbit[r] == r for r in reps)
        if codomain.size == 2:
            assert len(reps) == 221  # 441 kernels: 21 are their own swap, 420 pair up
        else:
            # Burnside over the 6 permutations of three letters: a row is fixed
            # by a swap when the swapped entries agree, by a 3-cycle when all do
            n = round(1 / step)
            rows, swap_fixed, cycle_fixed = math.comb(n + 2, 2), n // 2 + 1, int(n % 3 == 0)
            burnside = (rows**slices + 3 * swap_fixed**slices + 2 * cycle_fixed**slices) // 6
            assert len(reps) == burnside

    @pytest.mark.parametrize(
        "slices, k, step", [(1, 1, 0.5), (2, 1, 0.25), (1, 3, 0.125), (2, 2, 0.05), (3, 3, 0.25)]
    )
    def test_probs_are_the_integer_compositions_over_n(self, slices, k, step):
        # the brute-force grid: every row a composition of n into k parts, in
        # lexicographic order, over the product of the slices, the last fastest
        n = round(1 / step)
        rows = sorted(c for c in itertools.product(range(n + 1), repeat=k) if sum(c) == n)
        want = np.array(list(itertools.product(rows, repeat=slices)), dtype=float) / n
        g = simplex_grid(slices, Alphabet(k, "V"), step)
        assert g.ints.shape == (len(want), slices, k) and len(g) == len(want)
        assert g.probs.tobytes() == want.tobytes()
        # each point's CondKernel holds its row of probs, bit for bit
        assert all(w.probs.tobytes() == g.probs[i].tobytes() for i, w in enumerate(g.points))
        assert {w.given_axes for w in g.points} == {(Alphabet(slices, "slice"),)}

    def test_grid_past_the_kernel_cap_is_refused_unbuilt(self):
        assert grid_size(2, 2, 0.05) == 441 and grid_size(3, 1, 1.0 / KERNEL_CAP) == 1
        assert grid_size(1, 2, 1.0 / (KERNEL_CAP - 1)) == KERNEL_CAP
        with pytest.raises(ProbabilityError, match=f"more than {KERNEL_CAP}"):
            grid_size(1, 2, 1.0 / KERNEL_CAP)
        with pytest.raises(ProbabilityError, match="100020001 kernels"):
            simplex_grid(2, A2, 0.0001)
        # one kernel, but more steps than an integer grid of n = 1 / step holds
        with pytest.raises(ProbabilityError, match=f"at most {KERNEL_CAP} steps"):
            simplex_grid(2, Alphabet(1, "V"), 1e-19)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 40))
def test_stacked_entropies_equal_one_sum_per_row_bit_for_bit(seed, n_rows, n_cols):
    # rows with exact zeros, entries below ZERO_TOL and none above it, and
    # rows long enough (> 8 entries) for numpy's pairwise sum
    rng = np.random.default_rng(seed)
    x = rng.random((n_rows, n_cols)) ** 3
    x[rng.random(x.shape) < 0.3] = 0.0
    x[rng.random(x.shape) < 0.1] = 1e-16
    x[rng.random(n_rows) < 0.1] = 0.0
    want = [-(r[r > ZERO_TOL] * np.log2(r[r > ZERO_TOL])).sum() for r in x]
    assert _entropies(x).tobytes() == np.array(want).tobytes()
    assert [entropy_of(row) for row in x] == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_information_properties_random(seed):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(2, 4, size=3))
    axes = tuple(Alphabet(int(s), f"R{i}") for i, s in enumerate(shape))
    p = JointPmf(axes, random_joint(rng, shape))
    # nonnegativity and symmetry of I(A;B|C)
    i_abc = conditional_mutual_information(p, (0,), (1,), (2,))
    i_bac = conditional_mutual_information(p, (1,), (0,), (2,))
    assert i_abc >= 0.0
    assert abs(i_abc - i_bac) < 1e-10
    assert entropy(p) >= 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_chain_marginalize_round_trip(seed):
    rng = np.random.default_rng(seed)
    na, nb, nk = (int(v) for v in rng.integers(2, 4, size=3))
    axes = (Alphabet(na, "A"), Alphabet(nb, "B"))
    p = JointPmf(axes, random_joint(rng, (na, nb)))
    kt = rng.random((nb, nk)) + 1e-3
    kt /= kt.sum(axis=1, keepdims=True)
    k = CondKernel((Alphabet(nb, "B"),), (Alphabet(nk, "K"),), kt)
    j = chain(p, k, bind=(1,))
    assert abs(j.probs.sum() - 1.0) < 1e-10
    back = marginalize(j, (0, 1))
    np.testing.assert_allclose(back.probs, p.probs, atol=1e-12)
    # the chain-constructed joint satisfies K - B - A
    ok, violation = check_markov(j, (2,), (1,), (0,))
    assert ok and violation < 1e-10
