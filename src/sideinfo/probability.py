"""Finite-alphabet probability tensors and the information functionals built on them.

All quantities are in bits (log base 2). The conventions 0*log(0) = 0 and
0*log(0/0) = 0 are applied entry-wise; entries below ``ZERO_TOL`` are treated
as exact zeros inside logarithms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Entries below this are treated as exact zeros in log computations.
ZERO_TOL = 1e-15
# Construction rejects inputs whose (slice) sum deviates from 1 by more than
# this. If every sum is within 1e-15 of 1 the input is kept bit-identical (the
# problem-file round trip relies on this); otherwise every slice is divided by
# its sum, after which sums equal 1 to within rounding, not exactly.
SUM_TOL = 1e-9


class ProbabilityError(ValueError):
    """An input violates a probability invariant."""


@dataclass(frozen=True)
class Alphabet:
    """A finite alphabet; symbols are the dense indices 0..size-1."""

    size: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ProbabilityError(f"alphabet size must be >= 1, got {self.size}")


def _validated_tensor(probs, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(probs, dtype=float)
    if arr.shape != shape:
        raise ProbabilityError(f"tensor shape {arr.shape} does not match alphabets {shape}")
    if not np.all(np.isfinite(arr)):
        raise ProbabilityError("tensor contains non-finite entries")
    if arr.min(initial=0.0) < -1e-12:
        raise ProbabilityError(f"negative probability entry {arr.min()}")
    return np.clip(arr, 0.0, None)


@dataclass(frozen=True)
class JointPmf:
    """Dense joint PMF over an ordered tuple of finite alphabets."""

    axes: tuple[Alphabet, ...]
    probs: np.ndarray

    def __init__(self, axes: Sequence[Alphabet], probs) -> None:
        axes = tuple(axes)
        arr = _validated_tensor(probs, tuple(a.size for a in axes))
        total = arr.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise ProbabilityError(f"probabilities sum to {total}, not 1")
        # within 1e-15 of 1: kept bit-identical; else divided (sum 1 up to rounding)
        if abs(total - 1.0) > 1e-15:
            arr = arr / total
        arr.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "probs", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.probs.shape

    @classmethod
    def uniform(cls, axes: Sequence[Alphabet]) -> "JointPmf":
        shape = tuple(a.size for a in axes)
        return cls(axes, np.full(shape, 1.0 / math.prod(shape)))


@dataclass(frozen=True)
class CondKernel:
    """Conditional probability table p(out | given), stored (given..., out...)."""

    given_axes: tuple[Alphabet, ...]
    out_axes: tuple[Alphabet, ...]
    probs: np.ndarray

    def __init__(self, given_axes: Sequence[Alphabet], out_axes: Sequence[Alphabet], probs) -> None:
        given_axes = tuple(given_axes)
        out_axes = tuple(out_axes)
        shape = tuple(a.size for a in given_axes) + tuple(a.size for a in out_axes)
        arr = _validated_tensor(probs, shape)
        n_out = len(out_axes)
        sums = arr.sum(axis=tuple(range(len(given_axes), len(shape))))
        worst = float(np.abs(sums - 1.0).max())
        if worst > SUM_TOL:
            raise ProbabilityError(f"conditional slice sums deviate from 1 by {worst}")
        # every slice within 1e-15 of 1: kept bit-identical; else every slice
        # is divided by its sum (sums 1 up to rounding)
        if worst > 1e-15:
            arr = arr / sums.reshape(sums.shape + (1,) * n_out)
        arr.setflags(write=False)
        object.__setattr__(self, "given_axes", given_axes)
        object.__setattr__(self, "out_axes", out_axes)
        object.__setattr__(self, "probs", arr)

    @property
    def given_shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.given_axes)

    @classmethod
    def uniform(cls, given_axes: Sequence[Alphabet], out_axes: Sequence[Alphabet]) -> "CondKernel":
        g = tuple(a.size for a in given_axes)
        o = tuple(a.size for a in out_axes)
        return cls(given_axes, out_axes, np.full(g + o, 1.0 / math.prod(o)))


def _check_axis_set(p: JointPmf, axes: Iterable[int], name: str) -> tuple[int, ...]:
    axes = tuple(axes)
    if len(set(axes)) != len(axes):
        raise ProbabilityError(f"{name} contains duplicate axes: {axes}")
    for a in axes:
        if not 0 <= a < len(p.axes):
            raise ProbabilityError(f"{name} axis {a} out of range for {len(p.axes)} axes")
    return axes


def marginalize(p: JointPmf, keep_axes: Iterable[int]) -> JointPmf:
    """Sum out all axes not in ``keep_axes``; result axes follow the given order."""
    keep = _check_axis_set(p, keep_axes, "keep_axes")
    if not keep:
        raise ProbabilityError("keep_axes must be nonempty")
    drop = tuple(i for i in range(len(p.axes)) if i not in keep)
    summed = p.probs.sum(axis=drop) if drop else p.probs
    # summing drops axes in position order; permute to the requested order
    remaining = [i for i in range(len(p.axes)) if i not in drop]
    perm = [remaining.index(i) for i in keep]
    return JointPmf(tuple(p.axes[i] for i in keep), summed.transpose(perm))


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def chain(p: JointPmf, k: CondKernel, bind: Sequence[int]) -> JointPmf:
    """Extend ``p`` by the kernel ``k``: result(p_axes, out) = p * k(out | bound axes).

    ``bind[i]`` is the axis of ``p`` supplying the i-th given-axis of ``k``.
    """
    bind = tuple(bind)
    if len(bind) != len(k.given_axes):
        raise ProbabilityError(f"bind has {len(bind)} entries for {len(k.given_axes)} given axes")
    _check_axis_set(p, bind, "bind")
    for i, axis in enumerate(bind):
        if p.axes[axis].size != k.given_axes[i].size:
            raise ProbabilityError(
                f"alphabet size mismatch on bind {i}: "
                f"{p.axes[axis].size} vs {k.given_axes[i].size}"
            )
    n_p = len(p.axes)
    n_out = len(k.out_axes)
    if n_p + n_out > len(_LETTERS):
        raise ProbabilityError("too many axes for chain")
    p_sub = _LETTERS[:n_p]
    out_sub = _LETTERS[n_p : n_p + n_out]
    k_sub = "".join(p_sub[b] for b in bind) + out_sub
    probs = np.einsum(f"{p_sub},{k_sub}->{p_sub}{out_sub}", p.probs, k.probs)
    return JointPmf(p.axes + k.out_axes, probs)


def entropy(p: JointPmf) -> float:
    """Shannon entropy in bits."""
    return entropy_of(p.probs)


def entropy_of(arr: np.ndarray) -> float:
    x = np.asarray(arr, dtype=float).ravel()
    x = x[x > ZERO_TOL]
    return float(-(x * np.log2(x)).sum())


def binary_entropy(p: float) -> float:
    """H(p) for a Bernoulli(p), in bits."""
    if not 0.0 <= p <= 1.0:
        raise ProbabilityError(f"probability must be in [0, 1], got {p}")
    if p < ZERO_TOL or p > 1.0 - ZERO_TOL:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def conditional_entropy(p: JointPmf, target: Iterable[int], given: Iterable[int]) -> float:
    """H(target | given) in bits."""
    target = tuple(target)
    given = tuple(given)
    h_joint = entropy(marginalize(p, target + given))
    h_given = entropy(marginalize(p, given)) if given else 0.0
    return h_joint - h_given


def conditional_mutual_information(
    p: JointPmf,
    a: Iterable[int],
    b: Iterable[int],
    c: Iterable[int] = (),
) -> float:
    """I(A;B|C) in bits, from entropies of marginals. ``c`` may be empty."""
    a, b, c = tuple(a), tuple(b), tuple(c)
    combined = a + b + c
    _check_axis_set(p, combined, "a+b+c")
    if not a or not b:
        raise ProbabilityError("a and b must be nonempty")
    h_ac = entropy(marginalize(p, a + c))
    h_bc = entropy(marginalize(p, b + c))
    h_abc = entropy(marginalize(p, a + b + c))
    h_c = entropy(marginalize(p, c)) if c else 0.0
    value = h_ac + h_bc - h_abc - h_c
    # mathematically nonnegative; clear entropy-combination roundoff
    return max(value, 0.0)


def mutual_information(p: JointPmf, a: Iterable[int], b: Iterable[int]) -> float:
    return conditional_mutual_information(p, a, b, ())


def _kernel_table(w: CondKernel, state: Alphabet, other: Alphabet, name: str) -> np.ndarray:
    """w(v|a) as an (A, V) array; ``ProbabilityError`` unless w conditions on ``state``.

    The given axis must have ``state``'s size, and a kernel given the model's
    other state alphabet ``other`` is refused even when the sizes agree. A
    grid kernel, given the axis "slice", passes on its size.
    """
    if w.given_shape != (state.size,) or (w.given_axes[0] == other and other != state):
        raise ProbabilityError(f"description kernel must condition on {name}")
    return w.probs


def _description_rate(p_ab: np.ndarray, w: np.ndarray) -> float:
    """I(V;A|B) = H(V|B) - H(V|A) in bits for V - A - B, from the arrays p(a, b) as (A, B)
    and w(v|a) as (A, V). An absent B is one letter; the identity w gives H(A|B)."""
    p_a = p_ab.sum(axis=1)
    h_v_given_b = entropy_of(w.T @ p_ab) - entropy_of(p_ab.sum(axis=0))
    h_v_given_a = entropy_of(p_a[:, None] * w) - entropy_of(p_a)
    # mathematically nonnegative; clear entropy-combination roundoff
    return max(h_v_given_b - h_v_given_a, 0.0)


def check_markov(
    p: JointPmf,
    a: Iterable[int],
    b: Iterable[int],
    c: Iterable[int],
    tol: float = 1e-10,
) -> tuple[bool, float]:
    """Test the chain A - B - C: returns (I(A;C|B) <= tol, I(A;C|B))."""
    violation = conditional_mutual_information(p, tuple(a), tuple(c), tuple(b))
    return violation <= tol, violation


@dataclass(frozen=True)
class SimplexGrid:
    """Uniformly spaced grid of conditional kernels, one simplex per slice.

    ``orbit[i]`` is the smallest index of a point equal to point i up to a
    permutation of the codomain letters.
    """

    step: float
    points: tuple[CondKernel, ...]
    orbit: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.points)


def _compositions(total: int, parts: int):
    """Nonnegative integer tuples of length ``parts`` summing to ``total``, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def grid_divisions(step: float) -> int:
    """The number of grid steps n = 1 / step; raises unless 0 < step <= 1 divides 1."""
    n = round(1.0 / step) if 0 < step <= 1 else 0
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise ProbabilityError(f"grid step must be in (0, 1] and divide 1, got {step}")
    return n


def simplex_grid(slices: int, codomain: Alphabet, step: float) -> SimplexGrid:
    """All kernels with ``slices`` conditioning rows whose entries are multiples of ``step``.

    Degenerate kernels (a single codomain atom per row) are corner points of
    every simplex and are therefore always included.
    """
    n = grid_divisions(step)
    if slices < 1:
        raise ProbabilityError("slices must be >= 1")
    k = codomain.size
    given = (Alphabet(slices, "slice"),)
    points, orbit, first = [], [], {}
    for combo in itertools.product(list(_compositions(n, k)), repeat=slices):
        points.append(CondKernel(given, (codomain,), np.array(combo, dtype=float) / n))
        # relabeling the codomain permutes the integer columns
        orbit.append(first.setdefault(tuple(sorted(zip(*combo))), len(orbit)))
    expected = math.comb(n + k - 1, k - 1) ** slices
    assert len(points) == expected
    return SimplexGrid(step=step, points=tuple(points), orbit=tuple(orbit))
