"""Shannon-strategy enumeration and lifting of state-dependent channels/sources.

A strategy is a deterministic map from a product of state alphabets to an
input (or reconstruction) alphabet. Randomizing over the enumerated strategy
alphabet replaces optimizing over conditional input distributions, which is
what turns the state-dependent problems here into convex ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .probability import Alphabet, CondKernel, ProbabilityError

DEFAULT_STRATEGY_CAP = 4096


class StrategyCapacityError(ValueError):
    """The strategy space is larger than the configured cap."""


@dataclass(frozen=True)
class StrategySpace:
    """All deterministic maps from the product of ``domain_axes`` to ``codomain``.

    ``tables[t, j]`` is the codomain index assigned by strategy ``t`` to the
    j-th domain cell, cells in C order (lexicographic over the domain tuple).
    Strategies are ordered so the value at the last domain cell varies fastest.
    """

    domain_axes: tuple[Alphabet, ...]
    codomain: Alphabet
    tables: np.ndarray

    def __len__(self) -> int:
        return self.tables.shape[0]

    @property
    def domain_shape(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.domain_axes)

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(len(self), "T")

    def apply(self, t: int, *domain_index: int) -> int:
        cell = int(np.ravel_multi_index(domain_index, self.domain_shape))
        return int(self.tables[t, cell])


def enumerate_strategies(
    domain_axes: Sequence[Alphabet],
    codomain: Alphabet,
    cap: int = DEFAULT_STRATEGY_CAP,
) -> StrategySpace:
    domain_axes = tuple(domain_axes)
    n_cells = math.prod(a.size for a in domain_axes)
    n_strategies = codomain.size**n_cells
    if n_strategies > cap:
        raise StrategyCapacityError(
            f"strategy space needs {n_strategies} tables "
            f"({codomain.size}^{n_cells}), above the cap of {cap}"
        )
    tables = np.array(
        list(itertools.product(range(codomain.size), repeat=n_cells)), dtype=np.intp
    ).reshape(n_strategies, n_cells)
    tables.setflags(write=False)
    return StrategySpace(domain_axes, codomain, tables)


def lift_channel(ch, strategies: StrategySpace) -> CondKernel:
    """Lift p(y|x,s1,s2) onto strategies t: S1 x V2 -> X.

    Returns p(y | t, s1, s2, v2) = p(y | x=t(s1,v2), s1, s2). Each lifted row
    is a verbatim copy of the base row p(.|x=t(s1,v2), s1, s2), so its sum is
    bit-identical to that row's sum; it is 1.0 only where the base row's is.
    """
    if len(strategies.domain_axes) != 2:
        raise ProbabilityError("channel lifting expects a strategy domain (S1, V2)")
    s1_axis, v2_axis = strategies.domain_axes
    if s1_axis.size != ch.s1.size:
        raise ProbabilityError(
            f"strategy S1 size {s1_axis.size} does not match channel S1 size {ch.s1.size}"
        )
    if strategies.codomain.size != ch.x.size:
        raise ProbabilityError(
            f"strategy codomain size {strategies.codomain.size} "
            f"does not match channel input size {ch.x.size}"
        )
    n_t = len(strategies)
    n_s1, n_v2 = s1_axis.size, v2_axis.size
    n_s2 = ch.s2.size
    tbl = strategies.tables.reshape(n_t, n_s1, n_v2)
    x_idx = tbl[:, :, None, :]  # (T, S1, 1, V2)
    s1_idx = np.arange(n_s1)[None, :, None, None]
    s2_idx = np.arange(n_s2)[None, None, :, None]
    lifted = ch.kernel.probs[x_idx, s1_idx, s2_idx, :]  # (T, S1, S2, V2, Y)
    return CondKernel(
        (strategies.alphabet, ch.s1, ch.s2, v2_axis), (ch.y,), lifted
    )


def lift_source(src, strategies: StrategySpace) -> np.ndarray:
    """Distortion table d(e, t, s) = d_base(x, t(s)) for strategies s -> xhat.

    The row e is the encoder letter (x, s1), row-major; it is x when |S1| = 1.
    """
    if strategies.codomain.size != src.xhat.size:
        raise ProbabilityError(
            f"strategy codomain size {strategies.codomain.size} "
            f"does not match reconstruction size {src.xhat.size}"
        )
    # distortion[x, xhat] repeated over s1, indexed by the strategy tables (T, S) -> (E, T, S)
    return np.repeat(src.distortion, src.s1.size, axis=0)[:, strategies.tables]


_CARDINALITY_CASES = {
    "cc1": lambda x, s1, s2: (x * s1 * s2 + 1, x * s1 * s2 * (x * s1 * s2 + 1)),
    "cc2": lambda x, s1, s2: (s1 * s2 + 1, x * s1 * s2 * (s1 * s2 + 1)),
    "cc2c": lambda x, s1, s2: (s2 + 1, x * s2 * (s2 + 1)),
    "sc1": lambda x, s1, s2: (s1 * s2 + 1, x * s1 * s2 * (s1 * s2 + 1)),
    "sc1c": lambda x, s1, s2: (s1 + 1, x * s1 * (s1 + 1)),
    "sc2": lambda x, s1, s2: (x * s1 * s2 + 1, x * s1 * s2 * (x * s1 * s2 + 1)),
}


def cardinality_bounds(case: str, x: int, s1: int, s2: int) -> tuple[int, int]:
    """Sufficient auxiliary alphabet sizes (|V|, |U|) for the given case.

    Case ids: cc1, cc2, cc2c (channel) and sc1, sc1c, sc2 (source).
    """
    key = case.lower().replace("-", "").replace("_", "")
    if key not in _CARDINALITY_CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {sorted(_CARDINALITY_CASES)}")
    return _CARDINALITY_CASES[key](x, s1, s2)
