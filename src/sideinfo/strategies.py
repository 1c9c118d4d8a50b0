"""Shannon-strategy enumeration and the auxiliary cardinality bounds.

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

from .probability import Alphabet

STRATEGY_CAP = 4096


class StrategyCapacityError(ValueError):
    """The strategy space has more than ``STRATEGY_CAP`` tables."""


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
    def alphabet(self) -> Alphabet:
        return Alphabet(len(self), "T")


def enumerate_strategies(domain_axes: Sequence[Alphabet], codomain: Alphabet) -> StrategySpace:
    domain_axes = tuple(domain_axes)
    n_cells = math.prod(a.size for a in domain_axes)
    n_strategies = codomain.size**n_cells
    if n_strategies > STRATEGY_CAP:
        raise StrategyCapacityError(
            f"strategy space needs {n_strategies} tables "
            f"({codomain.size}^{n_cells}), above the cap of {STRATEGY_CAP}"
        )
    tables = np.array(
        list(itertools.product(range(codomain.size), repeat=n_cells)), dtype=np.intp
    ).reshape(n_strategies, n_cells)
    tables.setflags(write=False)
    return StrategySpace(domain_axes, codomain, tables)


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
