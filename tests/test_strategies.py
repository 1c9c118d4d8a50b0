import itertools

import pytest

from sideinfo.probability import Alphabet
from sideinfo.strategies import (
    StrategyCapacityError,
    cardinality_bounds,
    enumerate_strategies,
)

X2 = Alphabet(2, "X")
S1 = Alphabet(2, "S1")
V2 = Alphabet(2, "V2")


def test_enumeration_counts():
    assert len(enumerate_strategies((X2,), X2)) == 4
    assert len(enumerate_strategies((S1, V2), X2)) == 16
    assert len(enumerate_strategies((S1,), Alphabet(3, "Xh"))) == 9


def test_enumeration_complete_and_duplicate_free():
    space = enumerate_strategies((S1, V2), X2)
    rows = {tuple(r) for r in space.tables}
    assert rows == set(itertools.product(range(2), repeat=4))
    assert len(rows) == len(space)


def test_enumeration_order_last_cell_fastest():
    space = enumerate_strategies((X2,), X2)
    assert [tuple(r) for r in space.tables] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_cap_exceeded_names_required_size():
    with pytest.raises(StrategyCapacityError) as err:
        enumerate_strategies((Alphabet(4, "A"), Alphabet(4, "B")), Alphabet(3, "C"))
    assert str(3**16) in str(err.value)


def test_cardinality_bounds_table():
    assert cardinality_bounds("cc2", 2, 2, 2) == (5, 40)
    assert cardinality_bounds("cc2c", 2, 2, 2) == (3, 12)
    assert cardinality_bounds("sc1c", 2, 2, 2) == (3, 12)
    assert cardinality_bounds("cc1", 2, 2, 2) == (9, 72)
    assert cardinality_bounds("sc1", 2, 2, 2) == (5, 40)
    assert cardinality_bounds("sc2", 2, 2, 2) == (9, 72)
    assert cardinality_bounds("CC-2", 2, 2, 2) == (5, 40)  # id normalization


def test_cardinality_bounds_unknown_case():
    with pytest.raises(ValueError):
        cardinality_bounds("cc3", 2, 2, 2)
