"""The sequence contract that IntRuns, Resonances and ScanRows share: each
acts as its plain type, the tuple or the list of its items."""

import pytest

from qcweights.model import (
    OBSTRUCTION_SET_HIT,
    ClassFailure,
    IntRuns,
    Resonances,
    ResonanceWitness,
    ScanRow,
    ScanRows,
)

_HIT = ClassFailure(OBSTRUCTION_SET_HIT, 3)

# Each sequence, the name of its parts, its items as its plain type, and an
# item it does not hold.  Items repeat, across parts and within one, so that
# count exceeds 1 and index depends on where the search starts.
_CASES = {
    "IntRuns": (
        IntRuns([range(3, 6), range(9, 9), range(8, 10), range(4, 6)]),
        "runs",
        (3, 4, 5, 8, 9, 4, 5),
        7,
    ),
    "Resonances": (
        Resonances([(1, 3, [0, 1, 2, 0]), (1, 2, []), (1, 3, [0, 1]), (2, 4, [1, 0, 0, 1, 0, 0])]),
        "arrays",
        [
            ResonanceWitness(1, 3, (0, 1)),
            ResonanceWitness(1, 3, (2, 0)),
            ResonanceWitness(1, 3, (0, 1)),
            ResonanceWitness(2, 4, (1, 0, 0)),
            ResonanceWitness(2, 4, (1, 0, 0)),
        ],
        ResonanceWitness(1, 2, (1,)),
    ),
    "ScanRows": (
        ScanRows(
            [
                ((3, 4), (2,), None, (5,), [5, 7, 5], [0, 1, 0]),
                ((3, 5), (), _HIT, (2,), [], []),
                ((3, 4), (2,), None, (5,), [7], [1]),
            ]
        ),
        "stretches",
        [
            ScanRow((3, 4, 5), (2,), None, 0, (5,)),
            ScanRow((3, 4, 7), (2,), None, 1, (5,)),
            ScanRow((3, 4, 5), (2,), None, 0, (5,)),
            ScanRow((3, 4, 7), (2,), None, 1, (5,)),
        ],
        ScanRow((3, 5, 7), (), _HIT, 0, (2,)),
    ),
}

_SEARCHES = [(), (1,), (-2,), (1, -1), (0, 2), (2, 10), (10,), (-10, 10)]


def _answer(call):
    # The value of call(), or the type of the exception it raises.
    try:
        return call()
    except ValueError as error:
        return type(error)


@pytest.mark.parametrize("case", _CASES)
class TestPlainContract:
    def test_in_index_and_count_match_the_plain_type(self, case):
        sequence, _, plain, absent = _CASES[case]
        assert sequence == plain
        for item in [*plain, absent]:
            assert (item in sequence) == (item in plain)
            assert sequence.count(item) == plain.count(item)
            for search in _SEARCHES:
                got = _answer(lambda: sequence.index(item, *search))
                assert got == _answer(lambda: plain.index(item, *search)), (item, search)
        assert sequence.index(plain[-1], 0, None) == plain.index(plain[-1])

    def test_reads_in_one_forward_pass(self, case, monkeypatch):
        # reversed, in, index and count make the items part by part, in
        # order, and never look one up by its index.
        sequence, parts, plain, _ = _CASES[case]
        kind = type(sequence)
        made = []
        items = kind._items

        def counted(part):
            made.append(part)
            return items(part)

        def looked_up(part, offset):
            raise AssertionError("an item was looked up by its index")

        monkeypatch.setattr(kind, "_items", staticmethod(counted))
        monkeypatch.setattr(kind, "_item", staticmethod(looked_up))
        every = list(getattr(sequence, parts))
        assert list(reversed(sequence)) == list(reversed(plain))
        assert made == every
        made.clear()
        assert sequence.index(plain[-1]) == plain.index(plain[-1])
        assert made == every
        made.clear()
        assert sequence.count(plain[0]) == plain.count(plain[0])
        assert made == every
