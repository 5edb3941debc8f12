"""Domain data types shared by the analyzer modules.

Everything here is a small frozen dataclass, named tuple or immutable
sequence over plain integers, so values hash, compare, and print
deterministically and can be shared freely between threads.

The long answers, ``IntRuns``, ``Resonances`` and ``ScanRows``, are held as
a tuple of parts, each a stretch of items, and share one base,
``_Stretched``, which is the whole sequence contract: ``len``, iteration,
indexing, slicing, ``reversed``, ``index``, equality with and ``repr`` as
the plain type (the tuple or list of the items), pickling and immutability.
Each type adds what a part is, its public name for the parts (``runs``,
``arrays``, ``stretches``), its plain type and what a slice returns;
``IntRuns`` also hashes as its tuple.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from typing import NamedTuple


class WeightError(ValueError):
    """An input violates a weight-tuple invariant or an argument contract."""


# Rejection reasons reported by class membership checks.
BASE_CASE_M1 = "base-case-m1"
BASE_CASE_DIVISIBILITY = "base-case-divisibility"
NO_WINDOW_EXISTS = "no-window-exists"
OBSTRUCTION_SET_HIT = "obstruction-set-hit"

FAILURE_REASONS = (
    BASE_CASE_M1,
    BASE_CASE_DIVISIBILITY,
    NO_WINDOW_EXISTS,
    OBSTRUCTION_SET_HIT,
)


@dataclass(frozen=True)
class WeightTuple:
    """A weight (m1, ..., mn): strictly increasing positive integers, n >= 2,
    with overall gcd 1.

    Construct through :func:`qcweights.core.validate_weight`, which checks the
    invariants and names the violated one on failure.
    """

    m: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.m)

    def __len__(self) -> int:
        return len(self.m)

    def __iter__(self):
        return iter(self.m)

    def __getitem__(self, idx):
        return self.m[idx]

    def prefix(self, length: int) -> tuple[int, ...]:
        return self.m[:length]


def window_interval(sigma: int, M: int) -> tuple[int, int]:
    """Open bounds ((M-1)*S, M*S) of the window of index M over a prefix with
    sum S = sigma."""
    return (M - 1) * sigma, M * sigma


class _Stretched(Sequence):
    """An immutable sequence held as a tuple of parts, each a stretch of its
    items, with its length precomputed.

    This base is the sequence: iteration, index lookup, slicing,
    ``reversed``, ``index``, equality, ``repr``, pickling and immutability.
    A subclass says what a part is: ``_valid`` and ``_invalid`` check the
    parts, ``_size`` counts a part's items, ``_items`` makes them in order
    and ``_item`` makes the one at an offset.  ``_plain`` is the plain type
    that the sequence compares equal to and prints as, and ``_slice`` makes
    what a slice returns from its items in that type.
    """

    __slots__ = ("_parts", "_len")

    def __init__(self, parts: Iterable = ()) -> None:
        parts = tuple(parts)
        if not self._valid(parts):
            raise ValueError(self._invalid)
        object.__setattr__(self, "_parts", parts)
        object.__setattr__(self, "_len", sum(map(self._size, parts)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), (self._parts,)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain.from_iterable(map(self._items, self._parts))

    def __reversed__(self):
        # An index walks the parts, thousands in a large scan, so the items
        # are made once in order rather than looked up one by one.
        return reversed(self._plain(self))

    def index(self, value, start=0, stop=None) -> int:
        # One pass, for the same reason as __reversed__.
        return self._plain(self).index(value, *slice(start, stop).indices(self._len)[:2])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._slice(self._plain(self)[index])
        index = operator.index(index)
        if index < 0:
            index += self._len
        if 0 <= index:
            for part in self._parts:
                size = self._size(part)
                if index < size:
                    return self._item(part, index)
                index -= size
        raise IndexError(f"{type(self).__name__} index out of range")

    def __eq__(self, other) -> bool:
        if isinstance(other, (type(self), self._plain)):
            return len(self) == len(other) and self._plain(self) == self._plain(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self._plain(self))


_step_of = operator.attrgetter("step")


class IntRuns(_Stretched):
    """An immutable sequence of integers held as runs of consecutive ones.

    ``runs`` is a tuple of ranges with step 1; the sequence is their
    integers in order.  A gap set of hundreds of thousands of integers is a
    handful of runs, so it costs a few ranges rather than a tuple of every
    integer, and a writer can render it run by run.  It compares equal to,
    hashes as and prints as the tuple of its integers, and a slice of it is
    that tuple's slice.
    """

    __slots__ = ()

    # The parts' slot under its public name.
    runs = _Stretched._parts
    _plain = _slice = tuple
    _invalid = "IntRuns holds ranges with step 1"
    _size = staticmethod(len)
    _items = staticmethod(iter)
    _item = staticmethod(range.__getitem__)

    @staticmethod
    def _valid(runs: tuple[range, ...]) -> bool:
        return {*map(_step_of, runs)} <= {1}

    def __hash__(self) -> int:
        return hash(tuple(self))


@dataclass(frozen=True)
class ObstructionSet:
    """The blocked integers of one window over a prefix.

    With S the prefix sum, the window of index M is the open integer interval
    ((M-1)*S, M*S).  An integer is blocked when it equals some prefix entry
    plus a nonzero nonnegative integer combination of the prefix entries.
    """

    prefix: tuple[int, ...]
    window: int                 # the window index M >= 1
    interval: tuple[int, int]   # open bounds ((M-1)*S, M*S)
    elements: tuple[int, ...]   # sorted ascending

    @property
    def size(self) -> int:
        return len(self.elements)

    def __contains__(self, value: int) -> bool:
        return value in self.elements

    def gap_runs(self) -> tuple[range, ...]:
        """The window's integers outside the set as maximal runs: the
        nonempty ranges between consecutive elements, ascending."""
        bounds = (self.interval[0], *self.elements, self.interval[1])
        return tuple(filter(None, map(range, map((1).__add__, bounds), bounds[1:])))

    def gaps(self) -> tuple[int, ...]:
        """The window's integers outside the set, ascending: the flattening
        of ``gap_runs()``."""
        return tuple(chain.from_iterable(self.gap_runs()))


@dataclass(frozen=True)
class ClassFailure:
    """Why a weight was rejected.

    ``level`` is 2 for the base-case reasons and the recursion level j
    (3-based up to n) for the window reasons.
    """

    reason: str
    level: int


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a class membership check.

    ``witnesses`` holds the window indices M_3, ..., M_n of the levels that
    passed, so it has length n - 2 exactly when the weight is accepted.
    """

    weight: WeightTuple
    in_class: bool
    witnesses: tuple[int, ...]
    failure: ClassFailure | None = None


class ResonanceWitness(NamedTuple):
    """A solution of m_i + sum(m_r * k_r for r < j) = m_j with i < j.

    Indices are 1-based; ``k`` has length j - 1.  Such a solution is exactly
    what permits a nonlinear monomial in an origin-fixing automorphism.

    A named tuple rather than a frozen dataclass because a listing can hold
    hundreds of thousands of them.  It compares equal to the plain tuple
    ``(i, j, k)`` and orders as that tuple does.
    """

    i: int
    j: int
    k: tuple[int, ...]

    def sort_key(self) -> tuple[int, int, tuple[int, ...]]:
        return (self.i, self.j, self.k)


class Resonances(_Stretched):
    """An immutable sequence of ``ResonanceWitness`` held as flat k arrays.

    ``arrays`` is a tuple of stretches ``(i, j, flat)``, each a run of
    witnesses of the pair (i, j) whose k are listed one after another in
    ``flat``, j - 1 entries apiece; the sequence is the witnesses of the
    stretches in turn.  A listing of tens of thousands of witnesses then
    holds one reference per k entry and no tuple per witness, and a writer
    can render it stretch by stretch.  Witnesses are made as they are read.
    It compares equal to and prints as the list of its witnesses, and a
    slice of it is a ``Resonances`` with one stretch per run of one pair.
    """

    __slots__ = ()

    arrays = _Stretched._parts
    _plain = list
    _invalid = "Resonances holds j - 1 k entries per witness"

    @staticmethod
    def _valid(arrays: tuple[tuple[int, int, list[int]], ...]) -> bool:
        return not any(len(flat) % (j - 1) for _, j, flat in arrays)

    @staticmethod
    def _size(stretch: tuple[int, int, list[int]]) -> int:
        _, j, flat = stretch
        return len(flat) // (j - 1)

    @staticmethod
    def _items(stretch: tuple[int, int, list[int]]):
        # One zip cuts the k entries into each witness's k, and map makes
        # the witness by tuple.__new__, with no Python-level call.
        i, j, flat = stretch
        ks = zip(*[iter(flat)] * (j - 1))
        return map(tuple.__new__, repeat(ResonanceWitness), zip(repeat(i), repeat(j), ks))

    @staticmethod
    def _item(stretch: tuple[int, int, list[int]], offset: int) -> ResonanceWitness:
        i, j, flat = stretch
        start = offset * (j - 1)
        return ResonanceWitness(i, j, tuple(flat[start : start + j - 1]))

    @staticmethod
    def _slice(witnesses: list[ResonanceWitness]) -> Resonances:
        return Resonances(
            (i, j, [*chain.from_iterable(map(operator.itemgetter(2), run))])
            for (i, j), run in groupby(witnesses, operator.itemgetter(0, 1))
        )


class ScanRow(NamedTuple):
    """One weight found by a scan: its membership verdict, its number of
    resonance witnesses, and the obstruction-set size of each level's window
    (None where no window exists).

    A named tuple rather than a frozen dataclass because a scan makes tens of
    thousands of them.
    """

    weight: tuple[int, ...]
    witnesses: tuple[int, ...]
    failure: ClassFailure | None
    n_resonances: int
    i_set_sizes: tuple[int | None, ...]

    @property
    def in_class(self) -> bool:
        return self.failure is None


class ScanRows(_Stretched):
    """An immutable sequence of ``ScanRow`` held as per-window stretches.

    ``stretches`` is a tuple of ``(head, witnesses, failure, sizes, ms,
    counts)``, each a run of rows whose weights are ``(*head, m)`` for the m
    of the list ``ms``, in order, whose ``n_resonances`` are the matching
    entries of the list ``counts``, and which share their ``witnesses``,
    ``failure`` and ``i_set_sizes`` (``sizes``).  The sequence is the rows of
    the stretches in turn.  A scan of tens of thousands of rows then holds
    two list entries per row and no tuple per row, and a writer can render
    it stretch by stretch.  Rows are made as they are read.  It compares
    equal to and prints as the list of its rows, and a slice of it is a
    ``ScanRows`` with one stretch per run of rows that share all but their
    last entry and their count.
    """

    __slots__ = ()

    stretches = _Stretched._parts
    _plain = list
    _invalid = "ScanRows holds one count per m"

    @staticmethod
    def _valid(stretches: tuple[tuple, ...]) -> bool:
        return [*map(len, map(_ms_of, stretches))] == [*map(len, map(_counts_of, stretches))]

    @staticmethod
    def _size(stretch: tuple) -> int:
        return len(stretch[4])

    @staticmethod
    def _items(stretch: tuple):
        # zip(ms) wraps each m in a 1-tuple, which head.__add__ turns into
        # the weight; map makes the row by tuple.__new__, with no
        # Python-level call.
        head, witnesses, failure, sizes, ms, counts = stretch
        fields = zip(
            map(head.__add__, zip(ms)), repeat(witnesses), repeat(failure), counts, repeat(sizes)
        )
        return map(tuple.__new__, repeat(ScanRow), fields)

    @staticmethod
    def _item(stretch: tuple, offset: int) -> ScanRow:
        head, witnesses, failure, sizes, ms, counts = stretch
        return ScanRow((*head, ms[offset]), witnesses, failure, counts[offset], sizes)

    @staticmethod
    def _slice(rows: list[ScanRow]) -> ScanRows:
        stretches = []
        for key, run in groupby(rows, _stretch_key):
            run = list(run)
            ms = [row.weight[-1] for row in run]
            stretches.append((*key, ms, [row.n_resonances for row in run]))
        return ScanRows(stretches)


_ms_of = operator.itemgetter(4)
_counts_of = operator.itemgetter(5)


def _stretch_key(row: ScanRow) -> tuple:
    # What the rows of one stretch share: (head, witnesses, failure, sizes).
    return row.weight[:-1], row.witnesses, row.failure, row.i_set_sizes
