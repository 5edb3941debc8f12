"""Domain data types shared by the analyzer modules.

Everything here is a small frozen dataclass, named tuple or immutable
sequence over plain integers, so values hash, compare, and print
deterministically and can be shared freely between threads.
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


_step_of = operator.attrgetter("step")


class IntRuns(Sequence):
    """An immutable sequence of integers held as runs of consecutive ones.

    ``runs`` is a tuple of ranges with step 1; the sequence is their
    integers in order.  A gap set of hundreds of thousands of integers is a
    handful of runs, so it costs a few ranges rather than a tuple of every
    integer, and a writer can render it run by run.  It compares equal to,
    hashes as and prints as the tuple of its integers.
    """

    __slots__ = ("runs", "_len")

    def __init__(self, runs: Iterable[range] = ()) -> None:
        runs = tuple(runs)
        if not {*map(_step_of, runs)} <= {1}:
            raise ValueError("IntRuns holds ranges with step 1")
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "_len", sum(map(len, runs)))

    def __setattr__(self, name, value):
        raise AttributeError("IntRuns is immutable")

    def __reduce__(self):
        return IntRuns, (self.runs,)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain.from_iterable(self.runs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        index = operator.index(index)
        if index < 0:
            index += self._len
        if 0 <= index:
            for run in self.runs:
                if index < len(run):
                    return run[index]
                index -= len(run)
        raise IndexError("IntRuns index out of range")

    def __eq__(self, other) -> bool:
        if isinstance(other, (IntRuns, tuple)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


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


class Resonances(Sequence):
    """An immutable sequence of ``ResonanceWitness`` held as flat k arrays.

    ``arrays`` is a tuple of stretches ``(i, j, flat)``, each a run of
    witnesses of the pair (i, j) whose k are listed one after another in
    ``flat``, j - 1 entries apiece; the sequence is the witnesses of the
    stretches in turn.  A listing of tens of thousands of witnesses then
    holds one reference per k entry and no tuple per witness, and a writer
    can render it stretch by stretch.  Witnesses are made as they are read.
    It compares equal to and prints as the list of its witnesses.
    """

    __slots__ = ("arrays", "_len")

    def __init__(self, arrays: Iterable[tuple[int, int, list[int]]] = ()) -> None:
        arrays = tuple(arrays)
        if any(len(flat) % (j - 1) for _, j, flat in arrays):
            raise ValueError("Resonances holds j - 1 k entries per witness")
        object.__setattr__(self, "arrays", arrays)
        object.__setattr__(self, "_len", sum(len(flat) // (j - 1) for _, j, flat in arrays))

    def __setattr__(self, name, value):
        raise AttributeError("Resonances is immutable")

    def __reduce__(self):
        return Resonances, (self.arrays,)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        # One zip cuts a stretch's k entries into each witness's k, and map
        # makes the witness by tuple.__new__, with no Python-level call.
        new = tuple.__new__
        return chain.from_iterable(
            map(new, repeat(ResonanceWitness), zip(repeat(i), repeat(j), zip(*[iter(k)] * (j - 1))))
            for i, j, k in self.arrays
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Resonances(
                (i, j, [*chain.from_iterable(map(operator.itemgetter(2), run))])
                for (i, j), run in groupby(list(self)[index], operator.itemgetter(0, 1))
            )
        index = operator.index(index)
        if index < 0:
            index += self._len
        if 0 <= index:
            for i, j, flat in self.arrays:
                start = index * (j - 1)
                if start < len(flat):
                    return ResonanceWitness(i, j, tuple(flat[start : start + j - 1]))
                index -= len(flat) // (j - 1)
        raise IndexError("Resonances index out of range")

    def __eq__(self, other) -> bool:
        if isinstance(other, (Resonances, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


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


class ScanRows(Sequence):
    """An immutable sequence of ``ScanRow`` held as per-window stretches.

    ``stretches`` is a tuple of ``(head, witnesses, failure, sizes, ms,
    counts)``, each a run of rows whose weights are ``(*head, m)`` for the m
    of the list ``ms``, in order, whose ``n_resonances`` are the matching
    entries of the list ``counts``, and which share their ``witnesses``,
    ``failure`` and ``i_set_sizes`` (``sizes``).  The sequence is the rows of
    the stretches in turn.  A scan of tens of thousands of rows then holds
    two list entries per row and no tuple per row, and a writer can render
    it stretch by stretch.  Rows are made as they are read.  It compares
    equal to and prints as the list of its rows.
    """

    __slots__ = ("stretches", "_len")

    def __init__(self, stretches: Iterable[tuple] = ()) -> None:
        stretches = tuple(stretches)
        lengths = [*map(len, map(_ms_of, stretches))]
        if lengths != [*map(len, map(_counts_of, stretches))]:
            raise ValueError("ScanRows holds one count per m")
        object.__setattr__(self, "stretches", stretches)
        object.__setattr__(self, "_len", sum(lengths))

    def __setattr__(self, name, value):
        raise AttributeError("ScanRows is immutable")

    def __reduce__(self):
        return ScanRows, (self.stretches,)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        # zip(ms) wraps each m in a 1-tuple, which head.__add__ turns into
        # the weight; map makes the row by tuple.__new__, with no
        # Python-level call.
        new = tuple.__new__
        return chain.from_iterable(
            map(
                new,
                repeat(ScanRow),
                zip(
                    map(head.__add__, zip(ms)),
                    repeat(witnesses),
                    repeat(failure),
                    counts,
                    repeat(sizes),
                ),
            )
            for head, witnesses, failure, sizes, ms, counts in self.stretches
        )

    def __reversed__(self):
        # An index walks the stretches, thousands in a large scan, so the
        # rows are made once in order rather than looked up one by one.
        return reversed(list(self))

    def __getitem__(self, index):
        if isinstance(index, slice):
            stretches = []
            for key, run in groupby(list(self)[index], _stretch_key):
                run = list(run)
                ms = [row.weight[-1] for row in run]
                stretches.append((*key, ms, [row.n_resonances for row in run]))
            return ScanRows(stretches)
        index = operator.index(index)
        if index < 0:
            index += self._len
        if 0 <= index:
            for head, witnesses, failure, sizes, ms, counts in self.stretches:
                if index < len(ms):
                    return ScanRow((*head, ms[index]), witnesses, failure, counts[index], sizes)
                index -= len(ms)
        raise IndexError("ScanRows index out of range")

    def __eq__(self, other) -> bool:
        if isinstance(other, (ScanRows, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


_ms_of = operator.itemgetter(4)
_counts_of = operator.itemgetter(5)


def _stretch_key(row: ScanRow) -> tuple:
    # What the rows of one stretch share: (head, witnesses, failure, sizes).
    return row.weight[:-1], row.witnesses, row.failure, row.i_set_sizes
