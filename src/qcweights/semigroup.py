"""Exact numerical-semigroup membership: one ``Semigroup`` value per
generator tuple, the Apery engine under it, and the sieve oracle.

The Apery table stores, per residue class modulo the smallest generator,
the least representable integer, so :func:`is_representable` answers "is t
a nonnegative integer combination of the generators?" in O(1) for any t.
A class holds exactly its least value and every larger integer of the class,
one arithmetic progression of step m_1.  An obstruction set is the
semigroup's nonzero elements minus its minimal generators, so the window
pass reads each class's progression tail inside the window, in
O(m_1 + output) time and memory for any window index, and a window's size
is counted per class without listing it.

:class:`Semigroup` answers membership and windows for one generator
tuple, in two cases.  Membership is a closed form for one or two
generators, one generator g being the pair (g, g), and the table, or a
budgeted search before it, for three or more.  Its window pass is one for
every generator count: the classes of one or two generators start at the
multiples of the largest, and any other count's are read off the table.
:func:`obstruction_set_fast` runs that pass over a given table.

The sieve, a forward dynamic program over 0..bound, is kept only as the
independent oracle the tests compare the Apery engine against; the
production functions do not accept it, and numpy, which it runs on, is
imported on its first call only.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from qcweights.model import ObstructionSet, window_interval

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class RepresentabilityTable:
    """Bit table with flags[t] true iff t is representable, 0 <= t <= bound."""

    generators: tuple[int, ...]
    bound: int
    flags: np.ndarray = field(repr=False, compare=False)


@dataclass(frozen=True)
class AperyTable:
    """Least representable integer per residue class modulo the smallest
    generator; None marks an unreachable class (possible when the generator
    gcd exceeds 1).
    """

    generators: tuple[int, ...]
    modulus: int
    least: tuple[int | None, ...]


def _check_generators(generators) -> tuple[int, ...]:
    gens = tuple(sorted({operator.index(g) for g in generators}))
    if not gens:
        raise ValueError("generators must be nonempty")
    if gens[0] < 1:
        raise ValueError(f"generators must be >= 1, got {gens[0]}")
    return gens


def build_sieve(generators, bound: int) -> RepresentabilityTable:
    """Mark every representable integer up to ``bound``.

    Per generator g, shifted-OR passes with shifts g, 2g, 4g, ... close the
    table under adding any multiple of g (binary decomposition of the
    multiplier); closing the generators in sequence then yields the full
    semigroup restricted to 0..bound.
    """
    import numpy as np

    gens = _check_generators(generators)
    bound = operator.index(bound)
    if bound < 0:
        raise ValueError("bound must be >= 0")
    flags = np.zeros(bound + 1, dtype=bool)
    flags[0] = True
    for g in gens:
        shift = g
        while shift <= bound:
            flags[shift:] = np.logical_or(flags[shift:], flags[:-shift])
            shift *= 2
    return RepresentabilityTable(generators=gens, bound=bound, flags=flags)


def build_apery(generators) -> AperyTable:
    """Least representable integer per residue modulo the smallest generator.

    Starts from the closed-form table of the two smallest generators and
    adds the others one at a time with :func:`extend_apery`.
    """
    gens = _check_generators(generators)
    table = Semigroup(gens[:2]).table
    for g in gens[2:]:
        table = extend_apery(table, g)
    return table


def extend_apery(table: AperyTable, g: int) -> AperyTable:
    """The Apery table of ``table.generators`` plus ``g``, derived from ``table``.

    One round-robin pass (Boecker & Liptak, "A fast and simple algorithm for
    the money changing problem", 2007).  Adding g links residue r to
    (r + g) mod m, which splits the residues into gcd(m, g) cycles, each the
    residues of one class modulo gcd(m, g).  Walking a cycle once from its
    least label relaxes every label in it, so the pass costs O(m).
    """
    g = operator.index(g)
    gens = table.generators
    if g in gens:
        return table
    if g < table.modulus:
        return build_apery((*gens, g))
    modulus = table.modulus
    least = list(table.least)
    cycles = math.gcd(modulus, g)
    step = g % modulus
    for start in range(cycles):
        if start == 0:
            r = 0  # label 0 is the least of all
        else:
            members = [r for r in range(start, modulus, cycles) if least[r] is not None]
            if not members:
                continue
            r = min(members, key=least.__getitem__)
        value = least[r]
        for _ in range(modulus // cycles - 1):
            r += step
            if r >= modulus:
                r -= modulus
            value += g
            known = least[r]
            if known is not None and known < value:
                value = known
            else:
                least[r] = value
    return AperyTable(generators=tuple(sorted((*gens, g))), modulus=modulus, least=tuple(least))


def _check_window(M: int) -> int:
    M = operator.index(M)
    if M < 1:
        raise ValueError("window index M must be >= 1")
    return M


class _State:
    """What a ``Semigroup`` shares with its ``contains``: the Apery table and
    the suffix, each made on first use, and the search budget left."""

    __slots__ = ("table", "suffix", "budget")

    def __init__(self) -> None:
        self.table: AperyTable | None = None
        self.suffix: Semigroup | None = None
        self.budget = 0


class Semigroup:
    """The numerical semigroup of a generator tuple.

    ``contains(t)`` tells whether t is a nonnegative combination of the
    generators, and is false for every t < 0.  ``window(M)`` is the
    obstruction set of window M over the generators, ``window_size(M)`` its
    size and ``member_mask(stop)`` the membership of 0, ..., stop - 1 as a
    ``bytearray``; all three read the semigroup as the arithmetic
    progressions of ``_progressions``, with one body for every generator
    count.  ``table`` is the Apery table and
    ``suffix`` the semigroup of gens[1:]; both are made on first use.
    ``d`` is the generators' gcd.
    ``contains`` is chosen when the value is made, so each test is one call.
    There are two cases:

    - one or two generators, a <= b, one generator g being the pair (g, g):
      with d = gcd(a, b), a*k_a + b*k_b = t holds exactly for k_a in one
      residue class modulo ``period`` = b/d, the least of which is
      (t/d) * ``inverse`` mod b/d, ``inverse`` being (a/d)^-1 mod b/d.
      So t is in <a, b> iff d divides t and that least k_a has a*k_a <= t.
      For one generator, d = g, the period is 1 and the inverse 0, so the
      test is divisibility by g and t >= 0.  The pair's ``d``, ``period``
      and ``inverse`` are kept for callers that walk the solutions;
    - three or more: a t that d does not divide is out at once.  Otherwise
      t is in it iff t - k*gens[0] lies in ``suffix`` for some k >= 0, and
      the test searches those k.  The searches share a budget; a search
      that would overrun it builds the table instead, and every later test
      is a lookup in it, inside the same call.  A value made from a bare
      tuple has a budget of gens[0] steps, as many as the table has
      residues, so a value that is asked little never gets a table, and its
      table comes from :func:`build_apery`.  A value made by
      ``parent.child(g)`` has no budget: its first test derives its table
      from the parent's with :func:`extend_apery`, so a walk over prefixes
      that asks many tests of each builds each table once, and never a
      suffix.  This test holds the table, the suffix and the parent, but
      not the value itself, so a dropped value is freed at once, with no
      reference cycle for the collector.
    """

    __slots__ = ("gens", "contains", "d", "period", "inverse", "_parent", "_state")

    def __init__(self, generators, parent: Semigroup | None = None) -> None:
        # A child's generators are its parent's, checked, and one above them.
        gens = self.gens = _check_generators(generators) if parent is None else generators
        self._parent = parent
        state = self._state = _State()
        if len(gens) <= 2:
            a, b = gens[0], gens[-1]
            d = self.d = math.gcd(a, b)
            period = self.period = b // d
            inverse = self.inverse = pow(a // d, -1, period)

            def in_pair(t: int) -> bool:
                return t % d == 0 and t // d * inverse % period * a <= t

            self.contains = in_pair
        else:
            self.d = math.gcd(*gens)
            if parent is None:
                state.budget = gens[0]
            self.contains = _searcher(gens, self.d, state, parent)

    def child(self, g: int) -> Semigroup:
        """The semigroup with g, above every generator, added; its table is
        derived from this one's."""
        g = operator.index(g)
        if g <= self.gens[-1]:
            raise ValueError(f"a child's generator must exceed {self.gens[-1]}, got {g}")
        return Semigroup((*self.gens, g), self)

    @property
    def table(self) -> AperyTable:
        """The Apery table, built on first use."""
        state = self._state
        if state.table is None:
            gens = self.gens
            if len(gens) > 2:
                state.table = _apery(gens, self._parent)
            else:
                # Each class start, all below a*b, is the least element of its
                # class.
                a = gens[0]
                least: list[int | None] = [None] * a
                for value in self._progressions(a * gens[-1])[1]:
                    least[value % a] = value
                state.table = AperyTable(generators=gens, modulus=a, least=tuple(least))
        return state.table

    @property
    def suffix(self) -> Semigroup:
        """The semigroup of gens[1:], made on first use from the bare tuple."""
        state = self._state
        if state.suffix is None:
            state.suffix = Semigroup(self.gens[1:])
        return state.suffix

    def window(self, M: int) -> ObstructionSet:
        """The obstruction set of window M over the generators.

        The pass of ``_window_pass`` extends one list with each
        progression's tail inside the window; the list is sorted once and,
        in window 1, loses the minimal generators: O(m_1 + output) time and
        memory, m_1 being the smallest generator, or O(min(m_1, M) + output)
        for one or two generators, whose progressions start at the
        multiples of the largest.
        """
        M = _check_window(M)
        elements: list[int] = []
        lo, hi, _, minimal = self._window_pass(M, elements)
        elements.sort()
        if minimal:
            elements = [t for t in elements if t not in minimal]
        return ObstructionSet(
            prefix=self.gens, window=M, interval=(lo, hi), elements=tuple(elements)
        )

    def window_size(self, M: int) -> int:
        """``len(self.window(M).elements)``, counted by the same pass
        without listing it."""
        return self._window_pass(_check_window(M))[2]

    def _window_pass(
        self, M: int, elements: list[int] | None = None
    ) -> tuple[int, int, int, tuple[int, ...]]:
        # One pass over the progressions' tails inside window M, which
        # returns its open bounds lo and hi, its size and the minimal
        # generators inside it, which only window 1 holds and drops (a lone
        # generator is window 1's top).  A tail runs from its first term
        # inside the window and has (hi - 1 - first) // step + 1 terms; given
        # a list, the pass extends it with them.  The count makes no range
        # per tail: scans call window_size once per table window, and a
        # range per tail made each call about twice as slow.
        lo, hi = window_interval(sum(self.gens), M)
        step, starts = self._progressions(hi)
        first_in = lo + 1
        size = 0
        for start in starts:
            first = start if start >= first_in else first_in + (start - first_in) % step
            size += (hi - 1 - first) // step + 1
            if elements is not None:
                elements.extend(range(first, hi, step))
        minimal = tuple(g for g in self._minimal() if g < hi) if M == 1 else ()
        return lo, hi, size - len(minimal), minimal

    def _minimal(self) -> tuple[int, ...]:
        # The generators that are not a sum of two nonzero elements: g is
        # minimal unless g - h is an element for a smaller generator h.  For
        # a pair a < b that is b - a in <a, b>, so a dividing b; one
        # generator is the pair (g, g).  The general rule in place of this
        # closed form took core.scan(3, 70, in_class_only=True) from 30.4 to
        # 33.5 ms (process time, best of 9, 2-core host).
        gens = self.gens
        if len(gens) <= 2:
            a, b = gens[0], gens[-1]
            return gens if b % a else (a,)
        contains = self.contains
        return tuple(g for g in gens if not any(contains(g - h) for h in gens if h < g))

    def member_mask(self, stop: int) -> bytearray:
        """A ``bytearray`` over 0, ..., stop - 1 that is 1 at the
        semigroup's elements and 0 elsewhere.

        Each progression below ``stop`` is one slice assignment, so the mask
        costs one C-level pass per residue class and no call per integer.
        """
        step, starts = self._progressions(stop)
        # Each progression is given as many terms as the longest has, so the
        # mask runs past stop until it is cut back.
        terms = (stop - 1) // step + 1
        span = terms * step
        mask = bytearray(stop + span)
        ones = b"\x01" * terms
        for start in starts:
            mask[start : start + span : step] = ones
        del mask[stop:]
        return mask

    def _progressions(self, hi: int) -> tuple[int, Iterable[int]]:
        """The step and the starts below ``hi`` of the arithmetic
        progressions whose union is the semigroup.

        Three or more generators read their classes' least values off the
        table, the step being m_1.  One or two, a <= b, need no table:
        adding multiples of a keeps the class, so the least element of a
        class is its least multiple of b.  The a/d multiples k*b below
        (a/d)*b, d = gcd(a, b), fall in distinct classes, the multiples of
        d, and the other classes are unreachable; the step is a.
        """
        gens = self.gens
        if len(gens) > 2:
            table = self.table
            return table.modulus, [t for t in table.least if t is not None and t < hi]
        a, b = gens[0], gens[-1]
        top = a // self.d * b
        # A conditional, not min(): every pair window and mask asks this.
        return a, range(0, top if top < hi else hi, b)


def _apery(gens: tuple[int, ...], parent: Semigroup | None) -> AperyTable:
    # The table of three or more generators: derived from the parent's, or
    # built from scratch for a bare tuple.
    if parent is None:
        return build_apery(gens)
    return extend_apery(parent.table, gens[-1])


def _searcher(
    gens: tuple[int, ...], d: int, state: _State, parent: Semigroup | None
) -> Callable[[int], bool]:
    # ``Semigroup.contains`` of three or more generators, over the state it
    # shares with its semigroup and not over the semigroup.
    g = gens[0]

    def contains(t: int) -> bool:
        table = state.table
        if table is None:
            # Off the gcd, t is out before any step spends budget.
            if t < 0 or t % d:
                return False
            needed = t // g + 1
            steps = min(needed, state.budget)
            if steps:
                if state.suffix is None:
                    state.suffix = Semigroup(gens[1:])
                inside = state.suffix.contains
                for k in range(steps):
                    if inside(t - k * g):
                        state.budget -= k + 1
                        return True
                state.budget -= steps
                if steps == needed:
                    return False
            table = state.table = _apery(gens, parent)
        # Every least value is at least 0, so this is false for t < 0.
        least = table.least[t % table.modulus]
        return least is not None and t >= least

    return contains


def is_representable(table: AperyTable, t: int) -> bool:
    """True iff t is a nonnegative combination of the generators (0 counts)."""
    t = operator.index(t)
    if t < 0:
        return False
    least = table.least[t % table.modulus]
    return least is not None and t >= least


def is_representable_nonzero(table: AperyTable, t: int) -> bool:
    """True iff t is representable with at least one positive coefficient.

    Since all generators are positive this is exactly "t > 0 and t is
    representable".
    """
    return t > 0 and is_representable(table, t)


def obstruction_set_fast(prefix, M: int, table: AperyTable) -> ObstructionSet:
    """Blocked integers of window M over ``prefix`` via its Apery table.

    An integer t is blocked iff t = m_i + s for a prefix entry m_i and a
    nonzero element s of the semigroup the prefix generates.  Those t are
    exactly the semigroup's nonzero elements other than its minimal
    generators (Rosales & Garcia-Sanchez, "Numerical Semigroups", 2009,
    ch. 1).  With S the prefix sum, no prefix entry lies past window 1, since
    (M-1)*S >= S for M >= 2, so only window 1 has minimal generators to drop.
    This is :meth:`Semigroup.window` of the prefix with ``table`` as its
    table, which must be built from the prefix entries.  One or two entries
    read their classes in closed form, which equal any such table's.
    """
    pref = tuple(operator.index(p) for p in prefix)
    if table.generators != pref:
        raise ValueError(
            f"table generators {table.generators} do not match prefix {pref}"
        )
    group = Semigroup(pref)
    group._state.table = table
    return group.window(M)
