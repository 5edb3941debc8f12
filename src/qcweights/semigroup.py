"""Exact numerical-semigroup membership: one ``Semigroup`` value per
generator tuple, the Apery engine under it, and the sieve oracle.

The Apery table stores, per residue class modulo the smallest generator,
the least representable integer, so :func:`is_representable` answers "is t
a nonnegative integer combination of the generators?" in O(1) for any t.
A class holds exactly its least value and every larger integer of the class,
one arithmetic progression of step m_1.  An obstruction set is the
semigroup's nonzero elements minus its minimal generators, so the window
pass reads each class's progression tail inside the window, in
O(m_1 + output) time and memory for any window index.

:class:`Semigroup` answers membership and windows for one generator
tuple, as one of two classes.  Membership is a closed form for one or two
generators, one generator g being the pair (g, g), and the table, or a
budgeted search before it, for three or more.  Its window pass is one for
every generator count: the classes of one or two generators start at the
multiples of the largest, and any other count's are read off the table.
:func:`obstruction_set_fast` runs that pass over a given table.

:class:`BoundedSemigroup` answers the same questions below a fixed width,
as the bits of one int, for a walk that adds one generator at a time.

The sieve, a forward dynamic program over 0..bound, is kept only as the
independent oracle the tests compare the Apery engine against; the
production functions do not accept it, and numpy, which it runs on, is
imported on its first call only.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
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


class Semigroup:
    """The numerical semigroup of a generator tuple.

    ``contains(t)`` tells whether t is a nonnegative combination of the
    generators, and is false for every t < 0.  ``window(M)`` is the
    obstruction set of window M over the generators; it reads the semigroup
    as the arithmetic progressions of ``_progressions``, with one body for
    every generator count.  ``table`` is the Apery table and ``suffix`` the
    semigroup of gens[1:]; both are made on first use.  ``d`` is the
    generators' gcd.

    ``Semigroup(gens)`` is one of two classes, chosen by the generator
    count: :class:`_Pair` for one or two generators and :class:`_Many` for
    three or more.  Each has its own ``contains``, ``_build_table``,
    ``_minimal``, the minimal generators, and ``_progressions(hi)``, the
    step and the starts below hi of the arithmetic progressions whose union
    is the semigroup.
    """

    __slots__ = ("gens", "d", "_table", "_suffix")

    def __new__(cls, generators) -> Semigroup:
        # The chosen class's __init__ then runs with the same argument.
        gens = _check_generators(generators)
        self = object.__new__(_Pair if len(gens) <= 2 else _Many)
        self.gens = gens
        self.d = math.gcd(*gens)
        self._table = self._suffix = None
        return self

    @property
    def table(self) -> AperyTable:
        """The Apery table, built on first use."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    @property
    def suffix(self) -> Semigroup:
        """The semigroup of gens[1:], made on first use from the bare tuple."""
        if self._suffix is None:
            self._suffix = Semigroup(self.gens[1:])
        return self._suffix

    def window(self, M: int) -> ObstructionSet:
        """The obstruction set of window M over the generators.

        One list is extended with each progression's tail inside the
        window, from its first term there; the list is sorted once and, in
        window 1, loses the minimal generators, which only window 1 holds (a
        lone generator is its top): O(m_1 + output) time and memory, m_1
        being the smallest generator, or O(min(m_1, M) + output) for one or
        two generators, whose progressions start at the multiples of the
        largest.
        """
        M = _check_window(M)
        lo, hi = window_interval(sum(self.gens), M)
        step, starts = self._progressions(hi)
        first_in = lo + 1
        elements: list[int] = []
        for start in starts:
            first = start if start >= first_in else first_in + (start - first_in) % step
            elements.extend(range(first, hi, step))
        elements.sort()
        if M == 1:
            minimal = self._minimal()
            elements = [t for t in elements if t not in minimal]
        return ObstructionSet(
            prefix=self.gens, window=M, interval=(lo, hi), elements=tuple(elements)
        )


class _Pair(Semigroup):
    """One or two generators a <= b, one generator g being the pair (g, g).

    With d = gcd(a, b), a*k_a + b*k_b = t holds exactly for k_a in one
    residue class modulo ``period`` = b/d, the least of which is
    (t/d) * ``inverse`` mod b/d, ``inverse`` being (a/d)^-1 mod b/d.  So t
    is in <a, b> iff d divides t and that least k_a has a*k_a <= t.  For one
    generator, d = g, the period is 1 and the inverse 0, so the test is
    divisibility by g and t >= 0.  ``d``, ``period`` and ``inverse`` are
    kept for callers that walk the solutions.  No answer needs a table.
    """

    __slots__ = ("period", "inverse")

    def __init__(self, generators) -> None:
        gens = self.gens
        period = self.period = gens[-1] // self.d
        self.inverse = pow(gens[0] // self.d, -1, period)

    def contains(self, t: int) -> bool:
        d = self.d
        return t % d == 0 and t // d * self.inverse % self.period * self.gens[0] <= t

    def _build_table(self) -> AperyTable:
        # Each class start, all below a*b, is the least element of its class.
        gens = self.gens
        a = gens[0]
        least: list[int | None] = [None] * a
        for value in self._progressions(a * gens[-1])[1]:
            least[value % a] = value
        return AperyTable(generators=gens, modulus=a, least=tuple(least))

    def _minimal(self) -> tuple[int, ...]:
        # The general rule of _Many._minimal in closed form: b - a is in
        # <a, b> iff a divides b.
        gens = self.gens
        return gens if gens[-1] % gens[0] else gens[:1]

    def _progressions(self, hi: int) -> tuple[int, Iterable[int]]:
        # Adding multiples of a keeps the class, so the least element of a
        # class is its least multiple of b.  The a/d multiples k*b below
        # (a/d)*b fall in distinct classes, the multiples of d, and the other
        # classes are unreachable; the step is a.
        a, b = self.gens[0], self.gens[-1]
        top = a // self.d * b
        # A conditional, not min(): every pair window asks this.
        return a, range(0, top if top < hi else hi, b)


class _Many(Semigroup):
    """Three or more generators.

    A t that d does not divide is out at once.  Otherwise t is in the
    semigroup iff t - k*gens[0] lies in ``suffix`` for some k >= 0, and
    ``contains`` searches those k.  The searches share a budget; a search
    that would overrun it builds the table instead, and every later test is
    a lookup in it, inside the same call.  The budget is gens[0] steps, as
    many as the table has residues, so a value that is asked little never
    gets a table, and its table comes from :func:`build_apery`.
    """

    __slots__ = ("_budget",)

    def __init__(self, generators) -> None:
        self._budget = self.gens[0]

    def contains(self, t: int) -> bool:
        table = self._table
        if table is None:
            # Off the gcd, t is out before any step spends budget.
            if t < 0 or t % self.d:
                return False
            g = self.gens[0]
            needed = t // g + 1
            steps = min(needed, self._budget)
            if steps:
                inside = self.suffix.contains
                for k in range(steps):
                    if inside(t - k * g):
                        self._budget -= k + 1
                        return True
                self._budget -= steps
                if steps == needed:
                    return False
            table = self.table
        # Every least value is at least 0, so this is false for t < 0.
        least = table.least[t % table.modulus]
        return least is not None and t >= least

    def _build_table(self) -> AperyTable:
        return build_apery(self.gens)

    def _minimal(self) -> tuple[int, ...]:
        # The generators that are not a sum of two nonzero elements: g is
        # minimal unless g - h is an element for a smaller generator h.
        gens = self.gens
        contains = self.contains
        return tuple(g for g in gens if not any(contains(g - h) for h in gens if h < g))

    def _progressions(self, hi: int) -> tuple[int, Iterable[int]]:
        # Each class's least value, read off the table, starts its
        # progression; the step is m_1.
        table = self.table
        return table.modulus, [t for t in table.least if t is not None and t < hi]


class BoundedSemigroup:
    """The elements below ``width`` of the semigroup of ``gens``, as the
    bits of one int, for a walk that adds one generator at a time.

    Bit t of ``bits`` is 1 iff t is a nonnegative combination of the
    generators, and ``minimal`` holds the minimal generators.
    ``BoundedSemigroup(width)`` is {0}, and ``child(g)`` adds a generator.
    ``contains(t)`` is 1 or 0 for 0 <= t < width, ``mask(stop)`` the
    membership of 0, ..., stop - 1 as ASCII digits and ``window_size(M)``
    ``len(Semigroup(gens).window(M).elements)``; a mask or window past the
    width raises ``ValueError``.  A scan of n entries up to max_weight sizes
    windows that end below max_weight plus a prefix sum, so a width of
    n * max_weight + 1 serves all of it.
    """

    __slots__ = ("width", "gens", "bits", "minimal")

    def __init__(self, width: int, gens=(), bits: int = 1, minimal=()) -> None:
        self.width, self.gens, self.bits, self.minimal = width, gens, bits, minimal

    def child(self, g: int) -> BoundedSemigroup:
        """The semigroup with g, above every generator and below the width,
        added.

        Shift-and-OR doubling: after the shifts g, 2g, ..., 2^(i-1)*g each
        element plus 0, ..., 2^i - 1 copies of g is set.  The shifts stop at
        the first 2^i*g at or past the width, when those counts reach every
        multiple of g below it, and a bit cut off at the top sets no bit
        below it.  g is minimal exactly when it is no element yet, and no
        smaller generator stops being minimal, since none is a sum with g.
        """
        bits, width = self.bits, self.width
        top = self.gens[-1] if self.gens else 0
        if not top < g < width:
            raise ValueError(f"a child's generator must lie in ({top}, {width}), got {g}")
        gens = (*self.gens, g)
        if bits >> g & 1:
            return BoundedSemigroup(width, gens, bits, self.minimal)
        full = (1 << width) - 1
        shift = g
        while shift < width:
            bits |= bits << shift & full
            shift <<= 1
        return BoundedSemigroup(width, gens, bits, (*self.minimal, g))

    def contains(self, t: int) -> int:
        return self.bits >> t & 1

    def mask(self, stop: int) -> bytearray:
        if stop > self.width:
            raise ValueError(f"stop {stop} is past the width {self.width}")
        # Bit t is digit t from the right; the 1 at bit stop keeps the zeros.
        return bytearray(bin(self.bits & ((1 << stop) - 1) | 1 << stop)[:2:-1], "ascii")

    def window_size(self, M: int) -> int:
        # The elements in (lo, hi), less the minimal generators, which only
        # window 1 holds (a lone generator is its top).
        lo, hi = window_interval(sum(self.gens), _check_window(M))
        if hi > self.width:
            raise ValueError(f"window {M} ends past the width {self.width}")
        size = ((self.bits & ((1 << hi) - 1)) >> (lo + 1)).bit_count()
        if M == 1:
            size -= sum(g < hi for g in self.minimal)
        return size


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
    group._table = table
    return group.window(M)
