"""Exact numerical-semigroup membership: the Apery engine and its oracle.

The Apery table stores, per residue class modulo the smallest generator,
the least representable integer, so :func:`is_representable` answers "is t
a nonnegative integer combination of the generators?" in O(1) for any t.
A class holds exactly its least value and every larger integer of the class,
one arithmetic progression of step m_1.  An obstruction set is the
semigroup's nonzero elements minus its minimal generators, so the window
pass reads each class's progression tail inside the window, in
O(m_1 + output) time and memory for any window index.

Two generators a < b need no table: the least elements of the classes
modulo a are the multiples k*b, 0 <= k < a/gcd(a, b).  So
:func:`pair_membership` answers membership in closed form, and
:func:`pair_window` walks only the multiples of b below the window top,
in time and memory that follow the output.

The sieve, a forward dynamic program over 0..bound, is kept only as the
independent oracle the tests compare the Apery engine against; the
production functions do not accept it, and numpy, which it runs on, is
imported on its first call only.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
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
    if len(gens) == 1:
        return cyclic_apery(gens[0])
    table = _pair_apery(*gens[:2])
    for g in gens[2:]:
        table = extend_apery(table, g)
    return table


def cyclic_apery(m: int) -> AperyTable:
    """The table of the semigroup generated by m alone: only multiples of m."""
    return AperyTable(generators=(m,), modulus=m, least=(0,) + (None,) * (m - 1))


def extend_apery(table: AperyTable, g: int) -> AperyTable:
    """The Apery table of ``table.generators`` plus ``g``, derived from ``table``.

    One round-robin pass (Boecker & Liptak, "A fast and simple algorithm for
    the money changing problem", 2007).  Adding g links residue r to
    (r + g) mod m, which splits the residues into gcd(m, g) cycles, each the
    residues of one class modulo gcd(m, g).  Walking a cycle once from its
    least label relaxes every label in it, so the pass costs O(m).  On a
    one-generator table the pass has the closed form of :func:`_pair_apery`.
    """
    g = operator.index(g)
    gens = table.generators
    if g in gens:
        return table
    if g < table.modulus:
        return build_apery((*gens, g))
    if len(gens) == 1:
        return _pair_apery(table.modulus, g)
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


def _pair_apery(m: int, g: int) -> AperyTable:
    """The table of <m, g> for m < g: Ap = {k*g : 0 <= k < m / d}, d = gcd(m, g).

    Adding multiples of m keeps the class, so the least element of a class
    is its least multiple of g; the m/d multiples below (m/d)*g fall in
    distinct classes, the multiples of d, and the others stay unreachable.
    """
    least: list[int | None] = [None] * m
    for value in range(0, m // math.gcd(m, g) * g, g):
        least[value % m] = value
    return AperyTable(generators=(m, g), modulus=m, least=tuple(least))


def pair_membership(a: int, b: int) -> Callable[[int], bool]:
    """Membership in <a, b>, a < b, in closed form: the returned test tells
    whether an integer t lies in the semigroup (false for every t < 0).

    With d = gcd(a, b), a*k_a + b*k_b = t holds exactly for k_a in one
    residue class modulo b/d, the least of which is (t/d) * (a/d)^-1 mod
    b/d, so t is in <a, b> iff d divides t and that least k_a has
    a*k_a <= t.
    """
    d = math.gcd(a, b)
    period = b // d
    inverse = pow(a // d, -1, period)

    def in_pair(t: int) -> bool:
        return t % d == 0 and t // d * inverse % period * a <= t

    return in_pair


def _check_window(M: int) -> int:
    M = operator.index(M)
    if M < 1:
        raise ValueError("window index M must be >= 1")
    return M


def pair_window(a: int, b: int, M: int) -> ObstructionSet:
    """The obstruction set of window M over the prefix (a, b), a < b, with
    no table.

    It is what :func:`obstruction_set_fast` returns from the pair's Apery
    table, whose classes modulo a start at k*b for k < a/gcd(a, b).  The
    pass walks only the k*b below the window top, so it takes
    O(min(a, M) + output) time and memory.  Its minimal generators are a,
    and b unless a divides b.
    """
    a, b, M = operator.index(a), operator.index(b), _check_window(M)
    if not 0 < a < b:
        raise ValueError(f"need 0 < a < b, got ({a}, {b})")
    lo, hi = window_interval(a + b, M)
    starts = range(0, min(a // math.gcd(a, b) * b, hi), b)
    minimal = {a} if b % a == 0 else {a, b}
    return _window((a, b), M, lo, hi, a, starts, minimal)


def _window(
    prefix: tuple[int, ...],
    M: int,
    lo: int,
    hi: int,
    step: int,
    starts,
    minimal: set[int],
) -> ObstructionSet:
    """The window (lo, hi) of a semigroup whose elements are the
    progressions start, start + step, ... of ``starts`` (each below hi),
    less the ``minimal`` generators in window 1.

    The pass extends one list with each progression's tail inside the
    window and sorts it once.
    """
    first_in = lo + 1
    elements: list[int] = []
    for start in starts:
        first = start if start >= first_in else first_in + (start - first_in) % step
        elements.extend(range(first, hi, step))
    elements.sort()
    if M == 1:
        elements = [t for t in elements if t not in minimal]
    return ObstructionSet(prefix=prefix, window=M, interval=(lo, hi), elements=tuple(elements))


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


def _minimal_generators(table: AperyTable) -> set[int]:
    """The generators that are not a sum of two nonzero elements."""
    gens = table.generators
    return {g for g in gens if not any(is_representable(table, g - h) for h in gens if h < g)}


def obstruction_set_fast(prefix, M: int, table: AperyTable) -> ObstructionSet:
    """Blocked integers of window M over ``prefix`` via its Apery table.

    An integer t is blocked iff t = m_i + s for a prefix entry m_i and a
    nonzero element s of the semigroup the prefix generates.  Those t are
    exactly the semigroup's nonzero elements other than its minimal
    generators (Rosales & Garcia-Sanchez, "Numerical Semigroups", 2009,
    ch. 1).  With S the prefix sum, no prefix entry lies past window 1, since
    (M-1)*S >= S for M >= 2, so only window 1 has minimal generators to drop.
    The semigroup's elements in class r modulo m_1 are least[r], least[r] +
    m_1, ..., so the pass extends the result with each reachable class's
    progression from its first value inside the window and sorts it once.
    The table must be built from the prefix entries; any window takes
    O(m_1 + output) time and memory.
    """
    pref = tuple(operator.index(p) for p in prefix)
    if table.generators != pref:
        raise ValueError(
            f"table generators {table.generators} do not match prefix {pref}"
        )
    M = _check_window(M)
    lo, hi = window_interval(sum(pref), M)
    starts = [least for least in table.least if least is not None and least < hi]
    minimal = _minimal_generators(table) if M == 1 else set()
    return _window(pref, M, lo, hi, table.modulus, starts, minimal)
