"""Exact numerical-semigroup membership: the Apery engine and its oracle.

Both tables answer the same question: is t a nonnegative integer
combination of the generators?  The Apery table stores, per residue class
modulo the smallest generator, the least representable integer, which makes
queries O(1) and unbounded.  Every production window pass runs on it, in
O(S*n) time and O(m_1 + S) memory for any window index.  The sieve, a
forward dynamic program over 0..bound, is the independent oracle the tests
compare the Apery engine against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from qcweights.model import ObstructionSet, window_interval

_INT64_MAX = 2**63 - 1

# Windows narrower than this are tested one integer at a time: each numpy
# call costs about a microsecond, which the vectorized pass wins back only
# on wider windows.  A scan computes thousands of windows of a few dozen
# integers each.
_VECTOR_MIN_WIDTH = 96


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

    Starts from the table of the smallest generator alone and adds the others
    one at a time with :func:`extend_apery`.
    """
    gens = _check_generators(generators)
    table = cyclic_apery(gens[0])
    for g in gens[1:]:
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
    is its least multiple of g.  The classes hit are the multiples of d, and
    class d*j is hit first by k = j * (g/d)^-1 mod (m/d).
    """
    d = math.gcd(m, g)
    period = m // d
    inverse = pow(g // d, -1, period)
    # int64 while every intermediate value fits; Python ints beyond that.
    wide = (period - 1) * max(period, g) > _INT64_MAX
    j = np.arange(period, dtype=object if wide else np.int64)
    reachable = (j * inverse % period * g).tolist()
    if d == 1:
        return AperyTable(generators=(m, g), modulus=m, least=tuple(reachable))
    least: list[int | None] = [None] * m
    least[::d] = reachable
    return AperyTable(generators=(m, g), modulus=m, least=tuple(least))


def is_representable(table: RepresentabilityTable | AperyTable, t: int) -> bool:
    """True iff t is a nonnegative combination of the generators (0 counts)."""
    t = operator.index(t)
    if t < 0:
        return False
    if isinstance(table, RepresentabilityTable):
        if t > table.bound:
            raise ValueError(f"query {t} exceeds sieve bound {table.bound}")
        return bool(table.flags[t])
    least = table.least[t % table.modulus]
    return least is not None and t >= least


def is_representable_nonzero(table: RepresentabilityTable | AperyTable, t: int) -> bool:
    """True iff t is representable with at least one positive coefficient.

    Since all generators are positive this is exactly "t > 0 and t is
    representable".
    """
    return t > 0 and is_representable(table, t)


def is_blocked(table: AperyTable, prefix: tuple[int, ...], t: int) -> bool:
    """True iff t is a prefix entry plus a nonzero combination of the
    generators, the membership test of an obstruction set.

    ``is_representable_nonzero`` inlined for Apery tables: scans run this
    test on tens of thousands of integers.
    """
    least, modulus = table.least, table.modulus
    for mi in prefix:
        r = t - mi
        if r > 0:
            bound = least[r % modulus]
            if bound is not None and r >= bound:
                return True
    return False


def _blocked_offsets(table: AperyTable, prefix: tuple[int, ...], start: int, width: int) -> np.ndarray:
    """Offsets o in [0, width) at which start + o is blocked, in one numpy pass.

    t is blocked iff t - m_i >= nonzero[(t - m_i) mod m_1] for some m_i, where
    nonzero[r] is the least positive element of class r (it differs from the
    least element only in class 0, where it is m_1).  The test is compared in
    offsets, nonzero[r] <= o + (start - m_i), so numpy never sees t itself,
    which may be of any size.  Once start - m_i reaches ``top``, the largest
    threshold, every reachable class passes, so it is capped there; an
    unreachable class gets a threshold that no offset reaches.
    """
    modulus = table.modulus
    least = table.least
    if None in least:
        least = [-1 if v is None else v for v in least]
    nonzero = np.fromiter(least, dtype=np.int64, count=modulus)
    nonzero[0] = modulus
    top = int(nonzero.max())
    nonzero[nonzero < 0] = top + width
    # The threshold of offset o against m_i is tiled[(start - m_i) mod m_1 + o].
    tiled = np.resize(nonzero, modulus + width)
    offsets = np.arange(width, dtype=np.int64)
    blocked = np.zeros(width, dtype=bool)
    for mi in prefix:
        base = start - mi
        shift = base % modulus
        blocked |= tiled[shift:shift + width] <= offsets + min(base, top)
    return np.flatnonzero(blocked)


def obstruction_set_fast(prefix, M: int, table: RepresentabilityTable | AperyTable) -> ObstructionSet:
    """Blocked integers of window M over ``prefix`` via a membership table.

    An integer t in the open window is blocked iff t - m_i is representable
    and positive for some prefix entry m_i.  The table must be built from the
    prefix entries and, for a sieve, cover the window top M * sum(prefix).
    An Apery table answers any window in O(S*n) time and O(m_1 + S) memory.
    """
    pref = tuple(operator.index(p) for p in prefix)
    if table.generators != pref:
        raise ValueError(
            f"table generators {table.generators} do not match prefix {pref}"
        )
    M = operator.index(M)
    if M < 1:
        raise ValueError("window index M must be >= 1")
    lo, hi = window_interval(sum(pref), M)
    if isinstance(table, RepresentabilityTable):
        if table.bound < hi:
            raise ValueError(
                f"sieve bound {table.bound} is smaller than window top {hi}"
            )
        # vectorized window pass; million-scale windows stay fast
        window_values = np.arange(lo + 1, hi, dtype=np.int64)
        blocked = np.zeros(window_values.shape, dtype=bool)
        for mi in pref:
            shifted = window_values - mi
            positive = shifted > 0
            blocked |= positive & table.flags[np.clip(shifted, 0, table.bound)]
        elements = tuple(int(t) for t in window_values[blocked])
    elif hi - lo - 1 < _VECTOR_MIN_WIDTH:
        elements = tuple(t for t in range(lo + 1, hi) if is_blocked(table, pref, t))
    else:
        start = lo + 1
        offsets = _blocked_offsets(table, pref, start, hi - start).tolist()
        elements = tuple(start + o for o in offsets)
    return ObstructionSet(prefix=pref, window=M, interval=(lo, hi), elements=elements)
