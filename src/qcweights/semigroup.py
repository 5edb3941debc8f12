"""Fast exact backends for numerical-semigroup membership.

Both backends answer the same question: is t a nonnegative integer
combination of the generators?  The sieve is a forward dynamic program over
0..bound; the Apery table stores, per residue class modulo the smallest
generator, the least representable integer, which makes later queries O(1)
and unbounded.  Either one can serve as the other's oracle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from qcweights.model import ObstructionSet


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


def obstruction_set_fast(prefix, M: int, table: RepresentabilityTable | AperyTable) -> ObstructionSet:
    """Blocked integers of window M over ``prefix`` via a membership table.

    An integer t in the open window is blocked iff t - m_i is representable
    and positive for some prefix entry m_i.  The table must be built from the
    prefix entries and, for a sieve, cover the window top M * sum(prefix).
    """
    pref = tuple(operator.index(p) for p in prefix)
    if table.generators != pref:
        raise ValueError(
            f"table generators {table.generators} do not match prefix {pref}"
        )
    M = operator.index(M)
    if M < 1:
        raise ValueError("window index M must be >= 1")
    sigma = sum(pref)
    lo, hi = (M - 1) * sigma, M * sigma
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
    else:
        elements = tuple(t for t in range(lo + 1, hi) if is_blocked(table, pref, t))
    return ObstructionSet(prefix=pref, window=M, interval=(lo, hi), elements=elements)
