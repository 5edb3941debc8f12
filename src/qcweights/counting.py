"""Window census for length-2 prefixes.

Splits the second window's obstruction set into its four closed-form parts,
enumerates the complementary gap set (each gap element extends the prefix
into the class), and evaluates the closed-form cardinalities, which are
proven only where both prefix entries are prime (or the first is 3), so the
closed form is withheld elsewhere and enumeration alone is reported.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from qcweights import core
from qcweights.model import IntRuns, WeightError

# The published reference rows: gap counts for first entry 5, and the m1 = 3
# count f(m2) over the primes 5..47.
TABLE_D_M1 = 5
TABLE_D_M2 = (11, 13, 17, 19, 23)
TABLE_F_M2 = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

FORMULA_D = "d"
FORMULA_D_PRIME = "d-prime"
FORMULA_F = "f"


@dataclass(frozen=True)
class SPartition:
    """Four-part split of the window-2 obstruction set over (m1, m2).

    s1: multiples of m1; s2: multiples of m1 shifted by m2; s3: the single
    value m1 + 2*m2; s4: the small multiples 2*m2, 3*m2.  ``overlap`` is
    s1 & s4, nonempty only when m1 = 3 and 3*m2 lands in the window.
    """

    m1: int
    m2: int
    s1: tuple[int, ...]
    s2: tuple[int, ...]
    s3: tuple[int, ...]
    s4: tuple[int, ...]
    overlap: tuple[int, ...]

    @property
    def union(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.s1) | set(self.s2) | set(self.s3) | set(self.s4)))


@dataclass(frozen=True)
class CountReport:
    """Gap-set census for the second window over (m1, m2).

    ``formula`` and ``closed_form`` are None outside the proven cases;
    ``matches`` compares the closed form with the enumerated gap size and is
    vacuously true when the closed form is withheld.  ``gap_set`` is an
    ``IntRuns`` over the window's maximal gap runs, equal to the tuple of
    the gaps; any int sequence is accepted.
    """

    m1: int
    m2: int
    window_size: int
    i_set_size: int
    gap_set: IntRuns | tuple[int, ...]
    formula: str | None
    closed_form: int | None
    matches: bool


def _check_pair(m1: int, m2: int) -> tuple[int, int]:
    m1, m2 = operator.index(m1), operator.index(m2)
    if m1 < 2:
        raise WeightError(f"m1 must be >= 2, got {m1}")
    if m2 <= m1:
        raise WeightError(f"need m1 < m2, got ({m1}, {m2})")
    return m1, m2


def s_partition(m1: int, m2: int) -> SPartition:
    """Compute the four parts and their overlap by direct enumeration."""
    m1, m2 = _check_pair(m1, m2)
    lo, hi = m1 + m2, 2 * (m1 + m2)
    s1 = tuple(r * m1 for r in range(2, hi // m1 + 1) if lo < r * m1 < hi)
    s2 = tuple(r * m1 + m2 for r in range(2, hi // m1 + 1) if lo < r * m1 + m2 < hi)
    s3 = (m1 + 2 * m2,)
    s4 = tuple(r * m2 for r in (2, 3) if lo < r * m2 < hi)
    overlap = tuple(sorted(set(s1) & set(s4)))
    return SPartition(m1=m1, m2=m2, s1=s1, s2=s2, s3=s3, s4=s4, overlap=overlap)


def _select_formula(m1: int, m2: int) -> tuple[str | None, int | None]:
    if core.is_prime(m1) and core.is_prime(m2) and m1 >= 5:
        if 2 * m1 < m2:
            return FORMULA_D, m1 + m2 - 5 - (2 * m2) // m1
        # m2 is a prime above m1 >= 5, so odd, and never 2*m1.
        return FORMULA_D_PRIME, m1 + m2 - 6 - (2 * m2) // m1
    if m1 == 3 and m2 >= 5 and core.is_prime(m2):
        return FORMULA_F, m2 - 2 - (2 * m2) // 3
    return None, None


def closed_form_count(m1: int, m2: int) -> CountReport:
    """Enumerate the window-2 gap set and compare it with the closed form.

    The gap set is the window complement of the obstruction set.  Within the
    proven hypotheses the report's ``matches`` flag must be true; a false
    flag signals an internal inconsistency, never a tolerable outcome.
    """
    m1, m2 = _check_pair(m1, m2)
    iset = core.obstruction_set((m1, m2), 2)
    lo, hi = iset.interval
    gap = IntRuns(iset.gap_runs())
    window_size = hi - lo - 1
    if len(gap) + len(iset.elements) != window_size:
        raise RuntimeError("window census inconsistent with obstruction set")
    formula, closed = _select_formula(m1, m2)
    matches = closed is None or closed == len(gap)
    return CountReport(
        m1=m1,
        m2=m2,
        window_size=window_size,
        i_set_size=len(iset.elements),
        gap_set=gap,
        formula=formula,
        closed_form=closed,
        matches=matches,
    )


def table_d(m1: int, m2_list) -> list[tuple[int, int | None, IntRuns]]:
    """Rows (m2, count, gap set) for a fixed m1, one per requested m2."""
    rows = []
    for m2 in m2_list:
        report = closed_form_count(m1, m2)
        rows.append((report.m2, report.closed_form, report.gap_set))
    return rows


def table_f(m2_list) -> list[tuple[int, int]]:
    """Rows (m2, f(m2)) with f(m2) = m2 - 2 - floor(2*m2 / 3).

    Only primes m2 >= 5 are accepted; the formula is proven exactly there.
    """
    rows = []
    for m2 in m2_list:
        m2 = operator.index(m2)
        if m2 < 5 or not core.is_prime(m2):
            raise WeightError(f"f(m2) needs a prime m2 >= 5, got {m2}")
        rows.append((m2, _select_formula(3, m2)[1]))
    return rows
