"""Acceptance suite: one test per release criterion.

Every criterion is exact (integer equality, no tolerances) and carries a
wall-clock budget.  Each test prints its own PASS line so a verbose run
reads as a checklist.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import numpy as np

from qcweights import core, counting, semigroup
from qcweights.cli import main

from oracles import oracle_representable, sieve_contains, sieve_window_elements

GOLDEN = Path(__file__).parent / "golden"

TABLE_1_ROWS = {
    11: (7, (17, 18, 19, 23, 24, 28, 29)),
    13: (8, (19, 21, 22, 24, 27, 29, 32, 34)),
    17: (11, (23, 24, 26, 28, 29, 31, 33, 36, 38, 41, 43)),
    19: (12, (26, 27, 28, 31, 32, 33, 36, 37, 41, 42, 46, 47)),
    23: (14, (29, 31, 32, 34, 36, 37, 39, 41, 42, 44, 47, 49, 52, 54)),
}

TABLE_2_VALUES = (0, 1, 2, 3, 4, 5, 6, 8, 9, 11, 12, 13, 14)

GAP_SETS_M1_3 = {
    5: (),
    7: (11,),
    11: (16, 19),
    13: (17, 20, 23),
    17: (22, 25, 28, 31),
    19: (23, 26, 29, 32, 35),
    23: (28, 31, 34, 37, 40, 43),
    29: (34, 37, 40, 43, 46, 49, 52, 55),
}


@contextmanager
def budget(label, limit_s):
    started = time.perf_counter()
    yield
    elapsed = time.perf_counter() - started
    assert elapsed < limit_s, f"{label} took {elapsed:.2f}s, budget {limit_s}s"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f}s)")


def test_criterion_01_d_table_reproduction(capsys):
    with budget("1 d-table reproduction", 1.0):
        rows = counting.table_d(5, sorted(TABLE_1_ROWS))
        for m2, d, gap in rows:
            assert (d, gap) == TABLE_1_ROWS[m2], m2
        for m2, (d, gap) in TABLE_1_ROWS.items():
            report = counting.closed_form_count(5, m2)
            assert report.closed_form == d and report.gap_set == gap
        assert main(["table", "d-table"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "d_table.txt").read_text()


def test_criterion_02_f_table_reproduction(capsys):
    with budget("2 f-table reproduction", 1.0):
        rows = counting.table_f(counting.TABLE_F_M2)
        assert tuple(f for _, f in rows) == TABLE_2_VALUES
        assert main(["table", "f-table"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "f_table.txt").read_text()


def test_criterion_03_gap_sets_for_m1_3():
    with budget("3 gap sets for m1=3", 1.0):
        for m2, gap in GAP_SETS_M1_3.items():
            report = counting.closed_form_count(3, m2)
            assert report.gap_set == gap, m2
            assert report.matches
            # the same sets through the admissible-weight path
            assert tuple(core.enumerate_admissible((3, m2), 2)) == gap, m2


def test_criterion_04_obstruction_set_goldens():
    with budget("4 obstruction sets across backends", 1.0):
        for prefix, expected in [
            ((3, 7), tuple(range(12, 20))),
            ((3, 5), tuple(range(9, 16))),
        ]:
            for backend in core.BACKENDS:
                iset = core.obstruction_set(prefix, 2, backend)
                assert iset.elements == expected, (prefix, backend)


def test_criterion_05_classification_goldens():
    with budget("5 classification goldens", 1.0):
        for weight, window in [((3, 5, 7), 1), ((4, 5, 7), 1), ((3, 7, 11), 2)]:
            verdict = core.is_in_class(weight)
            assert verdict.in_class and verdict.witnesses == (window,), weight
        # no third entry works for (3, 5) in any window index 2..10
        for window in range(2, 11):
            assert core.enumerate_admissible((3, 5), window) == []
        for m3 in range(9, 80):
            if math.gcd(3, 5, m3) != 1:
                continue
            assert not core.is_in_class((3, 5, m3)).in_class, m3


def test_criterion_06_membership_implies_resonance_free(capsys):
    with budget("6 membership implies resonance-free (m3 <= 60)", 10.0):
        checked = 0
        for m in combinations(range(1, 61), 3):
            if math.gcd(*m) != 1:
                continue
            if core.is_in_class(m).in_class:
                assert core.resonances(m) == [], m
                checked += 1
        assert checked > 1000
        assert main(["scan", "--n", "3", "--max", "60", "--filter", "disagree",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1:] == []


def test_criterion_07_closed_form_matches_enumeration():
    with budget("7 closed form vs enumeration (<= 200)", 30.0):
        primes = [p for p in range(5, 201) if core.is_prime(p)]
        for idx, m1 in enumerate(primes):
            for m2 in primes[idx + 1 :]:
                assert counting.closed_form_count(m1, m2).matches, (m1, m2)
        for m2 in primes:
            report = counting.closed_form_count(3, m2)
            assert report.formula == "f" and report.matches, m2


def test_criterion_08_window_size_monotonicity():
    with budget("8 window-size monotonicity", 5.0):
        rng = random.Random(0xA11CE)
        for _ in range(50):
            m1 = rng.randint(1, 49)
            m2 = rng.randint(m1 + 1, 50)
            sizes = [core.obstruction_set((m1, m2), w).size for w in range(1, 12)]
            assert all(a <= b for a, b in zip(sizes, sizes[1:])), (m1, m2, sizes)


def _brute_cost(gens, hi):
    # Estimated nested-loop nodes: lattice point counts per prefix level.
    total, prod, fact = 0, 1, 1
    for r, g in enumerate(sorted(gens), start=1):
        prod *= g
        fact *= r
        total += hi**r // (fact * prod) + 1
    return total


def test_criterion_09_backend_oracle_equivalence():
    with budget("9 backend equivalence (200 random sets)", 60.0):
        rng = random.Random(0x5EED5)
        for _ in range(200):
            gens = tuple(sorted(rng.sample(range(1, 501), rng.randint(2, 6))))
            bound = rng.randint(50, 100_000)
            sieve = semigroup.build_sieve(gens, bound)
            apery = semigroup.build_apery(gens)

            # full-range sieve/apery agreement
            sentinel = bound + 1
            least = np.array(
                [v if v is not None else sentinel for v in apery.least], dtype=np.int64
            )
            t = np.arange(bound + 1)
            assert np.array_equal(sieve.flags, t >= least[t % apery.modulus])

            # nested-loop oracle agreement on sampled queries
            cap = 2000
            while cap > 4 and _brute_cost(gens, cap) > 25_000:
                cap //= 2
            cap = min(cap, bound)
            for _ in range(4):
                q = rng.randint(0, cap)
                expected = oracle_representable(gens, q)
                assert sieve_contains(sieve, q) == expected
                assert semigroup.is_representable(apery, q) == expected

            # sieve/apery obstruction sets at every window index up to 3
            sigma = sum(gens)
            window_sieve = semigroup.build_sieve(gens, 3 * sigma)
            for window in (1, 2, 3):
                fast = semigroup.obstruction_set_fast(gens, window, apery)
                assert fast.elements == sieve_window_elements(window_sieve, window)
                assert fast.interval == ((window - 1) * sigma, window * sigma)

            # brute backend included wherever nested loops are feasible,
            # shrinking the window index and then the smallest generators
            brute_gens, brute_window = gens, rng.randint(1, 3)
            while True:
                hi = brute_window * sum(brute_gens)
                if _brute_cost(brute_gens, hi) <= 150_000:
                    break
                if brute_window > 1:
                    brute_window -= 1
                elif len(brute_gens) > 2:
                    brute_gens = brute_gens[1:]
                else:
                    break
            results = [
                core.obstruction_set(brute_gens, brute_window, backend).elements
                for backend in core.BACKENDS
            ]
            assert results[0] == results[1] == results[2], (brute_gens, brute_window)


def test_criterion_10_zero_set_reduction():
    with budget("10 zero-set reduction (degree 12)", 30.0):
        rng = random.Random(0xC0FFEE)
        produced = 0
        while produced < 100:
            n = rng.randint(2, 5)
            entries = tuple(sorted(rng.sample(range(1, 41), n)))
            if math.gcd(*entries) != 1:
                continue
            produced += 1
            assert core.zero_set_equivalence_check(entries, 12) is True, entries
