import math
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcweights import core, semigroup
from qcweights.model import ObstructionSet, window_interval

from oracles import (
    oracle_representable,
    oracle_window_elements,
    sieve_contains,
    sieve_window_elements,
)
from test_core import table_calls


def representable_upto(sieve, bound):
    return [t for t in range(bound + 1) if sieve_contains(sieve, t)]


def sieve_least(gens):
    """Least element per class modulo the smallest generator, read off a
    sieve; every least value lies below modulus * max generator."""
    modulus = gens[0]
    sieve = semigroup.build_sieve(gens, modulus * gens[-1])
    return tuple(
        next((t for t in range(r, sieve.bound + 1, modulus) if sieve.flags[t]), None)
        for r in range(modulus)
    )


def apery_window(prefix, window):
    """The Apery window pass over a freshly built table."""
    return semigroup.obstruction_set_fast(prefix, window, semigroup.build_apery(prefix))


def sieve_window(prefix, window):
    """The window as the sieve oracle gives it, sieved up to its top."""
    sigma = sum(prefix)
    sieve = semigroup.build_sieve(prefix, window * sigma)
    elements = sieve_window_elements(sieve, window)
    return ObstructionSet(prefix, window, window_interval(sigma, window), elements)


# Prefixes of one to three entries, two thirds of them scaled by 2 or 3 so
# that some residue classes are unreachable.
prefixes = st.builds(
    lambda entries, factor: tuple(sorted(factor * e for e in entries)),
    st.sets(st.integers(1, 7), min_size=1, max_size=3),
    st.integers(1, 3),
)


class TestBuildSieve:
    def test_reference_tables(self):
        assert representable_upto(semigroup.build_sieve((3, 5), 8), 8) == [0, 3, 5, 6, 8]
        assert representable_upto(semigroup.build_sieve((1,), 4), 4) == [0, 1, 2, 3, 4]
        assert representable_upto(semigroup.build_sieve((3, 7), 12), 12) == [
            0, 3, 6, 7, 9, 10, 12,
        ]

    def test_zero_is_always_representable(self):
        assert semigroup.build_sieve((4, 9), 0).flags[0]

    def test_monotone_closure(self):
        table = semigroup.build_sieve((4, 7, 9), 120)
        for g in table.generators:
            assert np.all(table.flags[:-g] <= table.flags[g:])

    def test_errors(self):
        with pytest.raises(ValueError, match="nonempty"):
            semigroup.build_sieve((), 5)
        with pytest.raises(ValueError, match=">= 1"):
            semigroup.build_sieve((0, 3), 5)
        with pytest.raises(ValueError, match=">= 0"):
            semigroup.build_sieve((3, 5), -1)

    def test_duplicate_generators_collapse(self):
        assert semigroup.build_sieve((3, 3, 5), 8).generators == (3, 5)


class TestBuildApery:
    def test_reference_tables(self):
        assert semigroup.build_apery((3, 5)).least == (0, 10, 5)
        assert semigroup.build_apery((2, 3)).least == (0, 3)
        assert semigroup.build_apery((1,)).least == (0,)

    def test_unreachable_classes_when_gcd_exceeds_one(self):
        table = semigroup.build_apery((4, 6))
        assert table.least == (0, None, 6, None)

    def test_least_values_minimal_per_class(self):
        for gens in [(3, 5), (4, 7), (5, 7, 11), (6, 10, 15), (2, 9)]:
            apery = semigroup.build_apery(gens)
            bound = max(v for v in apery.least if v is not None) + 1
            sieve = semigroup.build_sieve(gens, bound)
            for residue, value in enumerate(apery.least):
                hits = [
                    t
                    for t in range(bound + 1)
                    if t % apery.modulus == residue and sieve.flags[t]
                ]
                if value is None:
                    assert hits == []
                else:
                    assert hits[0] == value

    def test_error_on_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            semigroup.build_apery(())

    @pytest.mark.parametrize(
        "gens, g", [((3, 5), 7), ((4, 6), 9), ((4, 6), 10), ((6, 10), 15), ((5, 7), 3), ((5, 7), 7)]
    )
    def test_extension_matches_sieve(self, gens, g):
        # Covers several cycles, a cycle with no reachable class, a cycle
        # entered away from residue 0, a new smallest generator and a
        # repeated one.  Every least value lies below modulus * max generator.
        extended = semigroup.extend_apery(semigroup.build_apery(gens), g)
        all_gens = tuple(sorted({*gens, g}))
        assert extended.generators == all_gens
        assert extended.least == sieve_least(all_gens)

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 40), st.integers(1, 80))
    def test_first_extension_matches_sieve(self, m, g):
        # The pass from a one-generator table, or the pair's closed form
        # through a new smallest generator (g < m); g == m repeats it.
        extended = semigroup.extend_apery(semigroup.build_apery((m,)), g)
        all_gens = tuple(sorted({m, g}))
        assert extended.generators == all_gens
        assert extended.least == sieve_least(all_gens)

    @pytest.mark.parametrize("m, g", [(6, 10**30 + 1), (6, 10**30 + 4), (7, 2**62), (3, 2**61 + 1)])
    def test_first_extension_beyond_int64(self, m, g):
        # The least multiple of g in each class, by direct search.
        expected = [None] * m
        for k in reversed(range(m)):
            expected[k * g % m] = k * g
        extended = semigroup.extend_apery(semigroup.build_apery((m,)), g)
        assert extended.least == tuple(expected)
        assert all(type(v) is int for v in extended.least if v is not None)


# Pairs a < b up to 45, two thirds of them scaled by 2 or 3 so that the
# gcd exceeds 1, and some with a dividing b.
pairs = st.builds(
    lambda entries, factor: tuple(sorted(factor * e for e in entries)),
    st.sets(st.integers(1, 15), min_size=2, max_size=2),
    st.integers(1, 3),
)


def sieve_member(least, modulus, t):
    """Membership read off the sieve's least value per class modulo m_1."""
    if t < 0:
        return False
    first = least[t % modulus]
    return first is not None and t >= first


class TestPairClosedForm:
    """The table-free window and membership of a two-generator
    ``Semigroup`` against the sieve and the nested-loop oracle."""

    @settings(deadline=None, max_examples=60)
    @given(pairs, st.integers(1, 3))
    @example((2, 4), 1)
    @example((3, 9), 1)
    @example((1, 5), 1)
    @example((4, 6), 1)
    def test_window_matches_sieve_and_oracle(self, pair, window):
        got = semigroup.Semigroup(pair).window(window)
        expected = sieve_window(pair, window)
        assert got == expected
        assert list(got.elements) == oracle_window_elements(pair, window)
        assert got.gaps() == expected.gaps()
        assert got == apery_window(pair, window)

    @settings(deadline=None, max_examples=40)
    @given(pairs, st.data())
    def test_shifted_window_matches_sieve(self, pair, data):
        window = data.draw(st.integers(4, 10**5 // sum(pair)))
        got = semigroup.Semigroup(pair).window(window)
        assert got == sieve_window(pair, window)
        assert got.gaps() == sieve_window(pair, window).gaps()

    @settings(deadline=None, max_examples=60)
    @given(pairs, st.integers(0, 10**40))
    def test_huge_window_matches_sieve_classes(self, pair, window):
        # No sieve reaches these windows, but each class modulo a holds its
        # least element, as the sieve gives it, and all larger ones.
        window += 2**63
        least = sieve_least(pair)
        got = semigroup.Semigroup(pair).window(window)
        lo, hi = got.interval
        assert (lo, hi) == ((window - 1) * sum(pair), window * sum(pair))
        expected = [t for t in range(lo + 1, hi) if sieve_member(least, pair[0], t)]
        assert list(got.elements) == expected
        assert sorted(got.gaps() + got.elements) == list(range(lo + 1, hi))

    @settings(deadline=None, max_examples=60)
    @given(pairs, st.integers(2**63, 10**40))
    @example((2, 4), 1)
    @example((3, 9), 1)
    def test_membership_matches_sieve(self, pair, far):
        contains = semigroup.Semigroup(pair).contains
        bound = pair[0] * pair[1] + 1
        sieve = semigroup.build_sieve(pair, bound)
        for t in range(-pair[1], bound + 1):
            assert contains(t) == sieve_contains(sieve, t), t
        least = sieve_least(pair)
        for t in range(far, far + 2 * pair[0]):
            assert contains(t) == sieve_member(least, pair[0], t), t

    def test_membership_matches_oracle(self):
        for a, b in combinations(range(1, 13), 2):
            contains = semigroup.Semigroup((a, b)).contains
            for t in range(40):
                assert contains(t) == oracle_representable((a, b), t), (a, b, t)

    @settings(deadline=None, max_examples=60)
    @given(pairs)
    @example((2, 4))
    @example((6, 10))
    def test_pair_apery_matches_sieve(self, pair):
        table = semigroup.Semigroup(pair).table
        assert table.generators == pair
        assert table.least == sieve_least(pair)

    def test_window_reference(self):
        # Window 2 over (5, 7): seven blocked values, four admissible gaps.
        iset = semigroup.Semigroup((5, 7)).window(2)
        assert iset.elements == (14, 15, 17, 19, 20, 21, 22)
        assert iset.gaps() == (13, 16, 18, 23)

    def test_wide_sparse_window_walks_few_classes(self):
        # Of the 199,039 classes modulo a, four start below the window top.
        tracemalloc.start()
        try:
            iset = semigroup.Semigroup((199039, 199049)).window(2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert iset.elements == (398098, 597117, 597127, 597137, 597147, 796156, 796166)
        assert peak < 16 << 10

    @pytest.mark.parametrize("a, b, M", [(5, 5, 1), (7, 5, 1), (0, 5, 1), (3, 5, 0)])
    def test_bad_arguments(self, a, b, M):
        # A pair is made from a generator a >= 1 and a child b > a, and asked
        # for a window M >= 1.
        with pytest.raises(ValueError):
            semigroup.Semigroup((a,)).child(b).window(M)


# One to five generators up to 36, two thirds of them scaled by 2 or 3 so
# that the gcd exceeds 1.
generator_tuples = st.builds(
    lambda entries, factor: tuple(sorted(factor * e for e in entries)),
    st.sets(st.integers(1, 12), min_size=1, max_size=5),
    st.integers(1, 3),
)


def derived(gens):
    """The value of gens made as the scan makes it, one child at a time, so
    a value of three or more generators derives its table from its parent's."""
    group = semigroup.Semigroup(gens[:1])
    for g in gens[1:]:
        group = group.child(g)
    return group


def searched_only(gens):
    """A value made from the bare tuple whose searches, on every level of
    three or more generators, never run out of budget; and those levels."""
    group = semigroup.Semigroup(gens)
    levels = []
    level = group
    while len(level.gens) > 2:
        level._state.budget = 10**18
        levels.append(level)
        level = level.suffix
    return group, levels


class TestSemigroup:
    """Every way of making a ``Semigroup`` against the sieve and the
    nested-loop oracles, and against each other."""

    @settings(deadline=None, max_examples=80)
    @given(generator_tuples)
    @example((4,))
    @example((2, 4))
    @example((6, 10, 15))
    @example((3, 6, 9, 12, 15))
    def test_contains_matches_sieve(self, gens):
        # Every least value lies below modulus * max generator.
        bound = gens[0] * gens[-1] + 1
        sieve = semigroup.build_sieve(gens, bound)
        bare, kid = semigroup.Semigroup(gens), derived(gens)
        searched, levels = searched_only(gens)
        for t in range(-gens[-1], bound + 1):
            expected = sieve_contains(sieve, t)
            assert bare.contains(t) == expected, t
            assert kid.contains(t) == expected, t
            assert searched.contains(t) == expected, t
        assert all(level._state.table is None for level in levels)
        # A child looks every test up in its derived table, never searching.
        assert kid._state.suffix is None
        assert kid.table == semigroup.build_apery(gens)
        assert bare.table == kid.table

    def test_contains_matches_oracle(self):
        for size in (1, 2, 3):
            for gens in combinations(range(1, 9), size):
                bare, kid = semigroup.Semigroup(gens), derived(gens)
                for t in range(-3, 30):
                    expected = oracle_representable(gens, t)
                    assert bare.contains(t) == kid.contains(t) == expected, (gens, t)

    @settings(deadline=None, max_examples=80)
    @given(generator_tuples, st.integers(1, 3))
    @example((4,), 1)
    @example((2, 4), 1)
    @example((3, 9), 1)
    @example((4, 6), 2)
    @example((3, 6, 9), 1)
    @example((6, 10, 15), 1)
    def test_window_matches_sieve_and_oracle(self, gens, window):
        got = semigroup.Semigroup(gens).window(window)
        assert got == sieve_window(gens, window)
        assert got == derived(gens).window(window)
        if len(gens) <= 3:
            assert list(got.elements) == oracle_window_elements(gens, window)

    @settings(deadline=None, max_examples=80)
    @given(generator_tuples, st.integers(0, 80))
    @example((4,), 9)
    @example((2, 4), 11)
    @example((3, 9), 1)
    @example((6, 10, 15), 47)
    @example((1, 2), 0)
    def test_member_mask_matches_contains(self, gens, stop):
        # One slice assignment per progression below stop marks the members.
        sieve = semigroup.build_sieve(gens, stop)
        expected = bytearray(sieve_contains(sieve, t) for t in range(stop))
        assert semigroup.Semigroup(gens).member_mask(stop) == expected
        assert derived(gens).member_mask(stop) == expected

    def test_pair_member_mask_builds_no_table(self, monkeypatch):
        calls = table_calls(monkeypatch, stub=True)
        mask = semigroup.Semigroup((199039, 199049)).member_mask(398099)
        assert calls == Counter()
        members = [t for t in range(398099) if mask[t]]
        assert members == [0, 199039, 199049, 398078, 398088, 398098]

    @pytest.mark.parametrize("gens", [(3,), (3, 5), (4, 6), (20, 22, 24), (6, 10, 15, 21)])
    def test_negative_targets_spend_nothing(self, monkeypatch, gens):
        # False at once, on every path, with no search step and no table.
        built = []
        table = semigroup.AperyTable
        monkeypatch.setattr(
            semigroup, "AperyTable", lambda **fields: built.append(fields) or table(**fields)
        )
        group = semigroup.Semigroup(gens)
        budget = group._state.budget
        for t in (-1, -gens[0], -gens[0] - 1, -100, -(10**30)):
            assert group.contains(t) is False, t
        assert group._state.budget == budget
        assert group._state.table is None and group._state.suffix is None
        assert built == []
        assert derived(gens).contains(-1) is False

    @settings(deadline=None, max_examples=80)
    @given(
        st.sets(st.integers(1, 12), min_size=3, max_size=5),
        st.integers(2, 6),
        st.lists(st.integers(-100, 10**6), max_size=20),
    )
    @example({1, 4, 5}, 2, [])
    @example({3, 5, 7}, 3, [10**6])
    def test_contains_off_the_gcd_matches_table(self, entries, factor, targets):
        # Generators with gcd > 1: every way of making the value answers as
        # a lookup in build_apery's table does, and a fresh value answers a
        # target off the gcd with no search step and no table.
        gens = tuple(sorted(factor * e for e in entries))
        table = semigroup.build_apery(gens)
        bare, kid = semigroup.Semigroup(gens), derived(gens)
        searched, _ = searched_only(gens)
        assert bare.d == kid.d == math.gcd(*gens) > 1
        for t in [*range(-gens[-1], gens[0] * gens[-1] + 2), *targets]:
            expected = semigroup.is_representable(table, t)
            assert bare.contains(t) == kid.contains(t) == searched.contains(t) == expected, t
        fresh = semigroup.Semigroup(gens)
        for t in [*range(1, 3 * gens[-1]), *targets]:
            if t % fresh.d:
                assert fresh.contains(t) is False, t
        assert fresh._state.budget == gens[0]
        assert fresh._state.table is None and fresh._state.suffix is None

    def test_child_must_extend_upwards(self):
        with pytest.raises(ValueError, match="exceed"):
            semigroup.Semigroup((3, 5)).child(4)


class TestWindowSize:
    """``Semigroup.window_size(M)`` is ``len(window(M).elements)``, counted
    per residue class for every generator count without listing the
    window.  It shares its pass with ``window``, so it is checked against
    the sieve and the nested-loop oracle, not against ``window``; a pair
    builds no table."""

    @settings(deadline=None, max_examples=80)
    @given(pairs, st.integers(1, 4))
    @example((1, 5), 1)
    @example((2, 4), 1)
    @example((3, 9), 1)
    @example((3, 9), 2)
    @example((4, 6), 1)
    @example((6, 10), 3)
    def test_pair_matches_window_and_oracle(self, pair, window):
        group = semigroup.Semigroup(pair)
        size = group.window_size(window)
        assert group._state.table is None
        assert size == len(group.window(window).elements)
        assert size == len(oracle_window_elements(pair, window))

    @settings(deadline=None, max_examples=80)
    @given(pairs, st.integers(1, 10**30))
    @example((2, 4), 10**30)
    @example((4, 6), 10**30)
    @example((7, 15), 10**30)
    def test_pair_matches_window_at_huge_indices(self, pair, window):
        group = semigroup.Semigroup(pair)
        assert group.window_size(window) == len(group.window(window).elements)

    @settings(deadline=None, max_examples=60)
    @given(generator_tuples, st.integers(1, 4))
    @example((4,), 1)
    @example((3, 6, 9), 1)
    @example((4, 6, 8), 1)
    @example((6, 10, 15), 2)
    def test_any_generator_count_matches_window(self, gens, window):
        # In (3, 6, 9) and (4, 6, 8) some generators are not minimal, so
        # window 1 keeps them.
        expected = sieve_window(gens, window).size
        assert semigroup.Semigroup(gens).window_size(window) == expected
        assert derived(gens).window_size(window) == expected

    @settings(deadline=None, max_examples=60)
    @given(generator_tuples)
    @example((4,))
    @example((3, 6, 9))
    @example((4, 6, 8))
    def test_any_generator_count_past_the_conductor(self, gens):
        # Far past the conductor a window holds exactly the multiples of the
        # generators' gcd d, and the window's ends, multiples of the
        # generator sum, are multiples of d too.
        expected = sum(gens) // math.gcd(*gens) - 1
        assert semigroup.Semigroup(gens).window_size(10**30) == expected
        assert derived(gens).window_size(10**30) == expected

    @pytest.mark.parametrize(
        "pair, window",
        [((5, 7), 1), ((2, 4), 1), ((4, 6), 2), ((3, 9), 10**30), ((199039, 199049), 2)],
    )
    def test_pair_builds_no_table(self, monkeypatch, pair, window):
        calls = table_calls(monkeypatch, stub=True)
        size = semigroup.Semigroup(pair).window_size(window)
        assert calls == Counter()
        if pair == (199039, 199049):
            assert size == 7

    def test_bad_window_index(self):
        with pytest.raises(ValueError):
            semigroup.Semigroup((3, 5)).window_size(0)

    def test_length_3_scan_lists_no_window(self, monkeypatch):
        # Every window a scan sizes is counted per class, so none is listed,
        # through ``Semigroup.window`` or the table wrapper over it.
        calls = Counter()
        window = semigroup.Semigroup.window
        fast = semigroup.obstruction_set_fast
        monkeypatch.setattr(
            semigroup.Semigroup,
            "window",
            lambda *args: calls.update(["window"]) or window(*args),
        )
        monkeypatch.setattr(
            semigroup,
            "obstruction_set_fast",
            lambda *args: calls.update(["obstruction_set_fast"]) or fast(*args),
        )
        assert core.scan(3, 30)
        assert calls == Counter()
        core.scan(4, 12)
        assert calls == Counter()


class TestRepresentability:
    def test_reference_queries(self):
        sieve = semigroup.build_sieve((3, 5), 20)
        assert [sieve_contains(sieve, t) for t in (0, 8, 4)] == [True, True, False]
        apery = semigroup.build_apery((3, 5))
        assert semigroup.is_representable_nonzero(apery, 0) is False
        assert semigroup.is_representable_nonzero(apery, 8) is True
        assert semigroup.is_representable_nonzero(apery, 4) is False

    def test_negative_queries_are_false(self):
        sieve = semigroup.build_sieve((3, 5), 10)
        assert sieve_contains(sieve, -1) is False
        apery = semigroup.build_apery((3, 5))
        assert semigroup.is_representable(apery, -1) is False
        assert semigroup.is_representable(apery, -10) is False
        assert semigroup.is_representable_nonzero(apery, -3) is False

    def test_apery_queries_are_unbounded(self):
        apery = semigroup.build_apery((3, 5))
        assert semigroup.is_representable(apery, 10**9)

    @settings(deadline=None, max_examples=30)
    @given(
        st.sets(st.integers(2, 30), min_size=2, max_size=4),
        st.integers(20, 60),
    )
    def test_triple_agreement(self, gens, bound):
        gens = tuple(sorted(gens))
        sieve = semigroup.build_sieve(gens, bound)
        apery = semigroup.build_apery(gens)
        for t in range(bound + 1):
            expected = oracle_representable(gens, t)
            assert sieve_contains(sieve, t) == expected
            assert semigroup.is_representable(apery, t) == expected


class TestObstructionSetFast:
    @pytest.mark.parametrize(
        "prefix, window, expected",
        [
            ((3, 7), 2, tuple(range(12, 20))),
            ((3, 5), 2, tuple(range(9, 16))),
        ],
    )
    def test_reference_sets(self, prefix, window, expected):
        sigma = sum(prefix)
        sieve = semigroup.build_sieve(prefix, window * sigma)
        apery = semigroup.build_apery(prefix)
        assert sieve_window_elements(sieve, window) == expected
        assert semigroup.obstruction_set_fast(prefix, window, apery).elements == expected

    def test_gap_complement_reference(self):
        # Window 2 over (5, 7): seven blocked values, four admissible gaps.
        apery = semigroup.build_apery((5, 7))
        iset = semigroup.obstruction_set_fast((5, 7), 2, apery)
        assert iset.size == 7
        assert iset.gaps() == (13, 16, 18, 23)

    def test_matches_oracle(self):
        # Every prefix of one to three entries up to 12.  The pass reads a
        # window as the semigroup's nonzero elements minus its minimal
        # generators; in (2, 4) and (3, 6, 9) some entries are not minimal
        # generators, so window 1 blocks 4 but not 2, and 6 but not 3.
        prefixes = [c for size in (1, 2, 3) for c in combinations(range(1, 13), size)]
        assert (2, 4) in prefixes and (3, 6, 9) in prefixes
        for prefix in prefixes:
            for window in (1, 2, 3):
                got = apery_window(prefix, window)
                assert list(got.elements) == oracle_window_elements(prefix, window), (prefix, window)
                assert isinstance(got, ObstructionSet)

    def test_wide_sparse_window_memory(self):
        # 199,039 residue classes, of which only a few reach below the window
        # top; the pass allocates for those alone.
        prefix = (199039, 199049)
        table = semigroup.build_apery(prefix)
        tracemalloc.start()
        try:
            iset = semigroup.obstruction_set_fast(prefix, 2, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert iset.elements == (398098, 597117, 597127, 597137, 597147, 796156, 796166)
        assert peak < 64 << 10

    def test_mismatched_generators(self):
        table = semigroup.build_apery((3, 5))
        with pytest.raises(ValueError, match="do not match"):
            semigroup.obstruction_set_fast((3, 7), 2, table)

    def test_bad_window_index(self):
        apery = semigroup.build_apery((3, 5))
        with pytest.raises(ValueError, match=">= 1"):
            semigroup.obstruction_set_fast((3, 5), 0, apery)


class TestAperyWindowPass:
    """The production window pass against the sieve and the nested-loop
    oracle."""

    @settings(deadline=None, max_examples=40)
    @given(prefixes, st.integers(1, 3))
    def test_matches_sieve_and_oracle(self, prefix, window):
        expected = sieve_window(prefix, window)
        assert list(expected.elements) == oracle_window_elements(prefix, window)
        assert apery_window(prefix, window) == expected

    @settings(deadline=None, max_examples=40)
    @given(prefixes, st.data())
    def test_shifted_window_matches_sieve(self, prefix, data):
        window = data.draw(st.integers(4, 2 * 10**5 // sum(prefix)))
        expected = sieve_window(prefix, window)
        assert apery_window(prefix, window) == expected

    @settings(deadline=None, max_examples=40)
    @given(prefixes, st.integers(0, 10**40))
    def test_huge_window_paths_agree(self, prefix, window):
        # No sieve reaches these windows; the per-integer membership test
        # works on Python integers and serves as the reference.
        window += 2**63
        table = semigroup.build_apery(prefix)
        got = semigroup.obstruction_set_fast(prefix, window, table)
        lo, hi = got.interval
        assert (lo, hi) == ((window - 1) * sum(prefix), window * sum(prefix))
        assert list(got.elements) == [
            t for t in range(lo + 1, hi) if semigroup.is_representable(table, t)
        ]

    @settings(deadline=None, max_examples=60)
    @given(prefixes, st.one_of(st.integers(1, 3), st.integers(2**63, 10**40)))
    @example((2, 4), 1)
    @example((3, 6, 9), 1)
    def test_gaps_complement_elements(self, prefix, window):
        iset = apery_window(prefix, window)
        gaps = iset.gaps()
        lo, hi = iset.interval
        assert list(gaps) == sorted(set(gaps))
        assert set(gaps).isdisjoint(iset.elements)
        assert sorted(gaps + iset.elements) == list(range(lo + 1, hi))

    @settings(deadline=None, max_examples=60)
    @given(prefixes, st.one_of(st.integers(1, 3), st.integers(2**63, 10**40)))
    @example((2, 4), 1)
    @example((5, 7), 2)
    def test_gap_runs_are_maximal(self, prefix, window):
        iset = apery_window(prefix, window)
        runs = iset.gap_runs()
        lo, hi = iset.interval
        blocked = {lo, *iset.elements, hi}
        assert all(type(run) is range and run.step == 1 and run for run in runs)
        # Ascending, and no two runs touch: an element lies between them.
        assert all(a.stop < b.start for a, b in zip(runs, runs[1:]))
        # Each run is bounded by elements or the window's bounds.
        assert all(run.start - 1 in blocked and run.stop in blocked for run in runs)
        assert sum(map(len, runs)) + len(iset.elements) == hi - lo - 1
        assert tuple(t for run in runs for t in run) == iset.gaps()
