import copy
import dataclasses
import functools
import gc
import math
import pickle
import tracemalloc
import types
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcweights import core, semigroup
from qcweights.model import (
    BASE_CASE_DIVISIBILITY,
    BASE_CASE_M1,
    FAILURE_REASONS,
    NO_WINDOW_EXISTS,
    OBSTRUCTION_SET_HIT,
    ClassFailure,
    Resonances,
    ResonanceWitness,
    ScanRow,
    ScanRows,
    WeightError,
    WeightTuple,
)

from oracles import (
    oracle_in_class,
    oracle_resonances,
    oracle_window_elements,
    sieve_window_elements,
    valid_weights,
)


def _per_gap_admissible(prefix, M, backend="sieve"):
    """``core.enumerate_admissible`` as it was before its check went run by
    run: a gcd test and one ``_Prefix.judge`` per gap of the window."""
    pref = core._check_prefix(prefix)
    state = core._prefix_state(pref)
    if state.failure is not None:
        raise WeightError(f"prefix not in the weight class: {state.failure.reason}")
    prefix_gcd = math.gcd(*pref)
    out = []
    for s in core.obstruction_set(pref, M, backend).gaps():
        if s <= pref[-1] or math.gcd(prefix_gcd, s) != 1:
            continue
        if state.judge(s)[1] is not None:
            raise RuntimeError(f"internal check failed: {(*pref, s)} should be in the class")
        out.append(s)
    return out


def table_calls(monkeypatch, stub=False):
    """Count calls to ``semigroup.build_apery`` and ``extend_apery`` and every
    Apery table made, keyed ``tables of <number of generators>``.  Each call
    goes through unless ``stub`` is set, when it returns None at once."""
    calls = Counter()
    for name in ("build_apery", "extend_apery", "AperyTable"):
        fn = getattr(semigroup, name)

        def counted(*args, name=name, fn=fn, **fields):
            key = name
            if name == "AperyTable":
                key = f"tables of {len(fields['generators'])}"
            calls.update([key])
            return None if stub else fn(*args, **fields)

        monkeypatch.setattr(semigroup, name, counted)
    return calls


@st.composite
def small_weights(draw, max_n=4, max_entry=30):
    n = draw(st.integers(2, max_n))
    entries = tuple(sorted(draw(st.sets(st.integers(1, max_entry), min_size=n, max_size=n))))
    assume(math.gcd(*entries) == 1)
    return entries


@st.composite
def large_weights(draw, max_n=5):
    # Entries up to 10**6 over a first entry small enough to table in a test;
    # a shared factor in all but the last entry gives prefixes of gcd > 1.
    n = draw(st.integers(3, max_n))
    factor = draw(st.sampled_from([1, 1, 2, 3]))
    first = draw(st.integers(2, 5000 // factor))
    # Middle entries stay below 10**6 so that a last entry always fits.
    rest = draw(
        st.sets(
            st.integers(first + 1, (10**6 - 1) // factor), min_size=n - 2, max_size=n - 2
        )
    )
    head = [factor * x for x in (first, *sorted(rest))]
    last = draw(st.integers(head[-1] + 1, 10**6))
    assume(math.gcd(*head, last) == 1)
    return (*head, last)


@st.composite
def shared_pair_weights(draw, max_n=6):
    # Weights of length 3 to 6 in which two consecutive entries, followed by
    # at least one more, share a factor: the last pair of some prefix then
    # has gcd > 1, so some targets miss its residue class.  A first entry of
    # at least 3 keeps the oracle's product loops small.
    n = draw(st.integers(3, max_n))
    shared = draw(st.integers(0, n - 3))
    factor = draw(st.integers(2, 4))
    entries: list[int] = []
    for index in range(n):
        low = entries[-1] + 1 if entries else 3
        if index == shared:
            value = -(-low // factor) * factor + factor * draw(st.integers(0, 2))
        elif index == shared + 1:
            value = entries[-1] + factor * draw(st.integers(1, 3))
        else:
            value = low + draw(st.integers(0, 5))
        entries.append(value)
    assume(math.gcd(*entries) == 1)
    return tuple(entries)


@st.composite
def resonance_weights(draw, max_n=5, max_entry=40):
    # Weights whose entries before the last often share a factor, so that
    # some deficits lie outside the semigroup of their prefix.
    n = draw(st.integers(2, max_n))
    factor = draw(st.sampled_from([1, 1, 2, 3]))
    head = draw(
        st.sets(st.integers(1, (max_entry - 1) // factor), min_size=n - 1, max_size=n - 1)
    )
    head = [factor * x for x in sorted(head)]
    last = draw(st.integers(head[-1] + 1, max_entry))
    assume(math.gcd(*head, last) == 1)
    return (*head, last)


class TestValidateWeight:
    def test_accepts_reference_weights(self):
        assert core.validate_weight((3, 5, 7)).m == (3, 5, 7)
        assert core.validate_weight([4, 5, 7]).m == (4, 5, 7)

    def test_passthrough_of_validated_tuple(self):
        w = core.validate_weight((3, 7, 11))
        assert core.validate_weight(w) is not None
        assert core.validate_weight(w).m == w.m

    @pytest.mark.parametrize(
        "raw, message",
        [
            ((1, 1), "strictly increasing"),
            ((5, 5, 7), "strictly increasing"),
            ((3, 2), "strictly increasing"),
            ((2, 4, 6), "gcd"),
            ((5,), "at least 2"),
            ((), "at least 2"),
            ((0, 3), "positive"),
            ((-2, 3), "positive"),
        ],
    )
    def test_rejects_invalid(self, raw, message):
        with pytest.raises(WeightError, match=message):
            core.validate_weight(raw)

    def test_rejects_non_integers(self):
        with pytest.raises(WeightError, match="integers"):
            core.validate_weight((1.5, 2))

    @pytest.mark.parametrize(
        "call",
        [
            lambda: core.is_in_class(WeightTuple((4, 6))),
            lambda: core.resonances(WeightTuple((4, 6))),
            lambda: core.c_exponent(WeightTuple((4, 6)), 1, 2, (0, 0)),
            lambda: core.zero_set_equivalence_check(WeightTuple((4, 6)), 2),
            lambda: core.check_n3_criteria(WeightTuple((4, 6, 8))),
        ],
        ids=["is_in_class", "resonances", "c_exponent", "zero_set", "check_n3_criteria"],
    )
    def test_hand_built_tuple_is_validated(self, call):
        # A WeightTuple made without validate_weight is checked like any
        # other tuple, not trusted.
        with pytest.raises(WeightError, match="gcd of weight entries must be 1, got 2"):
            call()

    @pytest.mark.parametrize(
        "entries, message",
        [
            ((5, 3), "weight entries must be strictly increasing"),
            ((0, 1), "weight entries must be positive"),
            ((3,), "a weight needs at least 2 entries, got 1"),
        ],
    )
    def test_hand_built_tuple_entries_are_checked(self, entries, message):
        with pytest.raises(WeightError, match=message):
            core.is_in_class(WeightTuple(entries))


class TestRValue:
    @pytest.mark.parametrize(
        "prefix, i, k, expected",
        [
            ((3, 7), 1, (2, 1), 16),
            ((3, 7), 2, (0, 0), 7),
            ((3, 5), 2, (1, 1), 13),
        ],
    )
    def test_reference_values(self, prefix, i, k, expected):
        assert core.r_value(prefix, i, k) == expected

    def test_zero_index_returns_entry(self):
        for prefix in [(3, 5), (3, 7), (4, 5, 9)]:
            zero = (0,) * len(prefix)
            for i, mi in enumerate(prefix, start=1):
                assert core.r_value(prefix, i, zero) == mi

    @pytest.mark.parametrize("i", [0, 3, -1])
    def test_index_out_of_range(self, i):
        with pytest.raises(WeightError, match="out of range"):
            core.r_value((3, 5), i, (0, 0))

    def test_bad_multi_index(self):
        with pytest.raises(WeightError, match="length"):
            core.r_value((3, 5), 1, (0, 0, 0))
        with pytest.raises(WeightError, match="nonnegative"):
            core.r_value((3, 5), 1, (-1, 0))


class TestCExponent:
    def test_reference_values(self):
        assert core.c_exponent((3, 5, 7), 1, 2, (0, 0, 0)) == -2
        assert core.c_exponent((3, 5, 7), 2, 1, (0, 0, 0)) == 2
        assert core.c_exponent((1, 2, 3), 1, 3, (0, 1, 0)) == 0

    def test_index_errors(self):
        with pytest.raises(WeightError, match="differ"):
            core.c_exponent((3, 5, 7), 2, 2, (0, 0, 0))
        with pytest.raises(WeightError, match="out of range"):
            core.c_exponent((3, 5, 7), 0, 2, (0, 0, 0))
        with pytest.raises(WeightError, match="out of range"):
            core.c_exponent((3, 5, 7), 1, 4, (0, 0, 0))

    @settings(deadline=None)
    @given(small_weights(), st.data())
    def test_upper_triangular_exponent_positive(self, m, data):
        # With roles swapped (first index above the second) the exponent is
        # at least the weight gap, hence never zero.
        n = len(m)
        k = tuple(data.draw(st.integers(0, 4)) for _ in range(n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                value = core.c_exponent(m, j, i, k)
                assert value >= m[j - 1] - m[i - 1] > 0


class TestObstructionSet:
    @pytest.mark.parametrize("backend", core.BACKENDS)
    def test_reference_sets(self, backend):
        assert core.obstruction_set((3, 7), 2, backend).elements == tuple(range(12, 20))
        assert core.obstruction_set((3, 5), 2, backend).elements == tuple(range(9, 16))

    def test_first_window_multiples_rule(self):
        # In window 1 only proper multiples of the smallest entry can occur.
        got = core.obstruction_set((3, 5), 1)
        expected = tuple(n * 3 for n in range(2, (3 + 5) // 3 + 1) if n * 3 < 3 + 5)
        assert got.elements == expected == (6,)
        assert got.interval == (0, 8)

    def test_window_bounds_and_membership(self):
        iset = core.obstruction_set((5, 7), 2)
        lo, hi = iset.interval
        assert (lo, hi) == (12, 24)
        assert all(lo < t < hi for t in iset.elements)
        assert 13 not in iset
        assert 14 in iset

    @pytest.mark.parametrize(
        "prefix", [(3, 5), (3, 7), (5, 7), (4, 6), (2, 3), (3, 5, 8), (5, 7, 11)]
    )
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_backends_agree_with_oracle(self, prefix, window):
        expected = tuple(oracle_window_elements(prefix, window))
        for backend in core.BACKENDS:
            assert core.obstruction_set(prefix, window, backend).elements == expected

    @pytest.mark.parametrize(
        "prefix, period", [((3, 7), 1), ((4, 6), 2), ((50, 61), 1), ((40, 60, 100), 20)]
    )
    def test_huge_window_index(self, prefix, period):
        # Far beyond every least element of the semigroup, t is blocked iff
        # the generator gcd divides it.  The windows of (3, 7) and (4, 6) hold
        # 9 integers, those of (50, 61) and (40, 60, 100) 110 and 199.
        iset = core.obstruction_set(prefix, 10**30)
        lo, hi = iset.interval
        assert (lo, hi) == ((10**30 - 1) * sum(prefix), 10**30 * sum(prefix))
        assert iset.elements == tuple(t for t in range(lo + 1, hi) if t % period == 0)

    def test_wide_window_matches_sieve(self):
        # A window of 398,087 integers, seven of them blocked, over 199,039
        # residue classes, checked against the sieve.
        prefix = (199039, 199049)
        sieve = semigroup.build_sieve(prefix, 2 * sum(prefix))
        assert core.obstruction_set(prefix, 2).elements == sieve_window_elements(sieve, 2)

    def test_dense_window_past_every_least_value(self):
        # The Frobenius number of (1000, 1001) is 998,999, far below this
        # window, so every integer in it is blocked.
        iset = core.obstruction_set((1000, 1001), 10**4)
        lo, hi = iset.interval
        assert iset.elements == tuple(range(lo + 1, hi))
        assert iset.gaps() == ()

    def test_memory_follows_output_not_window_index(self):
        # A sieve up to the window top would hold about 10**8 flags.
        tracemalloc.start()
        try:
            iset = core.obstruction_set((3, 7), 10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert iset.size == 9
        assert peak < 1 << 20

    def test_brute_step_bound(self):
        # The bound counts every node of the nested loops in advance.
        def nodes(prefix, hi, partial=0):
            if not prefix:
                return 0
            count, total = 0, partial
            while total < hi:
                count += 1 + nodes(prefix[1:], hi, total)
                total += prefix[0]
            return count

        for prefix in [(3, 7), (1, 2), (2, 3, 5), (4, 6, 9), (5, 6, 7, 8)]:
            for M in (1, 2, 3, 5):
                hi = M * sum(prefix)
                assert nodes(prefix, hi) <= core._brute_steps(prefix, hi), (prefix, M)

    def test_brute_step_limit(self):
        # Nested loops over this window take several seconds; it is refused
        # before they start.  The engine answers it at once.
        with pytest.raises(WeightError, match="BRUTE_STEP_LIMIT"):
            core.obstruction_set((3, 7), 3000, "brute")
        assert core.obstruction_set((3, 7), 3000).size == 9

    def test_brute_window_is_freed_without_the_collector(self):
        # The nested loops' recursive walk leaves no reference cycle, so
        # the set it fills goes on return: with the cycle, 47,132 of the
        # 50,560 traced bytes stayed allocated after del.
        core.obstruction_set((200, 201), 200, "brute")
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            listed = core.obstruction_set((200, 201), 200, "brute")
            alive, _ = tracemalloc.get_traced_memory()
            del listed
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            unreachable = gc.collect()
            gc.enable()
        assert left < alive / 8
        assert unreachable == 0

    def test_errors(self):
        with pytest.raises(WeightError, match="M must be >= 1"):
            core.obstruction_set((3, 5), 0)
        with pytest.raises(WeightError, match="at least 2"):
            core.obstruction_set((3,), 1)
        with pytest.raises(WeightError, match="strictly increasing"):
            core.obstruction_set((5, 3), 1)
        with pytest.raises(WeightError, match="backend"):
            core.obstruction_set((3, 5), 1, "magic")


class TestIsInClass:
    @pytest.mark.parametrize(
        "weight, witnesses",
        [
            ((3, 5, 7), (1,)),
            ((4, 5, 7), (1,)),
            ((3, 7, 11), (2,)),
            ((2, 3), ()),
            ((3, 5), ()),
        ],
    )
    def test_accepted(self, weight, witnesses):
        verdict = core.is_in_class(weight)
        assert verdict.in_class
        assert verdict.failure is None
        assert verdict.witnesses == witnesses

    @pytest.mark.parametrize(
        "weight, reason, level, witnesses",
        [
            ((3, 5, 9), OBSTRUCTION_SET_HIT, 3, ()),
            ((1, 2, 3), BASE_CASE_M1, 2, ()),
            ((1, 2), BASE_CASE_M1, 2, ()),
            ((3, 5, 16), NO_WINDOW_EXISTS, 3, ()),
            ((2, 4, 7), BASE_CASE_DIVISIBILITY, 2, ()),
            ((3, 6, 8), BASE_CASE_DIVISIBILITY, 2, ()),
            ((3, 5, 7, 16), OBSTRUCTION_SET_HIT, 4, (1,)),
            ((3, 5, 7, 30), NO_WINDOW_EXISTS, 4, (1,)),
        ],
    )
    def test_rejected(self, weight, reason, level, witnesses):
        verdict = core.is_in_class(weight)
        assert not verdict.in_class
        assert verdict.failure is not None
        assert verdict.failure.reason == reason
        assert verdict.failure.reason in FAILURE_REASONS
        assert verdict.failure.level == level
        assert verdict.witnesses == witnesses

    def test_witness_windows_bracket_entries(self):
        for m in valid_weights(3, 20):
            verdict = core.is_in_class(m)
            if not verdict.in_class:
                continue
            (window,) = verdict.witnesses
            sigma = m[0] + m[1]
            assert (window - 1) * sigma < m[2] < window * sigma

    def test_verdict_shape_invariant(self):
        # in_class iff no failure; for n >= 3 also iff a full witness chain.
        for n, bound in [(2, 12), (3, 25)]:
            for m in valid_weights(n, bound):
                verdict = core.is_in_class(m)
                assert verdict.in_class == (verdict.failure is None)
                if n >= 3:
                    assert verdict.in_class == (len(verdict.witnesses) == n - 2)
                else:
                    assert verdict.witnesses == ()

    def test_matches_exists_window_oracle(self):
        # The oracle searches all window indices; production computes the
        # unique one.  They must agree everywhere, with levels 4 and 5
        # answered both by search and by a table past the search budget.
        for n, bound in [(3, 20), (4, 18), (5, 14)]:
            for m in valid_weights(n, bound):
                assert core.is_in_class(m).in_class == oracle_in_class(m), m

    @settings(deadline=None, max_examples=40)
    @given(large_weights())
    def test_search_matches_table_verdict(self, m):
        # Every level's membership test, searched, against a lookup in the
        # prefix's Apery table, and the whole verdict against the one read
        # off bitsets made prefix by prefix, as the scan reads it.
        for j in range(3, len(m) + 1):
            table = semigroup.build_apery(m[: j - 1])
            assert semigroup.Semigroup(m[: j - 1]).contains(m[j - 1]) == (
                semigroup.is_representable(table, m[j - 1])
            ), (m, j)
        state = core._Prefix(semigroup.BoundedSemigroup(m[-1] + 1).child(m[0]))
        for j in range(2, len(m) + 1):
            state = core._Prefix(state.group.child(m[j - 1]), *state.judge(m[j - 1]))
        verdict = core.is_in_class(m)
        assert (verdict.witnesses, verdict.failure) == (state.witnesses, state.failure)

    @pytest.mark.parametrize(
        "m, in_class, tabled",
        [
            # The prefix has gcd 2 and the last entry is odd: the gcd cut
            # answers before any search step.
            ((6, 8, 10, 10**6 + 1), True, False),
            # Only k_1 = 5 leaves a multiple of gcd(12, 18) = 6, one step
            # past the budget of 5, so the table answers.
            ((5, 12, 18, 10**6 + 3), False, True),
            # Here k_1 = 1 does.
            ((5, 12, 18, 10**6 + 1), False, False),
            ((3, 10, 11, 10**6 + 1), False, False),
            ((999983, 999989, 1999973, 4999999), True, False),
            # Without the gcd cut, the search spent its whole budget of 10**6
            # steps here and then built a table of 10**6 residues.
            ((1000000, 1000002, 1000004, 10**12 + 1), True, False),
        ],
    )
    def test_table_only_past_the_search_budget(self, monkeypatch, m, in_class, tabled):
        built = []
        build_apery = semigroup.build_apery
        monkeypatch.setattr(
            semigroup, "build_apery", lambda gens: built.append(gens) or build_apery(gens)
        )
        verdict = core.is_in_class(m)
        assert verdict.in_class == in_class
        assert built == ([m[:-1]] if tabled else [])
        if not in_class:
            assert verdict.failure.reason == OBSTRUCTION_SET_HIT
            assert verdict.failure.level == len(m)

    @pytest.mark.parametrize(
        "m, witnesses, failure",
        [
            ((999049, 999067, 1998117), (2,), None),
            # 2997183 = 999049 + 2 * 999067.
            ((999049, 999067, 2997183), (), ClassFailure(OBSTRUCTION_SET_HIT, 3)),
            ((999983, 999989, 1999973, 4999999), (2, 2), None),
        ],
    )
    def test_million_scale_verdict_builds_no_table(self, monkeypatch, m, witnesses, failure):
        # A table of these prefixes would hold about 10**6 residues; the
        # closed form and a few search steps answer instead.
        calls = table_calls(monkeypatch, stub=True)
        tracemalloc.start()
        try:
            verdict = core.is_in_class(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (verdict.witnesses, verdict.failure) == (witnesses, failure)
        assert calls == Counter()
        assert peak < 1 << 20


_stretches = st.lists(
    st.tuples(st.integers(1, 3), st.integers(2, 5), st.lists(st.integers(0, 9), max_size=9)),
    max_size=5,
).map(lambda raw: [(i, j, k[: len(k) // (j - 1) * (j - 1)]) for i, j, k in raw])


class TestResonancesSequence:
    @settings(deadline=None, max_examples=200)
    @given(_stretches)
    def test_acts_as_the_list(self, arrays):
        listed = Resonances(arrays)
        plain = [
            ResonanceWitness(i, j, k) for i, j, flat in arrays for k in zip(*[iter(flat)] * (j - 1))
        ]
        assert listed == plain and plain == listed and listed == Resonances(arrays)
        assert repr(listed) == repr(plain)
        assert len(listed) == len(plain) and list(listed) == plain
        assert [listed[x] for x in range(-len(plain), len(plain))] == [
            plain[x] for x in range(-len(plain), len(plain))
        ]
        for cut in (slice(None, -1), slice(1, None), slice(None, None, 2), slice(None, None, -1)):
            assert type(listed[cut]) is Resonances and listed[cut] == plain[cut]
        assert all(type(w) is ResonanceWitness and type(w.k) is tuple for w in listed)
        assert list(reversed(listed)) == plain[::-1]

    def test_slices_keep_the_arrays_form(self):
        listed = core.resonances((1, 2, 3))
        assert listed[:-1].arrays == ((1, 2, [1]), (1, 3, [0, 1, 2, 0]))
        assert listed[::-1].arrays == ((2, 3, [1, 0]), (1, 3, [2, 0, 0, 1]), (1, 2, [1]))
        assert listed[5:].arrays == ()

    def test_index_out_of_range(self):
        listed = core.resonances((1, 2, 3))
        for bad in (4, -5):
            with pytest.raises(IndexError):
                listed[bad]
        with pytest.raises(IndexError):
            Resonances()[0]

    def test_not_equal_to_other_types(self):
        listed = core.resonances((1, 5))
        assert listed != ((1, 2, (4,)),)
        assert listed != [(1, 2, (5,))]
        assert listed == [(1, 2, (4,))]
        assert Resonances([(1, 3, [0, 1]), (1, 3, [2, 0])]) == Resonances([(1, 3, [0, 1, 2, 0])])

    def test_immutable_and_copyable(self):
        listed = core.resonances((2, 3, 5, 7))
        with pytest.raises(AttributeError):
            listed.arrays = ()
        with pytest.raises(TypeError):
            hash(listed)
        assert copy.deepcopy(listed) == listed
        assert pickle.loads(pickle.dumps(listed)) == listed

    def test_stretches_must_hold_whole_witnesses(self):
        with pytest.raises(ValueError, match="j - 1"):
            Resonances([(1, 3, [0, 1, 2])])


class TestResonances:
    def test_frozen_witness_lists(self):
        assert [(w.i, w.j, w.k) for w in core.resonances((1, 2, 3))] == [
            (1, 2, (1,)),
            (1, 3, (0, 1)),
            (1, 3, (2, 0)),
            (2, 3, (1, 0)),
        ]
        assert [(w.i, w.j, w.k) for w in core.resonances((2, 3, 5))] == [
            (1, 3, (0, 1)),
            (2, 3, (1, 0)),
        ]
        assert core.resonances((3, 5, 7)) == []
        assert [(w.i, w.j, w.k) for w in core.resonances((1, 5))] == [(1, 2, (4,))]

    def test_witnesses_satisfy_equation(self):
        for m in [(1, 2, 3), (2, 3, 5), (1, 2, 3, 4), (2, 5, 9, 11)]:
            for w in core.resonances(m):
                assert m[w.i - 1] + sum(
                    mr * kr for mr, kr in zip(m, w.k)
                ) == m[w.j - 1]
                assert len(w.k) == w.j - 1
                assert w.i < w.j

    def test_matches_oracle_exhaustively(self):
        for m in valid_weights(3, 18):
            got = [(w.i, w.j, w.k) for w in core.resonances(m)]
            assert got == oracle_resonances(m)

    def test_sorted_output(self):
        wits = core.resonances((1, 2, 3, 4))
        keys = [w.sort_key() for w in wits]
        assert keys == sorted(keys)

    @settings(deadline=None, max_examples=80)
    @given(resonance_weights())
    def test_matches_oracle(self, m):
        got = [(w.i, w.j, w.k) for w in core.resonances(m)]
        assert got == oracle_resonances(m)

    @settings(deadline=None, max_examples=60)
    @given(shared_pair_weights())
    @example((3, 4, 6, 11, 30))
    @example((3, 6, 9, 10, 11))
    @example((2, 3, 5, 7, 40))
    def test_pair_listed_from_its_predecessor_loop(self, m):
        # The last pair of coordinates is listed in closed form from the loop
        # over the coordinate before it, with and without a degree bound.
        listed = core.resonances(m)
        assert [(w.i, w.j, w.k) for w in listed] == oracle_resonances(m)
        for bound in range(7):
            expected = [w for w in listed if sum(w.k) <= bound]
            assert core.resonances(m, bound) == expected, (m, bound)

    @settings(deadline=None, max_examples=100)
    @given(resonance_weights() | shared_pair_weights(max_n=5), st.none() | st.integers(0, 6))
    @example((2, 3, 5, 7, 40), None)
    @example((4, 6, 9, 11), 3)
    def test_arrays_reshape_to_the_witnesses(self, m, bound):
        # One flat k array per pair i < j, j - 1 entries per witness.
        arrays = core.resonance_arrays(m, bound)
        n = len(m)
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        assert [(i, j) for i, j, _ in arrays] == pairs
        reshaped = []
        for i, j, flat in arrays:
            assert type(flat) is list and len(flat) % (j - 1) == 0
            reshaped += [(i, j, k) for k in zip(*[iter(flat)] * (j - 1))]
        expected = [w for w in oracle_resonances(m) if bound is None or sum(w[2]) <= bound]
        assert reshaped == expected
        assert core.resonances(m, bound) == reshaped

    @pytest.mark.parametrize("listing", ["resonance_arrays", "resonances"])
    def test_arrays_peak_follows_the_entries(self, listing):
        # The 53,415 witnesses of a benchmark listing hold one reference per
        # k entry and no object per witness: 1.70 MiB measured, where the
        # ResonanceWitness list peaks at 7.95 MiB.
        tracemalloc.start()
        try:
            listed = getattr(core, listing)((2, 3, 5, 7, 252))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        arrays = listed.arrays if listing == "resonances" else listed
        assert sum(len(flat) // (j - 1) for _, j, flat in arrays) == 53_415
        assert peak < 2.5 * 2**20

    @pytest.mark.parametrize("bound", [None, 30])
    def test_dropped_listing_is_freed_without_the_collector(self, bound):
        # The solver's recursive walk leaves no reference cycle, so the
        # arrays go with the listing's last reference: with the cycle,
        # 216,276 of the 216,420 traced bytes stayed allocated after del.
        core.resonances((2, 3, 5, 7, 120), bound)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            listed = core.resonances((2, 3, 5, 7, 120), bound)
            alive, _ = tracemalloc.get_traced_memory()
            del listed
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            unreachable = gc.collect()
            gc.enable()
        assert left < alive / 8
        assert unreachable == 0

    def test_searched_and_tabled_suffixes_match_oracle(self, monkeypatch):
        # A suffix is searched until its searches have taken as many steps as
        # its Apery table has residues, and then tabled; both happen here.
        built = []
        build_apery = core.semigroup.build_apery
        monkeypatch.setattr(
            core.semigroup,
            "build_apery",
            lambda gens: built.append(gens) or build_apery(gens),
        )
        searched_only = tabled = 0
        for n, top in [(4, 14), (5, 11)]:
            for m in valid_weights(n, top):
                built.clear()
                got = [(w.i, w.j, w.k) for w in core.resonances(m)]
                assert got == oracle_resonances(m), m
                assert len(built) == len(set(built)), m
                tabled += bool(built)
                searched_only += not built
        assert tabled and searched_only

    def test_suffix_searches_share_one_table_budget(self, monkeypatch):
        # The searches of the suffix (20, 22, 24) may take 20 steps in all,
        # as many as its Apery table has residues; past that the table,
        # built once, answers.  An odd target is off the gcd 2 and takes no
        # step.
        steps, built = [], []
        build_apery = core.semigroup.build_apery
        monkeypatch.setattr(
            core.semigroup, "build_apery", lambda gens: built.append(gens) or build_apery(gens)
        )

        def in_tail(t):  # membership in <22, 24>
            steps.append(t)
            return any((t - 22 * a) % 24 == 0 for a in range(t // 22 + 1))

        group = semigroup.Semigroup((20, 22, 24))
        group._suffix = types.SimpleNamespace(contains=in_tail)
        search = group.contains
        assert search(64) and search(42) and not search(2)
        for t in range(21, 100, 2):
            assert not search(t)
        assert len(steps) == 5 and built == []
        for t in (26, 28, 30, 32, 34, 36, 38, 50, 52, 54, 56, 58, 74, 76, 78, 98):
            assert not search(t)
        assert len(steps) <= 20
        assert built == [(20, 22, 24)]
        searched = len(steps)
        members = {20 * a + 22 * b + 24 * c for a in range(5) for b in range(5) for c in range(5)}
        assert [t for t in range(100) if search(t)] == sorted(t for t in members if t < 100)
        assert len(steps) == searched
        assert built == [(20, 22, 24)]

    @pytest.mark.parametrize(
        "m, expected",
        [
            # Every deficit is below every entry: nothing to list.
            ((1000003, 1000033, 1000037, 1000039), []),
            (tuple(10**9 + r for r in range(4)), []),
            # The deficits reach the suffix entries, but only twice over.
            (
                (10**9, 10**9 + 1, 10**9 + 2, 3 * 10**9 + 4),
                [(1, 4, (0, 0, 2)), (2, 4, (0, 1, 1)), (3, 4, (0, 2, 0)), (3, 4, (1, 0, 1))],
            ),
        ],
    )
    def test_no_table_for_large_entries(self, monkeypatch, m, expected):
        # An Apery table of these suffixes would hold about 10**6 or 10**9
        # residues; the few search steps the targets need come first.
        built = []
        monkeypatch.setattr(core.semigroup, "build_apery", built.append)
        tracemalloc.start()
        try:
            found = [(w.i, w.j, w.k) for w in core.resonances(m)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found == expected
        assert built == []
        assert peak < 1 << 20

    @pytest.mark.parametrize("m", [(4, 6, 10**9 + 1), (6, 8, 10, 10**9 + 1)])
    def test_unreachable_targets_with_huge_last_entry(self, m):
        # Every target of the last entry is odd and the prefix has gcd 2, so
        # there is nothing to list; the cost must not follow the last entry.
        tracemalloc.start()
        try:
            found = core.resonances(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert found == []
        assert peak < 1 << 20


class TestResonanceWitness:
    def test_construction_and_fields(self):
        w = ResonanceWitness(1, 2, (4,))
        assert w == ResonanceWitness(i=1, j=2, k=(4,))
        assert (w.i, w.j, w.k) == (1, 2, (4,))
        assert w.sort_key() == (1, 2, (4,))
        assert repr(w) == "ResonanceWitness(i=1, j=2, k=(4,))"

    def test_immutable(self):
        w = ResonanceWitness(1, 2, (4,))
        with pytest.raises(AttributeError):
            w.i = 3
        with pytest.raises(AttributeError):
            w.extra = 0

    def test_hash_and_equality(self):
        a, b = ResonanceWitness(1, 3, (0, 1)), ResonanceWitness(1, 3, (0, 1))
        assert a == b and hash(a) == hash(b)
        assert len({a, b, ResonanceWitness(1, 3, (2, 0))}) == 2
        assert a != ResonanceWitness(2, 3, (0, 1))

    def test_a_tuple_of_its_fields(self):
        # Equal to the plain tuple (i, j, k), and ordered as it is.
        w = ResonanceWitness(2, 3, (1, 0))
        assert w == (2, 3, (1, 0))
        assert hash(w) == hash((2, 3, (1, 0)))
        listed = core.resonances((1, 2, 3))
        assert listed == sorted(listed, key=ResonanceWitness.sort_key)
        assert listed == sorted(reversed(listed))
        assert all(type(w) is ResonanceWitness for w in listed)


class TestResonanceCounting:
    @settings(deadline=None, max_examples=60)
    @given(small_weights(max_n=4, max_entry=30))
    def test_counts_match_oracle_per_pair(self, m):
        # The coin-change counts of each prefix give the number of witnesses
        # of every pair (i, j) without listing them.
        expected = Counter((i, j) for i, j, _ in oracle_resonances(m))
        ways = [1] + [0] * (m[-1] - m[0])
        for j in range(2, len(m) + 1):
            ways = core.extend_ways(ways, m[j - 2])
            for i in range(1, j):
                assert ways[m[j - 1] - m[i - 1]] == expected[(i, j)], (m, i, j)


class TestZeroSetEquivalence:
    @pytest.mark.parametrize(
        "weight, bound",
        [((3, 5, 7), 10), ((1, 2, 3), 10), ((2, 3, 5), 0)],
    )
    def test_reference_cases(self, weight, bound):
        assert core.zero_set_equivalence_check(weight, bound) is True

    def test_direct_box_enumeration(self):
        # Independent check for (1, 2, 3): collect exponent zeros over the
        # degree-6 box and compare against zero-padded witnesses.
        m = (1, 2, 3)
        zeros = set()
        for k1 in range(7):
            for k2 in range(7 - k1):
                for k3 in range(7 - k1 - k2):
                    k = (k1, k2, k3)
                    for i in range(1, 4):
                        for j in range(i + 1, 4):
                            if core.c_exponent(m, i, j, k) == 0:
                                zeros.add((i, j, k))
        embedded = {
            (w.i, w.j, w.k + (0,) * (3 - len(w.k)))
            for w in core.resonances(m)
            if sum(w.k) <= 6
        }
        assert zeros == embedded
        assert core.zero_set_equivalence_check(m, 6) is True

    @settings(deadline=None, max_examples=40)
    @given(small_weights(max_n=4, max_entry=25))
    def test_holds_on_random_weights(self, m):
        assert core.zero_set_equivalence_check(m, 6) is True

    @settings(deadline=None, max_examples=80)
    @given(resonance_weights(), st.integers(0, 4))
    def test_bounded_walk_keeps_low_degree_witnesses(self, m, bound):
        expected = [w for w in core.resonances(m) if sum(w.k) <= bound]
        assert core.resonances(m, bound) == expected

    def test_degree_bound_prunes_the_walk(self):
        # Unbounded, (2, 3, 5, 7, 257) has 56,604 witnesses; none has degree
        # 0, and the walk past the bound lists none of them.
        tracemalloc.start()
        try:
            assert core.zero_set_equivalence_check((2, 3, 5, 7, 257), 0) is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_negative_bound_rejected(self):
        with pytest.raises(WeightError, match=">= 0"):
            core.zero_set_equivalence_check((2, 3), -1)

    def test_step_limit(self, monkeypatch):
        # C(3 + 4, 3) = 35 multi-indices times 3 pairs is 105 pair tests.
        monkeypatch.setattr(core, "ZERO_SET_STEP_LIMIT", 105)
        assert core.zero_set_equivalence_check((2, 3, 5), 4) is True
        monkeypatch.setattr(core, "ZERO_SET_STEP_LIMIT", 104)
        with pytest.raises(WeightError, match="ZERO_SET_STEP_LIMIT = 104"):
            core.zero_set_equivalence_check((2, 3, 5), 4)

    def test_refused_just_past_the_limit(self):
        # n = 5: C(5 + 38, 5) * 10 = 9,625,980 pair tests fit under 10**7,
        # C(5 + 39, 5) * 10 = 10,860,080 do not.
        assert core.ZERO_SET_STEP_LIMIT == 10**7
        with pytest.raises(WeightError, match=f"ZERO_SET_STEP_LIMIT = {10**7}"):
            core.zero_set_equivalence_check((3, 5, 7, 11, 13), 39)


class TestEnumerateAdmissible:
    @pytest.mark.parametrize(
        "prefix, window, expected",
        [
            ((5, 7), 2, [13, 16, 18, 23]),
            ((3, 7), 2, [11]),
            ((3, 5), 2, []),
            ((5, 7), 1, [8, 9, 11]),
        ],
    )
    def test_reference_sets(self, prefix, window, expected):
        assert core.enumerate_admissible(prefix, window) == expected

    def test_results_extend_into_class(self):
        for prefix, window in [((5, 7), 2), ((3, 7), 2), ((4, 5), 2), ((3, 7, 11), 1)]:
            for s in core.enumerate_admissible(prefix, window):
                verdict = core.is_in_class((*prefix, s))
                assert verdict.in_class

    def test_complement_relation(self):
        # Admissible values are exactly the window complement of the
        # obstruction set, above the last entry, with gcd 1.
        for prefix, window in [((5, 7), 2), ((4, 6), 2), ((3, 7), 3)]:
            sigma = sum(prefix)
            lo, hi = (window - 1) * sigma, window * sigma
            blocked = set(oracle_window_elements(prefix, window))
            expected = [
                s
                for s in range(lo + 1, hi)
                if s not in blocked and s > prefix[-1] and math.gcd(*prefix, s) == 1
            ]
            assert core.enumerate_admissible(prefix, window) == expected

    def test_one_table_per_call(self, monkeypatch):
        # The window pass walks the pair's classes in closed form, and the
        # re-check of each gap answers membership in closed form: no table.
        expected = [s for s in core.obstruction_set((1009, 1013), 2).gaps() if s > 1013]
        calls = table_calls(monkeypatch)
        assert core.enumerate_admissible((1009, 1013), 2) == expected
        assert calls == Counter()

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(st.integers(2, 40), min_size=2, max_size=3, unique=True).map(sorted).map(tuple),
        st.integers(1, 3),
    )
    @example((4, 6), 2)
    @example((6, 10, 15), 1)
    def test_results_are_valid_weights(self, prefix, window):
        # Each s is returned without a validate_weight call of its own; the
        # prefix checks and the s > last, gcd tests must amount to one.
        try:
            admissible = core.enumerate_admissible(prefix, window)
        except WeightError:
            assume(False)
        for s in admissible:
            assert core.validate_weight((*prefix, s)).m == (*prefix, s)

    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(st.integers(1, 30), min_size=2, max_size=4, unique=True).map(sorted),
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from(sorted(core.BACKENDS)),
    )
    @example([2, 3], 2, 2, "sieve")
    @example([2, 3, 5], 3, 1, "apery")
    @example([3, 5], 2, 3, "brute")
    def test_matches_the_per_gap_check(self, entries, factor, window, backend):
        # Prefixes scaled by up to 4, so most have a gcd > 1, against the
        # loop this check replaced: one _Prefix.judge per gap.
        prefix = tuple(factor * e for e in entries)
        try:
            expected = _per_gap_admissible(prefix, window, backend)
        except WeightError:
            with pytest.raises(WeightError):
                core.enumerate_admissible(prefix, window, backend)
            return
        assert core.enumerate_admissible(prefix, window, backend) == expected

    @pytest.mark.parametrize(
        "prefix, window",
        [((5, 7), 2), ((3, 7, 11), 1), ((4, 6), 2), ((6, 10, 15), 2), ((9, 12), 1)],
    )
    def test_a_window_pass_that_drops_an_element_is_caught(self, monkeypatch, prefix, window):
        # Each element above the last entry, dropped in turn from the window
        # pass, becomes a gap in the prefix's semigroup, which the re-check
        # of its run must catch, whether or not the gcd filter keeps it.
        honest = core.obstruction_set(prefix, window)
        dropped = [e for e in honest.elements if e > prefix[-1]]
        assert dropped
        for e in dropped:
            elements = tuple(x for x in honest.elements if x != e)
            broken = dataclasses.replace(honest, elements=elements)
            monkeypatch.setattr(core, "obstruction_set", lambda *args, broken=broken: broken)
            with pytest.raises(RuntimeError, match="internal check failed"):
                core.enumerate_admissible(prefix, window)

    def test_prefix_must_be_in_class(self):
        with pytest.raises(WeightError, match="base-case-m1"):
            core.enumerate_admissible((1, 2), 2)
        with pytest.raises(WeightError, match="base-case-divisibility"):
            core.enumerate_admissible((3, 6), 2)
        with pytest.raises(WeightError, match="obstruction-set-hit"):
            core.enumerate_admissible((3, 5, 9), 1)


class TestPrimes:
    # One trial division answers both is_prime and _prime_factors.

    def test_is_prime_matches_naive_oracle(self):
        def naive(n):
            return n > 1 and all(n % d for d in range(2, n))

        for n in range(-5, 10**4 + 1):
            assert core.is_prime(n) is naive(n), n

    @pytest.mark.parametrize(
        "n, prime",
        [
            (10**12 + 39, True),
            (2**31 - 1, True),
            (999983 * 1000003, False),
            (2 * (10**12 + 39), False),
        ],
    )
    def test_is_prime_of_large_integers(self, n, prime):
        assert core.is_prime(n) is prime

    def test_prime_factors_match_naive_oracle(self):
        for n in range(1, 2000):
            primes = [p for p in range(2, n + 1) if n % p == 0 and core.is_prime(p)]
            assert core._prime_factors(n) == primes, n


class TestN3Criteria:
    @pytest.mark.parametrize(
        "weight, expected",
        [
            (
                (4, 5, 7),
                ["basic-criterion", "doubling-bound", "prime-pair", "twin-prime"],
            ),
            ((3, 5, 7), ["basic-criterion", "prime-pair", "twin-prime"]),
            ((3, 4, 8), []),
            ((6, 7, 11), ["basic-criterion", "doubling-bound", "prime-pair"]),
            ((5, 11, 13), ["basic-criterion", "prime-pair", "twin-prime"]),
        ],
    )
    def test_reference_tags(self, weight, expected):
        assert core.check_n3_criteria(weight) == expected

    def test_any_tag_implies_membership(self):
        for m in valid_weights(3, 30):
            if core.check_n3_criteria(m):
                assert core.is_in_class(m).in_class, m

    def test_wrong_arity(self):
        with pytest.raises(WeightError, match="length 3"):
            core.check_n3_criteria((3, 5))


# The largest max_weight drawn per length, so the oracles stay quick.
_SCAN_MAX = {2: 40, 3: 26, 4: 16, 5: 13}


@functools.cache
def _independent_rows(n: int) -> tuple[ScanRow, ...]:
    """The scan row of every valid weight of length n up to _SCAN_MAX[n],
    built one weight at a time from ``is_in_class``, the resonance oracle
    and brute-force windows."""
    rows = []
    for m in valid_weights(n, _SCAN_MAX[n]):
        verdict = core.is_in_class(m)
        sizes = []
        for j in range(3, n + 1):
            sigma = sum(m[: j - 1])
            if m[j - 1] % sigma == 0:
                sizes.append(None)
            else:
                window = m[j - 1] // sigma + 1
                sizes.append(len(core.obstruction_set(m[: j - 1], window, "brute").elements))
        resonance_count = len(oracle_resonances(m))
        rows.append(ScanRow(m, verdict.witnesses, verdict.failure, resonance_count, tuple(sizes)))
    return tuple(rows)


@st.composite
def scan_bounds(draw):
    n = draw(st.integers(2, 5))
    return n, draw(st.integers(n, _SCAN_MAX[n]))


class TestScan:
    @settings(deadline=None, max_examples=40)
    @given(scan_bounds(), st.booleans(), st.booleans())
    # Unfiltered at each length's largest bound, where the leaf meets both
    # window failures (for n = 3 and 4) and failed prefixes.
    @example((2, 40), False, False)
    @example((3, 26), False, False)
    @example((4, 16), False, False)
    @example((5, 13), False, False)
    def test_rows_match_independent_paths(self, bounds, in_class_only, resonance_free_only):
        # Row by row: the leaf loop's verdicts against is_in_class, its counts
        # against the resonance oracle and its window sizes against the brute
        # backend.
        n, max_weight = bounds
        expected = [
            row
            for row in _independent_rows(n)
            if row.weight[-1] <= max_weight
            and not (in_class_only and row.failure is not None)
            and not (resonance_free_only and row.n_resonances)
        ]
        rows = core.scan(
            n, max_weight, in_class_only=in_class_only, resonance_free_only=resonance_free_only
        )
        assert rows == expected
        assert all(type(row) is ScanRow for row in rows)

    def test_unfiltered_windows_split_into_maximal_runs(self):
        # With no filter, a window's rows are one stretch per maximal run of
        # one (witnesses, failure, sizes): adjacent stretches of one window
        # never share them, and the split makes no more stretches than that.
        rows = core.scan(3, 40)
        stretches = rows.stretches
        assert (len(stretches), len(rows)) == (2760, 8410)

        def window(stretch):
            entries, ms = stretch[0], stretch[4]
            return entries, ms[0] // sum(entries)

        for before, after in zip(stretches, stretches[1:]):
            if window(before) == window(after):
                assert before[1:4] != after[1:4]

    def test_peak_follows_the_stretches(self):
        # Rows are held as per-window stretches of m and count, with the
        # witness and size tuples shared; a list of 32,865 ScanRow peaked at
        # 5.3 MiB.
        tracemalloc.start()
        try:
            rows = core.scan(3, 70, in_class_only=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(rows) == 32865
        assert peak < 2.5 * 2**20

    def test_dropped_scan_is_freed_without_the_collector(self):
        # A semigroup's membership test is a plain method, and a semigroup
        # holds only its parent, its suffix and its table, none of which
        # holds it, so the tables of a scan's prefixes go with the answer's
        # last reference.
        # When each semigroup held itself through a bound method, 199,339 of
        # the 270,699 traced bytes stayed allocated after del, and the
        # collector then found 4,862 unreachable objects.  The first,
        # untraced scan fills CPython's free lists, which keep some freed
        # blocks allocated until a full collection.
        core.scan(4, 14)
        gc.collect()
        gc.disable()
        try:
            core.scan(4, 14)
            tracemalloc.start()
            try:
                rows = core.scan(4, 14)
                alive, _ = tracemalloc.get_traced_memory()
                del rows
                left, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert left < alive / 2
        assert unreachable == 0


_scan_stretches = st.lists(
    st.tuples(
        st.lists(st.integers(1, 30), min_size=1, max_size=3).map(tuple),
        st.lists(st.integers(1, 5), max_size=2).map(tuple),
        st.none() | st.builds(ClassFailure, st.sampled_from(FAILURE_REASONS), st.integers(2, 5)),
        st.lists(st.none() | st.integers(0, 9), max_size=2).map(tuple),
        st.lists(st.tuples(st.integers(1, 40), st.integers(0, 5)), max_size=6),
    ),
    max_size=5,
).map(lambda raw: [(h, w, f, s, [m for m, _ in mc], [c for _, c in mc]) for h, w, f, s, mc in raw])


class TestScanRowsSequence:
    @settings(deadline=None, max_examples=200)
    @given(_scan_stretches)
    def test_acts_as_the_list(self, stretches):
        listed = ScanRows(stretches)
        plain = [
            ScanRow((*head, m), witnesses, failure, count, sizes)
            for head, witnesses, failure, sizes, ms, counts in stretches
            for m, count in zip(ms, counts)
        ]
        assert listed == plain and plain == listed and listed == ScanRows(stretches)
        assert repr(listed) == repr(plain)
        assert len(listed) == len(plain) and list(listed) == plain
        assert [listed[x] for x in range(-len(plain), len(plain))] == [
            plain[x] for x in range(-len(plain), len(plain))
        ]
        for cut in (slice(None, -1), slice(1, None), slice(None, None, 2), slice(None, None, -1)):
            assert type(listed[cut]) is ScanRows and listed[cut] == plain[cut]
        assert all(type(row) is ScanRow and type(row.weight) is tuple for row in listed)
        assert list(reversed(listed)) == plain[::-1]

    def test_slices_regroup_the_stretches(self):
        # A slice holds one stretch per run of its rows that share all but
        # their last entry and their count.
        shared = ((1,), None, (1,))
        rows = ScanRows([((3, 4), *shared, [5, 7], [0, 0]), ((3, 5), *shared, [7], [0])])
        assert rows[1:].stretches == (((3, 4), *shared, [7], [0]), ((3, 5), *shared, [7], [0]))
        assert rows[::2].stretches == (((3, 4), *shared, [5], [0]), ((3, 5), *shared, [7], [0]))
        assert rows[:2].stretches == (((3, 4), *shared, [5, 7], [0, 0]),)
        assert rows[5:].stretches == ()

    def test_index_out_of_range(self):
        rows = core.scan(3, 6, in_class_only=True)
        assert len(rows) == 2
        for bad in (2, -3):
            with pytest.raises(IndexError):
                rows[bad]
        with pytest.raises(IndexError):
            ScanRows()[0]

    def test_not_equal_to_other_types(self):
        rows = core.scan(2, 3, in_class_only=True)
        assert rows == [ScanRow((2, 3), (), None, 0, ())]
        assert rows == [((2, 3), (), None, 0, ())]
        assert rows != (((2, 3), (), None, 0, ()),)
        assert ScanRows() == [] and ScanRows([((1,), (), None, (), [], [])]) == []

    def test_immutable_and_copyable(self):
        rows = core.scan(4, 10)
        with pytest.raises(AttributeError):
            rows.stretches = ()
        with pytest.raises(TypeError):
            hash(rows)
        assert copy.deepcopy(rows) == rows
        assert pickle.loads(pickle.dumps(rows)) == rows

    def test_stretches_must_pair_each_m_with_a_count(self):
        with pytest.raises(ValueError, match="one count per m"):
            ScanRows([((3,), (), None, (), [4, 5], [0])])


class TestLargeInputs:
    def test_million_scale_entries_stay_exact(self):
        # entries near 10**6; expected elements derived by direct double
        # loop since at most four summands fit in the window
        prefix = (999983, 999989)
        expected = set()
        for a in range(5):
            for b in range(5 - a):
                if a + b == 0:
                    continue
                for mi in prefix:
                    r = mi + a * prefix[0] + b * prefix[1]
                    if 1999972 < r < 3999944:
                        expected.add(r)
        iset = core.obstruction_set(prefix, 2, "sieve")
        assert iset.interval == (1999972, 3999944)
        assert iset.elements == tuple(sorted(expected))
        verdict = core.is_in_class((999983, 999989, 1999973))
        assert verdict.in_class and verdict.witnesses == (2,)


    def test_pair_window_builds_no_table(self, monkeypatch):
        # The window-2 set that count 199039 199049 reads: four multiples of
        # 199049 start classes below the window top, and no table of 199,039
        # residues is built.
        calls = table_calls(monkeypatch, stub=True)
        tracemalloc.start()
        try:
            iset = core.obstruction_set((199039, 199049), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert iset.elements == (398098, 597117, 597127, 597137, 597147, 796156, 796166)
        assert calls == Counter()
        assert peak < 64 << 10

    def test_scans_build_no_table(self, monkeypatch):
        # A scan answers every verdict, mask and window size off its
        # prefixes' bitsets, so no Apery table is made, at any length.
        calls = table_calls(monkeypatch)
        assert core.scan(3, 30)
        assert core.scan(4, 12)
        assert core.scan(5, 14)
        assert calls == Counter()


class TestShiftMapMonotonicity:
    @pytest.mark.parametrize("prefix", [(3, 5), (3, 7), (5, 7), (4, 6), (2, 9)])
    def test_shift_embeds_into_next_window(self, prefix):
        sigma = sum(prefix)
        for window in range(1, 7):
            current = core.obstruction_set(prefix, window).elements
            following = set(core.obstruction_set(prefix, window + 1).elements)
            assert all(r + sigma in following for r in current)
            assert len(current) <= len(following)


class TestMembershipImpliesResonanceFree:
    @settings(deadline=None, max_examples=60)
    @given(small_weights(max_n=4, max_entry=30))
    def test_in_class_weights_have_no_resonances(self, m):
        if core.is_in_class(m).in_class:
            assert core.resonances(m) == []
