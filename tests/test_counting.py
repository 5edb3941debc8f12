import copy
import dataclasses
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcweights import core, counting
from qcweights.model import IntRuns, WeightError

from oracles import oracle_window_elements

PRIMES_TO_100 = [p for p in range(2, 101) if core.is_prime(p)]


class TestSPartition:
    def test_reference_5_7(self):
        part = counting.s_partition(5, 7)
        assert part.s1 == (15, 20)
        assert part.s2 == (17, 22)
        assert part.s3 == (19,)
        assert part.s4 == (14, 21)
        assert part.overlap == ()
        # formula forms of the part sizes
        assert len(part.s1) == 2 + (2 * 7) // 5 - math.ceil(Fraction(7, 5))
        assert len(part.s2) == 1 + 7 // 5

    def test_overlap_in_3_5(self):
        part = counting.s_partition(3, 5)
        assert part.overlap == (15,)
        assert 15 in part.s1 and 15 in part.s4

    def test_s4_size_split(self):
        assert len(counting.s_partition(5, 11).s4) == 1  # 2*m1 < m2
        assert len(counting.s_partition(5, 7).s4) == 2  # 2*m1 > m2
        assert counting.s_partition(5, 11).s4 == (22,)

    def test_s3_always_single(self):
        for m1 in range(2, 10):
            for m2 in range(m1 + 1, 20):
                assert len(counting.s_partition(m1, m2).s3) == 1

    def test_union_reconstructs_obstruction_set(self):
        for m1 in range(3, 13):
            for m2 in range(m1 + 1, 21):
                part = counting.s_partition(m1, m2)
                assert list(part.union) == oracle_window_elements((m1, m2), 2)

    def test_disjoint_for_primes_from_5(self):
        primes = [p for p in PRIMES_TO_100 if 5 <= p <= 60]
        for idx, m1 in enumerate(primes):
            for m2 in primes[idx + 1 :]:
                part = counting.s_partition(m1, m2)
                sets = [set(part.s1), set(part.s2), set(part.s3), set(part.s4)]
                for a in range(4):
                    for b in range(a + 1, 4):
                        assert not (sets[a] & sets[b]), (m1, m2, a, b)
                assert part.overlap == ()

    def test_overlap_iff_triple_m2_in_window(self):
        # For m1 = 3 the only possible collision is 3*m2, which lies in the
        # window exactly when m2 < 6.
        for m2 in [5, 7, 11, 13, 17, 19, 23, 29]:
            part = counting.s_partition(3, m2)
            in_window = 3 + m2 < 3 * m2 < 2 * (3 + m2)
            assert (part.overlap == (3 * m2,)) == in_window
            assert part.overlap == ((15,) if m2 == 5 else ())

    def test_ordering_errors(self):
        with pytest.raises(WeightError, match="m1 < m2"):
            counting.s_partition(5, 5)
        with pytest.raises(WeightError, match="m1 < m2"):
            counting.s_partition(7, 5)
        with pytest.raises(WeightError, match=">= 2"):
            counting.s_partition(1, 5)


class TestClosedFormCount:
    @pytest.mark.parametrize(
        "m1, m2, formula, value, gap",
        [
            (5, 11, "d", 7, (17, 18, 19, 23, 24, 28, 29)),
            (5, 7, "d-prime", 4, (13, 16, 18, 23)),
            (3, 5, "f", 0, ()),
            (3, 29, "f", 8, (34, 37, 40, 43, 46, 49, 52, 55)),
        ],
    )
    def test_reference_reports(self, m1, m2, formula, value, gap):
        report = counting.closed_form_count(m1, m2)
        assert report.formula == formula
        assert report.closed_form == value
        assert report.gap_set == gap
        assert report.matches

    def test_outside_hypotheses_enumeration_only(self):
        report = counting.closed_form_count(4, 9)
        assert report.formula is None
        assert report.closed_form is None
        assert report.matches
        assert report.gap_set == (14, 15, 19, 23)

    def test_window_census_identity(self):
        for m1 in range(2, 12):
            for m2 in range(m1 + 1, 24):
                report = counting.closed_form_count(m1, m2)
                assert report.window_size == m1 + m2 - 1
                assert len(report.gap_set) + report.i_set_size == report.window_size

    def test_matches_on_prime_pairs_to_100(self):
        primes = [p for p in PRIMES_TO_100 if p >= 5]
        for idx, m1 in enumerate(primes):
            for m2 in primes[idx + 1 :]:
                report = counting.closed_form_count(m1, m2)
                assert report.formula in ("d", "d-prime")
                assert report.matches, (m1, m2)

    def test_matches_on_m1_3_primes_to_100(self):
        for m2 in PRIMES_TO_100:
            if m2 < 5:
                continue
            report = counting.closed_form_count(3, m2)
            assert report.formula == "f"
            assert report.matches, m2

    def test_backends_equivalent(self):
        assert counting.closed_form_count(5, 13).gap_set == (
            19, 21, 22, 24, 27, 29, 32, 34,
        )

    def test_ceiling_floor_identity(self):
        # -ceil(x) + floor(x) = -1 for any non-integer rational, the step the
        # part-size formulas rely on.
        for m1 in range(2, 20):
            for m2 in range(m1 + 1, 40):
                if m2 % m1 == 0:
                    continue
                x = Fraction(m2, m1)
                assert -math.ceil(x) + math.floor(x) == -1


class TestTables:
    def test_d_table_reference_rows(self):
        rows = counting.table_d(5, [11, 13, 17, 19, 23])
        assert [(m2, d) for m2, d, _ in rows] == [
            (11, 7), (13, 8), (17, 11), (19, 12), (23, 14),
        ]
        gaps = {m2: gap for m2, _, gap in rows}
        assert gaps[13] == (19, 21, 22, 24, 27, 29, 32, 34)
        assert gaps[17] == (23, 24, 26, 28, 29, 31, 33, 36, 38, 41, 43)
        assert gaps[19] == (26, 27, 28, 31, 32, 33, 36, 37, 41, 42, 46, 47)
        assert gaps[23] == (29, 31, 32, 34, 36, 37, 39, 41, 42, 44, 47, 49, 52, 54)

    def test_d_table_rows_mirror_reports(self):
        for m2, d, gap in counting.table_d(7, [11, 17, 29]):
            report = counting.closed_form_count(7, m2)
            assert (d, gap) == (report.closed_form, report.gap_set)

    def test_d_table_empty_input(self):
        assert counting.table_d(5, []) == []

    def test_f_table_reference_rows(self):
        assert counting.table_f([5, 7, 11]) == [(5, 0), (7, 1), (11, 2)]
        assert counting.table_f([47]) == [(47, 14)]
        assert counting.table_f([19]) == [(19, 5)]
        assert counting.table_f(counting.TABLE_F_M2) == [
            (5, 0), (7, 1), (11, 2), (13, 3), (17, 4), (19, 5), (23, 6),
            (29, 8), (31, 9), (37, 11), (41, 12), (43, 13), (47, 14),
        ]

    def test_f_table_matches_enumeration(self):
        for m2, f in counting.table_f(counting.TABLE_F_M2):
            assert f == len(counting.closed_form_count(3, m2).gap_set)

    @pytest.mark.parametrize("bad", [9, 4, 2, 25])
    def test_f_table_rejects_non_prime(self, bad):
        with pytest.raises(WeightError, match="prime"):
            counting.table_f([bad])


def _oracle_gaps(m1, m2):
    lo, hi = m1 + m2, 2 * (m1 + m2)
    blocked = set(oracle_window_elements((m1, m2), 2))
    return tuple(t for t in range(lo + 1, hi) if t not in blocked)


pairs = st.integers(2, 30).flatmap(lambda m1: st.tuples(st.just(m1), st.integers(m1 + 1, 60)))


class TestGapRuns:
    @settings(deadline=None, max_examples=100)
    @given(pairs)
    @example((5, 11))
    @example((3, 5))
    @example((2, 3))
    def test_gap_set_is_the_oracle_complement(self, pair):
        report = counting.closed_form_count(*pair)
        expected = _oracle_gaps(*pair)
        gaps = report.gap_set
        assert type(gaps) is IntRuns
        assert gaps == expected and expected == gaps
        assert not gaps != expected and not expected != gaps
        assert hash(gaps) == hash(expected)
        assert repr(gaps) == repr(expected)
        assert len(gaps) == len(expected)
        assert sum(map(len, gaps.runs)) + report.i_set_size == report.window_size
        # The runs are maximal: none is empty and no two touch.
        assert all(gaps.runs) and all(a.stop < b.start for a, b in zip(gaps.runs, gaps.runs[1:]))

    def test_report_repr_unchanged(self):
        report = counting.closed_form_count(5, 11)
        assert repr(report) == (
            "CountReport(m1=5, m2=11, window_size=15, i_set_size=8, "
            "gap_set=(17, 18, 19, 23, 24, 28, 29), formula='d', closed_form=7, matches=True)"
        )
        plain = dataclasses.replace(report, gap_set=tuple(report.gap_set))
        assert repr(plain) == repr(report)
        assert plain == report
        assert hash(plain) == hash(report)
        assert repr(counting.closed_form_count(3, 5).gap_set) == "()"


_run_lists = st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 4)), max_size=6).map(
    lambda steps: [range(a, a + n) for a, n in steps]
)


class TestIntRuns:
    @settings(deadline=None, max_examples=200)
    @given(_run_lists)
    def test_acts_as_the_tuple(self, runs):
        runs_value = IntRuns(runs)
        plain = tuple(t for run in runs for t in run)
        assert runs_value == plain and plain == runs_value
        assert runs_value == IntRuns(runs) and hash(runs_value) == hash(plain)
        assert repr(runs_value) == repr(plain)
        assert len(runs_value) == len(plain)
        assert tuple(runs_value) == plain
        assert [runs_value[i] for i in range(-len(plain), len(plain))] == [
            plain[i] for i in range(-len(plain), len(plain))
        ]
        assert runs_value[1:-1] == plain[1:-1] and runs_value[::2] == plain[::2]
        assert all((v in runs_value) == (v in plain) for v in range(-6, 11))
        assert list(reversed(runs_value)) == list(reversed(plain))

    def test_index_out_of_range(self):
        runs_value = IntRuns([range(3, 5), range(9, 10)])
        for bad in (3, -4):
            with pytest.raises(IndexError):
                runs_value[bad]
        with pytest.raises(IndexError):
            IntRuns()[0]

    def test_not_equal_to_other_types(self):
        runs_value = IntRuns([range(1, 3)])
        assert runs_value != [1, 2]
        assert runs_value != (1, 3)
        assert runs_value != IntRuns([range(1, 4)])
        assert IntRuns([range(1, 2), range(2, 3)]) == IntRuns([range(1, 3)])

    def test_immutable_and_copyable(self):
        runs_value = IntRuns([range(1, 3), range(7, 8)])
        with pytest.raises(AttributeError):
            runs_value.runs = ()
        assert copy.deepcopy(runs_value) == runs_value
        assert pickle.loads(pickle.dumps(runs_value)) == runs_value
        # asdict deep-copies every field that is not a list, tuple or dict.
        report = counting.closed_form_count(5, 11)
        assert dataclasses.asdict(report)["gap_set"] == (17, 18, 19, 23, 24, 28, 29)

    def test_runs_must_step_by_one(self):
        with pytest.raises(ValueError, match="step 1"):
            IntRuns([range(1, 9, 2)])
