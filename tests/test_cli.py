import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcweights import cli as cli_module
from qcweights import core, counting
from qcweights.cli import (
    _json_chunks,
    _set_line,
    _witness_pieces,
    main,
)
from qcweights.counting import CountReport
from qcweights.model import (
    FAILURE_REASONS,
    NO_WINDOW_EXISTS,
    OBSTRUCTION_SET_HIT,
    ClassFailure,
    IntRuns,
    Resonances,
    ResonanceWitness,
    ScanRow,
    ScanRows,
    window_interval,
)

from oracles import valid_weights

GOLDEN = Path(__file__).parent / "golden"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_json(out):
    return json.loads(out)


def strip_elapsed(out):
    return re.sub(r'^\s*"elapsed_ms": [0-9.]+,?\n', "", out, flags=re.MULTILINE)


class TestClassify:
    def test_accepted_text(self, capsys):
        code, out, _ = run_cli(["classify", "3", "7", "11"], capsys)
        assert code == 0
        assert out == "weight: 3 7 11\nin_class: true\nwitnesses: [2]\n"

    def test_rejected_exit_code(self, capsys):
        code, out, _ = run_cli(["classify", "3", "5", "9"], capsys)
        assert code == 3
        assert "in_class: false" in out
        assert "failure: obstruction-set-hit (level 3)" in out

    def test_invalid_input(self, capsys):
        code, _, err = run_cli(["classify", "5", "5", "7"], capsys)
        assert code == 1
        assert "strictly increasing" in err

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(["classify", "4", "5", "7", "--format", "json"], capsys)
        assert code == 0
        envelope = parse_json(out)
        assert envelope["command"] == "classify"
        assert envelope["input"] == {"weights": [4, 5, 7]}
        assert envelope["result"] == {
            "weight": [4, 5, 7],
            "in_class": True,
            "witnesses": [1],
            "failure": None,
        }
        assert "elapsed_ms" in envelope
        assert "elapsed_ms" not in envelope["result"]

    def test_json_failure_payload(self, capsys):
        code, out, _ = run_cli(["classify", "1", "2", "3", "--format", "json"], capsys)
        assert code == 3
        result = parse_json(out)["result"]
        assert result["failure"] == {"reason": "base-case-m1", "level": 2}

    def test_byte_stable_modulo_elapsed(self, capsys):
        _, first, _ = run_cli(["classify", "3", "7", "11", "--format", "json"], capsys)
        _, second, _ = run_cli(["classify", "3", "7", "11", "--format", "json"], capsys)
        assert strip_elapsed(first) == strip_elapsed(second)


class TestIset:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(["iset", "3", "7", "--M", "2"], capsys)
        assert code == 0
        assert "interval: (10, 20)" in out
        assert "elements: {12, 13, 14, 15, 16, 17, 18, 19}" in out
        assert "size: 8" in out

    def test_backends_same_result_payload(self, capsys):
        payloads = []
        for backend in ("brute", "sieve", "apery"):
            _, out, _ = run_cli(
                ["iset", "3", "5", "--M", "2", "--backend", backend, "--format", "json"],
                capsys,
            )
            envelope = parse_json(out)
            assert envelope["backend"] == backend
            payloads.append(envelope["result"])
        assert payloads[0] == payloads[1] == payloads[2]
        assert payloads[0]["elements"] == list(range(9, 16))

    def test_first_window(self, capsys):
        _, out, _ = run_cli(["iset", "3", "5", "--M", "1", "--format", "json"], capsys)
        assert parse_json(out)["result"]["elements"] == [6]

    def test_huge_window_index(self, capsys):
        M = 10**30
        code, out, _ = run_cli(["iset", "3", "7", "--M", str(M), "--format", "json"], capsys)
        assert code == 0
        result = parse_json(out)["result"]
        assert result["M"] == M
        assert result["interval"] == [(M - 1) * 10, M * 10]
        assert result["elements"] == list(range((M - 1) * 10 + 1, M * 10))
        assert result["size"] == 9

    def test_invalid_window_index(self, capsys):
        code, _, err = run_cli(["iset", "3", "5", "--M", "0"], capsys)
        assert code == 1
        assert "M must be >= 1" in err

    def test_unknown_backend(self, capsys):
        code, _, err = run_cli(["iset", "3", "5", "--M", "1", "--backend", "magic"], capsys)
        assert code == 1

    def test_brute_step_limit(self, capsys):
        argv = ["iset", "3", "7", "--M", str(10**30)]
        code, out, err = run_cli([*argv, "--backend", "brute"], capsys)
        assert code == 1
        assert out == ""
        assert f"BRUTE_STEP_LIMIT = {core.BRUTE_STEP_LIMIT}" in err
        code, out, _ = run_cli([*argv, "--backend", "apery"], capsys)
        assert code == 0
        assert "size: 9" in out


class TestResonancesCommand:
    def test_resonance_free_exit_zero(self, capsys):
        code, out, _ = run_cli(["resonances", "3", "5", "7"], capsys)
        assert code == 0
        assert "count: 0" in out

    def test_witnesses_exit_three(self, capsys):
        code, out, _ = run_cli(["resonances", "1", "2", "3"], capsys)
        assert code == 3
        assert "count: 4" in out
        assert "(i=2, j=3, k=[1, 0])" in out

    def test_json_witnesses(self, capsys):
        code, out, _ = run_cli(["resonances", "2", "3", "5", "--format", "json"], capsys)
        assert code == 3
        result = parse_json(out)["result"]
        assert result["count"] == 2
        assert result["witnesses"] == [
            {"i": 1, "j": 3, "k": [0, 1]},
            {"i": 2, "j": 3, "k": [1, 0]},
        ]

    def test_json_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(["resonances", "2", "3", "5", "7", "30", "--format", "json"], capsys)
        assert code == 3
        assert strip_elapsed(out) == (GOLDEN / "resonances_json.txt").read_text()

    def test_unreachable_targets_with_huge_last_entry(self, capsys):
        # Both targets are odd and the prefix (4, 6) has gcd 2.
        code, out, _ = run_cli(["resonances", "4", "6", "1000000001"], capsys)
        assert code == 0
        assert out == "weight: 4 6 1000000001\ncount: 0\n"

    def test_deficits_below_every_entry(self, capsys):
        weight = ["1000003", "1000033", "1000037", "1000039"]
        code, out, _ = run_cli(["resonances", *weight], capsys)
        assert code == 0
        assert out == f"weight: {' '.join(weight)}\ncount: 0\n"


class TestEnumerateCommand:
    @pytest.mark.parametrize(
        "prefix, window, expected",
        [
            (("5", "7"), "2", [13, 16, 18, 23]),
            (("3", "5"), "2", []),
            (("3", "13"), "2", [17, 20, 23]),
        ],
    )
    def test_reference_sets(self, capsys, prefix, window, expected):
        code, out, _ = run_cli(
            [*("enumerate",), *prefix, "--M", window, "--format", "json"], capsys
        )
        assert code == 0
        assert parse_json(out)["result"]["admissible"] == expected

    def test_prefix_not_in_class(self, capsys):
        code, _, err = run_cli(["enumerate", "3", "6", "--M", "2"], capsys)
        assert code == 1
        assert "not in the weight class" in err


class TestCountCommand:
    def test_closed_form_d(self, capsys):
        code, out, _ = run_cli(["count", "5", "11", "--format", "json"], capsys)
        assert code == 0
        result = parse_json(out)["result"]
        assert result["formula"] == "d"
        assert result["closed_form"] == 7
        assert result["matches"] is True
        assert result["gap_set"] == [17, 18, 19, 23, 24, 28, 29]

    def test_m1_3_formula(self, capsys):
        code, out, _ = run_cli(["count", "3", "7", "--format", "json"], capsys)
        assert code == 0
        result = parse_json(out)["result"]
        assert result["formula"] == "f"
        assert result["closed_form"] == 1
        assert result["gap_set"] == [11]

    def test_enumeration_only(self, capsys):
        code, out, _ = run_cli(["count", "4", "9", "--format", "json"], capsys)
        assert code == 0
        result = parse_json(out)["result"]
        assert result["formula"] is None
        assert result["closed_form"] is None
        assert result["matches"] is True

    def test_invalid_pair(self, capsys):
        code, _, err = run_cli(["count", "9", "4"], capsys)
        assert code == 1
        assert "m1 < m2" in err


class TestTableCommand:
    def test_d_table_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(["table", "d-table"], capsys)
        assert code == 0
        assert out == (GOLDEN / "d_table.txt").read_text()

    def test_f_table_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(["table", "f-table"], capsys)
        assert code == 0
        assert out == (GOLDEN / "f_table.txt").read_text()

    def test_unknown_table(self, capsys):
        code, _, err = run_cli(["table", "bogus"], capsys)
        assert code == 1

    def test_f_table_json_values(self, capsys):
        _, out, _ = run_cli(["table", "f-table", "--format", "json"], capsys)
        rows = parse_json(out)["result"]["rows"]
        assert [r["f"] for r in rows] == [0, 1, 2, 3, 4, 5, 6, 8, 9, 11, 12, 13, 14]


class TestScanCommand:
    def test_in_class_includes_reference_weights(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--n", "3", "--max", "12", "--filter", "in-class", "--format", "json"],
            capsys,
        )
        assert code == 0
        weights = [tuple(r["weight"]) for r in parse_json(out)["result"]["rows"]]
        for expected in [(3, 5, 7), (4, 5, 7), (3, 7, 11)]:
            assert expected in weights
        assert all(len(w) == 3 for w in weights)

    def test_disagree_filter_empty(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--n", "3", "--max", "12", "--filter", "disagree", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert parse_json(out)["result"]["rows"] == []

    def test_n2_in_class_rows(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--n", "2", "--max", "5", "--filter", "in-class", "--format", "json"],
            capsys,
        )
        assert code == 0
        weights = [tuple(r["weight"]) for r in parse_json(out)["result"]["rows"]]
        assert weights == [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]

    def test_skips_gcd_tuples_silently(self, capsys):
        _, out, _ = run_cli(
            ["scan", "--n", "2", "--max", "6", "--filter", "resonance-free", "--format", "json"],
            capsys,
        )
        weights = [tuple(r["weight"]) for r in parse_json(out)["result"]["rows"]]
        assert (2, 4) not in weights and (2, 6) not in weights and (4, 6) not in weights

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            ["scan", "--n", "2", "--max", "5", "--filter", "in-class", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "weight,in_class,witnesses,n_resonances,i_set_sizes,failure"
        assert lines[1] == "2 3,true,,0,,"
        assert len(lines) == 6

    def test_rows_match_per_tuple_library_path(self, capsys):
        # The prefix walk shares work between tuples; its rows must equal
        # the library's answers for each tuple on its own, under every filter.
        keep = {
            "in-class": lambda in_class, n_res: in_class,
            "resonance-free": lambda in_class, n_res: n_res == 0,
            "both": lambda in_class, n_res: in_class and n_res == 0,
            "disagree": lambda in_class, n_res: in_class and n_res > 0,
        }
        for n, top in [(2, 12), (3, 22), (4, 12), (5, 11)]:
            per_tuple = []
            for m in valid_weights(n, top):
                verdict = core.is_in_class(m)
                sizes = []
                for j in range(3, n + 1):
                    sigma = sum(m[: j - 1])
                    if m[j - 1] % sigma == 0:
                        sizes.append(None)
                    else:
                        window = m[j - 1] // sigma + 1
                        sizes.append(core.obstruction_set(m[: j - 1], window, "brute").size)
                failure = verdict.failure
                per_tuple.append({
                    "weight": list(m),
                    "in_class": verdict.in_class,
                    "witnesses": list(verdict.witnesses),
                    "failure": None if failure is None
                    else {"reason": failure.reason, "level": failure.level},
                    "n_resonances": len(core.resonances(m)),
                    "i_set_sizes": sizes,
                })
            for name, wanted in keep.items():
                code, out, _ = run_cli(
                    ["scan", "--n", str(n), "--max", str(top), "--filter", name,
                     "--format", "json"],
                    capsys,
                )
                expected = [r for r in per_tuple if wanted(r["in_class"], r["n_resonances"])]
                assert code == 0
                assert parse_json(out)["result"]["rows"] == expected, (n, top, name)

    def test_json_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(["scan", "--n", "3", "--max", "12", "--format", "json"], capsys)
        assert code == 0
        assert strip_elapsed(out) == (GOLDEN / "scan_json.txt").read_text()

    def test_lexicographic_order(self, capsys):
        _, out, _ = run_cli(
            ["scan", "--n", "3", "--max", "10", "--filter", "resonance-free", "--format", "json"],
            capsys,
        )
        weights = [tuple(r["weight"]) for r in parse_json(out)["result"]["rows"]]
        assert weights == sorted(weights)

    def test_bad_bounds(self, capsys):
        assert run_cli(["scan", "--n", "1", "--max", "5"], capsys)[0] == 1
        assert run_cli(["scan", "--n", "3", "--max", "2"], capsys)[0] == 1


# sha256 of each output with its elapsed_ms line removed, and the exit code,
# recorded before the semigroup engine became one Semigroup value.  The scan
# rows of length 4 read tables derived from their parent prefix's; the other
# commands answer three-entry prefixes by a budgeted search or a table.  The
# resonance listings were recorded before the writer joined templated items
# into chunks of _ITEM_CHUNK; those of (2, 3, 5, 7, 252), a benchmark listing
# of 53,415 witnesses, and (3, 4, 6, 11, 30) before the walk listed the last
# pair from the loop over its predecessor and witnesses became named tuples.
# The text listing of (2, 3, 5, 7, 252) was recorded before the writer
# rendered witnesses from per-pair k arrays.  The scans of the benchmark,
# (3, 70) and (4, 28), were recorded before rows were held as per-window
# stretches.
_PINNED = {
    ("scan", "--n", "3", "--max", "70", "--filter", "in-class", "--format", "json"):
        (0, "acbe199f46581e474051d6fc187324a89ff31d2edac928d834aeb7f5a20272f3"),
    ("scan", "--n", "4", "--max", "28", "--filter", "in-class", "--format", "json"):
        (0, "fb6cb94c219f80150bd173db04ea0fc6f879e42f1f390aa9e470b3e787dc6528"),
    ("scan", "--n", "4", "--max", "14", "--filter", "in-class", "--format", "text"):
        (0, "25a9477136729f91062f34c6446ac8e9139420752dd7b6dd7989e4c523e5575b"),
    ("scan", "--n", "4", "--max", "14", "--filter", "in-class", "--format", "json"):
        (0, "0b232eaa754aac0934489b5d9dcf26776b02b74d55d9adbaad526a05d84aaba0"),
    ("scan", "--n", "4", "--max", "14", "--filter", "in-class", "--format", "csv"):
        (0, "7a176a2d991ad7ea13e661f7f130ee3041a2623bd316993fc841254e70e7df49"),
    ("scan", "--n", "4", "--max", "14", "--filter", "resonance-free", "--format", "text"):
        (0, "25a9477136729f91062f34c6446ac8e9139420752dd7b6dd7989e4c523e5575b"),
    ("scan", "--n", "4", "--max", "14", "--filter", "resonance-free", "--format", "json"):
        (0, "616dcc35f3116ebdd9464dc52ac6f230e9677afefbd4974251a647e4e9cb4ce4"),
    ("scan", "--n", "4", "--max", "14", "--filter", "resonance-free", "--format", "csv"):
        (0, "7a176a2d991ad7ea13e661f7f130ee3041a2623bd316993fc841254e70e7df49"),
    ("scan", "--n", "4", "--max", "14", "--filter", "both", "--format", "text"):
        (0, "25a9477136729f91062f34c6446ac8e9139420752dd7b6dd7989e4c523e5575b"),
    ("scan", "--n", "4", "--max", "14", "--filter", "both", "--format", "json"):
        (0, "60f3b8b0ebf264520ffd35a92846f2cef73a1fe87a25b9bb420dbdfc521ae803"),
    ("scan", "--n", "4", "--max", "14", "--filter", "both", "--format", "csv"):
        (0, "7a176a2d991ad7ea13e661f7f130ee3041a2623bd316993fc841254e70e7df49"),
    ("scan", "--n", "4", "--max", "14", "--filter", "disagree", "--format", "text"):
        (0, "eae837fe86d21f7c707d9e3be0bfbe70f9c93743a29f645ab084783ba829d1e0"),
    ("scan", "--n", "4", "--max", "14", "--filter", "disagree", "--format", "json"):
        (0, "61d27ba3449f37480495c0731f6eb4ed715c472ffeca947e2448fd4a890aa781"),
    ("scan", "--n", "4", "--max", "14", "--filter", "disagree", "--format", "csv"):
        (0, "1b467f1ee5a6d7026f9fed274de6aa114f6a5f32864ef87d26f91f56b7209493"),
    ("iset", "3", "5", "7", "--M", "1"):
        (0, "319ea271270d15dea5bdc42f9a715a32022bd7a89ffcc18d042bf0bf77b3e1c0"),
    ("iset", "3", "5", "7", "--M", "1", "--format", "json"):
        (0, "b3ef3296b55f766c26180fb553e66fedb3d6eb4c225cd998af91c2f718ed8210"),
    ("iset", "3", "5", "7", "--M", "2"):
        (0, "26e4ef33a63c9a44c049c6ff6df70c075213fa367d57fddd1b648a07d0040f99"),
    ("iset", "3", "5", "7", "--M", "2", "--format", "json"):
        (0, "fa42a2adb37288443299ff4ed01a21e647baaea2c0ce48cdd9e64210c6cec295"),
    ("iset", "3", "5", "7", "--M", "5"):
        (0, "ee58b515d7af5ae5de934f4d0c7c8431fcc444cec7057cfa4b2c1fe03afdf3a1"),
    ("iset", "3", "5", "7", "--M", "5", "--format", "json"):
        (0, "74c30efd7b938c8cf98da1762741d75a6e9568ef84ba0d4d3e826d793a7c8b1d"),
    ("enumerate", "3", "5", "7", "--M", "2"):
        (0, "9b21a7f52715ef14a011aa466b5bcd60b302bd6ccd286b4c9a7ec9ea79359029"),
    ("enumerate", "3", "5", "7", "--M", "2", "--format", "json"):
        (0, "26dc53c8de617cfc2b21b4830a745496d5e210ec58f8748295789235870664c0"),
    ("classify", "6", "8", "10", "1000001"):
        (0, "7634e272bf249b3f3a260b32e7e837313fd60d6738887720ddb7d8608e38ccc4"),
    ("classify", "6", "8", "10", "1000001", "--format", "json"):
        (0, "267163132fd81e98f5e56ec647768b2536a6c4100d4a43c6e89adf695ee42bc1"),
    ("classify", "5", "12", "18", "1000003"):
        (3, "e07145cd20698b713750360d720df64f046c8b377d84ba67094846a9f7a72ec4"),
    ("classify", "5", "12", "18", "1000003", "--format", "json"):
        (3, "310c07206f0903e5a0a0309121aa2b7d33ae5b3430b048eba2e2690d7249a26d"),
    ("classify", "5", "12", "18", "1000001"):
        (3, "4182970c2a8a31ca73057f5be44f084979197c60e75494541aa6cf718929bbbd"),
    ("classify", "5", "12", "18", "1000001", "--format", "json"):
        (3, "4bfb6d2c77efaea722026dd2c4b7ffcc498af6ecf541a8a8526493b4caf068a3"),
    ("classify", "3", "10", "11", "1000001"):
        (3, "c03c15b4f7869d922055c08b83a9c764cdb1ebb2c5793c86aa3c9ac28aae2a9f"),
    ("classify", "3", "10", "11", "1000001", "--format", "json"):
        (3, "4dca1fb8cd7405b5319f567d1b4b1122c1d1bd0f8c284bd9cf8d552becce59d5"),
    ("classify", "999983", "999989", "1999973", "4999999"):
        (0, "2b2b8cb6305dec2f0a3dabf54fa5aee171c3be0d6a31431db2d783f3bbccbec6"),
    ("classify", "999983", "999989", "1999973", "4999999", "--format", "json"):
        (0, "8c2c3ece62ac16b7aec37ecfe34f5e4d4588f08bad754010e3deffe44614ae0b"),
    ("resonances", "2", "3", "5", "7", "40"):
        (3, "5634adbfb3b859565423e7c251b6958b551aab1fc659832d405405f8dd6167cf"),
    ("resonances", "2", "3", "5", "7", "40", "--format", "json"):
        (3, "8bae2eb6f4d31a261a4e89426e836559ac55faf6eaad60217bac405bf5594365"),
    ("resonances", "20", "23", "45"):
        (0, "8d0146e069cf9f74ee286a186138fc62a935e6c5224a5dbd567f4f8c975ba941"),
    ("resonances", "20", "23", "45", "--format", "json"):
        (0, "f884e7f53699e85214449f25699d143c784fc80e40efced46f59f4176d07c825"),
    ("resonances", "2", "3", "5", "7", "252"):
        (3, "f4a1a212394e580ecf9d4a9cf8d6b3a5a9bcc02d93e0cc42d875aac477331bea"),
    ("resonances", "2", "3", "5", "7", "252", "--format", "json"):
        (3, "c7cdf78f86da779146eb582b71fd251de61a32a9b77f5c92f63651d88b474a15"),
    ("resonances", "3", "4", "6", "11", "30"):
        (3, "6153805ee19acb864864481e7002ca024035c8e4fabbb8fee5f18d1976c654a8"),
    ("resonances", "3", "4", "6", "11", "30", "--format", "json"):
        (3, "087aa1c6d3f18b8a357bddedd362c551d05da6723f7a5920f7371802dda986e6"),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("argv", list(_PINNED), ids=" ".join)
    def test_output_digest(self, capsys, argv):
        code, out, err = run_cli(list(argv), capsys)
        digest = hashlib.sha256(strip_elapsed(out).encode()).hexdigest()
        assert (code, digest) == _PINNED[argv]
        assert err == ""


class TestInternalMismatchWiring:
    # Exit code 2 must be unreachable with real data; fake a broken result
    # to prove the guard fires.

    def test_count_mismatch_exits_two(self, capsys, monkeypatch):
        import qcweights.cli as cli_mod
        from qcweights.counting import CountReport

        def broken(m1, m2):
            return CountReport(
                m1=m1, m2=m2, window_size=15, i_set_size=8,
                gap_set=(17,), formula="d", closed_form=7, matches=False,
            )

        monkeypatch.setattr(cli_mod.counting, "closed_form_count", broken)
        code, _, err = run_cli(["count", "5", "11"], capsys)
        assert code == 2
        assert "internal mismatch" in err

    def test_scan_disagreement_exits_two(self, capsys, monkeypatch):
        import qcweights.cli as cli_mod

        # One witness for every deficit, in every field of the packed
        # counts: in-class weights then count as having resonances.
        monkeypatch.setattr(
            cli_mod.core,
            "_extend_ways",
            lambda ways, part, field, top: sum(1 << field * t for t in range(top + 1)),
        )
        code, _, err = run_cli(
            ["scan", "--n", "2", "--max", "4", "--filter", "disagree"], capsys
        )
        assert code == 2
        assert "internal mismatch" in err


class TestOutputPlumbing:
    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            ["iset", "3", "7", "--M", "2", "--format", "json", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        envelope = json.loads(target.read_text())
        assert envelope["result"]["elements"] == list(range(12, 20))

    def test_format_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QCW_FORMAT", "json")
        _, out, _ = run_cli(["classify", "3", "5", "7"], capsys)
        assert parse_json(out)["result"]["in_class"] is True

    def test_format_env_csv_is_text_without_csv(self, capsys, monkeypatch):
        # One QCW_FORMAT=csv serves every command: a command that has no
        # CSV writes its text, with its usual exit code.
        for argv in (["classify", "3", "7", "11"], ["iset", "3", "5", "--M", "2"]):
            expected = run_cli(argv, capsys)
            monkeypatch.setenv("QCW_FORMAT", "csv")
            assert run_cli(argv, capsys) == expected
            assert expected[0] == 0
            monkeypatch.delenv("QCW_FORMAT")
        monkeypatch.setenv("QCW_FORMAT", "csv")
        code, out, err = run_cli(["classify", "3", "5", "9"], capsys)
        assert (code, err) == (3, "")
        assert out == (GOLDEN / "classify_text.txt").read_text()

    def test_format_env_csv_on_scan(self, capsys, monkeypatch):
        monkeypatch.setenv("QCW_FORMAT", "csv")
        code, out, err = run_cli(["scan", "--n", "3", "--max", "12"], capsys)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / "scan_csv.txt").read_text()

    @pytest.mark.parametrize(
        "argv, choices",
        [
            (["classify", "3", "7", "11"], "'text', 'json'"),
            (["scan", "--n", "3", "--max", "12"], "'text', 'json', 'csv'"),
        ],
        ids=["classify", "scan"],
    )
    def test_format_env_unknown_is_a_usage_error(self, capsys, monkeypatch, argv, choices):
        monkeypatch.setenv("QCW_FORMAT", "xml")
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.endswith(
            f"Error: Invalid value for '--format': 'xml' is not one of {choices}.\n"
        )

    def test_json_keys_sorted(self, capsys):
        _, out, _ = run_cli(["count", "5", "11", "--format", "json"], capsys)
        envelope = parse_json(out)
        assert list(envelope) == sorted(envelope)
        assert list(envelope["result"]) == sorted(envelope["result"])

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcweights", "classify", "3", "7", "11"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "in_class: true" in proc.stdout

    def test_module_entry_point_negative(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qcweights", "classify", "3", "5", "9"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3


_COMMANDS = ("classify", "iset", "resonances", "enumerate", "count", "table", "scan")


class TestCommandRunner:
    # Every command runs through one runner: click writes the help and usage
    # bytes, and the runner echoes the parameters, writes the format and
    # exits with the answer's code.

    @pytest.mark.parametrize("command", [None, *_COMMANDS])
    def test_help_matches_golden(self, capsys, monkeypatch, command):
        # click wraps help text to the terminal width, which COLUMNS sets.
        monkeypatch.setenv("COLUMNS", "80")
        argv = ["--help"] if command is None else [command, "--help"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        golden = "help.txt" if command is None else f"help_{command}.txt"
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize(
        "argv, echo, backend",
        [
            (["classify", "3", "5", "7"], {"weights": [3, 5, 7]}, "apery"),
            (
                ["iset", "3", "7", "--M", "2"],
                {"prefix": [3, 7], "M": 2, "backend": "sieve"},
                "sieve",
            ),
            (["resonances", "1", "2", "3"], {"weights": [1, 2, 3]}, None),
            (
                ["enumerate", "5", "7", "--backend", "brute", "--M", "2"],
                {"prefix": [5, 7], "M": 2, "backend": "brute"},
                "brute",
            ),
            (["count", "5", "11"], {"m1": 5, "m2": 11}, "sieve"),
            (["table", "f-table"], {"name": "f-table"}, "sieve"),
            (
                ["scan", "--max", "9", "--n", "3"],
                {"n": 3, "max": 9, "filter": "in-class"},
                "apery",
            ),
        ],
        ids=_COMMANDS,
    )
    def test_input_echoes_parameters_by_command_line_name(self, capsys, argv, echo, backend):
        # Defaults the user did not type are echoed too.
        _, out, _ = run_cli([*argv, "--format", "json"], capsys)
        envelope = parse_json(out)
        assert envelope["command"] == argv[0]
        assert envelope["input"] == echo
        assert envelope["backend"] == backend

    @pytest.mark.parametrize(
        "argv, golden, expected_code",
        [
            (["scan", "--n", "3", "--max", "12", "--format", "csv"], "scan_csv.txt", 0),
            (["classify", "3", "5", "9"], "classify_text.txt", 3),
            (
                ["scan", "--n", "4", "--max", "14", "--filter", "resonance-free", "--format",
                 "csv"],
                "scan_n4_resfree_csv.txt",
                0,
            ),
            (["scan", "--n", "3", "--max", "12"], "scan_text.txt", 0),
            (
                ["scan", "--n", "4", "--max", "14", "--filter", "disagree", "--format", "csv"],
                "scan_n4_disagree_csv.txt",
                0,
            ),
        ],
        ids=["scan-csv", "classify-text", "scan-n4-resfree-csv", "scan-text",
             "scan-n4-disagree-csv"],
    )
    def test_csv_and_negative_answer_match_goldens(self, capsys, argv, golden, expected_code):
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (expected_code, "")
        assert out == (GOLDEN / golden).read_text()


class TestNoNumpyAtRuntime:
    # numpy runs only the sieve oracle of the tests; no command needs it.

    def test_cli_import_leaves_numpy_out(self):
        code = "import sys, qcweights.cli; print('numpy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "False\n"

    def test_every_command_runs_without_numpy(self):
        # With sys.modules["numpy"] = None, any import of numpy raises.
        code = """
import contextlib, io, sys
sys.modules["numpy"] = None
from qcweights.cli import main
for argv in sys.argv[1:]:
    # The CLI writes bytes to stdout's buffer, which a real stdout has.
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        print(main(argv.split()), flush=True, file=sys.stderr)
"""
        invocations = {
            "classify 3 7 11": 0,
            "classify 999983 999989 1999973 4999999": 0,
            "classify 3 5 9": 3,
            "iset 3 7 --M 2 --backend sieve": 0,
            "iset 3 7 --M 2 --backend apery": 0,
            "iset 3 5 7 --M 5 --backend apery": 0,
            "enumerate 5 7 --M 2": 0,
            "count 5 11": 0,
            "table d-table": 0,
            "scan --n 3 --max 12": 0,
            "scan --n 4 --max 12 --format json": 0,
            "resonances 1 2 3": 3,
            "resonances 3 5 7": 0,
        }
        proc = subprocess.run(
            [sys.executable, "-c", code, *invocations],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split() == [str(rc) for rc in invocations.values()]


class TestOutputSinks:
    # Every format streams through one writer, to stdout or to --out.

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["scan", "--n", "3", "--max", "12"], "scan_json.txt"),
            (["resonances", "2", "3", "5", "7", "30"], "resonances_json.txt"),
            (["scan", "--n", "4", "--max", "14"], "scan_n4_json.txt"),
            (["scan", "--n", "5", "--max", "13", "--filter", "both"], "scan_n5_both_json.txt"),
        ],
    )
    def test_golden_through_out_file(self, capsys, tmp_path, argv, golden):
        target = tmp_path / "out.json"
        code, out, _ = run_cli([*argv, "--format", "json", "--out", str(target)], capsys)
        assert code in (0, 3)
        assert out == ""
        assert strip_elapsed(target.read_bytes().decode()) == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize(
        "argv",
        # resonance-free rows include failed ones.
        [
            ["scan", "--n", "3", "--max", "12", "--filter", "resonance-free", "--format", fmt]
            for fmt in ("text", "json", "csv")
        ]
        + [["resonances", "2", "3", "5", "7", "30", "--format", fmt] for fmt in ("text", "json")],
    )
    def test_stdout_equals_out_file(self, capsys, tmp_path, argv):
        target = tmp_path / "out"
        code, out, _ = run_cli(argv, capsys)
        file_code, file_out, _ = run_cli([*argv, "--out", str(target)], capsys)
        assert code == file_code
        assert file_out == ""
        assert strip_elapsed(target.read_bytes().decode()) == strip_elapsed(out)
        assert out.count("\n") > 20

    @pytest.mark.parametrize(
        "argv",
        [
            [*command, "--format", fmt]
            for command, formats in [
                (["classify", "3", "7", "11"], ("text", "json")),
                (["classify", "3", "5", "9"], ("text", "json")),
                (["iset", "3", "7", "--M", "2"], ("text", "json")),
                (["iset", "3", "5", "7", "--M", "5", "--backend", "apery"], ("text", "json")),
                (["resonances", "2", "3", "5", "7", "30"], ("text", "json")),
                (["resonances", "3", "5", "7"], ("text", "json")),
                (["enumerate", "5", "7", "--M", "2"], ("text", "json")),
                (["enumerate", "6", "10", "15", "--M", "2"], ("text", "json")),
                (["count", "5", "11"], ("text", "json")),
                (["count", "1009", "1013"], ("text", "json")),
                (["table", "d-table"], ("text", "json")),
                (["table", "f-table"], ("text", "json")),
                (["scan", "--n", "3", "--max", "12"], ("text", "json", "csv")),
                (["scan", "--n", "4", "--max", "12", "--filter", "both"], ("text", "json", "csv")),
            ]
            for fmt in formats
        ],
        ids=" ".join,
    )
    def test_every_command_writes_the_same_bytes_to_both_sinks(
        self, capsysbinary, tmp_path, argv
    ):
        # The raw bytes, each line ended by a bare \n, through stdout's
        # binary stream and through the --out file.
        target = tmp_path / "out"
        code = main(argv)
        out = capsysbinary.readouterr().out
        file_code = main([*argv, "--out", str(target)])
        assert capsysbinary.readouterr().out == b""
        assert code == file_code
        assert _strip_elapsed_bytes(target.read_bytes()) == _strip_elapsed_bytes(out)
        assert out.isascii() and out.endswith(b"\n") and b"\r" not in out

    @pytest.mark.parametrize(
        "argv, golden, expected_code",
        [
            (["scan", "--n", "3", "--max", "12", "--format", "json"], "scan_json.txt", 0),
            (["scan", "--n", "4", "--max", "14", "--format", "json"], "scan_n4_json.txt", 0),
            (
                ["scan", "--n", "4", "--max", "14", "--filter", "resonance-free", "--format",
                 "csv"],
                "scan_n4_resfree_csv.txt",
                0,
            ),
            (["resonances", "2", "3", "5", "7", "30", "--format", "json"],
             "resonances_json.txt", 3),
            (["table", "d-table"], "d_table.txt", 0),
            (["scan", "--n", "3", "--max", "12"], "scan_text.txt", 0),
            (
                ["scan", "--n", "5", "--max", "13", "--filter", "both", "--format", "json"],
                "scan_n5_both_json.txt",
                0,
            ),
            (
                ["scan", "--n", "4", "--max", "14", "--filter", "disagree", "--format", "csv"],
                "scan_n4_disagree_csv.txt",
                0,
            ),
        ],
        ids=["scan-json", "scan-n4-json", "scan-n4-resfree-csv", "resonances-json", "d-table",
             "scan-text", "scan-n5-both-json", "scan-n4-disagree-csv"],
    )
    def test_goldens_through_a_pipe(self, argv, golden, expected_code):
        # stdout a real pipe: the bytes go through its file descriptor.
        proc = subprocess.run(
            [sys.executable, "-m", "qcweights", *argv], capture_output=True
        )
        assert (proc.returncode, proc.stderr) == (expected_code, b"")
        assert strip_elapsed(proc.stdout.decode()) == (GOLDEN / golden).read_text()

    def test_binary_stdout_without_a_file_descriptor(self, monkeypatch):
        # A replacement stdout whose binary buffer has write, writelines and
        # flush but no fileno takes the bytes through that buffer.
        class Buffer:
            def __init__(self):
                self.data = bytearray()

            def write(self, data):
                self.data += data
                return len(data)

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

            def flush(self):
                pass

        class Text:
            buffer = Buffer()

            def write(self, text):
                # Text only, so that click looks for the binary buffer.
                if not isinstance(text, str):
                    raise TypeError("text only")
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Text())
        assert main(["table", "d-table"]) == 0
        assert Text.buffer.data.decode() == (GOLDEN / "d_table.txt").read_text()

    def test_pipe_equals_out_file_past_the_buffer(self, tmp_path):
        # Some hundred kilobytes, many times the output buffer, through a
        # pipe and through --out.
        argv = [sys.executable, "-m", "qcweights", "scan", "--n", "4", "--max", "20",
                "--format", "json"]
        target = tmp_path / "out.json"
        piped = subprocess.run(argv, capture_output=True, check=True).stdout
        subprocess.run([*argv, "--out", str(target)], capture_output=True, check=True)
        assert len(piped) > 200_000
        assert _strip_elapsed_bytes(piped) == _strip_elapsed_bytes(target.read_bytes())

    def test_text_written_first_stays_first(self):
        # Text still buffered in stdout, a pipe here, goes out before the
        # bytes written to its binary stream.  PYTHONUNBUFFERED would make
        # stdout write through and leave no text buffered.
        code = (
            "import sys; from qcweights.cli import main; "
            "sys.stdout.write('before '); sys.exit(main(['table', 'f-table']))"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True, env=env
        )
        assert proc.stdout.startswith(b"before f(m2) for m1 = 3\n")


def _strip_elapsed_bytes(out: bytes) -> bytes:
    return re.sub(rb'^\s*"elapsed_ms": [0-9.]+,?\n', b"", out, flags=re.MULTILINE)


def _count_envelope(m1, m2):
    report = counting.closed_form_count(m1, m2)
    result = {
        "m1": m1,
        "m2": m2,
        "window_size": report.window_size,
        "i_set_size": report.i_set_size,
        "gap_set": list(report.gap_set),
        "formula": report.formula,
        "closed_form": report.closed_form,
        "matches": report.matches,
    }
    return {"command": "count", "input": {"m1": m1, "m2": m2}, "backend": "sieve", "result": result}


def _iset_envelope(prefix, M):
    iset = core.obstruction_set(prefix, M)
    result = {
        "prefix": list(prefix),
        "M": M,
        "interval": list(iset.interval),
        "elements": list(iset.elements),
        "size": iset.size,
    }
    echo = {"prefix": list(prefix), "M": M, "backend": "sieve"}
    return {"command": "iset", "input": echo, "backend": "sieve", "result": result}


def _enumerate_envelope(prefix, M):
    admissible = core.enumerate_admissible(prefix, M)
    result = {
        "prefix": list(prefix),
        "M": M,
        "interval": list(window_interval(sum(prefix), M)),
        "admissible": admissible,
        "count": len(admissible),
    }
    echo = {"prefix": list(prefix), "M": M, "backend": "sieve"}
    return {"command": "enumerate", "input": echo, "backend": "sieve", "result": result}


class TestLongIntegerArrays:
    # Flat integer arrays of thousands of items are written in chunks; the
    # bytes are those of json.dumps over the plain payload.

    @pytest.mark.parametrize(
        "argv, envelope, key",
        [
            (["count", "5003", "5009"], lambda: _count_envelope(5003, 5009), "gap_set"),
            (
                ["iset", "10000", "10001", "--M", "100000"],
                lambda: _iset_envelope((10000, 10001), 100000),
                "elements",
            ),
            (
                ["enumerate", "5003", "5009", "--M", "2"],
                lambda: _enumerate_envelope((5003, 5009), 2),
                "admissible",
            ),
        ],
    )
    def test_matches_json_dumps_through_both_sinks(self, capsys, tmp_path, argv, envelope, key):
        expected = envelope()
        assert len(expected["result"][key]) > 2 * cli_module._INT_CHUNK
        dumped = json.dumps({**expected, "elapsed_ms": 0.0}, sort_keys=True, indent=2) + "\n"
        target = tmp_path / "out.json"
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        file_code, file_out, _ = run_cli([*argv, "--format", "json", "--out", str(target)], capsys)
        assert code == file_code == 0
        assert file_out == ""
        assert strip_elapsed(out) == strip_elapsed(dumped)
        assert strip_elapsed(target.read_bytes().decode()) == strip_elapsed(dumped)


def _unchunked_set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


class TestLongTextSets:
    # Text mode writes the long sets of count, iset and enumerate in chunks;
    # the bytes are those of the whole set rendered as one string.

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["count", "5003", "5009"],
                lambda: _count_text(counting.closed_form_count(5003, 5009)),
            ),
            (
                ["iset", "10000", "10001", "--M", "100000"],
                lambda: _iset_text(core.obstruction_set((10000, 10001), 100000)),
            ),
            (
                ["enumerate", "5003", "5009", "--M", "2"],
                lambda: _enumerate_text((5003, 5009), 2),
            ),
            (["enumerate", "3", "5", "--M", "1"], lambda: _enumerate_text((3, 5), 1)),
        ],
    )
    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_matches_unchunked_through_both_sinks(
        self, capsys, tmp_path, monkeypatch, argv, expected, chunk
    ):
        monkeypatch.setattr(cli_module, "_INT_CHUNK", chunk)
        text = expected()
        target = tmp_path / "out.txt"
        code, out, _ = run_cli(argv, capsys)
        file_code, file_out, _ = run_cli([*argv, "--out", str(target)], capsys)
        assert code == file_code == 0
        assert file_out == ""
        assert out == text
        assert target.read_bytes() == text.encode()

    def test_empty_set_line(self):
        assert b"".join(cli_module._set_line("admissible", ())) == b"admissible: {}"

    def test_text_peak_follows_the_answer(self, tmp_path):
        target = tmp_path / "out.txt"
        answer = _traced_peak(lambda: counting.closed_form_count(50021, 50023))
        rendered = _traced_peak(lambda: main(["count", "50021", "50023", "--out", str(target)]))
        assert target.stat().st_size > 500_000
        assert rendered <= _COUNT_PEAK, (rendered, answer)


def _count_text(report) -> str:
    lines = [
        f"m1: {report.m1}",
        f"m2: {report.m2}",
        f"window_size: {report.window_size}",
        f"i_set_size: {report.i_set_size}",
        f"gap_set: {_unchunked_set(report.gap_set)}",
        f"formula: {report.formula if report.formula is not None else 'none'}",
        f"closed_form: {report.closed_form if report.closed_form is not None else 'none'}",
        "matches: true",
    ]
    return "".join(line + "\n" for line in lines)


def _iset_text(iset) -> str:
    lines = [
        f"prefix: {' '.join(map(str, iset.prefix))}",
        f"M: {iset.window}",
        f"interval: ({iset.interval[0]}, {iset.interval[1]})",
        f"elements: {_unchunked_set(iset.elements)}",
        f"size: {iset.size}",
    ]
    return "".join(line + "\n" for line in lines)


def _enumerate_text(prefix, M) -> str:
    admissible = core.enumerate_admissible(prefix, M)
    lo, hi = window_interval(sum(prefix), M)
    lines = [
        f"prefix: {' '.join(map(str, prefix))}",
        f"M: {M}",
        f"interval: ({lo}, {hi})",
        f"admissible: {_unchunked_set(admissible)}",
        f"count: {len(admissible)}",
    ]
    return "".join(line + "\n" for line in lines)


# The answer of count is a few runs, a couple of KB, so a bound relative to
# it would measure click and the writer's fixed costs.  What the bound must
# catch is a gap set held whole, which for count 50021 50023 is megabytes.
_COUNT_PEAK = 256 * 1024


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOutputMemory:
    # Rendering streams, so writing the answer costs little beyond computing it.

    @pytest.mark.parametrize(
        "argv, compute",
        [
            (
                ["resonances", "2", "3", "5", "7", "120"],
                lambda: core.resonances(core.validate_weight((2, 3, 5, 7, 120))),
            ),
            (
                ["scan", "--n", "3", "--max", "40"],
                lambda: core.scan(3, 40, in_class_only=True),
            ),
            (["count", "50021", "50023"], lambda: counting.closed_form_count(50021, 50023)),
        ],
    )
    def test_json_peak_follows_the_answer(self, tmp_path, argv, compute):
        target = tmp_path / "out.json"
        answer = _traced_peak(compute)
        rendered = _traced_peak(lambda: main([*argv, "--format", "json", "--out", str(target)]))
        assert target.stat().st_size > 500_000
        bound = _COUNT_PEAK if argv[0] == "count" else 1.5 * answer
        assert rendered <= bound, (rendered, answer)


_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63 - 2, max_value=2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | st.text()
    | st.text(st.characters(max_codepoint=0x3F))
)
_json_trees = st.recursive(
    _json_leaves,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(st.integers() | st.booleans(), max_size=5)
        | st.dictionaries(st.text(), children, max_size=5)
    ),
    max_leaves=40,
)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_json_trees)
    def test_matches_json_dumps(self, tree):
        assert b"".join(_json_chunks(tree)) == json.dumps(tree, sort_keys=True, indent=2).encode()

    @pytest.mark.parametrize(
        "tree",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": ()},
            [True, 1, False, 0],
            [2**64, -(2**70)],
            {"\u00e9\u4e2d": "\x00\x1f\n\t\"\\\u2028\U0001f600"},
            [None, float("nan"), float("-inf"), -0.0, 1e300],
            {"z": 1, "a": [[1, 2], [3]], "m": [{"y": True, "x": None}]},
        ],
    )
    def test_edge_cases(self, tree):
        assert b"".join(_json_chunks(tree)) == json.dumps(tree, sort_keys=True, indent=2).encode()

    @pytest.mark.parametrize(
        "length",
        [0, 1, *(n * cli_module._ITEM_CHUNK + extra for n in (1, 4) for extra in (0, 1))],
    )
    def test_templated_chunk_boundaries(self, length):
        # A pair of `length` witnesses between empty pairs, then a short one.
        arrays = [
            (1, 2, []),
            (1, 3, list(range(2 * length))),
            (2, 3, []),
            (2, 4, list(range(3 * (length % 5)))),
        ]
        tree = {"a": Resonances(arrays), "b": [True]}
        expected = {"a": _witness_dicts(arrays), "b": [True]}
        dumped = json.dumps(expected, sort_keys=True, indent=2)
        assert b"".join(_json_chunks(tree)) == dumped.encode()

    @pytest.mark.parametrize("extra", [-1, 0, 1, 4097])
    def test_integer_chunk_boundaries(self, extra):
        items = list(range(-3, cli_module._INT_CHUNK + extra - 3))
        for tree in ({"a": items, "b": tuple(items)}, {"a": [*items, True]}):
            expected = json.dumps(tree, sort_keys=True, indent=2)
            assert b"".join(_json_chunks(tree)) == expected.encode()


_ints = st.integers() | st.integers(min_value=2**63, max_value=2**80)
_failures = st.none() | st.builds(ClassFailure, st.sampled_from(FAILURE_REASONS), _ints)
# A row's weight has at least one entry: the rows of a stretch share all of
# their weight but its last entry.
_scan_rows = st.builds(
    ScanRow,
    weight=st.lists(_ints, min_size=1, max_size=6).map(tuple),
    witnesses=st.lists(_ints, max_size=4).map(tuple),
    failure=_failures,
    n_resonances=_ints,
    i_set_sizes=st.lists(st.none() | _ints, max_size=4).map(tuple),
)


@st.composite
def _witness_arrays(draw, i=_ints, j=st.integers(2, 7), k=_ints, max_witnesses=4):
    # Arrays as core.resonance_arrays returns them: j - 1 entries per witness.
    arrays = []
    for pair_i, pair_j in draw(st.lists(st.tuples(i, j), max_size=4)):
        ks = draw(st.lists(st.lists(k, min_size=pair_j - 1, max_size=pair_j - 1),
                           max_size=max_witnesses))
        arrays.append((pair_i, pair_j, [x for one in ks for x in one]))
    return arrays


def _witnesses(arrays) -> list[ResonanceWitness]:
    return [
        ResonanceWitness(i, j, k) for i, j, flat in arrays for k in zip(*[iter(flat)] * (j - 1))
    ]


def _witness_dicts(arrays) -> list[dict]:
    # The reference: each witness as a plain dict, for json.dumps.
    return [{"i": w.i, "j": w.j, "k": list(w.k)} for w in _witnesses(arrays)]


def _scan_row_dict(row: ScanRow) -> dict:
    # The reference: a row as a plain dict, for json.dumps.
    failure = row.failure
    return {
        "weight": list(row.weight),
        "in_class": row.in_class,
        "witnesses": list(row.witnesses),
        "failure": None if failure is None
        else {"reason": failure.reason, "level": failure.level},
        "n_resonances": row.n_resonances,
        "i_set_sizes": list(row.i_set_sizes),
    }


def _stretch_key(row: ScanRow) -> tuple:
    return row.weight[:-1], row.witnesses, row.failure, row.i_set_sizes


def _stretches(rows) -> list[tuple]:
    # The rows as ScanRows stretches: each run of consecutive rows that
    # share all but their last entry and their count is one stretch.
    stretches = []
    for key, run in groupby(rows, _stretch_key):
        run = list(run)
        stretches.append((*key, [row.weight[-1] for row in run], [row.n_resonances for row in run]))
    return stretches


def _streamed(key, items) -> str:
    # The array sits where the envelope puts it: result -> key -> items.
    return b"".join(_json_chunks({"result": {key: items}})).decode("ascii")


def _dumped(key, items) -> str:
    return json.dumps({"result": {key: items}}, sort_keys=True, indent=2)


class TestRowTemplates:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_scan_rows, max_size=4))
    def test_scan_rows_match_json_dumps(self, rows):
        expected = _dumped("rows", [_scan_row_dict(row) for row in rows])
        assert _streamed("rows", ScanRows(_stretches(rows))) == expected

    @settings(max_examples=200, deadline=None)
    @given(_witness_arrays())
    def test_witnesses_match_json_dumps(self, arrays):
        expected = _dumped("witnesses", _witness_dicts(arrays))
        assert _streamed("witnesses", Resonances(arrays)) == expected

    @pytest.mark.parametrize("reason", [None, *FAILURE_REASONS])
    def test_every_failure_reason(self, reason):
        failure = None if reason is None else ClassFailure(reason, 2**63)
        rows = [
            ScanRow((3, 2**64, 11), (), failure, 0, (None, 2**63)),
            ScanRow((3, 7), (1,), None, 2**70, ()),
        ]
        expected = _dumped("rows", [_scan_row_dict(row) for row in rows])
        assert _streamed("rows", ScanRows(_stretches(rows))) == expected

    @pytest.mark.parametrize("k_len", range(1, 7))
    def test_every_witness_length(self, k_len):
        arrays = [(1, k_len + 1, list(range(2**63, 2**63 + k_len)))]
        expected = _dumped("witnesses", [{"i": 1, "j": k_len + 1, "k": arrays[0][2]}])
        assert _streamed("witnesses", Resonances(arrays)) == expected

    @settings(max_examples=200, deadline=None)
    @given(
        _witness_arrays(
            i=st.integers(1, 2), j=st.integers(2, 3), k=st.integers(0, 2**64), max_witnesses=140
        )
    )
    def test_witness_batches_match_json_dumps(self, arrays):
        # Pairs of up to 140 witnesses, so pieces end inside and at a pair.
        expected = _dumped("witnesses", _witness_dicts(arrays))
        assert _streamed("witnesses", Resonances(arrays)) == expected

    @settings(max_examples=200, deadline=None)
    @given(_witness_arrays(max_witnesses=140))
    def test_witness_text_batches_match_lines(self, arrays):
        expected = "\n".join(
            f"(i={w.i}, j={w.j}, k=[{', '.join(map(str, w.k))}])" for w in _witnesses(arrays)
        )
        assert b"\n".join(_witness_pieces(arrays)) == expected.encode()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_scan_rows, min_size=1, max_size=3), st.data())
    def test_scan_row_batches_match_json_dumps(self, pool, data):
        # Rows drawn from a small pool, so consecutive rows share templates.
        rows = data.draw(st.lists(st.sampled_from(pool), max_size=30))
        expected = _dumped("rows", [_scan_row_dict(row) for row in rows])
        assert _streamed("rows", ScanRows(_stretches(rows))) == expected


# Per stretch, in turn: its witnesses, failure and window sizes.  One failure
# reason holds a %, a comma and quotes, which the templates and CSV escape.
_FAKE_SHARED = [
    ((2,), None, (12,)),
    ((3,), ClassFailure(OBSTRUCTION_SET_HIT, 4), (None, 7)),
    ((3, 5), None, (2, 11)),
    ((), ClassFailure(NO_WINDOW_EXISTS, 3), (None,)),
    ((4,), ClassFailure('odd%s,"reason"', 4), (1, None)),
]


def _fake_scan(lengths):
    # core.scan returning stretches of the given numbers of rows, with
    # multi-digit entries and counts, a third of them zero.
    def scan(arity, max_weight, *, in_class_only=False, resonance_free_only=False):
        stretches = []
        for n, length in enumerate(lengths):
            witnesses, failure, sizes = _FAKE_SHARED[n % len(_FAKE_SHARED)]
            ms = list(range(10_000 * (n + 1), 10_000 * (n + 1) + length))
            counts = [k % 3 * (1000 + k) for k in range(length)]
            stretches.append(((10 + n, 200 + n), witnesses, failure, sizes, ms, counts))
        return ScanRows(stretches)

    return scan


def _scan_text_line(row: ScanRow) -> str:
    parts = [
        " ".join(map(str, row.weight)),
        f"in_class={'true' if row.in_class else 'false'}",
        "witnesses=[" + ", ".join(map(str, row.witnesses)) + "]",
        f"resonances={row.n_resonances}",
        "i_sizes=[" + ", ".join("-" if s is None else str(s) for s in row.i_set_sizes) + "]",
    ]
    if row.failure is not None:
        parts.append(f"failure={row.failure.reason}@{row.failure.level}")
    return "  ".join(parts)


def _scan_outputs(echo, rows) -> dict[str, str]:
    # The JSON, text and CSV outputs of `scan` written row by row: the
    # envelope by json.dumps, the text one line per row and the CSV one
    # writerow per row.
    envelope = {
        "command": "scan", "input": echo, "backend": "apery",
        "result": {"rows": [_scan_row_dict(row) for row in rows], "count": len(rows)},
        "elapsed_ms": 0.0,
    }
    lines = [*map(_scan_text_line, rows), f"rows: {len(rows)}"]
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(["weight", "in_class", "witnesses", "n_resonances", "i_set_sizes", "failure"])
    for row in rows:
        failure = row.failure
        writer.writerow([
            " ".join(map(str, row.weight)),
            "true" if row.in_class else "false",
            " ".join(map(str, row.witnesses)),
            row.n_resonances,
            " ".join("-" if s is None else str(s) for s in row.i_set_sizes),
            "" if failure is None else f"{failure.reason}@{failure.level}",
        ])
    return {
        "json": json.dumps(envelope, sort_keys=True, indent=2) + "\n",
        "text": "".join(line + "\n" for line in lines),
        "csv": table.getvalue(),
    }


class TestScanStretches:
    # Scan rows are written from per-window stretches, one `%` per piece of
    # whole stretches closed at _ITEM_CHUNK rows or more, a longer stretch
    # cut into pieces of _ITEM_CHUNK; the bytes are those of the rows written
    # one by one, and the disagree filter keeps the rows with resonances.

    @pytest.mark.parametrize(
        "lengths",
        [[1], [63], [64], [65], [128], [129], [1, 63, 64, 65, 128, 129], [129, 0, 2, 64, 1]],
    )
    @pytest.mark.parametrize("row_filter", ["in-class", "disagree"])
    def test_pieces_at_chunk_edges(self, capsys, tmp_path, monkeypatch, lengths, row_filter):
        assert cli_module._ITEM_CHUNK == 64
        fake = _fake_scan(lengths)
        monkeypatch.setattr(cli_module.core, "scan", fake)
        rows = list(fake(3, 9))
        if row_filter == "disagree":
            rows = [row for row in rows if row.n_resonances]
        echo = {"n": 3, "max": 9, "filter": row_filter}
        expected_code = 2 if row_filter == "disagree" and rows else 0
        expected_err = (
            f"internal mismatch: {len(rows)} in-class weights have resonances\n"
            if expected_code else ""
        )
        for fmt, expected in _scan_outputs(echo, rows).items():
            target = tmp_path / f"out.{fmt}"
            argv = ["scan", "--n", "3", "--max", "9", "--filter", row_filter, "--format", fmt]
            code, out, err = run_cli(argv, capsys)
            file_code, file_out, file_err = run_cli([*argv, "--out", str(target)], capsys)
            assert code == file_code == expected_code
            assert err == file_err == expected_err
            assert file_out == ""
            assert strip_elapsed(out) == strip_elapsed(expected)
            assert strip_elapsed(target.read_bytes().decode()) == strip_elapsed(expected)


def _fake_resonances(counts):
    # resonances of a length-4 weight whose pairs, in (i, j) order, have
    # the given numbers of witnesses, with distinct multi-digit k.
    def resonances(weight):
        pairs = [(i, j) for i in range(1, 4) for j in range(i + 1, 5)]
        return Resonances(
            (i, j, list(range(1000 * n, 1000 * n + (j - 1) * c)))
            for n, ((i, j), c) in enumerate(zip(pairs, counts))
        )

    return resonances


def _resonances_outputs(weight, witnesses) -> dict[str, str]:
    # The JSON and text outputs of `resonances` written from the witness
    # list: the envelope by json.dumps, and the text one line per witness.
    result = {"weight": list(weight), "count": len(witnesses), "witnesses": [
        {"i": w.i, "j": w.j, "k": list(w.k)} for w in witnesses
    ]}
    envelope = {
        "command": "resonances", "input": {"weights": list(weight)}, "backend": None,
        "result": result, "elapsed_ms": 0.0,
    }
    lines = [f"weight: {' '.join(map(str, weight))}", f"count: {len(witnesses)}"]
    lines += [f"(i={w.i}, j={w.j}, k=[{', '.join(map(str, w.k))}])" for w in witnesses]
    return {
        "json": json.dumps(envelope, sort_keys=True, indent=2) + "\n",
        "text": "".join(line + "\n" for line in lines),
    }


class TestWitnessArrays:
    # Witnesses are written from per-pair k arrays, one piece per stretch of
    # at most _ITEM_CHUNK witnesses of a pair; the bytes are those of the
    # witness list written whole.

    def _check(self, capsys, tmp_path, weight, witnesses):
        for fmt, expected in _resonances_outputs(weight, witnesses).items():
            target = tmp_path / f"out.{fmt}"
            argv = ["resonances", *map(str, weight), "--format", fmt]
            code, out, err = run_cli(argv, capsys)
            file_code, file_out, file_err = run_cli([*argv, "--out", str(target)], capsys)
            assert code == file_code == (3 if witnesses else 0)
            assert out and file_out == err == file_err == ""
            assert strip_elapsed(out) == strip_elapsed(expected)
            assert strip_elapsed(target.read_bytes().decode()) == strip_elapsed(expected)

    @pytest.mark.parametrize(
        "counts",
        [
            [0, 0, 0, 0, 0, 0],
            [0, 63, 0, 64, 65, 0],
            [128, 0, 129, 0, 0, 1],
            [1, 0, 0, 0, 0, 64],
            [65, 129, 0, 128, 63, 64],
        ],
    )
    def test_pieces_at_chunk_edges(self, capsys, tmp_path, monkeypatch, counts):
        assert cli_module._ITEM_CHUNK == 64
        fake = _fake_resonances(counts)
        monkeypatch.setattr(cli_module.core, "resonances", fake)
        arrays = fake((1, 2, 3, 4)).arrays
        assert [len(flat) // (j - 1) for _, j, flat in arrays] == counts
        self._check(capsys, tmp_path, (1, 2, 3, 4), _witnesses(arrays))

    @pytest.mark.parametrize(
        "weight", [(3, 5, 7), (1, 2, 3), (1, 5), (2, 3, 5, 7, 40), (3, 4, 6, 11, 30), (4, 6, 9, 11)]
    )
    def test_real_listings(self, capsys, tmp_path, weight):
        self._check(capsys, tmp_path, weight, core.resonances(weight))

    @pytest.mark.parametrize("weight", [(3, 5, 7), (2, 3, 5, 7, 40), (3, 4, 6, 11, 30)])
    def test_listing_follows_core_resonances(self, capsys, tmp_path, monkeypatch, weight):
        # The command lists what core.resonances returns: one that drops its
        # last witness shows in the output, and an empty listing is unchanged.
        listed = core.resonances
        monkeypatch.setattr(cli_module.core, "resonances", lambda w: listed(w)[:-1])
        self._check(capsys, tmp_path, weight, list(listed(weight))[:-1])


def _fake_count(runs):
    # A count report whose gap set is the given runs, for the CLI writer.
    def closed_form_count(m1, m2):
        return CountReport(
            m1=m1, m2=m2, window_size=15, i_set_size=8, gap_set=IntRuns(runs),
            formula=None, closed_form=None, matches=True,
        )

    return closed_form_count


def _runs_envelope(runs) -> str:
    result = {
        "m1": 5, "m2": 11, "window_size": 15, "i_set_size": 8,
        "gap_set": [t for run in runs for t in run],
        "formula": None, "closed_form": None, "matches": True,
    }
    envelope = {
        "command": "count", "input": {"m1": 5, "m2": 11}, "backend": "sieve",
        "result": result, "elapsed_ms": 0.0,
    }
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


# Runs that start or end on either side of block edges, cross 999/1000 and
# 9999/10000, hold one integer, fill block 0, touch, or are empty.
_EDGE_RUNS = [
    [],
    [range(7, 7)],
    [range(999, 1000)],
    [range(1000, 1001)],
    [range(1001, 1002)],
    [range(999, 1001)],
    [range(1000, 2000)],
    [range(999, 2001)],
    [range(1001, 1999)],
    [range(1000, 1999)],
    [range(1001, 3000)],
    [range(1000, 3001)],
    [range(2999, 5001)],
    [range(9999, 10001)],
    [range(8999, 12001)],
    [range(0, 1000)],
    [range(1, 1000)],
    [range(0, 2500)],
    [range(t, t + 1) for t in range(993, 1012, 2)],
    [range(3, 4), range(998, 3002), range(3003, 3004), range(5000, 6000), range(6000, 7000)],
    [range(-2500, -500), range(-1, 1001)],
    [range(123_456, 140_000)],
]


class TestRunBlocks:
    # An IntRuns is written in aligned blocks of 1,000; the bytes are those
    # of json.dumps and of the whole set as one string.

    @pytest.mark.parametrize("runs", _EDGE_RUNS)
    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_count_matches_plain_output_through_both_sinks(
        self, capsys, tmp_path, monkeypatch, runs, chunk
    ):
        monkeypatch.setattr(cli_module, "_INT_CHUNK", chunk)
        monkeypatch.setattr(cli_module.counting, "closed_form_count", _fake_count(runs))
        report = cli_module.counting.closed_form_count(5, 11)
        for fmt, expected in (("json", _runs_envelope(runs)), ("text", _count_text(report))):
            target = tmp_path / f"out.{fmt}"
            argv = ["count", "5", "11", "--format", fmt]
            code, out, _ = run_cli(argv, capsys)
            file_code, file_out, _ = run_cli([*argv, "--out", str(target)], capsys)
            assert code == file_code == 0
            assert file_out == ""
            assert strip_elapsed(out) == strip_elapsed(expected)
            assert strip_elapsed(target.read_bytes().decode()) == strip_elapsed(expected)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-3000, 12_000),
        st.lists(st.tuples(st.integers(0, 1500), st.integers(1, 2500)), max_size=6),
    )
    def test_random_runs_match_plain_output(self, start, steps):
        # Disjoint ascending runs: each step is a gap (0 lets runs touch)
        # followed by a run of the given length.
        runs, t = [], start
        for gap, length in steps:
            runs.append(range(t + gap, t + gap + length))
            t += gap + length
        ints = [t for run in runs for t in run]
        tree = {"gap_set": IntRuns(runs), "z": [1]}
        expected = json.dumps({"gap_set": ints, "z": [1]}, sort_keys=True, indent=2)
        assert b"".join(_json_chunks(tree)) == expected.encode()
        assert b"".join(_set_line("gap_set", IntRuns(runs))) == (
            f"gap_set: {_unchunked_set(ints)}".encode()
        )

    def test_blocks_are_joined_suffixes(self):
        # The block path is taken: a full block comes out as one piece.
        pieces = list(cli_module._run_text((range(2000, 3000),), b", "))
        assert pieces == [b"2", ", ".join(map(str, range(2000, 3000)))[1:].encode()]
