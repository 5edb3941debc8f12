"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 -m pytest perfbench -q

They use the quick inputs, so every workload path and every checker runs in
seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import checkers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
ORACLES = checkers.load_oracles(ROOT)


def run_bench(root: Path, workload: str, trace: int, seed: int = 5):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_is_correct_and_reports_every_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_workload_names_match_the_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.build(workload, 11, False, ORACLES)
    again = workloads.build(workload, 11, False, ORACLES)
    assert [op.argv for op in first] == [op.argv for op in again]
    assert [op.expected_rc for op in first] == [op.expected_rc for op in again]


def test_stripped_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "scan-sweep", 0)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_wrong_output_counts_as_failed_and_incorrect(tmp_path):
    # A checkout whose resonance listing drops its last witness.
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "oracles.py", tmp_path / "tests")
    with open(tmp_path / "src" / "qcweights" / "core.py", "a", encoding="utf-8") as fh:
        fh.write("\n_listed = resonances\n\n\ndef resonances(weight):\n"
                 "    return _listed(weight)[:-1]\n")
    done = run_bench(tmp_path, "witness-listing", 0)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is False
    per_round = len(workloads.witness_listing(5, True))
    rounds = result["attempted"] // per_round
    assert result["failed"] == 2 * rounds  # both non-empty listings


@pytest.mark.parametrize("trace", [0, 1])
def test_dead_rounds_report_every_operation_failed(tmp_path, trace):
    # A checkout whose CLI kills its own process, so no round leaves a result.
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tests").mkdir()
    shutil.copy(ROOT / "tests" / "oracles.py", tmp_path / "tests")
    with open(tmp_path / "src" / "qcweights" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef main(*args, **kwargs):\n    import os\n    os._exit(9)\n")
    done = run_bench(tmp_path, "witness-listing", trace)
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"] == {}


# -- the checkers' arithmetic against the test oracles ---------------------


def test_pair_membership_matches_oracle():
    for a, b in [(2, 3), (3, 7), (4, 6), (5, 11), (6, 9), (1, 4)]:
        for t in range(-2, 60):
            assert checkers.in_pair(t, a, b) == ORACLES.oracle_representable((a, b), t)


def test_pair_window_matches_oracle():
    for a, b in [(2, 3), (3, 7), (4, 6), (5, 13)]:
        for M in (1, 2, 3):
            assert checkers.pair_window(a, b, M)[2] == ORACLES.oracle_window_elements((a, b), M)


def test_counting_dp_matches_oracle_resonances():
    for m in [(1, 2, 3), (2, 3, 5, 7, 19), (3, 4, 5), (4, 6, 9, 11)]:
        assert checkers.resonance_total(m) == len(ORACLES.oracle_resonances(m))


def test_sweep_reference_matches_oracle():
    reference = checkers.SweepReference()
    for n in (3, 4):
        for m in combinations(range(1, 13), n):
            row = reference.row(m)
            assert (row is not None) == ORACLES.oracle_in_class(m), m
            if row is not None:
                sizes = [len(ORACLES.oracle_window_elements(m[: j - 1], M))
                         for j, M in enumerate(row["witnesses"], start=3)]
                assert row["i_set_sizes"] == sizes


# -- the checkers reject wrong payloads ------------------------------------


@pytest.fixture
def payload(tmp_path):
    """Renders one qcw invocation of the checkout under test as JSON."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from qcweights.cli import main

    def render(argv):
        out = tmp_path / "payload.json"
        main([*argv, "--format", "json", "--out", str(out)])
        return json.loads(out.read_text())

    return render


def test_checkers_accept_and_reject(payload):
    cases = [
        (["classify", "3", "7", "11"], lambda p: checkers.check_classify(p, (3, 7, 11)),
         lambda r: r.update(in_class=False)),
        (["iset", "3", "7", "--M", "2"], lambda p: checkers.check_iset(p, 3, 7, 2, "sieve"),
         lambda r: r["elements"].pop()),
        (["enumerate", "5", "7", "--M", "2"], lambda p: checkers.check_enumerate(p, 5, 7, 2),
         lambda r: r["admissible"].append(22)),
        (["count", "5", "11"], lambda p: checkers.check_count(p, 5, 11),
         lambda r: r["gap_set"].pop(0)),
        (["table", "d-table"], checkers.check_d_table,
         lambda r: r["rows"][2]["S"].pop()),
        (["resonances", "2", "3", "5", "7", "19"],
         lambda p: checkers.check_resonances(p, (2, 3, 5, 7, 19)),
         lambda r: r["witnesses"].append(r["witnesses"][-1])),
        (["scan", "--n", "3", "--max", "12"],
         lambda p: checkers.check_scan(p, 3, 12, 1, ORACLES),
         lambda r: r["rows"].pop(3)),
    ]
    for argv, check, corrupt in cases:
        rendered = payload(argv)
        assert check(rendered) == [], argv
        corrupt(rendered["result"])
        assert check(rendered), argv


def test_resonance_checker_rejects_a_false_witness(payload):
    rendered = payload(["resonances", "2", "3", "5", "7", "19"])
    rendered["result"]["witnesses"][0]["k"][0] += 1
    assert checkers.check_resonances(rendered, (2, 3, 5, 7, 19))


def test_scan_checker_rejects_resonances_in_an_in_class_row(payload):
    rendered = payload(["scan", "--n", "3", "--max", "12"])
    rendered["result"]["rows"][0]["n_resonances"] = 1
    assert checkers.check_scan(rendered, 3, 12, 1, ORACLES)
