"""Benchmark of the qcweights CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

A run repeats whole rounds of the workload while another one fits in S
seconds (at least one round; two in a traced run).
Each round is one fresh, single-threaded Python process (``child.py``) that
imports ``qcweights.cli`` and runs the workload's invocations in order.
After the last round the outputs of the first round are checked against
independent computations (``checkers.py``), and every later round must
render byte-identical outputs, the elapsed-time field aside.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, each the median over the run's rounds.  The first
round warms the caches and is checked but not timed, unless it is the only
one.  Before each round, SETUP_PROBES processes only import the CLI and
exit; they add set-up samples at little cost:

    setup_s      spawn of a process until qcweights.cli is imported
    wall_s       all of the round's invocations, rendering included
    peak_rss_mb  peak resident memory of the round process (wait4 rusage)

With ``--trace 1`` rounds alternate between untraced and traced; the
metrics are the per-layer ones from the traced rounds (``spans.py``) and
``trace.overhead_s``, the traced minus the untraced median ``wall_s``.

An operation is one invocation in one round.  It fails when its exit code
is not the one the contract gives for its input (0, or 3 for a negative
answer), when its output is missing or differs from the first round's, or
when the first round's output fails a check.  ``correct`` is false when any
output fails a check or differs between rounds.  A round whose process dies
without a result (killed at ROUND_TIMEOUT_S, say) fails all its operations
and adds no metric values; when no timed round finished, the run prints
``correct`` false, every operation failed and no metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import checkers
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench_work"
CHILD = BENCH_DIR / "child.py"
ROUND_TIMEOUT_S = 120.0
SETUP_PROBES = 2
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _spawn_round(round_dir: Path, flags: list[str], log) -> dict:
    """Run one child to its end; return its timings, rusage and result."""
    env = dict(os.environ, **SINGLE_THREAD)
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(round_dir), *flags],
        stdout=subprocess.PIPE, stderr=log, env=env, cwd=ROOT,
    )
    fd = proc.stdout.fileno()
    out, setup_s = b"", None
    deadline = time.monotonic() + ROUND_TIMEOUT_S
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                proc.kill()
                break
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            out += chunk
            if setup_s is None and out.startswith(b"ready\n"):
                setup_s = time.perf_counter() - started
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    record = {"setup_s": setup_s, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "exit": proc.returncode}
    result_file = round_dir / "result.json"
    if result_file.exists():
        record.update(json.loads(result_file.read_text()))
    return record


def _check_first_round(ops, round_dir: Path) -> list[list[str]]:
    problems = []
    for i, op in enumerate(ops):
        path = round_dir / f"op-{i}.json"
        try:
            payload = json.loads(path.read_text())
            problems.append(op.check(payload))
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append([f"unreadable or malformed output: {type(exc).__name__}: {exc}"])
    return problems


def _account(ops, rounds: list[dict]) -> tuple[bool, int, list[list[str]]]:
    """Check the first round's outputs; count failed operations."""
    problems = _check_first_round(ops, rounds[0]["dir"])
    first_digests = rounds[0].get("digests") or [None] * len(ops)
    correct = not any(problems)
    failed = 0
    for r in rounds:
        codes = r.get("codes") or [None] * len(ops)
        digests = r.get("digests") or [None] * len(ops)
        for i, op in enumerate(ops):
            same = digests[i] is not None and digests[i] == first_digests[i]
            if digests[i] is not None and not same:
                correct = False
            if codes[i] != op.expected_rc or not same or problems[i]:
                failed += 1
    return correct, failed, problems


def _report(ops, rounds: list[dict], problems: list[list[str]], work: Path) -> None:
    """Per-operation times, exit codes and faults, on standard error."""
    def say(line: str) -> None:
        print(line, file=sys.stderr)

    for i, op in enumerate(ops):
        times = [r["op_s"][i] for r in _timed(rounds) if "op_s" in r and not r["traced"]]
        codes = ",".join(sorted({str((r.get("codes") or [None] * len(ops))[i]) for r in rounds}))
        median_s = f"{median(times):.4f}" if times else "-"
        say(f"  op {i}: {op.label}  median {median_s} s  exit {codes} (want {op.expected_rc})")
        for problem in problems[i][:5]:
            say(f"    check failed: {problem}")
        raised = {r["errors"][i] for r in rounds if r.get("errors") and r["errors"][i]}
        for error in sorted(raised)[:3]:
            say(f"    raised: {error}")
    for k, r in enumerate(rounds):
        if r["exit"] != 0 or "wall_s" not in r:
            say(f"  round {k}: process exited {r['exit']}, see {work / 'child-stderr.log'}")
    walls = " ".join(
        f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}" for r in rounds if "wall_s" in r
    )
    say(f"  rounds: {len(rounds)} ({sum(r['traced'] for r in rounds)} traced), wall_s {walls}")


def _timed(rounds: list[dict]) -> list[dict]:
    """The first round warms the page and bytecode caches and is not timed,
    unless it is the only one."""
    return rounds[1:] or rounds


def _end_to_end_metrics(rounds: list[dict]) -> dict | None:
    done = [r for r in _timed(rounds) if "wall_s" in r]
    if not done:
        return None
    return {
        "setup_s": {"value": median(s for r in done for s in r["setups"]), "unit": "s"},
        "wall_s": {"value": median(r["wall_s"] for r in done), "unit": "s"},
        "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in done), "unit": "MB"},
    }


def _layer_metrics(rounds: list[dict]) -> dict | None:
    traced = [r for r in _timed(rounds) if r["traced"] and "wall_s" in r]
    plain = [r for r in _timed(rounds) if not r["traced"] and "wall_s" in r]
    if not traced or not plain:
        return None
    per_round = [
        spans.layer_metrics(json.loads((r["dir"] / "spans.json").read_text()), sum(r["bytes"]))
        for r in traced
    ]
    metrics = {
        name: {"value": median(m[name] for m in per_round), "unit": spans.unit(name)}
        for name in per_round[0]
    }
    overhead = median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs: every path and checker in seconds")
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "qcweights" / "cli.py", ROOT / "tests" / "oracles.py")
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a qcweights checkout, missing {missing[0]}", file=sys.stderr)
        return 2

    oracles = checkers.load_oracles(ROOT)
    ops = workloads.build(args.workload, args.seed, args.quick, oracles)
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops_json = json.dumps([list(op.argv) for op in ops])

    rounds: list[dict] = []
    with open(work / "child-stderr.log", "wb") as log:
        started = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            round_dir = work / f"round-{len(rounds)}"
            round_dir.mkdir()
            (round_dir / "ops.json").write_text(ops_json)
            flags = (["--keep"] if not rounds else []) + (["--trace"] if traced else [])
            round_started = time.perf_counter()
            setups = [_spawn_round(round_dir, ["--setup-only"], log)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            record = _spawn_round(round_dir, flags, log)
            record["setups"] = [t for t in (*setups, record["setup_s"]) if t is not None]
            record.update(traced=traced, dir=round_dir, took=time.perf_counter() - round_started)
            rounds.append(record)
            # Start a round only if one like it has fit in the time left, so
            # the run ends within its seconds.  A traced run needs the first
            # round, a traced one and an untraced one.
            next_traced = bool(args.trace) and len(rounds) % 2 == 1
            alike = [r["took"] for r in rounds if r["traced"] == next_traced] or [record["took"]]
            enough = len(rounds) >= (3 if args.trace else 1)
            if enough and time.perf_counter() - started + median(alike) > args.seconds:
                break

    correct, failed, problems = _account(ops, rounds)
    _report(ops, rounds, problems, work)
    attempted = len(ops) * len(rounds)
    metrics = _layer_metrics(rounds) if args.trace else _end_to_end_metrics(rounds)
    if metrics is None:
        correct, failed, metrics = False, attempted, {}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
