"""Steadiness of the benchmark: two sets of runs of the same commit.

Usage, from the root of a checkout:

    python3 perfbench/steadiness.py [--sets 2] [--first-seed 1]

Runs the command of BENCHMARK.json untraced, ten times per workload in each
set, each run with its own seed and the spec's ``run_seconds``.  For every
workload and end-to-end metric it prints each set's median and quartiles,
the spread (quartile distance over the median), and whether the sets agree:
every spread within the metric's bound, every later set's median within the
bound of the first set's, in either direction, and the same share of failed
operations.  Raw results go to ``.perfbench_work/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def _run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["rounds"] = done.stderr.strip().splitlines()[-1].strip()
    return result


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]

    raw: dict[str, list[list[dict]]] = {w: [] for w in names}
    for s in range(args.sets):
        for w in names:
            raw[w].append([])
        for k in range(RUNS):
            seed = args.first_seed + s * RUNS + k
            for w in names:
                started = time.perf_counter()
                result = _run(spec["command"], w, seed, spec["run_seconds"])
                raw[w][s].append({"seed": seed, **result})
                took = time.perf_counter() - started
                print(f"set {s + 1} {w} seed {seed}: {took:.1f} s, correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)

    out_dir = ROOT / ".perfbench_work"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steadiness.json").write_text(json.dumps(raw, indent=1))

    steady = True
    for w in names:
        shares = {round(sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs), 12)
                  for runs in raw[w]}
        correct = all(r["correct"] for runs in raw[w] for r in runs)
        print(f"\n{w}: correct={correct}, failed shares per set {sorted(shares)}")
        steady &= correct and len(shares) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [_summary([r["metrics"][name]["value"] for r in runs]) for runs in raw[w]]
            for i, st in enumerate(sets, start=1):
                ok = st["spread"] <= bound
                steady &= ok
                verdict = "TOO WIDE" if not ok else (
                    "ok" if st["spread"] < bound / 3 else "ok, above a third of the bound")
                print(f"  {name:12s} set {i}: median {st['median']:.6g} {metric['unit']}  "
                      f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  spread {st['spread']:.2%}  "
                      f"bound {bound:.0%}  {verdict}")
            for i in range(1, len(sets)):
                change = (sets[i]["median"] - sets[0]["median"]) / sets[0]["median"]
                ok = abs(change) <= bound
                steady &= ok
                print(f"  {name:12s} set {i + 1} vs set 1: median moved {change:+.2%}  "
                      f"{'agrees' if ok else 'DISAGREES'}")
    print(f"\nsteady: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
