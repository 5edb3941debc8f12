"""The benchmark's workloads: seeded ``qcw`` invocations and their checks.

A workload is a fixed-order list of operations.  Each operation is one
``qcw`` invocation (the benchmark adds ``--format json --out <file>``), the
exit code the documented contract gives for its input (0, or 3 for a
negative answer), and a checker over the rendered payload.  Expected exit
codes and checked values come from ``checkers``, never from the program.

The seed moves inputs within bands of equal cost, so runs with different
seeds do the same amount of work: primes are drawn from narrow ranges,
window indices get a small offset, and the two witness listings sit
symmetrically around one weight, which keeps their summed cost (cubic in
the last entry) constant to within 0.1%.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import checkers

WORKLOADS = ("scan-sweep", "large-weights", "witness-listing")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expected_rc: int
    check: Callable[[dict], list[str]]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def _consecutive_primes(rng: random.Random, lo: int, hi: int) -> tuple[int, int]:
    primes = checkers.primes_in(lo, hi)
    i = rng.randrange(len(primes) - 1)
    return primes[i], primes[i + 1]


def _coprime_pair(rng: random.Random, a_range: range, b_range: range) -> tuple[int, int]:
    while True:
        a, b = rng.choice(a_range), rng.choice(b_range)
        if math.gcd(a, b) == 1:
            return a, b


def _classify(m: tuple[int, ...]) -> Op:
    rc = 0 if checkers.classify_expectation(m)["in_class"] else 3
    return Op(_argv("classify", *m), rc, lambda p: checkers.check_classify(p, m))


def _iset(a: int, b: int, M: int, backend: str | None = None) -> Op:
    extra = () if backend is None else ("--backend", backend)
    return Op(
        _argv("iset", a, b, "--M", M, *extra),
        0,
        lambda p: checkers.check_iset(p, a, b, M, backend or "sieve"),
    )


def _enumerate(a: int, b: int, M: int) -> Op:
    return Op(_argv("enumerate", a, b, "--M", M), 0,
              lambda p: checkers.check_enumerate(p, a, b, M))


def _count(m1: int, m2: int) -> Op:
    return Op(_argv("count", m1, m2), 0, lambda p: checkers.check_count(p, m1, m2))


def _resonances(m: tuple[int, ...]) -> Op:
    rc = 3 if checkers.resonance_total(m) else 0
    return Op(_argv("resonances", *m), rc, lambda p: checkers.check_resonances(p, m))


def scan_sweep(seed: int, quick: bool, oracles) -> list[Op]:
    """The exhaustive theorem-checking sweep.  Its inputs are fixed; the seed
    picks the tuples compared against the test oracles."""
    sweeps = ((3, 14), (4, 10)) if quick else ((3, 70), (4, 28))
    return [
        Op(
            _argv("scan", "--n", n, "--max", top),
            0,
            lambda p, n=n, top=top: checkers.check_scan(p, n, top, seed, oracles),
        )
        for n, top in sweeps
    ]


def large_weights(seed: int, quick: bool) -> list[Op]:
    """A few prefixes with large entries: one table per prefix, at scale."""
    rng = random.Random(f"large-weights-{seed}")
    scale = (90, 130) if quick else (999_000, 1_000_000)
    p, q = _consecutive_primes(rng, *scale)
    windows = (10**3, 10**4) if quick else (10**6, 10**7)
    ops = [
        _classify((p, q, p + q + 1)),
        _classify((p, q, p + 2 * q)),
        *(_iset(3, 7, M + rng.randrange(1000)) for M in windows),
    ]
    pair_ranges = ((range(10, 20), range(20, 40)) if quick
                   else (range(1000, 1100), range(2000, 2100)))
    for _ in range(2):
        a, b = _coprime_pair(rng, *pair_ranges)
        ops += [_iset(a, b, 2, "apery"), _iset(a, b, 2, "sieve")]
    ops.append(_enumerate(*_consecutive_primes(rng, *((11, 30) if quick else (1000, 1040))), 2))
    ops.append(_count(*_consecutive_primes(rng, *((40, 80) if quick else (199_000, 200_000)))))
    ops.append(Op(_argv("table", "d-table"), 0, checkers.check_d_table))
    return ops


def witness_listing(seed: int, quick: bool) -> list[Op]:
    """Full witness listings whose size legitimately follows the output,
    plus one in-class weight whose listing is empty."""
    rng = random.Random(f"witness-listing-{seed}")
    centre = 30 if quick else 255
    delta = rng.randrange(1, 4)
    ops = [_resonances((2, 3, 5, 7, centre + sign * delta)) for sign in (-1, 1)]
    while True:
        a = rng.randrange(20, 40)
        b = rng.randrange(a + 1, 2 * a)
        m = (a, b, rng.randrange(a + b + 1, 2 * (a + b)))
        if math.gcd(*m) == 1 and checkers.classify_expectation(m)["in_class"]:
            break
    ops.append(_resonances(m))
    return ops


def build(name: str, seed: int, quick: bool, oracles) -> list[Op]:
    if name == "scan-sweep":
        return scan_sweep(seed, quick, oracles)
    if name == "large-weights":
        return large_weights(seed, quick)
    if name == "witness-listing":
        return witness_listing(seed, quick)
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
