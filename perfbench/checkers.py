"""Output checkers that share no code path with the program.

Every check recomputes the expected answer here, from the definitions, and
compares it with a rendered ``qcw`` JSON payload.  Two-entry prefixes use the
closed-form Apery set of two generators; longer prefixes use a plain
coin-change reachability table; resonance listings are checked witness by
witness and against a counting DP.  Each checker returns a list of error
strings, empty when the payload is right.
"""

from __future__ import annotations

import importlib.util
import math
import random
from itertools import combinations
from pathlib import Path

# The published d-table: gap counts d(m2) and gap sets S for m1 = 5.
PUBLISHED_D_TABLE = {
    11: (7, (17, 18, 19, 23, 24, 28, 29)),
    13: (8, (19, 21, 22, 24, 27, 29, 32, 34)),
    17: (11, (23, 24, 26, 28, 29, 31, 33, 36, 38, 41, 43)),
    19: (12, (26, 27, 28, 31, 32, 33, 36, 37, 41, 42, 46, 47)),
    23: (14, (29, 31, 32, 34, 36, 37, 39, 41, 42, 44, 47, 49, 52, 54)),
}

BASE_CASE_M1 = "base-case-m1"
BASE_CASE_DIVISIBILITY = "base-case-divisibility"
NO_WINDOW_EXISTS = "no-window-exists"
OBSTRUCTION_SET_HIT = "obstruction-set-hit"


# -- arithmetic -------------------------------------------------------------


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi, by trial division."""
    out = []
    for n in range(max(lo, 2), hi):
        if all(n % f for f in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def in_pair(t: int, a: int, b: int) -> bool:
    """Is t in the semigroup <a, b>?

    For coprime a, b the Apery set modulo a is {k*b : 0 <= k < a}, so t is
    representable iff t >= b * ((t * b^-1) mod a).  A common divisor g is
    divided out first.
    """
    if t < 0:
        return False
    g = math.gcd(a, b)
    if t % g:
        return False
    t, a, b = t // g, a // g, b // g
    if a == 1 or b == 1:
        return True
    return t >= b * ((t * pow(b, -1, a)) % a)


def pair_blocked(t: int, a: int, b: int) -> bool:
    """t is a prefix entry plus a nonzero combination of (a, b)."""
    return any(t - m > 0 and in_pair(t - m, a, b) for m in (a, b))


def pair_window(a: int, b: int, M: int) -> tuple[int, int, list[int]]:
    """Open window ((M-1)S, MS) over (a, b) and its blocked integers."""
    s = a + b
    lo, hi = (M - 1) * s, M * s
    return lo, hi, [t for t in range(lo + 1, hi) if pair_blocked(t, a, b)]


def reachable(gens: tuple[int, ...], bound: int) -> bytearray:
    """reach[t] == 1 iff t in 0..bound is a nonnegative combination of gens."""
    reach = bytearray(bound + 1)
    reach[0] = 1
    for t in range(1, bound + 1):
        for g in gens:
            if g <= t and reach[t - g]:
                reach[t] = 1
                break
    return reach


def count_combinations(coins: tuple[int, ...], target: int) -> int:
    """Number of k >= 0 with sum(coins[r] * k[r]) == target (coin-change DP)."""
    if target < 0:
        return 0
    ways = [1] + [0] * target
    for c in coins:
        for t in range(c, target + 1):
            ways[t] += ways[t - c]
    return ways[target]


def classify_expectation(m: tuple[int, ...]) -> dict:
    """The membership payload of a weight of length 2 or 3, from the
    definition with the two-generator closed form."""
    result = {"weight": list(m), "in_class": False, "witnesses": [], "failure": None}
    if m[0] < 2:
        result["failure"] = {"reason": BASE_CASE_M1, "level": 2}
        return result
    if m[1] % m[0] == 0:
        result["failure"] = {"reason": BASE_CASE_DIVISIBILITY, "level": 2}
        return result
    if len(m) == 3:
        a, b, c = m
        s = a + b
        if c % s == 0:
            result["failure"] = {"reason": NO_WINDOW_EXISTS, "level": 3}
            return result
        if pair_blocked(c, a, b):
            result["failure"] = {"reason": OBSTRUCTION_SET_HIT, "level": 3}
            return result
        result["witnesses"] = [c // s + 1]
    elif len(m) != 2:
        raise ValueError("classify_expectation handles lengths 2 and 3")
    result["in_class"] = True
    return result


def d_formula(m1: int, m2: int) -> tuple[str | None, int | None]:
    """The paper's closed-form gap counts and the hypotheses they need."""

    def prime(n: int) -> bool:
        return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

    if prime(m1) and prime(m2) and m1 >= 5:
        if 2 * m1 < m2:
            return "d", m1 + m2 - 5 - (2 * m2) // m1
        if 2 * m1 > m2:
            return "d-prime", m1 + m2 - 6 - (2 * m2) // m1
        return None, None
    if m1 == 3 and m2 >= 5 and prime(m2):
        return "f", m2 - 2 - (2 * m2) // 3
    return None, None


# -- payload checks ------------------------------------------------------------


def _expect(errors: list[str], what: str, got, want) -> None:
    if got != want:
        g, w = repr(got), repr(want)
        errors.append(f"{what}: got {g[:120]}, want {w[:120]}")


def check_classify(payload: dict, m: tuple[int, ...]) -> list[str]:
    errors: list[str] = []
    _expect(errors, "command", payload.get("command"), "classify")
    _expect(errors, "result", payload.get("result"), classify_expectation(m))
    return errors


def check_iset(payload: dict, a: int, b: int, M: int, backend: str) -> list[str]:
    errors: list[str] = []
    lo, hi, blocked = pair_window(a, b, M)
    want = {"prefix": [a, b], "M": M, "interval": [lo, hi], "elements": blocked,
            "size": len(blocked)}
    _expect(errors, "backend", payload.get("backend"), backend)
    _expect(errors, "result", payload.get("result"), want)
    return errors


def check_enumerate(payload: dict, a: int, b: int, M: int) -> list[str]:
    errors: list[str] = []
    lo, hi, blocked = pair_window(a, b, M)
    blocked_set = set(blocked)
    g = math.gcd(a, b)
    admissible = [
        s for s in range(max(lo, b) + 1, hi)
        if s not in blocked_set and math.gcd(g, s) == 1
    ]
    for s in admissible:
        if not classify_expectation((a, b, s))["in_class"]:
            errors.append(f"admissible {s} does not extend ({a}, {b}) into the class")
            break
    want = {"prefix": [a, b], "M": M, "interval": [lo, hi], "admissible": admissible,
            "count": len(admissible)}
    _expect(errors, "result", payload.get("result"), want)
    return errors


def check_count(payload: dict, m1: int, m2: int) -> list[str]:
    errors: list[str] = []
    lo, hi, blocked = pair_window(m1, m2, 2)
    blocked_set = set(blocked)
    gap = [t for t in range(lo + 1, hi) if t not in blocked_set]
    formula, closed = d_formula(m1, m2)
    if closed is not None and closed != len(gap):
        errors.append(f"closed form {closed} != gap count {len(gap)} for ({m1}, {m2})")
    want = {"m1": m1, "m2": m2, "window_size": hi - lo - 1, "i_set_size": len(blocked),
            "gap_set": gap, "formula": formula, "closed_form": closed, "matches": True}
    _expect(errors, "result", payload.get("result"), want)
    return errors


def check_d_table(payload: dict) -> list[str]:
    errors: list[str] = []
    result = payload.get("result", {})
    _expect(errors, "m1", result.get("m1"), 5)
    rows = result.get("rows", [])
    _expect(errors, "rows m2", [r.get("m2") for r in rows], sorted(PUBLISHED_D_TABLE))
    for row in rows:
        d, gap = PUBLISHED_D_TABLE.get(row.get("m2"), (None, ()))
        _expect(errors, f"d({row.get('m2')})", row.get("d"), d)
        _expect(errors, f"S({row.get('m2')})", row.get("S"), list(gap))
        lo, hi, blocked = pair_window(5, row.get("m2", 0), 2)
        blocked_set = set(blocked)
        complement = [t for t in range(lo + 1, hi) if t not in blocked_set]
        _expect(errors, f"S({row.get('m2')}) by closed form", row.get("S"), complement)
    return errors


def check_resonances(payload: dict, m: tuple[int, ...]) -> list[str]:
    """Every witness solves m_i + sum(m_r * k_r, r < j) = m_j, none repeats,
    the list is sorted, and each (i, j) count equals the counting DP."""
    errors: list[str] = []
    result = payload.get("result", {})
    witnesses = result.get("witnesses", [])
    _expect(errors, "weight", result.get("weight"), list(m))
    _expect(errors, "count", result.get("count"), len(witnesses))
    seen = set()
    per_pair: dict[tuple[int, int], int] = {}
    previous = None
    for w in witnesses:
        i, j, k = w["i"], w["j"], tuple(w["k"])
        key = (i, j, k)
        if not (1 <= i < j <= len(m)) or len(k) != j - 1 or min(k) < 0:
            errors.append(f"malformed witness {w}")
            break
        if m[i - 1] + sum(mr * kr for mr, kr in zip(m, k)) != m[j - 1]:
            errors.append(f"witness {w} does not solve the resonance equation")
            break
        if key in seen:
            errors.append(f"duplicate witness {w}")
            break
        if previous is not None and key < previous:
            errors.append(f"witness {w} out of order")
            break
        seen.add(key)
        previous = key
        per_pair[(i, j)] = per_pair.get((i, j), 0) + 1
    for j in range(2, len(m) + 1):
        for i in range(1, j):
            want = count_combinations(m[: j - 1], m[j - 1] - m[i - 1])
            _expect(errors, f"witnesses for (i={i}, j={j})", per_pair.get((i, j), 0), want)
    return errors


def resonance_total(m: tuple[int, ...]) -> int:
    return sum(
        count_combinations(m[: j - 1], m[j - 1] - m[i - 1])
        for j in range(2, len(m) + 1)
        for i in range(1, j)
    )


# -- the sweep -----------------------------------------------------------------


class SweepReference:
    """In-class tuples of one scan and their first-level obstruction sizes,
    from the closed form (level 3) and reachability tables (level 4)."""

    def __init__(self) -> None:
        self._pair_sizes: dict[tuple[int, int, int], int] = {}
        self._reach: dict[tuple[int, ...], bytearray] = {}

    def pair_size(self, a: int, b: int, M: int) -> int:
        key = (a, b, M)
        if key not in self._pair_sizes:
            self._pair_sizes[key] = len(pair_window(a, b, M)[2])
        return self._pair_sizes[key]

    def _reach_to(self, prefix: tuple[int, ...], bound: int) -> bytearray:
        reach = self._reach.get(prefix)
        if reach is None or len(reach) <= bound:
            reach = reachable(prefix, max(bound, 2 * sum(prefix)))
            self._reach[prefix] = reach
        return reach

    def _blocked(self, t: int, prefix: tuple[int, ...]) -> bool:
        reach = self._reach_to(prefix, t)
        return any(t - m > 0 and reach[t - m] for m in prefix)

    def level_size(self, prefix: tuple[int, ...], M: int) -> int:
        if len(prefix) == 2:
            return self.pair_size(prefix[0], prefix[1], M)
        s = sum(prefix)
        self._reach_to(prefix, M * s)
        return sum(1 for t in range((M - 1) * s + 1, M * s) if self._blocked(t, prefix))

    def row(self, m: tuple[int, ...]) -> dict | None:
        """The scan row of m when m is in the class, else None."""
        if m[0] < 2 or m[1] % m[0] == 0:
            return None
        witnesses, sizes = [], []
        for j in range(3, len(m) + 1):
            prefix, mj = m[: j - 1], m[j - 1]
            s = sum(prefix)
            if mj % s == 0:
                return None
            if len(prefix) == 2:
                hit = pair_blocked(mj, *prefix)
            else:
                hit = self._blocked(mj, prefix)
            if hit:
                return None
            M = mj // s + 1
            witnesses.append(M)
            sizes.append(self.level_size(prefix, M))
        return {"weight": list(m), "in_class": True, "witnesses": witnesses,
                "failure": None, "n_resonances": 0, "i_set_sizes": sizes}


def check_scan(payload: dict, n: int, max_weight: int, seed: int, oracles) -> list[str]:
    """Rows of ``scan --n n --max max_weight`` (filter in-class).

    Checks the paper's theorem (in-class rows have no resonances), the window
    inequality of every witness, the full row set against the reference, and
    a seeded sample of in- and out-of-class tuples against the test oracles.
    """
    errors: list[str] = []
    result = payload.get("result", {})
    rows = result.get("rows", [])
    _expect(errors, "count", result.get("count"), len(rows))
    for row in rows:
        m = row["weight"]
        if row["n_resonances"] != 0:
            errors.append(f"in-class row {m} has {row['n_resonances']} resonances")
            break
        for j, M in enumerate(row["witnesses"], start=3):
            s = sum(m[: j - 1])
            if not (M - 1) * s < m[j - 1] < M * s:
                errors.append(f"row {m}: m_{j} not inside window {M}")
                break
    reference = SweepReference()
    tuples = [m for m in combinations(range(1, max_weight + 1), n) if math.gcd(*m) == 1]
    want_rows = [r for r in (reference.row(m) for m in tuples) if r is not None]
    if rows != want_rows:
        got_w = {tuple(r["weight"]) for r in rows}
        want_w = {tuple(r["weight"]) for r in want_rows}
        extra, missing = sorted(got_w - want_w)[:3], sorted(want_w - got_w)[:3]
        errors.append(f"rows differ from reference: extra {extra}, missing {missing}")
    rng = random.Random(f"scan-oracle-{n}-{max_weight}-{seed}")
    listed = {tuple(r["weight"]): r for r in rows}
    ins = [m for m in tuples if m in listed]
    outs = [m for m in tuples if m not in listed]
    sample = rng.sample(ins, min(8, len(ins))) + rng.sample(outs, min(8, len(outs)))
    for m in sample:
        in_class = oracles.oracle_in_class(m)
        if in_class != (m in listed):
            errors.append(f"oracle says in_class={in_class} for {m}, scan disagrees")
            continue
        if in_class:
            sizes = [
                len(oracles.oracle_window_elements(m[: j - 1], M))
                for j, M in enumerate(listed[m]["witnesses"], start=3)
            ]
            _expect(errors, f"i_set_sizes of {m} by oracle", listed[m]["i_set_sizes"], sizes)
            _expect(errors, f"oracle resonances of {m}", len(oracles.oracle_resonances(m)), 0)
    return errors


def load_oracles(root: Path):
    """Import tests/oracles.py of the checkout under test by path."""
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
