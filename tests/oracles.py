"""Independent brute-force oracles for cross-checking production paths.

These deliberately use unpruned itertools.product loops over full index
boxes, a different construction from the recursive enumerators inside the
package, so each side can catch the other's mistakes.  They are only usable
at small scale.  The sieve helpers read a ``semigroup.build_sieve`` table,
a forward dynamic program that shares no code with the Apery engine, and
reach the windows the nested loops cannot.
"""

import math
from itertools import combinations, product

import numpy as np


def oracle_representable(generators, t):
    """Is t a nonnegative integer combination of the generators?"""
    if t < 0:
        return False
    ranges = [range(t // g + 1) for g in generators]
    return any(
        sum(g * k for g, k in zip(generators, ks)) == t for ks in product(*ranges)
    )


def oracle_window_elements(prefix, window):
    """Obstruction set of one window by exhaustive nested loops."""
    sigma = sum(prefix)
    lo, hi = (window - 1) * sigma, window * sigma
    out = set()
    ranges = [range(hi // g + 1) for g in prefix]
    for ks in product(*ranges):
        if all(k == 0 for k in ks):
            continue
        base = sum(g * k for g, k in zip(prefix, ks))
        for mi in prefix:
            r = mi + base
            if lo < r < hi:
                out.add(r)
    return sorted(out)


def sieve_contains(sieve, t):
    """Is t representable, read off a sieve that must cover it?"""
    if t < 0:
        return False
    if t > sieve.bound:
        raise ValueError(f"query {t} exceeds sieve bound {sieve.bound}")
    return bool(sieve.flags[t])


def sieve_window_elements(sieve, window):
    """Obstruction set of one window over the sieve's generators, as the
    integers t with t - m_i positive and representable for some m_i."""
    prefix = sieve.generators
    sigma = sum(prefix)
    lo, hi = (window - 1) * sigma, window * sigma
    if sieve.bound < hi:
        raise ValueError(f"sieve bound {sieve.bound} is smaller than window top {hi}")
    values = np.arange(lo + 1, hi, dtype=np.int64)
    blocked = np.zeros(values.shape, dtype=bool)
    for mi in prefix:
        shifted = values - mi
        blocked |= (shifted > 0) & sieve.flags[np.clip(shifted, 0, sieve.bound)]
    return tuple(int(t) for t in values[blocked])


def oracle_resonances(m):
    """All (i, j, k) with i < j and m_i + sum(m_r * k_r, r < j) = m_j."""
    out = []
    for j in range(2, len(m) + 1):
        for i in range(1, j):
            deficit = m[j - 1] - m[i - 1]
            ranges = [range(deficit // m[r] + 1) for r in range(j - 1)]
            for ks in product(*ranges):
                if sum(mr * k for mr, k in zip(m, ks)) == deficit:
                    out.append((i, j, ks))
    return sorted(out)


def oracle_in_class(m):
    """Literal membership check searching every window index.

    The production path computes the unique admissible window directly; this
    one tries each M >= 1 whose window could contain the entry, which checks
    that claim of uniqueness as well.
    """
    if m[0] < 2 or m[1] % m[0] == 0:
        return False
    for j in range(3, len(m) + 1):
        prefix = m[: j - 1]
        sigma = sum(prefix)
        mj = m[j - 1]
        found = False
        for window in range(1, mj // sigma + 2):
            if window * sigma > mj > (window - 1) * sigma and mj not in oracle_window_elements(
                prefix, window
            ):
                found = True
                break
        if not found:
            return False
    return True


def valid_weights(n, max_entry):
    """All valid weight tuples of length n with entries <= max_entry."""
    for m in combinations(range(1, max_entry + 1), n):
        if math.gcd(*m) == 1:
            yield m
