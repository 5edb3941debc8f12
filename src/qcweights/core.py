"""Weight validation, window/obstruction machinery, class membership,
resonance detection and counting, admissible-weight enumeration, and the
scan over all weights of one length.

All arithmetic is exact over Python integers.  Every operation here has
brute-force-verifiable semantics: the ``brute`` backend and the bounded
nested-loop searches are the ground truth the fast paths are tested against.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable, Iterable, Iterator

from qcweights import semigroup
from qcweights.model import (
    BASE_CASE_DIVISIBILITY,
    BASE_CASE_M1,
    NO_WINDOW_EXISTS,
    OBSTRUCTION_SET_HIT,
    ClassFailure,
    MembershipVerdict,
    ObstructionSet,
    Resonances,
    ScanRows,
    WeightError,
    WeightTuple,
    window_interval,
)

BACKENDS = ("brute", "sieve", "apery")

# The most nested-loop steps the brute backend may take on one window, as
# bounded before its loops start; ten million steps take a few seconds.
BRUTE_STEP_LIMIT = 10**7

# The most pair tests zero_set_equivalence_check may make, counted before its
# loop starts: C(n + d, n) multi-indices times n(n - 1)/2 pairs.  A pair test
# costs 0.4-0.7 us, so ten million take a few seconds; criterion 10 (n <= 5,
# d = 12) makes about 62,000.
ZERO_SET_STEP_LIMIT = 10**7

# Tags for the length-3 linearity criteria.
BASIC_CRITERION = "basic-criterion"
PRIME_PAIR = "prime-pair"
TWIN_PRIME = "twin-prime"
DOUBLING_BOUND = "doubling-bound"


def _as_int_tuple(raw, what: str) -> tuple[int, ...]:
    try:
        return tuple(operator.index(x) for x in raw)
    except TypeError as exc:
        raise WeightError(f"{what} entries must be integers") from exc


def validate_weight(raw: Iterable[int] | WeightTuple) -> WeightTuple:
    """Check the weight invariants and return the validated tuple.

    Raises WeightError naming the violated invariant: fewer than 2 entries,
    a non-positive entry, entries not strictly increasing, or gcd != 1.  A
    ``WeightTuple`` is checked like any other tuple.
    """
    entries = _check_prefix(raw, "weight")
    g = math.gcd(*entries)
    if g != 1:
        raise WeightError(f"gcd of weight entries must be 1, got {g}")
    return WeightTuple(entries)


def _check_prefix(raw, what: str = "prefix", min_len: int = 2) -> tuple[int, ...]:
    # The entry checks that a weight and a prefix share.  A prefix of a valid
    # weight keeps positivity and strict increase but may have gcd > 1, so no
    # gcd condition here.
    if isinstance(raw, WeightTuple):
        raw = raw.m
    entries = _as_int_tuple(raw, what)
    if len(entries) < min_len:
        noun = "a weight" if what == "weight" else what
        raise WeightError(f"{noun} needs at least {min_len} entries, got {len(entries)}")
    if any(e < 1 for e in entries):
        raise WeightError(f"{what} entries must be positive")
    if any(a >= b for a, b in zip(entries, entries[1:])):
        raise WeightError(f"{what} entries must be strictly increasing")
    return entries


def _check_multi_index(k, length: int) -> tuple[int, ...]:
    kk = _as_int_tuple(k, "multi-index")
    if len(kk) != length:
        raise WeightError(f"multi-index must have length {length}, got {len(kk)}")
    if any(x < 0 for x in kk):
        raise WeightError("multi-index entries must be nonnegative")
    return kk


def is_prime(n: int) -> bool:
    """Deterministic trial division; exact for any integer."""
    return n > 1 and _least_factor(n) == n


def r_value(prefix, i: int, k) -> int:
    """The shifted combination m_i + sum(m_q * k_q) over the prefix.

    ``i`` is 1-based and ``k`` must have one entry per prefix weight.
    """
    pref = _check_prefix(prefix, min_len=1)
    kk = _check_multi_index(k, len(pref))
    if not 1 <= i <= len(pref):
        raise WeightError(f"index i={i} out of range 1..{len(pref)}")
    return pref[i - 1] + sum(q * kq for q, kq in zip(pref, kk))


def c_exponent(weight, i: int, j: int, k) -> int:
    """The rotation exponent (m_i - m_j) + sum(m_r * k_r) over the full weight.

    Indices are 1-based and must differ; ``k`` has one entry per weight.
    A zero value at i < j is exactly a resonance (see :func:`resonances`).
    """
    w = validate_weight(weight)
    n = len(w)
    kk = _check_multi_index(k, n)
    if not (1 <= i <= n and 1 <= j <= n):
        raise WeightError(f"indices (i={i}, j={j}) out of range 1..{n}")
    if i == j:
        raise WeightError("indices i and j must differ")
    return (w[i - 1] - w[j - 1]) + sum(mr * kr for mr, kr in zip(w.m, kk))


def _brute_steps(prefix: tuple[int, ...], hi: int) -> int:
    # The loops visit each (k_1, ..., k_r) >= 0 with sum(m_q * k_q) < hi.
    # Each owns the unit cube above it, which lies in the simplex
    # sum(m_q * x_q) < hi + m_1 + ... + m_r, so the simplex volume bounds
    # their number.
    steps, volume, total = 0, 1, hi
    for r, g in enumerate(prefix, start=1):
        volume *= r * g
        total += g
        steps += total**r // volume
    return steps


def _brute_window_elements(prefix: tuple[int, ...], lo: int, hi: int) -> list[int]:
    # Nested-loop ground truth: enumerate k with partial sums < hi, which
    # bounds each k_q by hi / m_q.
    if _brute_steps(prefix, hi) > BRUTE_STEP_LIMIT:
        raise WeightError(
            f"the brute backend would take more than BRUTE_STEP_LIMIT = "
            f"{BRUTE_STEP_LIMIT} steps on this window; the sieve and apery "
            f"backends answer it exactly"
        )
    found: set[int] = set()
    length = len(prefix)

    def descend(q: int, partial: int, nonzero: bool) -> None:
        if q == length:
            if nonzero:
                for mi in prefix:
                    r = mi + partial
                    if lo < r < hi:
                        found.add(r)
            return
        g = prefix[q]
        total = partial
        kq = 0
        while total < hi:
            descend(q + 1, total, nonzero or kq > 0)
            total += g
            kq += 1

    descend(0, 0, False)
    # descend reaches itself through its closure, which holds ``found``;
    # breaking that cycle frees the set on return, not at the next cyclic
    # collection.
    del descend
    return sorted(found)


def obstruction_set(prefix, M: int, backend: str = "sieve") -> ObstructionSet:
    """Blocked integers of the window ((M-1)*S, M*S) over the prefix, S being
    the prefix sum.

    ``brute`` runs nested loops over the multi-indices.  ``sieve`` and
    ``apery`` both ask ``semigroup.Semigroup(prefix).window(M)``, which reads
    each residue class's arithmetic progression inside the window, in time
    and memory that follow the prefix and the output, not M.  A two-entry
    prefix needs no table: its classes start at the multiples of its second
    entry, which the pass walks only up to the window top.  A longer
    prefix's classes are read off its Apery table.  All three return
    identical sets on every input; the nested loops and the
    dynamic-programming sieve (``semigroup.build_sieve``) remain as the
    oracles the tests compare the engine against.
    """
    pref = _check_prefix(prefix)
    M = operator.index(M)
    if M < 1:
        raise WeightError(f"window index M must be >= 1, got {M}")
    if backend not in BACKENDS:
        raise WeightError(f"unknown backend {backend!r}, expected one of {BACKENDS}")
    if backend == "brute":
        lo, hi = window_interval(sum(pref), M)
        elements = tuple(_brute_window_elements(pref, lo, hi))
        return ObstructionSet(prefix=pref, window=M, interval=(lo, hi), elements=elements)
    return semigroup.Semigroup(pref).window(M)


def window_index(sigma: int, mj: int) -> int | None:
    """Index M of the open window ((M-1)*S, M*S) that holds mj, S = sigma.

    None when S divides mj: a multiple of S is the boundary of two windows,
    so the strict window inequalities cannot hold.
    """
    if mj % sigma == 0:
        return None
    return mj // sigma + 1


class _Prefix:
    """A prefix (m_1, ..., m_d) with its verdict so far and its semigroup:
    all that the criterion needs to judge an extension.
    """

    __slots__ = ("entries", "sigma", "witnesses", "failure", "group")

    def __init__(
        self,
        group: semigroup.Semigroup | semigroup.BoundedSemigroup,
        witnesses: tuple[int, ...] = (),
        failure: ClassFailure | None = None,
    ) -> None:
        self.group = group
        self.entries = group.gens
        self.sigma = sum(self.entries)
        self.witnesses = witnesses
        self.failure = failure

    def judge(self, m: int) -> tuple[tuple[int, ...], ClassFailure | None]:
        """Witness chain and failure of the prefix extended by m.

        The literal recursive membership conditions.  No gcd condition
        appears here: prefixes of valid weights may have gcd > 1.
        """
        if self.failure is not None:
            return self.witnesses, self.failure
        level = len(self.entries) + 1
        if level == 2:
            if self.entries[0] < 2:
                return (), ClassFailure(BASE_CASE_M1, 2)
            if m % self.entries[0] == 0:
                return (), ClassFailure(BASE_CASE_DIVISIBILITY, 2)
            return (), None
        window = window_index(self.sigma, m)
        if window is None:
            return self.witnesses, ClassFailure(NO_WINDOW_EXISTS, level)
        # m exceeds every prefix entry, so it is no minimal generator and is
        # blocked exactly when it lies in the prefix's semigroup.
        if self.group.contains(m):
            return self.witnesses, ClassFailure(OBSTRUCTION_SET_HIT, level)
        return (*self.witnesses, window), None


def _prefix_state(entries: tuple[int, ...]) -> _Prefix:
    # A prefix here judges one entry, or the gaps enumerate_admissible
    # re-checks, so each level's semigroup is made from its bare tuple and
    # searches before it builds a table.
    state = _Prefix(semigroup.Semigroup(entries[:1]))
    for j in range(2, len(entries) + 1):
        state = _Prefix(semigroup.Semigroup(entries[:j]), *state.judge(entries[j - 1]))
    return state


def is_in_class(weight) -> MembershipVerdict:
    """Decide class membership for a validated weight.

    Base case n = 2: m1 >= 2 and m2 not divisible by m1.  Each further level
    j places m_j in its unique open window over the prefix sum S_j (index
    floor(m_j / S_j) + 1; no window exists when S_j divides m_j) and requires
    m_j to avoid that window's obstruction set.  As m_j exceeds every prefix
    entry, level j holds exactly when S_j does not divide m_j and m_j is not
    in the semigroup <m_1, ..., m_{j-1}>.

    That membership is ``semigroup.Semigroup(prefix).contains``: closed
    form for a two-entry prefix, and for a longer one a search that builds
    the prefix's Apery table only once it has taken as many steps as the
    table has residues.  A verdict on million-scale entries thus takes a
    few search steps and no table.
    """
    w = validate_weight(weight)
    state = _prefix_state(w.m)
    return MembershipVerdict(w, state.failure is None, state.witnesses, state.failure)


def _sum_solver(
    gens: tuple[int, ...], degree_bound: int | None = None
) -> Callable[[int], list[int]]:
    """A function listing, flat and in lexicographic order, every k >= 0
    with sum(gens[r] * k[r]) == t, and sum(k) <= degree_bound when given.

    The last two coordinates, the pair (a, b), are one arithmetic
    progression: with d = gcd(a, b), the least k_a is
    (t/d) * inverse mod b/d, k_b = (t - a*k_a)/b, and each step of b/d in
    k_a lowers k_b by a/d and, since a < b, raises k_a + k_b by (b - a)/d,
    so the terms within the bound are a prefix of it.  The walk over the
    generator just before the pair is one loop over its k whose first step
    is the pair's own test, d | rest and k_b >= 0, and which then extends
    the list by each term ``(*head, k, k_a, k_b)``: no membership call and
    no frame per value of k.  A two-entry ``gens`` lists its pair directly.

    Above the pair's predecessor, before it descends into a value of k_q,
    the walk checks that the rest of t lies in the semigroup of gens[q+1:],
    the q+1-th ``suffix`` of ``semigroup.Semigroup(gens)``, so every branch
    it enters holds a solution.  With a degree bound it enters no branch
    whose partial sum(k) already exceeds the bound.  So the cost follows the
    solutions listed plus the values of the predecessor's k tried in each
    branch entered.
    """
    bounded = degree_bound is not None
    if len(gens) == 1:
        (g,) = gens

        def solve_one(t: int) -> list[int]:
            k, rest = divmod(t, g)
            if rest or (bounded and k > degree_bound):
                return []
            return [k]

        return solve_one

    # suffixes[q] is the semigroup of gens[q:], down to the last pair.
    suffixes = [semigroup.Semigroup(gens)]
    for _ in range(len(gens) - 2):
        suffixes.append(suffixes[-1].suffix)
    pair = len(gens) - 2
    a, b = suffixes[pair].gens
    d, period, inverse = suffixes[pair].d, suffixes[pair].period, suffixes[pair].inverse
    drop = a // d
    rise = period - drop

    def pair_only(t: int) -> list[int]:
        if t % d:
            return []
        k_a = t // d * inverse % period
        k_b = (t - k_a * a) // b
        stop = 0
        if bounded:
            stop = max(0, k_b - (degree_bound - k_a - k_b) // rise * drop)
        terms = zip(itertools.count(k_a, period), range(k_b, stop - 1, -drop))
        return list(itertools.chain.from_iterable(terms))

    if pair == 0:
        return pair_only

    lead = gens[pair - 1]

    def solve(t: int) -> list[int]:
        out: list[int] = []
        extend = out.extend

        # ``room`` is what the bound leaves for the coordinates from q on;
        # without a bound it is t, which no solution's sum(k) exceeds.
        def descend(q: int, t: int, head: tuple[int, ...], room: int) -> None:
            if q < pair - 1:
                g, inside = gens[q], suffixes[q + 1].contains
                for k in range(min(t // g, room) + 1):
                    rest = t - k * g
                    if inside(rest):
                        descend(q + 1, rest, (*head, k), room - k)
                return
            # The pair's predecessor: k runs down the rest, and the pair's
            # closed form both tests and lists each rest.
            stop = 0
            for k in range(min(t // lead, room) + 1):
                rest = t - k * lead
                if rest % d:
                    continue
                k_a = rest // d * inverse % period
                k_b = (rest - k_a * a) // b
                if bounded:
                    stop = max(0, k_b - (room - k - k_a - k_b) // rise * drop)
                while k_b >= stop:
                    extend((*head, k, k_a, k_b))
                    k_a += period
                    k_b -= drop

        if suffixes[0].contains(t):
            descend(0, t, (), degree_bound if bounded else t)
        # descend reaches itself through its closure, and through ``extend``
        # holds ``out``; breaking that cycle lets the list go with its last
        # reference, not at the next cyclic collection.
        del descend
        return out

    return solve


def resonance_arrays(
    weight, _degree_bound: int | None = None
) -> list[tuple[int, int, list[int]]]:
    """The witnesses of ``resonances`` as one ``(i, j, flat)`` per pair
    i < j, in (i, j) order: ``flat`` holds the k of each witness of the
    pair, in order, j - 1 entries apiece.  The private ``_degree_bound``
    keeps only the witnesses with sum(k) at most it, and the walk enters no
    branch past it.

    Cost: the walk over k (see ``_sum_solver``) enters only branches that
    hold a witness, so its time follows the witnesses listed plus the values
    of the pair's predecessor tried in each branch, with one membership
    test per value of each coordinate above it.  Each test is ``contains``
    of a ``semigroup.Semigroup`` of a suffix of m_1..m_{j-1}, which searches
    until it has taken as many steps as its Apery table has residues and is
    then a lookup in that table.  Memory is the arrays, with no object per
    witness, and at most one such table per suffix of each prefix, built
    once per j and shared by every i; a suffix no target reaches gets none.
    """
    m = validate_weight(weight).m
    solvers = [_sum_solver(m[: j - 1], _degree_bound) for j in range(2, len(m) + 1)]
    pairs = itertools.combinations(range(1, len(m) + 1), 2)
    return [(i, j, solvers[j - 2](m[j - 1] - m[i - 1])) for i, j in pairs]


def resonances(weight, _degree_bound: int | None = None) -> Resonances:
    """All triples (i, j, k) with i < j and m_i + sum(m_r * k_r, r < j) = m_j,
    sorted by (i, j, k), as a ``Resonances`` sequence of ``ResonanceWitness``.

    An empty result certifies that every origin-fixing rotation exponent
    (m_i - m_j) + sum(m_r * k_r) with i != j is nonzero.  The sequence holds
    the arrays of ``resonance_arrays`` and makes each witness as it is read,
    so listing costs what the walk costs.
    """
    return Resonances(resonance_arrays(weight, _degree_bound))


def extend_ways(ways: list[int], part: int) -> list[int]:
    """Coin-change counts with one more part allowed.

    ``ways[t]`` counts the multi-indices k >= 0 with sum(parts[r] * k_r) == t
    over some parts; the result counts them over those parts and ``part``,
    for the same range of t.  Over the prefix m_1, ..., m_{j-1}, the entry at
    m_j - m_i is the number of resonance witnesses of the pair (i, j).
    """
    out = list(ways)
    for t in range(part, len(out)):
        out[t] += out[t - part]
    return out


# What an m makes at the last level of a scan, besides no row (0): a row with
# the prefix's verdict, an obstruction hit, or a no-window row.
_PASS, _HIT, _NO_WINDOW = 1, 2, 3
# BoundedSemigroup.mask as kinds: a member is no row under the in-class
# filter and an obstruction hit otherwise.
_IN_CLASS_KINDS = bytes.maketrans(b"01", bytes((_PASS, 0)))
_ROW_KINDS = bytes.maketrans(b"01", bytes((_PASS, _HIT)))


def _least_factor(n: int, p: int = 2) -> int:
    # The least divisor above 1 of n >= 2, by trial division by 2 and the
    # odd numbers from p on; p is 2 or odd, and no divisor lies below it.
    while p * p <= n:
        if n % p == 0:
            return p
        p += 1 if p == 2 else 2
    return n


def _prime_factors(n: int) -> list[int]:
    # The distinct primes that divide n >= 1, ascending.  Each search goes
    # on from the last prime, which no longer divides n.
    primes, p = [], 2
    while n > 1:
        p = _least_factor(n, p)
        primes.append(p)
        while n % p == 0:
            n //= p
    return primes


def _drop_multiples(mask: bytearray, start: int, primes: Iterable[int]) -> None:
    # Zero mask[i] wherever one of the primes divides start + i: with the
    # primes of a prefix gcd, the integers that no valid weight extends the
    # prefix by.
    for p in primes:
        multiples = range(-start % p, len(mask), p)
        mask[multiples.start :: p] = bytes(len(multiples))


def scan(
    n: int, max_weight: int, *, in_class_only: bool = False, resonance_free_only: bool = False
) -> ScanRows:
    """Every valid weight of length n with entries <= max_weight, in
    lexicographic order, with its verdict, resonance count and the
    obstruction-set size of each level's window, as a ``ScanRows`` sequence
    of ``ScanRow``.

    One depth-first walk over prefixes: an entry m_j is judged against its
    prefix alone, so each prefix's verdict, semigroup, coin-change counts
    and window sizes are made once and shared by all its extensions.  They
    live only while that prefix is being extended.  Each prefix's
    semigroup is a ``semigroup.BoundedSemigroup``, its parent's ``child``:
    its elements below n * max_weight + 1, past which no window the scan
    sizes ends, as the bits of one int, made from the parent's by a few
    shifts, with no Apery table.  Both filters hold for a weight only if
    they hold for each of its prefixes (a failure is final and the
    witnesses of a prefix are witnesses of the weight), so they prune whole
    subtrees.

    Inner prefixes are judged by ``_Prefix.judge``.  The last level, which
    makes every row, selects its rows without a call per m.  A ``bytearray``
    over 0..max_weight marks what each m would make: no row where m shares a
    prime with the prefix gcd, else a pass, an obstruction hit where m lies
    in the prefix's semigroup (``BoundedSemigroup.mask``, the prefix's bits
    as digits) or no window where the prefix sum divides m.  The resonance
    counts of all its rows are read off the coin-change counts at the prefix
    entries' fixed offsets.  Under the resonance-free filter the zero counts
    mark the rows instead, as every member of the semigroup has a resonance.
    Each window's rows are then one ``itertools.compress`` over its integers
    and one over its counts, and are kept as stretches that share their
    witnesses, failure and window sizes: one stretch per window under either
    filter, and with none one per maximal run of one failure.  Window sizes
    come from ``BoundedSemigroup.window_size``, one count of the window's
    bits, once per window that makes a row.  The rows of a stretch are made
    only as the returned sequence is read.
    """
    n, max_weight = operator.index(n), operator.index(max_weight)
    if n < 2:
        raise WeightError(f"scan needs n >= 2, got {n}")
    if max_weight < n:
        raise WeightError(f"scan needs max >= n, got max {max_weight} with n {n}")
    stretches: list[tuple] = []
    append = stretches.append
    # Windows of many prefixes have equal witness chains and window sizes,
    # so each distinct tuple is held once.
    shared = {}.setdefault
    base_m1 = ClassFailure(BASE_CASE_M1, 2)
    no_window = ClassFailure(NO_WINDOW_EXISTS, n)
    hit = ClassFailure(OBSTRUCTION_SET_HIT, n)
    kinds_of_members = _IN_CLASS_KINDS if in_class_only else _ROW_KINDS
    # Deficits m_j - m_i stay below max_weight.
    unit = [1] + [0] * max_weight

    def leaf(prefix: _Prefix, gcd: int, ways: list[int], n_res: int, sizes: tuple) -> None:
        entries, group, head = prefix.entries, prefix.group, prefix.witnesses
        start, stop = entries[-1] + 1, max_weight + 1
        failure = prefix.failure
        level_2 = len(entries) < 2
        if level_2:
            # gcd is m_1, so the multiples of m_1, which fail the base case
            # by divisibility, never make a row.
            failure = base_m1 if entries[0] < 2 else None
        if in_class_only and failure is not None:
            return
        # The m-th count is n_res plus the witnesses of the pairs (i, n), each
        # read from ways at m - m_i.
        counts = ways[start - entries[0] : stop - entries[0]]
        for e in entries[1:]:
            counts = map(operator.add, counts, ways[start - e : stop - e])
        if n_res:
            counts = map(n_res.__add__, counts)
        counts = list(counts)
        # kinds[m]: 0 no row, _PASS a row of the prefix's verdict, _HIT an
        # obstruction hit, _NO_WINDOW a multiple of the prefix sum.  Level 2
        # has no window, which one window as wide as the scan gives.
        sigma = stop if level_2 else prefix.sigma
        if resonance_free_only:
            # A member m of the prefix's semigroup, a multiple of sigma
            # among them, is some m_i plus a member, so ways[m - m_i] and its
            # count are nonzero: the zero counts are the rows, and all pass.
            kinds = bytearray(start) + bytes(map(operator.not_, counts))
        elif failure is None and not level_2:
            # m exceeds every prefix entry, so it is blocked exactly when it
            # lies in the prefix's semigroup.  The multiples of sigma are
            # members too, so the in-class filter has dropped them already.
            kinds = group.mask(stop).translate(kinds_of_members)
        else:
            kinds = bytearray((_PASS,)) * stop
        # Under either filter every row is of the prefix's verdict.
        one_kind = in_class_only or resonance_free_only
        if not one_kind:
            kinds[::sigma] = bytes((_NO_WINDOW,)) * len(range(0, stop, sigma))
        if gcd != 1:
            _drop_multiples(kinds, 0, _prime_factors(gcd))
        for lo in range(start - start % sigma, stop, sigma):
            first = lo if lo > start else start
            hi = lo + sigma
            selected = kinds[first:hi]
            ms = [*itertools.compress(range(first, hi), selected)]
            if not ms:
                continue
            cs = [*itertools.compress(counts[first - start : hi - start], selected)]
            if level_2:
                append((entries, (), failure, sizes, ms, cs))
                continue
            window = lo // sigma + 1
            witnesses = head if failure is not None else (*head, window)
            if one_kind:
                # One stretch per window; sending these windows through the
                # run split below took core.scan(3, 70, in_class_only=True)
                # from 30.4 to 36.6 ms (process time, best of 9, 2-core host).
                window_sizes = (*sizes, group.window_size(window))
                append(
                    (entries, shared(witnesses, witnesses), failure,
                     shared(window_sizes, window_sizes), ms, cs)
                )
                continue
            # Split the window into runs of one kind; a no-window row can
            # only open it.
            kept = selected.translate(None, b"\0")
            window_sizes = None
            if kept[-1] != _NO_WINDOW:
                window_sizes = (*sizes, group.window_size(window))
            rows_of = (
                None,
                (witnesses, failure, window_sizes),
                (head, hit, window_sizes),
                (head, no_window if failure is None else failure, (*sizes, None)),
            )
            a = 0
            for kind, run in itertools.groupby(kept):
                b = a + len([*run])
                append((entries, *rows_of[kind], ms[a:b], cs[a:b]))
                a = b

    def walk(prefix: _Prefix, gcd: int, ways: list[int], n_res: int, sizes: tuple) -> None:
        depth = len(prefix.entries)
        if depth + 1 == n:
            leaf(prefix, gcd, ways, n_res, sizes)
            return
        window_sizes: dict[int, int] = {}
        for m in range(prefix.entries[-1] + 1, max_weight - (n - depth - 1) + 1):
            witnesses, failure = prefix.judge(m)
            if in_class_only and failure is not None:
                continue
            count = n_res + sum(ways[m - mi] for mi in prefix.entries)
            if resonance_free_only and count:
                continue
            level_sizes = sizes
            if depth >= 2:
                # The size of m's window, cached by index; None where sigma
                # divides m.
                window = window_index(prefix.sigma, m)
                size = window_sizes.get(window)
                if size is None and window is not None:
                    size = window_sizes[window] = prefix.group.window_size(window)
                level_sizes = (*sizes, size)
            child = _Prefix(prefix.group.child(m), witnesses, failure)
            walk(child, math.gcd(gcd, m), extend_ways(ways, m), count, level_sizes)

    root = semigroup.BoundedSemigroup(n * max_weight + 1)
    for first in range(1, max_weight - n + 2):
        walk(_Prefix(root.child(first)), first, extend_ways(unit, first), 0, ())
    # walk reaches itself through its closure.  Breaking that cycle frees the
    # closures, and the list of stretches they hold, when scan returns, so
    # the rows go as soon as the returned sequence does, not at the next
    # cyclic collection.
    del walk
    return ScanRows(stretches)


def _bounded_multi_indices(length: int, total: int) -> Iterator[tuple[int, ...]]:
    # All k >= 0 of the given length with sum(k) <= total.
    if length == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in _bounded_multi_indices(length - 1, total - head):
            yield (head, *rest)


def zero_set_equivalence_check(weight, degree_bound: int) -> bool:
    """Verify that exponent zeros and resonances coincide up to a degree bound.

    Over all full-length k with sum(k) <= degree_bound and all pairs i < j,
    the zero set of the rotation exponent must equal the resonance witnesses
    embedded into full length by appending zero components.  Raises
    WeightError, before any work, when that takes more than
    ZERO_SET_STEP_LIMIT pair tests.
    """
    w = validate_weight(weight)
    degree_bound = operator.index(degree_bound)
    if degree_bound < 0:
        raise WeightError("degree bound must be >= 0")
    m = w.m
    n = len(m)
    steps = math.comb(n + degree_bound, n) * (n * (n - 1) // 2)
    if steps > ZERO_SET_STEP_LIMIT:
        raise WeightError(
            f"the zero-set check would make {steps} pair tests, more than "
            f"ZERO_SET_STEP_LIMIT = {ZERO_SET_STEP_LIMIT}; lower the degree bound"
        )

    expected: dict[tuple[int, int], set[tuple[int, ...]]] = {}
    for i, j, flat in resonance_arrays(w, degree_bound):
        if flat:
            expected[i, j] = {k + (0,) * (n - j + 1) for k in zip(*[iter(flat)] * (j - 1))}

    found: dict[tuple[int, int], set[tuple[int, ...]]] = {}
    for k in _bounded_multi_indices(n, degree_bound):
        combo = sum(mr * kr for mr, kr in zip(m, k))
        for j in range(2, n + 1):
            for i in range(1, j):
                # (m_i - m_j) + combo == 0, the exponent evaluated at k.
                if combo == m[j - 1] - m[i - 1]:
                    found.setdefault((i, j), set()).add(k)
    return found == expected


def enumerate_admissible(prefix, M: int, backend: str = "sieve") -> list[int]:
    """All extensions s of the prefix that are admissible in window M.

    Returns every integer s strictly inside the window that avoids the
    obstruction set, exceeds the last prefix entry, and keeps the overall gcd
    at 1.  Each returned s is re-checked to extend the prefix into the class.

    The gaps are read run by run from ``ObstructionSet.gap_runs()``, and so
    is the re-check: a run whose ends lie strictly inside window M has no
    multiple of the prefix sum in it and has M as its window, and one
    ``contains`` pass over it, with no call per gap beyond the test itself,
    shows that no s in it is in the prefix's semigroup.  Those are the
    conditions ``_Prefix.judge`` tests for each s on its own.
    """
    pref = _check_prefix(prefix)
    state = _prefix_state(pref)
    if state.failure is not None:
        raise WeightError(f"prefix not in the weight class: {state.failure.reason}")
    iset = obstruction_set(pref, M, backend)
    lo, hi = window_interval(state.sigma, M)
    contains = state.group.contains
    # With the prefix positive and increasing (_check_prefix), s > pref[-1]
    # and no prime of the prefix gcd dividing s are the rest of
    # validate_weight((*pref, s)).
    primes = _prime_factors(math.gcd(*pref))
    first = pref[-1] + 1
    out: list[int] = []
    for run in iset.gap_runs():
        if run.start < first:
            run = range(first, run.stop)
            if not run:
                continue
        if not lo < run.start <= run[-1] < hi or any(map(contains, run)):
            raise RuntimeError(
                f"internal check failed: {pref} extended by each of "
                f"{run.start}..{run[-1]} should be in the class"
            )
        if primes:
            keep = bytearray(b"\x01") * len(run)
            _drop_multiples(keep, run.start, primes)
            out += itertools.compress(run, keep)
        else:
            out += run
    return out


def check_n3_criteria(weight) -> list[str]:
    """Which of the four length-3 linearity criteria the weight satisfies.

    Tags (sorted): basic-criterion (m1 >= 3, m2 and m3 not divisible by m1,
    m1 + m2 > m3); prime-pair (m2, m3 odd primes >= 5 with m3 - m2 < m1);
    twin-prime (m2, m3 a twin prime pair other than (3, 5), m1 >= 3);
    doubling-bound (3 <= m1 and m3 < 2 * m1).  Every tagged weight is in the
    class.
    """
    w = validate_weight(weight)
    if len(w) != 3:
        raise WeightError(f"criteria apply to weights of length 3, got {len(w)}")
    m1, m2, m3 = w.m
    tags: list[str] = []
    if m1 >= 3 and m2 % m1 != 0 and m3 % m1 != 0 and m1 + m2 > m3:
        tags.append(BASIC_CRITERION)
    if m2 >= 5 and is_prime(m2) and is_prime(m3) and m3 - m2 < m1:
        tags.append(PRIME_PAIR)
    if (
        m3 - m2 == 2
        and is_prime(m2)
        and is_prime(m3)
        and (m2, m3) != (3, 5)
        and m1 >= 3
    ):
        tags.append(TWIN_PRIME)
    if m1 >= 3 and m3 < 2 * m1:
        tags.append(DOUBLING_BOUND)
    return sorted(tags)
