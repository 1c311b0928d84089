"""Local flips on weakly separated collections and their witness theorems.

A flip site consists of disjoint sets X, P, Q whose union carries a
strict interleaving pattern.  For odd r the pattern is
q_0 < p_1 < q_1 < ... < p_{r'} < q_{r'} with r' = (r+1)/2, so |Q| =
|P| + 1; the pair XP, XQ is then (r+2)-interlaced, XQ surrounds XP,
and swapping one for the other is the elementary *flip*.  For even r
the pattern is p_1 < q_1 < ... < p_{r'} < q_{r'} with |P| = |Q| =
r' = r/2 + 1: this is the double-comb situation of the enlarged
membrane flips.

The witness sets are

    N(P,Q)    = {S inside P+Q : S not in {P,Q}, r' <= |S| <= r'+1}
    N_up      = {P+q : q in Q} + {(P-p)+q : p in P, q in Q}
    N_down    = {Q-q : q in Q} + {(Q-q)+p : p in P, q in Q}

and the central local statements are: if {Y, XP} is bad (not weakly
r-separated) then some S in N_up has {Y, XS} bad, and dually for XQ
with N_down (odd r); the refined dichotomy that a bad {Y, XP} with all
N_up witnesses good forces every element of P, or every element of Q,
to be a singleton brick of the interval cortege; and the even-r
classification of the exceptional Y as XQ+{a} or XP-{b}, with
uniqueness of the double-comb partner among the neighbor pools.

The harnesses settle them for every site and every Y over [n] as set
algebra on the rows of one relation table: bad[v] is the bitset of the
sets Y != v with {Y, v} bad.  At a site, the Y violating the up clause
are exactly

    bad[XP] & ~OR(bad[X|S] for S in N_up) & ~{XP, XQ},

and dually for the down clause, so every Y is judged by a handful of
big-integer operations per site.  The cortege, shape and double-comb
tests run only on the bits of those candidate sets, and `checks` still
counts every (site, Y) pair judged, 2^n - 2 per site.

The runs go pattern by pattern: the sites come grouped by (P, Q), and
the witness pools, the judge pools and the elements of P and Q are
worked out once per pattern.  The even judges go further.  A bad pair
has interlacing degree at least r + 2, and degree at most r + 2 is
strong (r+1)-separation, so one row of that second table splits the
unwitnessed Y of a clause into the judged ones (degree r + 2) and the
recorded ones (above it) by two big-integer operations.  A judged Y
must be XQ + {a} or XP - {b}, the very sets the converse checks build.
For Y = XQ + {a} and S inside P+Q the pair (Y, X|S) has the difference
sets (Q - S) + a and S - Q; for Y = XP - {b} they are P - S and
b + (S - P).  The double-comb test reads only the difference sets, so
the partner list of such a Y depends on (P, Q, a) or (P, Q, b), never
on X, and is worked out once per key.  Every such memo lives for one
harness call.

One helper, _harness, opens every run: it checks n against the
relation-table limit (systems.check_limit) before any site or table,
then r (a range with r + 2 > n has no site and is an error, not a
pass), builds the report, and keeps the sites of the shard.  Shard k/m
(m >= 1) keeps sites k, k+m, k+2m, ... of the canonical site order, so
the m shards of a run partition its sites.  report.stats holds the
run's counters and seconds (patterns, judged Y, memo entries, the
time to get the tables, one or two, and the site-loop time); to_json
leaves them out.

apply_flip performs the XP <-> XQ swap on an actual collection after
verifying membership and witnesses, then re-checks the weak separation
of the result rather than trusting it: for an odd site a failed
re-check would falsify the flip theorem and raises accordingly.  For
an even site the re-check can fail legitimately (the theory needs
comb-freeness on top of the witnesses), so that case raises a plain
error instead.
"""

from __future__ import annotations

from itertools import combinations
from time import perf_counter
from typing import Iterator

from .ground import (
    SIDE_A,
    Record,
    check_ground,
    check_mask,
    elements,
    interval_cortege,
    set_notation,
)
from .separation import is_double_r_comb
from .systems import (
    SCHEMA,
    SetSystem,
    check_limit,
    check_pairwise,
    complement_table,
    relation_table,
    strong,
    weak,
)

PARITY_ODD = "odd"
PARITY_EVEN = "even"
RAISE = "raise"
LOWER = "lower"
MODE_FULL = "full"
MODE_SHARP = "sharp"

# (P, Q, the X masks of its sites): the sites of one interleaving pattern
Pattern = tuple[int, int, list[int]]


class FalsificationError(RuntimeError):
    """A re-checked conclusion of a proved statement failed to hold."""


class FlipSite(Record):
    """Disjoint X, P, Q over [n] with the interleaving of one parity.

    Odd parity: |Q| = |P| + 1 and the merged sequence alternates
    starting and ending with Q elements.  Even parity: |P| = |Q| >= 2
    and the merged sequence alternates starting with a P element.
    """

    __slots__ = ("n", "x", "p", "q")

    def __init__(self, n: int, x: int, p: int, q: int) -> None:
        check_ground(n)
        check_mask(x | p | q, n)
        if x & (p | q) or p & q:
            raise ValueError("X, P, Q must be pairwise disjoint")
        sizes = (p.bit_count(), q.bit_count())
        if sizes[1] == sizes[0] + 1:
            start = q  # odd: q_0 first, q_{r'} last
        elif sizes[0] == sizes[1] and sizes[0] >= 2:
            start = p  # even: p_1 first, q_{r'} last
        else:
            raise ValueError(f"|P|={sizes[0]}, |Q|={sizes[1]} fit neither parity")
        side = start
        for e in elements(p | q):
            if not side >> (e - 1) & 1:
                raise ValueError(f"P={set_notation(p)} and Q={set_notation(q)} do not interleave")
            side = (p | q) ^ side  # alternate expected side
        self.n, self.x, self.p, self.q = n, x, p, q

    @property
    def parity(self) -> str:
        return PARITY_ODD if self.q.bit_count() > self.p.bit_count() else PARITY_EVEN

    @property
    def r(self) -> int:
        rp = self.p.bit_count()
        return 2 * rp - 1 if self.parity == PARITY_ODD else 2 * rp - 2

    @property
    def xp(self) -> int:
        return self.x | self.p

    @property
    def xq(self) -> int:
        return self.x | self.q

    def label(self) -> str:
        return (
            f"X={set_notation(self.x)} P={set_notation(self.p)} "
            f"Q={set_notation(self.q)}"
        )

    def to_json(self) -> dict:
        return {
            "x": elements(self.x),
            "p": elements(self.p),
            "q": elements(self.q),
            "parity": self.parity,
            "r": self.r,
        }


def neighbors(site: FlipSite) -> SetSystem:
    """The full witness pool: proper subsets of P+Q of the two middle sizes."""
    if site.parity != PARITY_ODD:
        raise ValueError("the full neighbor pool is defined for odd parity only")
    rp = site.p.bit_count()
    pool = _pool(site.p, site.q, rp, rp + 1)
    return SetSystem.from_masks(site.n, pool)


def _pool(p: int, q: int, lo: int, hi: int) -> list[int]:
    union = elements(p | q)
    out = []
    for size in range(lo, hi + 1):
        for combo in combinations(union, size):
            mask = 0
            for e in combo:
                mask |= 1 << (e - 1)
            if mask not in (p, q):
                out.append(mask)
    return out


def _up(p: int, q: int) -> set[int]:
    out = set()
    for qe in elements(q):
        out.add(p | 1 << (qe - 1))
        for pe in elements(p):
            out.add((p & ~(1 << (pe - 1))) | 1 << (qe - 1))
    return out


def _down(p: int, q: int) -> set[int]:
    out = set()
    for qe in elements(q):
        rest = q & ~(1 << (qe - 1))
        out.add(rest)
        for pe in elements(p):
            out.add(rest | 1 << (pe - 1))
    return out


def neighbors_up(site: FlipSite) -> SetSystem:
    """{P+q} and {(P-p)+q}: the witnesses guarding XP from above."""
    return SetSystem.from_masks(site.n, _up(site.p, site.q))


def neighbors_down(site: FlipSite) -> SetSystem:
    """{Q-q} and {(Q-q)+p}: the witnesses guarding XQ from below."""
    return SetSystem.from_masks(site.n, _down(site.p, site.q))


def apply_flip(
    w: SetSystem,
    site: FlipSite,
    direction: str = RAISE,
    mode: str = MODE_SHARP,
) -> SetSystem:
    """Swap XP for XQ (or back) inside a weakly r-separated collection.

    Requires the leaving member present, the entering member absent,
    and the witnesses of the chosen mode present.  The result is
    re-checked from scratch.
    """
    if site.n != w.n:
        raise ValueError("site and collection live on different ground sets")
    if direction not in (RAISE, LOWER):
        raise ValueError(f"unknown direction {direction!r}")
    if mode not in (MODE_FULL, MODE_SHARP):
        raise ValueError(f"unknown witness mode {mode!r}")
    r = site.r
    if direction == RAISE:
        leaving, entering = site.xp, site.xq
        sharp_pool = neighbors_down(site)
    else:
        leaving, entering = site.xq, site.xp
        sharp_pool = neighbors_up(site)
    pool = neighbors(site) if mode == MODE_FULL else sharp_pool
    if leaving not in w:
        raise ValueError(f"{set_notation(leaving)} is not in the collection")
    if entering in w:
        raise ValueError(f"{set_notation(entering)} is already in the collection")
    missing = [s for s in pool.members if (site.x | s) not in w]
    if missing:
        raise ValueError(
            "missing witnesses: "
            + ", ".join(set_notation(site.x | s) for s in missing)
        )
    ok, violation = check_pairwise(w, weak(r))
    if not ok:
        raise ValueError(
            f"input is not weakly {r}-separated: "
            f"{set_notation(violation[0])}, {set_notation(violation[1])}"
        )
    flipped = SetSystem.from_masks(
        w.n, [m for m in w.members if m != leaving] + [entering]
    )
    ok, violation = check_pairwise(flipped, weak(r))
    if not ok:
        detail = (
            f"flip at {site.label()} broke weak {r}-separation: "
            f"{set_notation(violation[0])}, {set_notation(violation[1])}"
        )
        if site.parity == PARITY_ODD:
            raise FalsificationError(detail)
        raise ValueError(detail + " (even parity needs comb-freeness)")
    return flipped


def _site_patterns(n: int, r: int, parity: str) -> Iterator[Pattern]:
    """The sites of one parity, pattern by pattern in canonical order.

    n and r are checked here, before the first site is drawn: r must
    have the parity, and P and Q need r + 2 <= n elements.
    """
    check_ground(n)
    if parity == PARITY_ODD and (r < 1 or r % 2 == 0):
        raise ValueError(f"odd positive r required, got {r}")
    if parity == PARITY_EVEN and (r < 2 or r % 2):
        raise ValueError(f"even r >= 2 required, got {r}")
    if r + 2 > n:
        raise ValueError(f"r = {r} leaves no flip site: it needs n >= {r + 2}, got n = {n}")
    return _patterns(n, r, start_with_q=parity == PARITY_ODD)


def _patterns(n: int, r: int, start_with_q: bool) -> Iterator[Pattern]:
    for union in combinations(range(1, n + 1), r + 2):
        p = q = 0
        for idx, e in enumerate(union):
            bit = 1 << (e - 1)
            if (idx % 2 == 0) == start_with_q:
                q |= bit
            else:
                p |= bit
        rest = [1 << (e - 1) for e in range(1, n + 1) if not (p | q) >> (e - 1) & 1]
        xs = [sum(combo) for k in range(len(rest) + 1) for combo in combinations(rest, k)]
        yield p, q, xs


class HarnessReport:
    """Outcome of one exhaustive verification run; ok iff nothing is listed."""

    __slots__ = ("name", "n", "r", "sites", "checks", "counterexamples", "recorded", "shard",
                 "stats")

    def __init__(self, name: str, n: int, r: int, shard: str | None = None) -> None:
        self.name, self.n, self.r = name, n, r
        self.sites = 0
        self.checks = 0
        self.counterexamples: list[dict] = []
        self.recorded = 0  # even harness: unclassified cases with degree > r+2
        self.shard = shard
        # counters and seconds of the run; never part of to_json
        self.stats: dict = {}

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "name": self.name,
            "n": self.n,
            "r": self.r,
            "sites": self.sites,
            "checks": self.checks,
            "ok": self.ok,
            "counterexamples": self.counterexamples,
            "recorded": self.recorded,
            "shard": self.shard,
        }


def _bad_rows(n: int, r: int) -> list[int]:
    """Row v: the sets Y != v with {Y, v} not weakly r-separated."""
    return complement_table(n, weak(r))


def _near_rows(n: int, r: int) -> tuple[int, ...]:
    """Row v: the sets Y != v of interlacing degree at most r + 2 with v."""
    return relation_table(n, strong(r + 1))


def _table(report: HarnessReport, rows, n: int, r: int):
    """rows(n, r), with its build time added to the run's table seconds."""
    start = perf_counter()
    table = rows(n, r)
    report.stats["table_s"] += perf_counter() - start
    return table


def _harness(
    name: str,
    n: int,
    r: int,
    shard: tuple[int, int] | None,
    parity: str,
) -> tuple[HarnessReport, Iterator[Pattern], list[int]]:
    """The report, the site patterns of the shard and the bad rows of one run.

    The ground size is checked before any site or table, then r, then
    the shard: (k, m) with 0 <= k < m keeps sites k, k + m, ... of the
    canonical order.  The table and the loop over the patterns are timed
    into report.stats, the patterns counted.
    """
    check_limit(n)
    patterns = _site_patterns(n, r, parity)
    report = HarnessReport(name=name, n=n, r=r)
    if shard is not None:
        k, m = shard
        if m < 1:
            raise ValueError(f"shard count m must be at least 1, got {k}/{m}")
        if not 0 <= k < m:
            raise ValueError(f"shard index {k} outside 0..{m - 1}")
        report.shard = f"{k}/{m}"
        patterns = _shard(patterns, k, m)
    report.stats = {"patterns": 0, "judged": 0, "memo": 0, "table_s": 0.0}
    return report, _timed(report, patterns), _table(report, _bad_rows, n, r)


def _shard(patterns: Iterator[Pattern], k: int, m: int) -> Iterator[Pattern]:
    first = 0  # canonical index of the pattern's first site
    for p, q, xs in patterns:
        kept = xs[(k - first) % m :: m]
        first += len(xs)
        if kept:
            yield p, q, kept


def _timed(report: HarnessReport, patterns: Iterator[Pattern]) -> Iterator[Pattern]:
    start = perf_counter()
    for pattern in patterns:
        report.stats["patterns"] += 1
        yield pattern
    report.stats["sites_s"] = perf_counter() - start


def _unwitnessed(bad: list[int], x: int, lead: int, cover: int, pool: set[int]) -> int:
    """The Y outside cover with {Y, lead} bad and every {Y, XS} good, S in pool."""
    for s in pool:
        cover |= bad[x | s]
    return bad[lead] & ~cover


def _counterexample(n: int, x: int, p: int, q: int, y: int, **fields) -> dict:
    return {"site": FlipSite(n, x, p, q).to_json(), "y": elements(y), **fields}


def verify_flip_theorem_odd(
    n: int, r: int, shard: tuple[int, int] | None = None
) -> HarnessReport:
    """Every bad {Y, XP} has an N_up witness; every bad {Y, XQ} an N_down one.

    Y ranges over all subsets, intersections with X included; nothing
    is normalized away.
    """
    report, patterns, bad = _harness("flip_theorem_odd", n, r, shard, PARITY_ODD)
    for p, q, xs in patterns:
        up_pool, down_pool = _up(p, q), _down(p, q)
        report.sites += len(xs)
        report.checks += len(xs) * ((1 << n) - 2)
        for x in xs:
            xp, xq = x | p, x | q
            pair = 1 << xp | 1 << xq
            up = _unwitnessed(bad, x, xp, pair, up_pool)
            down = _unwitnessed(bad, x, xq, pair, down_pool)
            if not up | down:
                continue
            for e in elements(up | down):
                y = e - 1  # bit y of a row stands for the set y
                for clause, failed in (("up", up), ("down", down)):
                    if failed >> y & 1:
                        report.counterexamples.append(
                            _counterexample(n, x, p, q, y, clause=clause)
                        )
    return report


def _singleton_bricks(a: int, b: int) -> tuple[set[int], set[int]]:
    """Elements forming one-element intervals of the cortege, per side."""
    first: set[int] = set()
    second: set[int] = set()
    for interval in interval_cortege(a, b).intervals:
        if interval.lo == interval.hi:
            (first if interval.side == SIDE_A else second).add(interval.lo)
    return first, second


def verify_refined_lemma(n: int, r: int) -> HarnessReport:
    """Bad {Y, XP} with all N_up witnesses good forces singleton bricks:
    every element of P on the XP side, or every element of Q on the Y side."""
    report, patterns, bad = _harness("refined_lemma", n, r, None, PARITY_ODD)
    for p, q, xs in patterns:
        up_pool = _up(p, q)
        p_elems, q_elems = elements(p), elements(q)
        report.sites += len(xs)
        for x in xs:
            xp = x | p
            triggered = _unwitnessed(bad, x, xp, 1 << xp | 1 << (x | q), up_pool)
            report.checks += triggered.bit_count()
            report.stats["judged"] += triggered.bit_count()
            for e in elements(triggered):
                y = e - 1
                y_single, xp_single = _singleton_bricks(y, xp)
                star = all(e in xp_single for e in p_elems)
                starstar = all(e in y_single for e in q_elems)
                if not (star or starstar):
                    report.counterexamples.append(_counterexample(n, x, p, q, y))
    return report


def _bracket_index(p: int, value: int) -> int:
    """Largest i with p_i < value (p_{r'+1} plays the role of n+1)."""
    return (p & ((1 << (value - 1)) - 1)).bit_count()


def verify_local_neighb_even(
    n: int, r: int, shard: tuple[int, int] | None = None
) -> HarnessReport:
    """Even-parity classification of the exceptional Y, both clauses.

    Clause 1: all N_up witnesses good, {Y, XP} bad, and (r+2)-interlaced
    forces Y = XQ + {a} with a outside XPQ and a > p_1; clause 2 dually
    forces Y = XP - {b} with b in X, b > p_1.  On each triggered case
    the unique double-comb partner of Remark-type is verified in the
    matching neighbor pool.  Constructed instances of both shapes are
    confirmed to trigger.  Cases of interlacing degree above r+2 are
    counted but not judged.

    A bad pair has degree at least r + 2, so one row of the strong
    (r+1)-table, the sets of degree at most r + 2 with the lead set,
    splits the unwitnessed Y of a clause: inside it they are judged,
    outside it recorded.  The Y of the two shapes are the constructed
    instances, walked once per site; every other judged Y has the wrong
    shape.  The partner list of Y = XQ + {a} depends on (P, Q, a) only,
    that of Y = XP - {b} on (P, Q, b) only (see the module docstring),
    so each is worked out once per pattern and key.
    """
    report, patterns, bad = _harness("local_neighb_even", n, r, shard, PARITY_EVEN)
    near = _table(report, _near_rows, n, r)
    stats = report.stats
    for p, q, xs in patterns:
        up_pool, down_pool = _up(p, q), _down(p, q)
        rp = p.bit_count()
        p1 = (p & -p).bit_length()
        above = (1 << n) - (1 << p1)  # the elements past p_1
        q_bits = [1 << (e - 1) for e in elements(q)]
        # per clause: judge pool, the partner expected for a key, the
        # shape, uniqueness and converse labels, and the memo of this
        # pattern: key -> partners, or None if they are exactly [expected]
        clauses = (
            (_pool(p, q, rp, rp + 1),
             lambda a: p | q_bits[_bracket_index(p, a) - 1],
             "XQ+a", "uniqueness-upper", "converse-up", {}),
            (_pool(p, q, rp - 1, rp),
             lambda b: q & ~q_bits[_bracket_index(p, b) - 1],
             "XP-b", "uniqueness-lower", "converse-down", {}),
        )
        report.sites += len(xs)
        report.checks += len(xs) * ((1 << n) - 2)
        for x in xs:
            xp, xq = x | p, x | q
            pair = 1 << xp | 1 << xq
            up = _unwitnessed(bad, x, xp, pair, up_pool)
            down = _unwitnessed(bad, x, xq, pair, down_pool)
            found = []  # (y, clause index, counterexample), sorted below
            converse = []
            # per clause, the constructed Y with their keys: XQ + {a}, XP - {b}
            for index, failed, lead, shaped in (
                (0, up, xp, [(a, xq | 1 << (a - 1)) for a in elements(above & ~(xp | q))]),
                (1, down, xq, [(b, xp ^ 1 << (b - 1)) for b in elements(above & x)]),
            ):
                pool, expected, shape, unique, missed, memo = clauses[index]
                judged = failed & near[lead]
                report.recorded += (failed ^ judged).bit_count()
                stats["judged"] += judged.bit_count()
                report.checks += len(shaped)
                for key, y in shaped:
                    if not failed >> y & 1:
                        converse.append(_counterexample(n, x, p, q, y, clause=missed))
                        continue
                    if not judged >> y & 1:
                        continue  # recorded
                    judged ^= 1 << y
                    if key not in memo:
                        stats["memo"] += 1
                        combs = [s for s in pool if is_double_r_comb(y, x | s, r)]
                        memo[key] = None if combs == [expected(key)] else combs
                    if memo[key] is not None:
                        combs_json = [elements(s) for s in memo[key]]
                        found.append((y, index, {"clause": unique, "combs": combs_json}))
                for e in elements(judged):
                    found.append((e - 1, index, {"clause": shape}))
            for y, _, found_y in sorted(found, key=lambda t: t[:2]):
                report.counterexamples.append(_counterexample(n, x, p, q, y, **found_y))
            report.counterexamples += converse
    return report
