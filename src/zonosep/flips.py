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
counts every (site, Y) pair judged, 2^n - 2 per site.  The table is
capped at n = RELATION_TABLE_CAP, checked before any site is visited.

apply_flip performs the XP <-> XQ swap on an actual collection after
verifying membership and witnesses, then re-checks the weak separation
of the result rather than trusting it: for an odd site a failed
re-check would falsify the flip theorem and raises accordingly.  For
an even site the re-check can fail legitimately (the theory needs
comb-freeness on top of the witnesses), so that case raises a plain
error instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .ground import (
    SIDE_A,
    check_ground,
    check_mask,
    elements,
    interval_cortege,
    interlacing_degree,
    iter_elements,
    set_notation,
)
from .separation import is_double_r_comb
from .systems import (
    SCHEMA,
    SetSystem,
    check_pairwise,
    check_table_ground,
    complement_table,
    weak,
)

PARITY_ODD = "odd"
PARITY_EVEN = "even"
RAISE = "raise"
LOWER = "lower"
MODE_FULL = "full"
MODE_SHARP = "sharp"


class FalsificationError(RuntimeError):
    """A re-checked conclusion of a proved statement failed to hold."""


@dataclass(frozen=True)
class FlipSite:
    """Disjoint X, P, Q over [n] with the interleaving of one parity.

    Odd parity: |Q| = |P| + 1 and the merged sequence alternates
    starting and ending with Q elements.  Even parity: |P| = |Q| >= 2
    and the merged sequence alternates starting with a P element.
    """

    n: int
    x: int
    p: int
    q: int

    def __post_init__(self) -> None:
        check_ground(self.n)
        check_mask(self.x | self.p | self.q, self.n)
        if self.x & (self.p | self.q) or self.p & self.q:
            raise ValueError("X, P, Q must be pairwise disjoint")
        sizes = (self.p.bit_count(), self.q.bit_count())
        if sizes[1] == sizes[0] + 1:
            start = self.q  # odd: q_0 first, q_{r'} last
        elif sizes[0] == sizes[1] and sizes[0] >= 2:
            start = self.p  # even: p_1 first, q_{r'} last
        else:
            raise ValueError(f"|P|={sizes[0]}, |Q|={sizes[1]} fit neither parity")
        side = start
        for e in elements(self.p | self.q):
            if not side >> (e - 1) & 1:
                raise ValueError(
                    f"P={set_notation(self.p)} and Q={set_notation(self.q)} "
                    "do not interleave"
                )
            side = (self.p | self.q) ^ side  # alternate expected side

    @property
    def parity(self) -> str:
        return PARITY_ODD if self.q.bit_count() > self.p.bit_count() else PARITY_EVEN

    @property
    def r_prime(self) -> int:
        return self.p.bit_count()

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
    pool = _pool(site, rp, rp + 1)
    return SetSystem.from_masks(site.n, pool)


def _pool(site: FlipSite, lo: int, hi: int) -> list[int]:
    union = elements(site.p | site.q)
    out = []
    for size in range(lo, hi + 1):
        for combo in combinations(union, size):
            mask = 0
            for e in combo:
                mask |= 1 << (e - 1)
            if mask not in (site.p, site.q):
                out.append(mask)
    return out


def _up(site: FlipSite) -> set[int]:
    out = set()
    for qe in elements(site.q):
        out.add(site.p | 1 << (qe - 1))
        for pe in elements(site.p):
            out.add((site.p & ~(1 << (pe - 1))) | 1 << (qe - 1))
    return out


def _down(site: FlipSite) -> set[int]:
    out = set()
    for qe in elements(site.q):
        rest = site.q & ~(1 << (qe - 1))
        out.add(rest)
        for pe in elements(site.p):
            out.add(rest | 1 << (pe - 1))
    return out


def neighbors_up(site: FlipSite) -> SetSystem:
    """{P+q} and {(P-p)+q}: the witnesses guarding XP from above."""
    return SetSystem.from_masks(site.n, _up(site))


def neighbors_down(site: FlipSite) -> SetSystem:
    """{Q-q} and {(Q-q)+p}: the witnesses guarding XQ from below."""
    return SetSystem.from_masks(site.n, _down(site))


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


def odd_sites(n: int, r: int):
    """All odd-parity sites over [n] in canonical order."""
    check_ground(n)
    if r < 1 or r % 2 == 0:
        raise ValueError(f"odd positive r required, got {r}")
    return _sites(n, r, start_with_q=True)


def even_sites(n: int, r: int):
    """All even-parity sites over [n] in canonical order."""
    check_ground(n)
    if r < 2 or r % 2:
        raise ValueError(f"even r >= 2 required, got {r}")
    return _sites(n, r, start_with_q=False)


def _sites(n: int, r: int, start_with_q: bool):
    for union in combinations(range(1, n + 1), r + 2):
        p = q = 0
        for idx, e in enumerate(union):
            bit = 1 << (e - 1)
            if (idx % 2 == 0) == start_with_q:
                q |= bit
            else:
                p |= bit
        union_mask = p | q
        rest = [e for e in range(1, n + 1) if not union_mask >> (e - 1) & 1]
        for k in range(len(rest) + 1):
            for combo in combinations(rest, k):
                x = 0
                for e in combo:
                    x |= 1 << (e - 1)
                yield FlipSite(n, x, p, q)


@dataclass
class HarnessReport:
    """Outcome of one exhaustive verification run; ok iff nothing is listed."""

    name: str
    n: int
    r: int
    sites: int = 0
    checks: int = 0
    counterexamples: list[dict] = field(default_factory=list)
    recorded: int = 0  # even harness: unclassified cases with degree > r+2
    shard: str | None = None

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


def _shard_filter(shard: tuple[int, int] | None):
    if shard is None:
        return lambda idx: True
    k, m = shard
    if not 0 <= k < m:
        raise ValueError(f"shard index {k} outside 0..{m - 1}")
    return lambda idx: idx % m == k


def _bad_rows(n: int, r: int) -> list[int]:
    """Row v: the sets Y != v with {Y, v} not weakly r-separated."""
    return complement_table(n, weak(r))


def _cover(bad: list[int], x: int, pool: set[int]) -> int:
    """The sets Y with {Y, XS} bad for some S in the pool."""
    cover = 0
    for s in pool:
        cover |= bad[x | s]
    return cover


def verify_flip_theorem_odd(
    n: int, r: int, shard: tuple[int, int] | None = None
) -> HarnessReport:
    """Every bad {Y, XP} has an N_up witness; every bad {Y, XQ} an N_down one.

    Y ranges over all subsets, intersections with X included; nothing
    is normalized away.
    """
    check_table_ground(n)  # before any site or table
    sites = odd_sites(n, r)
    keep = _shard_filter(shard)
    report = HarnessReport(
        name="flip_theorem_odd",
        n=n,
        r=r,
        shard=None if shard is None else f"{shard[0]}/{shard[1]}",
    )
    bad = _bad_rows(n, r)
    for idx, site in enumerate(sites):
        if not keep(idx):
            continue
        report.sites += 1
        report.checks += (1 << n) - 2
        pair = 1 << site.xp | 1 << site.xq
        up = bad[site.xp] & ~_cover(bad, site.x, _up(site)) & ~pair
        down = bad[site.xq] & ~_cover(bad, site.x, _down(site)) & ~pair
        for e in iter_elements(up | down):
            y = e - 1  # bit y of a row stands for the set y
            for clause, failed in (("up", up), ("down", down)):
                if failed >> y & 1:
                    report.counterexamples.append(
                        {"site": site.to_json(), "y": elements(y), "clause": clause}
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


def verify_refined_lemma(
    n: int, r: int, shard: tuple[int, int] | None = None
) -> HarnessReport:
    """Bad {Y, XP} with all N_up witnesses good forces singleton bricks:
    every element of P on the XP side, or every element of Q on the Y side."""
    check_table_ground(n)  # before any site or table
    sites = odd_sites(n, r)
    keep = _shard_filter(shard)
    report = HarnessReport(
        name="refined_lemma",
        n=n,
        r=r,
        shard=None if shard is None else f"{shard[0]}/{shard[1]}",
    )
    bad = _bad_rows(n, r)
    for idx, site in enumerate(sites):
        if not keep(idx):
            continue
        report.sites += 1
        pair = 1 << site.xp | 1 << site.xq
        triggered = bad[site.xp] & ~_cover(bad, site.x, _up(site)) & ~pair
        report.checks += triggered.bit_count()
        for e in iter_elements(triggered):
            y = e - 1
            y_single, xp_single = _singleton_bricks(y, site.xp)
            star = all(e in xp_single for e in elements(site.p))
            starstar = all(e in y_single for e in elements(site.q))
            if not (star or starstar):
                report.counterexamples.append(
                    {"site": site.to_json(), "y": elements(y)}
                )
    return report


def _bracket_index(site: FlipSite, value: int) -> int:
    """Largest i with p_i < value (p_{r'+1} plays the role of n+1)."""
    return sum(1 for p in elements(site.p) if p < value)


def _even_up_case(site: FlipSite, y: int, r: int) -> dict | None:
    """Judge a Y with {Y, XP} bad, (r+2)-interlaced and every N_up witness good."""
    extra = y & ~site.xq
    shape_ok = (
        y | site.xq == y
        and extra.bit_count() == 1
        and not extra & (site.xp | site.q)
        and extra.bit_length() > elements(site.p)[0]
    )
    if not shape_ok:
        return {"site": site.to_json(), "y": elements(y), "clause": "XQ+a"}
    i = _bracket_index(site, extra.bit_length())
    expected = site.p | 1 << (elements(site.q)[i - 1] - 1)
    rp = site.p.bit_count()
    combs = [s for s in _pool(site, rp, rp + 1) if is_double_r_comb(y, site.x | s, r)]
    if combs == [expected]:
        return None
    return {
        "site": site.to_json(),
        "y": elements(y),
        "clause": "uniqueness-upper",
        "combs": [elements(s) for s in combs],
    }


def _even_down_case(site: FlipSite, y: int, r: int) -> dict | None:
    """Judge a Y with {Y, XQ} bad, (r+2)-interlaced and every N_down witness good."""
    gone = site.xp & ~y
    shape_ok = (
        y | site.xp == site.xp
        and gone.bit_count() == 1
        and gone & site.x == gone
        and gone.bit_length() > elements(site.p)[0]
    )
    if not shape_ok:
        return {"site": site.to_json(), "y": elements(y), "clause": "XP-b"}
    i = _bracket_index(site, gone.bit_length())
    expected = site.q & ~(1 << (elements(site.q)[i - 1] - 1))
    rp = site.p.bit_count()
    combs = [s for s in _pool(site, rp - 1, rp) if is_double_r_comb(y, site.x | s, r)]
    if combs == [expected]:
        return None
    return {
        "site": site.to_json(),
        "y": elements(y),
        "clause": "uniqueness-lower",
        "combs": [elements(s) for s in combs],
    }


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
    """
    check_table_ground(n)  # before any site or table
    sites = even_sites(n, r)
    keep = _shard_filter(shard)
    report = HarnessReport(
        name="local_neighb_even",
        n=n,
        r=r,
        shard=None if shard is None else f"{shard[0]}/{shard[1]}",
    )
    bad = _bad_rows(n, r)
    for idx, site in enumerate(sites):
        if not keep(idx):
            continue
        report.sites += 1
        report.checks += (1 << n) - 2
        pair = 1 << site.xp | 1 << site.xq
        cover_up = _cover(bad, site.x, _up(site))
        cover_down = _cover(bad, site.x, _down(site))
        up = bad[site.xp] & ~cover_up & ~pair
        down = bad[site.xq] & ~cover_down & ~pair
        for e in iter_elements(up | down):
            y = e - 1
            for failed, lead, judge in (
                (up, site.xp, _even_up_case),
                (down, site.xq, _even_down_case),
            ):
                if not failed >> y & 1:
                    continue
                if interlacing_degree(y, lead) != r + 2:
                    report.recorded += 1
                    continue
                found = judge(site, y, r)
                if found is not None:
                    report.counterexamples.append(found)
        # constructed instances must trigger the hypotheses
        p1 = elements(site.p)[0]
        xpq = site.x | site.p | site.q
        for a in range(p1 + 1, n + 1):
            bit = 1 << (a - 1)
            if bit & xpq:
                continue
            y = site.xq | bit
            report.checks += 1
            if not bad[site.xp] >> y & 1 or cover_up >> y & 1:
                report.counterexamples.append(
                    {"site": site.to_json(), "y": elements(y), "clause": "converse-up"}
                )
        for b in elements(site.x):
            if b <= p1:
                continue
            y = site.xp & ~(1 << (b - 1))
            report.checks += 1
            if not bad[site.xq] >> y & 1 or cover_down >> y & 1:
                report.counterexamples.append(
                    {"site": site.to_json(), "y": elements(y), "clause": "converse-down"}
                )
    return report
