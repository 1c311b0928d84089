"""Independent reference implementations used only by the test suite.

Everything here works on plain Python sets of 1-indexed integers and
follows the raw textual definitions as literally as possible, with no
cortege machinery, so that production code and oracle share no code
path.  Slow is fine; these run at desk scale only.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def alternation_degree(a: set[int], b: set[int]) -> int:
    """Longest alternating subsequence length in the merged difference sequence.

    Scans 1, 2, 3, ... keeping the longest alternating subsequence ending
    on each side; equals the interlacing degree of the pair.
    """
    d1 = a - b
    d2 = b - a
    best1 = best2 = 0  # longest alternating sequence ending in an A- / B-element
    for e in sorted(d1 | d2):
        if e in d1:
            best1 = max(best1, best2 + 1)
        else:
            best2 = max(best2, best1 + 1)
    return max(best1, best2)


def raw_strongly_separated(a: set[int], b: set[int], r: int) -> bool:
    """No alternating chain i_1 < ... < i_{r+2} hopping between A-B and B-A."""
    return alternation_degree(a, b) <= r + 1


def raw_surrounds(a: set[int], b: set[int], n: int) -> bool:
    d1, d2 = a - b, b - a
    mn1 = min(d1) if d1 else n + 1
    mn2 = min(d2) if d2 else n + 1
    mx1 = max(d1) if d1 else 0
    mx2 = max(d2) if d2 else 0
    return mn1 < mn2 and mx1 > mx2


def raw_right_surrounds(a: set[int], b: set[int]) -> bool:
    d1, d2 = a - b, b - a
    mx1 = max(d1) if d1 else 0
    mx2 = max(d2) if d2 else 0
    return mx1 > mx2


def raw_weakly_separated(a: set[int], b: set[int], r: int, n: int) -> bool:
    """Literal weak separation, dispatching on the parity of r."""
    deg = alternation_degree(a, b)
    if deg <= r + 1:
        return True
    if deg != r + 2:
        return False
    if r % 2:
        cond_a = raw_surrounds(a, b, n) and len(a) <= len(b)
        cond_b = raw_surrounds(b, a, n) and len(b) <= len(a)
    else:
        cond_a = raw_right_surrounds(a, b) and len(a) <= len(b)
        cond_b = raw_right_surrounds(b, a) and len(b) <= len(a)
    return cond_a or cond_b


def raw_double_comb(a: set[int], b: set[int], r: int) -> bool:
    return len(a ^ b) == r + 2 and alternation_degree(a, b) == r + 2


def subsets_of(n: int):
    """All subsets of [n] as Python sets, smallest ground elements first."""
    universe = list(range(1, n + 1))
    for k in range(n + 1):
        for combo in combinations(universe, k):
            yield set(combo)


def brute_force_max_system(n: int, compatible) -> int:
    """Maximum pairwise-compatible family size by plain recursion (tiny n only)."""
    all_sets = [frozenset(s) for s in subsets_of(n)]

    def grow(chosen: list[frozenset], rest: list[frozenset]) -> int:
        best = len(chosen)
        for i, cand in enumerate(rest):
            if all(compatible(set(cand), set(c)) for c in chosen):
                best = max(best, grow(chosen + [cand], rest[i + 1 :]))
        return best

    return grow([], all_sets)


def count_ideals_bfs(count: int, succs) -> int:
    """Number of order ideals of a digraph, by plain breadth-first closure.

    Deliberately different machinery from the production depth-first
    reverse search: grows ideals one coverable element at a time and
    dedupes through a seen-set of bitmasks.
    """
    preds = [0] * count
    for i, out in enumerate(succs):
        for j in out:
            preds[j] |= 1 << i
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for state in frontier:
            for e in range(count):
                if state >> e & 1:
                    continue
                if preds[e] & ~state:
                    continue
                grown = state | 1 << e
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return len(seen)


def standard_root(typeset: set[int], n: int, anti: bool = False) -> set[int]:
    """Root of the cube of a given type in the standard cubillage, in closed form.

    A generator i outside T joins the root exactly when the number of
    type elements above i is odd (even for the anti-standard cubillage).
    Derived by tracking the sign of the degree-d polynomial with roots
    at the type parameters, evaluated at the remaining parameters.
    """
    want = 0 if anti else 1
    return {
        i
        for i in range(1, n + 1)
        if i not in typeset and sum(1 for t in typeset if t > i) % 2 == want
    }


def linear_functional_separates(vectors_in, vectors_out) -> bool:
    """Exact rational LP-free feasibility: exists c with c.v > 0 on one side,
    c.v < 0 on the other.  Fourier-Motzkin elimination over Fractions."""
    rows = [tuple(Fraction(x) for x in v) for v in vectors_in]
    rows += [tuple(-Fraction(x) for x in v) for v in vectors_out]
    return _fm_strict_feasible(rows)


def _fm_strict_feasible(rows) -> bool:
    """Feasibility of the homogeneous strict system row . c > 0 for all rows."""
    if not rows:
        return True
    width = len(rows[0])
    if width == 0:
        return False  # a remaining constraint reads 0 > 0
    if any(all(x == 0 for x in row) for row in rows):
        return False
    if width == 1:
        signs = {row[0] > 0 for row in rows}
        return len(signs) == 1
    pos = [r for r in rows if r[-1] > 0]
    neg = [r for r in rows if r[-1] < 0]
    zero = [r[:-1] for r in rows if r[-1] == 0]
    combined = list(zero)
    for p in pos:
        for q in neg:
            # eliminate the last coordinate: (-q_last) * p + p_last * q
            coef_p, coef_q = -q[-1], p[-1]
            combined.append(
                tuple(coef_p * p[i] + coef_q * q[i] for i in range(width - 1))
            )
    seen = set()
    reduced = []
    for row in combined:
        if row not in seen:
            seen.add(row)
            reduced.append(row)
    return _fm_strict_feasible(reduced)


# ---------------------------------------------------------------------------
# Reference flip harnesses: the per-Y loops the production harnesses
# replaced with row algebra over relation tables.  They share the site
# enumeration and witness pools with zonosep.flips, but judge every
# (site, Y) pair by direct predicate calls, through `bad(a, b, r)`.


def bad_pair(a: int, b: int, r: int) -> bool:
    """The pair is bad when it is not weakly r-separated."""
    from zonosep.separation import is_weakly_r_separated

    return not is_weakly_r_separated(a, b, r)


def _report(name: str, n: int, r: int, shard):
    from zonosep.flips import HarnessReport

    return HarnessReport(
        name=name, n=n, r=r, shard=None if shard is None else f"{shard[0]}/{shard[1]}"
    )


def reference_flip_theorem_odd(n: int, r: int, shard=None, bad=bad_pair):
    from zonosep.flips import _shard_filter, neighbors_down, neighbors_up, odd_sites
    from zonosep.ground import elements

    report = _report("flip_theorem_odd", n, r, shard)
    keep = _shard_filter(shard)
    for idx, site in enumerate(odd_sites(n, r)):
        if not keep(idx):
            continue
        report.sites += 1
        up = [site.x | s for s in neighbors_up(site).members]
        down = [site.x | s for s in neighbors_down(site).members]
        for y in range(1 << n):
            if y in (site.xp, site.xq):
                continue
            report.checks += 1
            if bad(y, site.xp, r) and not any(bad(y, s, r) for s in up):
                report.counterexamples.append(
                    {"site": site.to_json(), "y": elements(y), "clause": "up"}
                )
            if bad(y, site.xq, r) and not any(bad(y, s, r) for s in down):
                report.counterexamples.append(
                    {"site": site.to_json(), "y": elements(y), "clause": "down"}
                )
    return report


def reference_refined_lemma(n: int, r: int, shard=None, bad=bad_pair):
    from zonosep.flips import _shard_filter, _singleton_bricks, neighbors_up, odd_sites
    from zonosep.ground import elements

    report = _report("refined_lemma", n, r, shard)
    keep = _shard_filter(shard)
    for idx, site in enumerate(odd_sites(n, r)):
        if not keep(idx):
            continue
        report.sites += 1
        up = [site.x | s for s in neighbors_up(site).members]
        for y in range(1 << n):
            if y in (site.xp, site.xq):
                continue
            if not bad(y, site.xp, r):
                continue
            if any(bad(y, s, r) for s in up):
                continue
            report.checks += 1
            y_single, xp_single = _singleton_bricks(y, site.xp)
            star = all(e in xp_single for e in elements(site.p))
            starstar = all(e in y_single for e in elements(site.q))
            if not (star or starstar):
                report.counterexamples.append({"site": site.to_json(), "y": elements(y)})
    return report


def reference_local_neighb_even(n: int, r: int, shard=None, bad=bad_pair):
    from zonosep.flips import (
        _bracket_index,
        _pool,
        _shard_filter,
        even_sites,
        neighbors_down,
        neighbors_up,
    )
    from zonosep.ground import elements, interlacing_degree
    from zonosep.separation import is_double_r_comb

    report = _report("local_neighb_even", n, r, shard)
    keep = _shard_filter(shard)
    for idx, site in enumerate(even_sites(n, r)):
        if not keep(idx):
            continue
        report.sites += 1
        rp = site.p.bit_count()
        up = [site.x | s for s in neighbors_up(site).members]
        down = [site.x | s for s in neighbors_down(site).members]
        upper_pool = _pool(site, rp, rp + 1)
        lower_pool = _pool(site, rp - 1, rp)
        q_elems = elements(site.q)
        p1 = elements(site.p)[0]
        xpq = site.x | site.p | site.q
        for y in range(1 << n):
            if y in (site.xp, site.xq):
                continue
            report.checks += 1
            if bad(y, site.xp, r) and not any(bad(y, s, r) for s in up):
                if interlacing_degree(y, site.xp) != r + 2:
                    report.recorded += 1
                else:
                    extra = y & ~site.xq
                    if not (
                        y | site.xq == y
                        and extra.bit_count() == 1
                        and not extra & xpq
                        and extra.bit_length() > p1
                    ):
                        report.counterexamples.append(
                            {"site": site.to_json(), "y": elements(y), "clause": "XQ+a"}
                        )
                    else:
                        i = _bracket_index(site, extra.bit_length())
                        expected = site.p | 1 << (q_elems[i - 1] - 1)
                        combs = [
                            s for s in upper_pool if is_double_r_comb(y, site.x | s, r)
                        ]
                        if combs != [expected]:
                            report.counterexamples.append(
                                {
                                    "site": site.to_json(),
                                    "y": elements(y),
                                    "clause": "uniqueness-upper",
                                    "combs": [elements(s) for s in combs],
                                }
                            )
            if bad(y, site.xq, r) and not any(bad(y, s, r) for s in down):
                if interlacing_degree(y, site.xq) != r + 2:
                    report.recorded += 1
                else:
                    gone = site.xp & ~y
                    if not (
                        y | site.xp == site.xp
                        and gone.bit_count() == 1
                        and gone & site.x == gone
                        and gone.bit_length() > p1
                    ):
                        report.counterexamples.append(
                            {"site": site.to_json(), "y": elements(y), "clause": "XP-b"}
                        )
                    else:
                        i = _bracket_index(site, gone.bit_length())
                        expected = site.q & ~(1 << (q_elems[i - 1] - 1))
                        combs = [
                            s for s in lower_pool if is_double_r_comb(y, site.x | s, r)
                        ]
                        if combs != [expected]:
                            report.counterexamples.append(
                                {
                                    "site": site.to_json(),
                                    "y": elements(y),
                                    "clause": "uniqueness-lower",
                                    "combs": [elements(s) for s in combs],
                                }
                            )
        for a in range(p1 + 1, n + 1):
            bit = 1 << (a - 1)
            if bit & xpq:
                continue
            y = site.xq | bit
            report.checks += 1
            if not bad(y, site.xp, r) or any(bad(y, s, r) for s in up):
                report.counterexamples.append(
                    {"site": site.to_json(), "y": elements(y), "clause": "converse-up"}
                )
        for b in elements(site.x):
            if b <= p1:
                continue
            y = site.xp & ~(1 << (b - 1))
            report.checks += 1
            if not bad(y, site.xq, r) or any(bad(y, s, r) for s in down):
                report.counterexamples.append(
                    {"site": site.to_json(), "y": elements(y), "clause": "converse-down"}
                )
    return report
