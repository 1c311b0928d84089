"""Independent reference implementations used only by the test suite.

Everything here works on plain Python sets of 1-indexed integers and
follows the raw textual definitions as literally as possible, with no
cortege machinery, so that production code and oracle share no code
path.  Slow is fine; these run at desk scale only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Exact LP-free feasibility: exists c with c.v > 0 on one side,
    c.v < 0 on the other.  Fourier-Motzkin elimination over the entries'
    own exact type (ints or Fractions): the eliminations multiply and
    add, never divide, so integer input stays integer."""
    rows = [tuple(v) for v in vectors_in]
    rows += [tuple(-x for x in v) for v in vectors_out]
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
# (site, Y) pair by direct predicate calls, through `bad(a, b, r)`, and
# pick a shard's sites by their index modulo m rather than by slicing.


def bad_pair(a: int, b: int, r: int) -> bool:
    """The pair is bad when it is not weakly r-separated."""
    from zonosep.separation import is_weakly_r_separated

    return not is_weakly_r_separated(a, b, r)


def _report(name: str, n: int, r: int, shard):
    from zonosep.flips import HarnessReport

    return HarnessReport(
        name=name, n=n, r=r, shard=None if shard is None else f"{shard[0]}/{shard[1]}"
    )


def _in_shard(idx: int, shard) -> bool:
    """Site idx of the canonical order belongs to shard (k, m) iff idx = k mod m."""
    return shard is None or idx % shard[1] == shard[0]


def reference_flip_theorem_odd(n: int, r: int, shard=None, bad=bad_pair):
    from zonosep.flips import neighbors_down, neighbors_up, odd_sites
    from zonosep.ground import elements

    report = _report("flip_theorem_odd", n, r, shard)
    for idx, site in enumerate(odd_sites(n, r)):
        if not _in_shard(idx, shard):
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
    from zonosep.flips import _singleton_bricks, neighbors_up, odd_sites
    from zonosep.ground import elements

    report = _report("refined_lemma", n, r, shard)
    for idx, site in enumerate(odd_sites(n, r)):
        if not _in_shard(idx, shard):
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
        _pool,
        even_sites,
        neighbors_down,
        neighbors_up,
    )
    from zonosep.ground import elements, interlacing_degree
    from zonosep.separation import is_double_r_comb

    report = _report("local_neighb_even", n, r, shard)
    for idx, site in enumerate(even_sites(n, r)):
        if not _in_shard(idx, shard):
            continue
        report.sites += 1
        rp = site.p.bit_count()
        up = [site.x | s for s in neighbors_up(site).members]
        down = [site.x | s for s in neighbors_down(site).members]
        upper_pool = _pool(site.p, site.q, rp, rp + 1)
        lower_pool = _pool(site.p, site.q, rp - 1, rp)
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
                        i = sum(1 for e in elements(site.p) if e < extra.bit_length())
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
                        i = sum(1 for e in elements(site.p) if e < gone.bit_length())
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


def reference_scan_ideals(count, succs, visit=None, enter=None, leave=None, cap=None):
    """The recursive order-ideal walk that `posets.scan_ideals` replaced.

    Rescans every position above the last one at each node; same
    callbacks, same order, same cap behaviour.  Recursion depth grows
    with the longest chain, so keep it to small posets.
    """
    from zonosep.posets import IdealCapExceeded, topological_order

    topo = topological_order(count, succs)
    position = {node: i for i, node in enumerate(topo)}
    preds = [0] * count
    for node in range(count):
        for succ in succs[node]:
            preds[position[succ]] |= 1 << position[node]

    current = []
    visited = 0

    def emit():
        nonlocal visited
        visited += 1
        if cap is not None and visited > cap:
            raise IdealCapExceeded(cap)
        if visit is not None:
            visit(tuple(current))

    def walk(last, included):
        for pos in range(last + 1, count):
            if included >> pos & 1:
                continue
            if preds[pos] & ~included:
                continue
            node = topo[pos]
            if enter is not None:
                enter(node)
            current.append(node)
            emit()
            walk(pos, included | 1 << pos)
            current.pop()
            if leave is not None:
                leave(node)

    emit()
    walk(-1, 0)
    return visited


def reference_count_ideals(count, succs) -> tuple[int, int]:
    """The ideal count that `posets.Poset.count_ideals` replaced: (count, memo states).

    Splits a connected remaining set on its middle node in topological
    order, I(P) = I(P - up(x)) + I(P - down(x)), multiplies over
    components and memoises on the remaining bitset, with no budget.
    The states count the memo entries, the empty set included.
    """
    from zonosep.posets import topological_order

    topo = topological_order(count, succs)
    position = {node: i for i, node in enumerate(topo)}
    preds = [0] * count
    for node in range(count):
        for succ in succs[node]:
            preds[position[succ]] |= 1 << position[node]
    down = [1 << pos for pos in range(count)]
    up = [1 << pos for pos in range(count)]
    for pos in range(count):
        for below in range(pos):
            if preds[pos] >> below & 1:
                down[pos] |= down[below]
    for pos in range(count - 1, -1, -1):
        for below in range(pos):
            if preds[pos] >> below & 1:
                up[below] |= up[pos]

    memo = {0: 1}
    plans = {}
    stack = [(1 << count) - 1]
    while stack:
        rest = stack[-1]
        if rest in memo:
            stack.pop()
            continue
        if rest not in plans:
            order = []
            todo = rest
            while todo:
                order.append((todo & -todo).bit_length() - 1)
                todo &= todo - 1
            parts = []
            for pos in order:
                if not preds[pos] & rest:
                    part = up[pos] & rest
                    for other in [other for other in parts if other & part]:
                        parts.remove(other)
                        part |= other
                    parts.append(part)
            if len(parts) > 1:
                plans[rest] = (None, parts)
            else:
                x = order[len(order) // 2]
                plans[rest] = (x, [rest & ~up[x], rest & ~down[x]])
            stack.extend(part for part in plans[rest][1] if part not in memo)
            continue
        x, parts = plans.pop(rest)
        if x is None:
            total = 1
            for part in parts:
                total *= memo[part]
            memo[rest] = total
        else:
            memo[rest] = memo[parts[0]] + memo[parts[1]]
        stack.pop()
    return memo[(1 << count) - 1], len(memo)


# ---------------------------------------------------------------------------
# Membrane walkers: every membrane built by replaying one raising flip per
# lattice edge, with every flip's preconditions asserted.  They are the
# reference that the decided counts and sizes (`membranes.membrane_census`,
# `membranes.s_membrane_census`) and the single-membrane tests compare against.


def w_membranes(q, cap=None, visit=None):
    """All w-membranes, one per ideal of the fragment precedence.

    With `visit`, each membrane goes to it instead of into the list.
    """
    from zonosep.membranes import FLAVOR_W

    return _collect_membranes(q, FLAVOR_W, cap, visit)


def e_membranes(q, cap=None, visit=None):
    """All e-membranes, one per ideal of the enlarged precedence."""
    from zonosep.membranes import FLAVOR_E

    return _collect_membranes(q, FLAVOR_E, cap, visit)


def _collect_membranes(q, flavor, cap, visit=None):
    from zonosep.membranes import Membrane, base_membrane, fragment_precedence
    from zonosep.posets import scan_ideals

    deltas, succs = fragment_precedence(q, flavor)
    tiles = set(base_membrane(q, flavor=flavor).tiles)
    fronts = [delta.eps_front() for delta in deltas]
    rears = [delta.eps_rear() for delta in deltas]
    stack = []
    out = []
    if visit is None:
        visit = out.append

    def enter(i):
        if fronts[i] - tiles or rears[i] & tiles:
            raise AssertionError(f"illegal raising flip at {deltas[i].label()}")
        tiles.difference_update(fronts[i])
        tiles.update(rears[i])
        stack.append(deltas[i])

    def leave(i):
        tiles.difference_update(rears[i])
        tiles.update(fronts[i])
        stack.pop()

    def snapshot(_ideal):
        visit(Membrane(n=q.n, d=q.d, flavor=flavor, ideal=tuple(stack), tiles=frozenset(tiles)))

    scan_ideals(len(deltas), succs, visit=snapshot, enter=enter, leave=leave, cap=cap)
    return out


def pairwise_fragment_precedence(deltas):
    """Arcs i -> j, i != j, where the rear side of fragment i meets the
    front side of fragment j, tested pair by pair."""
    fronts = [delta.eps_front() for delta in deltas]
    rears = [delta.eps_rear() for delta in deltas]
    return [
        [j for j, front in enumerate(fronts) if j != i and rear & front]
        for i, rear in enumerate(rears)
    ]


@dataclass(frozen=True)
class SMembrane:
    """A cube-level membrane: an ideal of the cube precedence of one cubillage,
    realized as the facet set swept from the front boundary."""

    n: int
    d: int
    ideal: tuple
    facets: frozenset

    def vertex_set(self):
        from zonosep.ground import submasks
        from zonosep.systems import SetSystem

        verts = set()
        for root, typemask in self.facets:
            for sub in submasks(typemask):
                verts.add(root | sub)
        return SetSystem.from_masks(self.n, verts)


def s_membranes(q, cap=None):
    """All cube-level membranes of a cubillage, one per precedence ideal.

    Starts from the front boundary facets of Z(n, d); including a cube
    removes its front facets and adds its rear facets, with both
    replacements asserted to be legal at that point.
    """
    from zonosep.cubillage import front_facets, precedence_digraph, rear_facets
    from zonosep.geometry import zonotope_sides
    from zonosep.posets import scan_ideals

    succs = precedence_digraph(q.cubes)
    state = set(zonotope_sides(q.n, q.d).front_facets)
    fronts = [{(f.root, f.type) for f in front_facets(cube)} for cube in q.cubes]
    rears = [{(f.root, f.type) for f in rear_facets(cube)} for cube in q.cubes]
    snapshots = []

    def enter(idx):
        label = q.cubes[idx].label()
        if not fronts[idx] <= state:
            raise AssertionError(f"cube {label} raised before its front facets")
        if rears[idx] & state:
            raise AssertionError(f"cube {label} rear facets already present")
        state.difference_update(fronts[idx])
        state.update(rears[idx])

    def leave(idx):
        state.difference_update(rears[idx])
        state.update(fronts[idx])

    def visit(ideal_indices):
        snapshots.append(
            SMembrane(
                n=q.n,
                d=q.d,
                ideal=tuple(q.cubes[i] for i in ideal_indices),
                facets=frozenset(state),
            )
        )

    scan_ideals(len(q.cubes), succs, visit=visit, enter=enter, leave=leave, cap=cap)
    return snapshots


@dataclass
class ReferenceScan:
    """What the walking scan saw: every membrane, and every violating pair.

    Pairs are (u, v) vertex masks with u < v, collected from every
    membrane whose counters were nonzero.
    """

    membrane_count: int = 0
    capped: bool = False
    sizes_seen: set = field(default_factory=set)
    bad_pairs: set = field(default_factory=set)
    comb_pairs: set = field(default_factory=set)
    comb_free: bool | None = None


def reference_scan_membranes(
    q, flavor="W", r=None, cap=None, check_combs=False, incompat=None
):
    """The per-tile refcount walk that `membranes.scan_membranes` replaced.

    Visits every membrane: each flip drops the front tiles and adds the
    rear tiles one vertex at a time, driven by `reference_scan_ideals`.
    `incompat` overrides the rows of the pairs counted as violations
    (default: not weakly r-separated).
    """
    from zonosep.membranes import Tile, _comb_rows, base_membrane, fragment_precedence
    from zonosep.posets import IdealCapExceeded
    from zonosep.systems import complement_table, weak

    deltas, succs = fragment_precedence(q, flavor)
    if r is None:
        r = q.d - 2
    report = ReferenceScan()
    if incompat is None:
        incompat = complement_table(q.n, weak(r))
    combs = _comb_rows(q.n, r) if check_combs else None
    eps_front_of = [sorted(d_.eps_front(), key=Tile.sorted_verts) for d_ in deltas]
    eps_rear_of = [sorted(d_.eps_rear(), key=Tile.sorted_verts) for d_ in deltas]
    refcount = {}
    state = {"active": 0, "bad": 0, "comb": 0}

    def activate(v):
        state["bad"] += (state["active"] & incompat[v]).bit_count()
        if combs is not None:
            state["comb"] += (state["active"] & combs[v]).bit_count()
        state["active"] |= 1 << v

    def deactivate(v):
        state["active"] &= ~(1 << v)
        state["bad"] -= (state["active"] & incompat[v]).bit_count()
        if combs is not None:
            state["comb"] -= (state["active"] & combs[v]).bit_count()

    def add_tile(tile):
        for v in tile.verts:
            count = refcount.get(v, 0)
            if count == 0:
                activate(v)
            refcount[v] = count + 1

    def drop_tile(tile):
        for v in tile.verts:
            count = refcount[v] - 1
            refcount[v] = count
            if count == 0:
                deactivate(v)

    for tile in base_membrane(q, flavor=flavor).tiles:
        add_tile(tile)

    def enter(i):
        for tile in eps_front_of[i]:
            drop_tile(tile)
        for tile in eps_rear_of[i]:
            add_tile(tile)

    def leave(i):
        for tile in eps_rear_of[i]:
            drop_tile(tile)
        for tile in eps_front_of[i]:
            add_tile(tile)

    def pairs(rows, into):
        above = state["active"]
        while above:
            u = (above & -above).bit_length() - 1
            above &= above - 1
            row = rows[u] & above
            while row:
                into.add((u, (row & -row).bit_length() - 1))
                row &= row - 1

    def visit(ideal):
        report.membrane_count += 1
        report.sizes_seen.add(state["active"].bit_count())
        if state["bad"]:
            pairs(incompat, report.bad_pairs)
        if combs is not None and state["comb"]:
            pairs(combs, report.comb_pairs)

    try:
        reference_scan_ideals(len(deltas), succs, visit=visit, enter=enter, leave=leave, cap=cap)
    except IdealCapExceeded:
        report.capped = True
    if combs is not None:
        report.comb_free = not report.comb_pairs
    return report


def reference_relation_table(n: int, predicate) -> tuple[int, ...]:
    """The earlier table builder: one predicate.holds(u, v) call per pair
    u < v of subsets of [n], each filling both rows (4^n / 2 calls)."""
    size = 1 << n
    table = [0] * size
    for u in range(size):
        for v in range(u + 1, size):
            if predicate.holds(u, v):
                table[u] |= 1 << v
                table[v] |= 1 << u
    return tuple(table)


def reference_max_size(n: int, predicate) -> tuple[int, list[int]]:
    """The earlier maximum search: plain branch and bound, greedy colouring.

    Builds its own adjacency with reference_relation_table (no universal-
    vertex reduction, no symmetry pruning).  Vertices are ordered by
    degree (descending, then cardinality and bit value) and pruned with
    a greedy colouring bound.  Returns the size and the witness masks in
    search order.
    """
    size = 1 << n
    adj = reference_relation_table(n, predicate)
    order = sorted(range(size), key=lambda v: (-adj[v].bit_count(), v.bit_count(), v))
    pos = {v: i for i, v in enumerate(order)}
    # relabel so vertex i is the i-th in search order
    radj = [0] * size
    for v in range(size):
        for u in range(size):
            if adj[v] >> u & 1:
                radj[pos[v]] |= 1 << pos[u]

    best_clique = 0
    best_size = 0

    def color_bound(cand: int) -> list[tuple[int, int]]:
        # greedy coloring; returns (vertex, color_count_so_far) in paint order
        painted: list[tuple[int, int]] = []
        color = 0
        while cand:
            color += 1
            avail = cand
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                painted.append((v, color))
                cand ^= low
                avail &= ~radj[v] & ~low
        return painted

    def expand(clique: int, csize: int, cand: int) -> None:
        nonlocal best_clique, best_size
        painted = color_bound(cand)
        for v, color in reversed(painted):
            if csize + color <= best_size:
                return
            bit = 1 << v
            expand(clique | bit, csize + 1, cand & radj[v])
            cand &= ~bit
        if not cand and csize > best_size:
            best_size = csize
            best_clique = clique

    # seed with the greedy clique along the search order for a warm bound
    cand = (1 << size) - 1
    while cand:
        v = (cand & -cand).bit_length() - 1
        best_clique |= 1 << v
        best_size += 1
        cand &= radj[v]

    expand(0, 0, (1 << size) - 1)
    return best_size, [order[i] for i in range(size) if best_clique >> i & 1]


def brute_force_max_clique(rows) -> int:
    """Maximum clique size of an adjacency-bitset table (tiny graphs only).

    Plain enumeration of cliques, no colouring and no symmetry; a branch
    stops only once |clique| + |candidates| cannot beat the best so far.
    """
    best = 0

    def grow(cand: int, k: int) -> None:
        nonlocal best
        best = max(best, k)
        while cand and k + cand.bit_count() > best:
            v = cand.bit_length() - 1
            cand ^= 1 << v
            grow(cand & rows[v], k + 1)

    grow((1 << len(rows)) - 1, 0)
    return best
