"""Independent reference implementations used only by the test suite.

Everything here works on plain Python sets of 1-indexed integers and
follows the raw textual definitions as literally as possible, with no
cortege machinery, so that production code and oracle share no code
path.  Slow is fine; these run at desk scale only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def set_system(n: int, sets):
    """The SetSystem on [n] of plain sets of 1-indexed elements."""
    from zonosep.systems import SetSystem

    return SetSystem.from_masks(n, (sum(1 << (e - 1) for e in s) for s in sets))


def full_mask(n: int) -> int:
    """Mask of the whole ground set [n]."""
    return (1 << n) - 1


def interval_count(mask: int) -> int:
    """Number of maximal runs: mask is an (interval_count)-interval."""
    # a run starts at each set bit whose lower neighbor is clear
    return (mask & ~(mask << 1)).bit_count()


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


def reference_cube_facets(cube) -> list[tuple[tuple[int, int], str]]:
    """The 2d facets ((root, type), side) of a cube by the F_i/G_i numbering.

    With T = {p_1 < ... < p_d}, F_i = (X | T - p_i) is a front facet when
    d - i is even and G_i = (X + p_i | T - p_i) when d - i is odd; the
    others are rear facets.  The numbering that the parity mask
    `zonosep.geometry.odd_above` replaced, kept as its reference.
    """
    order = [i for i in range(1, cube.type.bit_length() + 1) if cube.type >> (i - 1) & 1]
    d = len(order)
    out = []
    for i, p in enumerate(order, start=1):
        bit = 1 << (p - 1)
        out.append(((cube.root, cube.type & ~bit), "front" if (d - i) % 2 == 0 else "rear"))
        out.append(((cube.root | bit, cube.type & ~bit), "front" if (d - i) % 2 else "rear"))
    return out


def reference_apex_vertices(cube) -> tuple[int, int]:
    """(t_C, h_C) = (X + {p_i : d - i odd}, X + {p_i : d - i even})."""
    order = [i for i in range(1, cube.type.bit_length() + 1) if cube.type >> (i - 1) & 1]
    d = len(order)
    tail = head = cube.root
    for i, p in enumerate(order, start=1):
        if (d - i) % 2:
            tail |= 1 << (p - 1)
        else:
            head |= 1 << (p - 1)
    return tail, head


def reference_tiling_problems(q) -> list[str]:
    """Facet matching: the tiling check that the inversion-set check replaced.

    Every facet of a cube (by the F_i/G_i numbering) shared by two cubes
    must occur once as a front and once as a rear facet and lie inside
    the zonotope; every unshared one must be a boundary facet of Z(n, d)
    on its own side.  Together with one cube per type (checked here too)
    that is a tiling.
    """
    from math import comb

    from zonosep.geometry import zonotope_sides

    problems = []
    types = [cube.type for cube in q.cubes]
    if len(set(types)) != len(types) or len(types) != comb(q.n, q.d):
        problems.append("not one cube per type")
    incidence = {}
    for cube in q.cubes:
        for facet, side in reference_cube_facets(cube):
            incidence.setdefault(facet, []).append(side)
    sides = zonotope_sides(q.n, q.d)
    boundary = {f: "front" for f in sides.front_facets} | {f: "rear" for f in sides.rear_facets}
    for facet, side_list in sorted(incidence.items()):
        if len(side_list) == 2:
            if sorted(side_list) != ["front", "rear"]:
                problems.append(f"facet {facet} shared with equal sides")
            if facet in boundary:
                problems.append(f"boundary facet {facet} shared by two cubes")
        elif len(side_list) == 1:
            want = boundary.get(facet)
            if want is None:
                problems.append(f"internal facet {facet} unmatched")
            elif want != side_list[0]:
                problems.append(f"boundary facet {facet} on the {want} side used as {side_list[0]}")
        else:
            problems.append(f"facet {facet} shared by {len(side_list)} cubes")
    return problems


def _consistent_at(inverted: frozenset, whole: tuple[int, ...]) -> bool:
    """The members of U among the (d+1)-subsets of the (d+2)-set P = whole,
    listed in lexicographic order (P - max P first), are a prefix or a
    suffix of that list."""
    word = [whole[:i] + whole[i + 1 :] in inverted for i in reversed(range(len(whole)))]
    return word in (sorted(word), sorted(word, reverse=True))


def bruhat_order(n: int, d: int) -> list[int]:
    """Every element of the higher Bruhat order B(n, d), in increasing order.

    A depth-first search from U = {} over single-element additions that
    keep U consistent; only the (d+2)-sets holding the added set can
    break.  Each U is returned as an int whose bit i stands for the i-th
    (d+1)-subset of [n] in `combinations` order.
    """
    subsets = list(combinations(range(1, n + 1), d + 1))
    seen = {frozenset()}
    stack = [frozenset()]
    while stack:
        inverted = stack.pop()
        for new in subsets:
            grown = inverted | {new}
            if grown in seen:
                continue
            wholes = [tuple(sorted(new + (x,))) for x in range(1, n + 1) if x not in new]
            if all(_consistent_at(grown, whole) for whole in wholes):
                seen.add(grown)
                stack.append(grown)
    return sorted(sum(1 << i for i, sub in enumerate(subsets) if sub in u) for u in seen)


def inversion_chain_order(n: int, d: int, inverted: int) -> list[list[int]]:
    """Successor lists on the C(n, d) types in `combinations` order: for
    each (d+1)-set S, its d+1 types S - s in a chain, S - max S first and
    S - min S last when S is not in U, the other way round when it is."""
    types = list(combinations(range(1, n + 1), d))
    position = {t: i for i, t in enumerate(types)}
    succs = [set() for _ in types]
    for i, whole in enumerate(combinations(range(1, n + 1), d + 1)):
        chain = [position[whole[:j] + whole[j + 1 :]] for j in reversed(range(d + 1))]
        if inverted >> i & 1:
            chain.reverse()
        for a, b in zip(chain, chain[1:]):
            succs[a].add(b)
    return [sorted(s) for s in succs]


def transitive_closure(succs) -> list[int]:
    """Bitmask of the nodes reachable from each node by a nonempty path."""
    reach = [None] * len(succs)

    def visit(i):
        if reach[i] is None:
            reach[i] = 0
            for j in succs[i]:
                reach[i] |= 1 << j | visit(j)
        return reach[i]

    return [visit(i) for i in range(len(succs))]


def sign_changes(mask: int, n: int) -> int:
    """Sign changes of the +/- membership sequence of X along 1..n: X spans
    a vertex of Z(n, d) exactly when there are at most d - 1 of them."""
    return sum(1 for i in range(1, n) if (mask >> i & 1) != (mask >> (i - 1) & 1))


def cubillage_from_collection(collection, d: int):
    """Reconstruct a cubillage from the vertex set of one.

    Rule: (X | T) is a cube exactly when all 2^d sets X + A, A inside
    T, belong to the collection.  The result is validated; a collection
    that is not the vertex set of a cubillage raises.
    """
    from zonosep.cubillage import Cube, Cubillage, validate_cubillage

    n = collection.n
    have = collection.member_set()
    cubes = []
    for combo in combinations(range(1, n + 1), d):
        typemask = sum(1 << (e - 1) for e in combo)
        for root in have:
            if root & typemask:
                continue
            cube = Cube(root, typemask)
            if have.issuperset(cube.vertices()):
                cubes.append(cube)
    q = Cubillage.from_cubes(n, d, cubes)
    report = validate_cubillage(q)
    if not report.ok:
        raise ValueError(
            "collection is not the vertex set of a cubillage: "
            + "; ".join(report.problems)
        )
    return q


# ---------------------------------------------------------------------------
# Exact normals on the moment curve: the Fraction linear algebra that the
# parity rule `zonosep.geometry.side_roots` replaced, kept as its reference.


def veronese(n: int, d: int, ts=None) -> list[tuple[int, ...]]:
    """Columns xi_i = (1, t_i, ..., t_i^(d-1)) at strictly increasing
    integer parameters ts, by default 1..n."""
    ts = tuple(range(1, n + 1)) if ts is None else tuple(ts)
    if not 2 <= d <= n:
        raise ValueError(f"need 2 <= d <= n, got d={d}, n={n}")
    if len(ts) != n or any(a >= b for a, b in zip(ts, ts[1:])):
        raise ValueError("ts must be n strictly increasing integers")
    return [tuple(t**j for j in range(d)) for t in ts]


def det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    size = len(mat)
    value = Fraction(1)
    for col in range(size):
        pivot = next((row for row in range(col, size) if mat[row][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            value = -value
        value *= mat[col][col]
        for row in range(col + 1, size):
            factor = mat[row][col] / mat[col][col]
            for k in range(col, size):
                mat[row][k] -= factor * mat[col][k]
    return value


def flag_minors_positive(columns, d: int) -> bool:
    """All determinants of the top k rows on increasing k-subsets of the
    columns are positive, for every k <= d."""
    return all(
        det([[columns[c][row] for c in combo] for row in range(k)]) > 0
        for k in range(1, d + 1)
        for combo in combinations(range(len(columns)), k)
    )


def normal_vector(columns, typemask: int) -> tuple[int, ...]:
    """Integer normal to the span of the columns in a (d-1)-type, by
    cofactor expansion, oriented as the cofactor formula gives it."""
    d = len(columns[0])
    rows = [col for i, col in enumerate(columns, start=1) if typemask >> (i - 1) & 1]
    if len(rows) != d - 1:
        raise ValueError(f"normal_vector expects a (d-1)-subset, got {len(rows)} columns")
    return tuple(
        (-1) ** j * int(det([[row[k] for k in range(d) if k != j] for row in rows]))
        for j in range(d)
    )


def exact_side_roots(columns, typemask: int) -> tuple[int, int]:
    """The generators off the span of a type, split by the sign of their
    product with its normal oriented to a negative last coordinate:
    (positive side, negative side).  Raises ArithmeticError where a
    configuration is not cyclic enough for the split to exist."""
    normal = normal_vector(columns, typemask)
    if normal[-1] == 0:
        raise ArithmeticError("normal with zero last coordinate")
    sign = -1 if normal[-1] > 0 else 1
    positive = negative = 0
    for i, col in enumerate(columns, start=1):
        if typemask >> (i - 1) & 1:
            continue
        value = sign * sum(a * b for a, b in zip(normal, col))
        if value == 0:
            raise ArithmeticError("generator on the span of a type: not cyclic")
        if value > 0:
            positive |= 1 << (i - 1)
        else:
            negative |= 1 << (i - 1)
    return positive, negative


def point_of(columns, mask: int) -> tuple[int, ...]:
    """Vertex point of X: the sum of the generators indexed by X."""
    cols = [col for i, col in enumerate(columns, start=1) if mask >> (i - 1) & 1]
    return tuple(sum(col[j] for col in cols) for j in range(len(columns[0])))


def front_rear_vertices(n: int, d: int):
    """Closed-form front, rear, and rim vertex sets of Z(n, d) for odd d.

    Front: k-intervals with k <= (d-1)/2 (the empty set is the unique
    0-interval).  Rear: complements of the front sets.  Rim: k-intervals
    with k < (d-1)/2, plus the (d-1)/2-intervals containing 1 or n.
    """
    from zonosep.systems import SetSystem

    if d % 2 == 0:
        raise ValueError("closed-form sides require odd d; use zonotope_sides")
    half = (d - 1) // 2
    full = full_mask(n)
    front = [x for x in range(1 << n) if interval_count(x) <= half]
    rear = [full & ~x for x in front]
    rim = [
        x
        for x in front
        if interval_count(x) < half or x & 1 or x >> (n - 1) & 1
    ]
    return (
        SetSystem.from_masks(n, front),
        SetSystem.from_masks(n, rear),
        SetSystem.from_masks(n, rim),
    )


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


def odd_sites(n: int, r: int):
    """All odd-parity sites over [n] in canonical order."""
    return _sites(n, r, "odd")


def even_sites(n: int, r: int):
    """All even-parity sites over [n] in canonical order."""
    return _sites(n, r, "even")


def _sites(n: int, r: int, parity: str):
    from zonosep.flips import FlipSite, _site_patterns

    patterns = _site_patterns(n, r, parity)  # checks n and r on the call
    return (FlipSite(n, x, p, q) for p, q, xs in patterns for x in xs)


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
    from zonosep.flips import neighbors_down, neighbors_up
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


def reference_refined_lemma(n: int, r: int, bad=bad_pair):
    from zonosep.flips import _singleton_bricks, neighbors_up
    from zonosep.ground import elements

    report = _report("refined_lemma", n, r, None)
    for site in odd_sites(n, r):
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
    from zonosep.flips import _pool, neighbors_down, neighbors_up
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


def capped(visit, cap):
    """A cap on an ideal walk: `visit` wrapped to raise IdealCapExceeded
    at the (cap + 1)-th ideal, before it sees it, after every callback
    of the walk up to that point has fired.  None leaves `visit` as is."""
    from zonosep.posets import IdealCapExceeded

    if cap is None:
        return visit
    seen = 0

    def counted(ideal):
        nonlocal seen
        seen += 1
        if seen > cap:
            raise IdealCapExceeded(cap)
        if visit is not None:
            visit(ideal)

    return counted


def reference_scan_ideals(count, succs, visit=None, enter=None, leave=None):
    """The recursive order-ideal walk that `posets.scan_ideals` replaced.

    Rescans every position above the last one at each node; same
    callbacks, same order.  Recursion depth grows with the longest
    chain, so keep it to small posets.
    """
    from zonosep.posets import topological_order

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


def reference_count_ideals(count, succs, split="middle") -> tuple[int, int]:
    """The ideal counts that `posets.Poset.count_ideals` replaced: (count, memo states).

    Splits a connected remaining set R, I(P) = I(P - up(x)) + I(P - down(x)),
    multiplies over components and memoises on the remaining bitset,
    with no budget.  Split "middle" takes x as R's middle node in
    topological order; split "product" the x with the largest
    |up(x) & R| * |down(x) & R|, the lowest position on ties.  The
    states count the memo entries, the empty set included.
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
                if split == "middle":
                    x = order[len(order) // 2]
                else:
                    x = max(order, key=lambda pos: (
                        (up[pos] & rest).bit_count() * (down[pos] & rest).bit_count(), -pos
                    ))
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
# reference that the decided counts and sizes (`membranes.membrane_census`)
# and the single-membrane tests compare against.


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


def is_e_membrane(q, m) -> bool:
    """No tile of the membrane is the middle section of a cube of Q."""
    from zonosep.membranes import h_tile

    if q.d % 2:
        raise ValueError("middle sections need even dimension")
    middle = {h_tile(cube, q.d // 2) for cube in q.cubes}
    return not any(tile in m.tiles for tile in middle if tile is not None)


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

    scan_ideals(len(deltas), succs, visit=capped(snapshot, cap), enter=enter, leave=leave)
    return out


def immediately_precedes(first, second):
    """Some rear facet of the first cube is a front facet of the second: the
    pairwise definition behind `cubillage.precedence_digraph`."""
    from zonosep.cubillage import front_facets, rear_facets

    return not set(rear_facets(first)).isdisjoint(front_facets(second))


def pairwise_fragment_precedence(deltas):
    """Arcs i -> j, i != j, where the rear side of fragment i meets the
    front side of fragment j, tested pair by pair."""
    fronts = [delta.eps_front() for delta in deltas]
    rears = [delta.eps_rear() for delta in deltas]
    return [
        [j for j, front in enumerate(fronts) if j != i and rear & front]
        for i, rear in enumerate(rears)
    ]


def raising_flip_outcomes(q, flavor, membranes):
    """Every raising flip of every fragment from every given membrane,
    judged against the pairwise precedence.

    A fragment behind the membrane must be refused as already behind it;
    one whose every predecessor is behind must be raised, its front side
    swapped for its rear side; any other must be refused as blocked.
    Returns the count of each outcome, and (ideal labels, fragment label,
    result) for each flip that went otherwise.
    """
    from zonosep.membranes import fragment_precedence, raising_flip

    deltas = fragment_precedence(q, flavor)[0]
    preds = [set() for _ in deltas]
    for i, out in enumerate(pairwise_fragment_precedence(deltas)):
        for j in out:
            preds[j].add(i)
    index = {delta: i for i, delta in enumerate(deltas)}
    counts = {"behind": 0, "raised": 0, "blocked": 0}
    wrong = []
    for mem in membranes:
        behind = {index[delta] for delta in mem.ideal}
        for i, delta in enumerate(deltas):
            label = delta.label()
            try:
                got = raising_flip(mem, delta)
            except ValueError as exc:
                got = str(exc)
            if i in behind:
                outcome = "behind"
                ok = got == f"{label} already behind the membrane"
            elif preds[i] <= behind:
                outcome = "raised"
                swapped = (mem.tiles - delta.eps_front()) | delta.eps_rear()
                ok = not isinstance(got, str) and (got.ideal, got.tiles) == (
                    mem.ideal + (delta,), swapped)
            else:
                outcome = "blocked"
                ok = isinstance(got, str) and got.startswith(f"raising flip at {label} blocked: ")
            counts[outcome] += 1
            if not ok:
                wrong.append(([fr.label() for fr in mem.ideal], label, got))
    return counts, wrong


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

    scan_ideals(len(q.cubes), succs, visit=capped(visit, cap), enter=enter, leave=leave)
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


def scan_record(report) -> tuple:
    """Everything a membrane census or scan decided, for comparing two
    runs: its JSON, fragments, precedence, front boundary, presence
    intervals, size weights and counters, but no seconds and not the
    cubes it cut or reused, which depend on what ran before it."""
    counters = {
        key: value for key, value in report.stats.items()
        if not key.endswith("_s") and not key.startswith("cubes_")
    }
    return (
        report.to_json(),
        [delta.label() for delta in report.deltas],
        report.succs,
        report.base.tiles,
        report.intervals,
        report.weights,
        counters,
    )


def reference_comb_rows(n: int, r: int) -> list[int]:
    """Row v: the sets forming a double r-comb with v, one raw_double_comb
    call per pair of subsets of [n]."""
    from zonosep.ground import elements

    sets = [set(elements(m)) for m in range(1 << n)]
    return [
        sum(1 << u for u, a in enumerate(sets) if raw_double_comb(a, b, r)) for b in sets
    ]


def reference_scan_membranes(q, flavor="W", cap=None, check_combs=False, incompat=None):
    """The per-tile refcount walk that `membranes.scan_membranes` replaced.

    Visits every membrane: each flip drops the front tiles and adds the
    rear tiles one vertex at a time, driven by `reference_scan_ideals`.
    `incompat` overrides the rows of the pairs counted as violations
    (default: not weakly (d-2)-separated).
    """
    from zonosep.membranes import base_membrane, fragment_precedence
    from zonosep.posets import IdealCapExceeded
    from zonosep.systems import complement_table, weak

    deltas, succs = fragment_precedence(q, flavor)
    r = q.d - 2
    report = ReferenceScan()
    if incompat is None:
        incompat = complement_table(q.n, weak(r))
    combs = reference_comb_rows(q.n, r) if check_combs else None
    eps_front_of = [sorted(d_.eps_front(), key=sorted) for d_ in deltas]
    eps_rear_of = [sorted(d_.eps_rear(), key=sorted) for d_ in deltas]
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
        for v in tile:
            count = refcount.get(v, 0)
            if count == 0:
                activate(v)
            refcount[v] = count + 1

    def drop_tile(tile):
        for v in tile:
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
        reference_scan_ideals(
            len(deltas), succs, visit=capped(visit, cap), enter=enter, leave=leave
        )
    except IdealCapExceeded:
        report.capped = True
    if combs is not None:
        report.comb_free = not report.comb_pairs
    return report


def every_predicate(n: int):
    """Every predicate kind with every r in 0..n that the kind accepts."""
    from zonosep.systems import strong, weak_even, weak_even_no_comb, weak_odd

    yield from (strong(r) for r in range(n + 1))
    yield from (weak_odd(r) for r in range(1, n + 1, 2))
    yield from (weak_even(r) for r in range(2, n + 1, 2))
    yield from (weak_even_no_comb(r) for r in range(2, n + 1, 2))


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


def reference_extend_to_maximal(system, predicate):
    """The greedy completion that `systems.extend_to_maximal` replaced: every
    subset of [n] in canonical order joins when predicate.holds with each
    set chosen so far, one call per pair; an incompatible input is refused
    with check_pairwise's first pair."""
    from zonosep.ground import set_notation
    from zonosep.systems import SetSystem, canonical_key, check_pairwise

    ok, bad = check_pairwise(system, predicate)
    if not ok:
        raise ValueError(
            f"input system violates {predicate.label()} on "
            f"{set_notation(bad[0])}, {set_notation(bad[1])}"
        )
    chosen = list(system.members)
    for mask in sorted(range(1 << system.n), key=canonical_key):
        if mask not in chosen and all(predicate.holds(mask, member) for member in chosen):
            chosen.append(mask)
    return SetSystem.from_masks(system.n, chosen)


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
