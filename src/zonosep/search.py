"""Exact maximum search and maximal-system enumeration over a relation table.

The searches treat the full power set 2^[n] as the vertex set of the
compatibility graph of one predicate, read off `systems.relation_table`,
and answer exact questions about its cliques: the maximum clique size
with a witness and search counters (branch and bound in the style of
BBMC: universal sets join up front, bitset colour classes bound each
node, each node drops whole orbits of the part of the table's checked
symmetry group that fixes its clique, and the tree is searched as two
fixed parts, the second in a forked child where that pays), and
streaming of all inclusion-maximal cliques.

The set systems, the predicates and their tables, the limits on n and
`max_size` stay in `systems`; this module loads only where a search
runs (`max_size` imports it when called), so the commands that never
search do not compile it.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import compress, islice
from operator import itemgetter, or_
from typing import Iterable, Iterator, NamedTuple, Sequence

from .ground import set_notation
from .systems import (
    DEFAULT_EXHAUSTIVE_BOUND,
    HARD_EXHAUSTIVE_CAP,
    RELATION_CACHE_SIZE,
    SEARCH_LIMIT,
    PairwisePredicate,
    SetSystem,
    canonical_key,
    check_limit,
    compatibility_adjacency,
    relation_table,
)


class MaxSearch(NamedTuple):
    """One exact maximum search: the size, a witness and its counters.

    nodes counts the branch-and-bound nodes expanded, the root included,
    summed over the two parts of the tree, so a node above the split
    counts twice; universal counts the sets related to every other set,
    which join the clique up front; symmetries is the order of the group
    of checked table symmetries (see symmetry_group); symmetry_pruned
    counts the candidates skipped, at any depth and summed like nodes,
    because a set in their orbit under the node's stabiliser had already
    been branched on (see max_clique).  processes is 2 if part 1 of the
    tree ran in a forked child, 1 if both ran in this process; the
    other fields do not depend on it.
    """

    size: int
    witness: SetSystem
    nodes: int
    universal: int
    symmetries: int
    symmetry_pruned: int
    processes: int


def _complement(v: int, n: int) -> int:
    return v ^ ((1 << n) - 1)


def _reversal(v: int, n: int) -> int:
    # i -> n + 1 - i
    return int(format(v, f"0{n}b")[::-1], 2)


def _rotation(v: int, n: int) -> int:
    # i -> i + 1, n -> 1
    return ((v << 1) | (v >> (n - 1))) & ((1 << n) - 1)


def _twisted_rotation(v: int, n: int) -> int:
    # the rotation, then element 1 toggled
    return _rotation(v, n) ^ 1


# Maps on subsets of [n] that may preserve a relation table.  The
# relations depend on how A - B and B - A interlace along the line;
# complement swaps the two and reversal mirrors the line.  Exhaustive
# checks at 3 <= n <= 8 and r < n - 2 found: STRONG(r) tables keep
# complement, reversal and the rotation (r even) or the twisted rotation
# (r odd); WEAK_ODD(r) tables keep complement and reversal; the even weak
# kinds keep complement alone.  Tables closer to complete keep more.  The
# search checks each candidate against the table, never the kind.
SYMMETRY_CANDIDATES = (_complement, _reversal, _rotation, _twisted_rotation)


def _permuted_rows(rows: Iterable[int], width: int, bits: Sequence[int]) -> Iterator[int]:
    """Each row of width bits rebuilt from the bits listed, top bit first:
    bit bits[j] of the row becomes bit len(bits) - 1 - j of the result.

    Bit u of a row is character width - 1 - u of its binary string, so
    one itemgetter over those characters permutes a whole row at once.
    """
    if not bits:  # itemgetter takes at least one item
        for _ in rows:
            yield 0
        return
    pick = itemgetter(*(width - 1 - u for u in bits))
    form = f"0{width}b"
    for row in rows:
        # one bit picks a str, not a tuple; join takes either
        yield int("".join(pick(format(row, form))), 2)


def _first_break(table: Sequence[int], image: Sequence[int]) -> int | None:
    """The first set v whose row, mapped by image, is not the row of image[v].

    image is a permutation of 2^[n]; bit image[u] of the mapped row is bit
    u of the row, so bit j is bit pre[j], pre the inverse.
    """
    size = len(image)
    pre = [0] * size
    for v, w in enumerate(image):
        pre[w] = v
    for v, row in enumerate(_permuted_rows(table, size, pre[::-1])):
        if row != table[image[v]]:
            return v
    return None


def symmetry_group(n: int, table: Sequence[int]) -> list[tuple[int, ...]]:
    """The group the table keeps among SYMMETRY_CANDIDATES, element by element.

    The table must have 2^n rows (ValueError otherwise), and the
    complement, the first candidate, must preserve it (RuntimeError
    otherwise); each other candidate joins the generators only if it
    maps every row onto the row of its image.  Returns every element of
    the group the generators span, the identity first, as its tuple of
    images of the sets 0 .. 2^n - 1.
    """
    size = 1 << n
    if len(table) != size:
        raise ValueError(f"relation table over 2^[{n}] needs {size} rows, got {len(table)}")
    images = [tuple(map_(v, n) for v in range(size)) for map_ in SYMMETRY_CANDIDATES]
    breaks = [_first_break(table, g) for g in images]
    if breaks[0] is not None:
        raise RuntimeError(
            f"relation table not invariant under complement at {set_notation(breaks[0])}"
        )
    generators = [g for g, v in zip(images, breaks) if v is None]
    identity = tuple(range(size))
    group = [identity]
    seen = {identity}
    for g in group:  # grows while it is read
        for h in generators:
            hg = itemgetter(*g)(h)  # h after g
            if hg not in seen:
                seen.add(hg)
                group.append(hg)
    return group


# a subgroup of a layout's group: the orbit mask of each index, and the
# key of the subgroup that fixes it (the positions of its elements in group)
_Subgroup = tuple[list[int], list[tuple[int, ...]]]


class _Layout(NamedTuple):
    """What a search of one table needs before its first node.

    The m sets left after the universal ones are in search order, and
    the i-th of them has index m - i: bit m - 1 - i of every bitset, so
    a bitset's bit_length() is the index of its earliest set.  Entry 0
    of adj, bits and others, and of each permutation in group, pads
    the index so that no step subtracts 1.  subgroups fills in as the
    searches of the table meet new subgroups, so a repeated search, or
    a forked child, reuses what the searches before it built.
    """

    universal: list[int]  # related to every other set: in every maximum clique
    order: list[int]  # the other sets in search order
    adj: list[int]  # the row of each index, renumbered
    bits: list[int]  # 1 << (index - 1)
    others: list[int]  # the non-neighbours of each index, itself included
    group: list[tuple[int, ...]]  # the non-identity symmetries, as index permutations
    # by key, the positions in group of a subgroup's elements
    subgroups: dict[tuple[int, ...], _Subgroup]


def _layout(n: int, table: Sequence[int]) -> _Layout:
    group = symmetry_group(n, table)
    size = 1 << n
    everyone = (1 << size) - 1
    universal = [v for v in range(size) if table[v] | 1 << v == everyone]
    order = sorted(
        (v for v in range(size) if table[v] | 1 << v != everyone),
        key=lambda v: (-table[v].bit_count(),) + canonical_key(v),
    )
    m = len(order)
    adj = [0, *_permuted_rows([table[v] for v in reversed(order)], size, order)]
    bits = [0] + [1 << b for b in range(m)]
    all_m = (1 << m) - 1
    others = [0] + [all_m ^ adj[b] ^ bits[b] for b in range(1, m + 1)]
    # a symmetry keeps the table, so it maps universal sets among
    # themselves and the searched sets among themselves
    index = dict.fromkeys(universal, 0)
    index.update((v, m - i) for i, v in enumerate(order))
    searched = order[::-1]  # the sets of indices 1 .. m
    perms = [(0, *map(index.__getitem__, map(g.__getitem__, searched))) for g in group[1:]]
    return _Layout(universal, order, adj, bits, others, perms, {})


@lru_cache(maxsize=RELATION_CACHE_SIZE)
def _search_layout(n: int, predicate: PairwisePredicate) -> _Layout:
    """The layout of relation_table(n, predicate), memoised like the table."""
    return _layout(n, relation_table(n, predicate))


# From FORK_CROSSOVER searched sets on, the search tree is cut into two
# parts below depth SPLIT_DEPTH, and part 1 runs in a forked child where
# one can (see max_clique; README "Maximum search" has the measurements);
# below it, one tree is searched.  Depth 3 balances the parts of the
# n = 8 searches.  A fork and reap cost ~1.5 ms, which no table on n <= 7
# (at most 2^7 - 2 sets searched, the empty set and [n] being related to
# every set) reliably won back, and split parts in one process only add
# nodes.
SPLIT_DEPTH = 3
FORK_CROSSOVER = 128

# one part's result: the size and bitset of its best clique, the
# positions of the branches above SPLIT_DEPTH on the path to it, its
# nodes and its candidates pruned by symmetry
_Part = tuple[int, int, tuple[int, ...], int, int]


def _search_part(layout: _Layout, part: int | None) -> _Part:
    """Part 0 or 1 of the search tree of max_clique, with its own
    incumbent; the whole tree for part None."""
    _, order, adj, bits, others, group, memo = layout
    best_clique = best_size = nodes = symmetry_pruned = 0
    best_path: tuple[int, ...] = ()
    # path[j]: the position, among the branches its node has taken so
    # far, of the branch at depth j on the way to the current node
    path = [0] * SPLIT_DEPTH

    def subgroup(key: tuple[int, ...]) -> _Subgroup | None:
        # the subgroup of the identity and the elements group[i], i in
        # key; None for the identity alone
        if not key:
            return None
        found = memo.get(key)
        if found is None:
            orbits, stabs = [], []
            for b, images in enumerate(zip(*(group[i] for i in key))):
                orbits.append(reduce(or_, map(bits.__getitem__, images), bits[b]))
                stabs.append(tuple(compress(key, map(b.__eq__, images))))
            found = memo[key] = (orbits, stabs)
        return found

    def colour_classes(cand: int, kmin: int) -> list[tuple[int, int]]:
        # (colour k, class bitset) for every class with k >= kmin; each
        # step takes the highest bit, the earliest set in search order
        classes = []
        k = 0
        while cand:
            k += 1
            left = cand
            cls = 0
            while left:
                b = left.bit_length()
                cls |= bits[b]
                left &= others[b]
            cand ^= cls
            if k >= kmin:
                classes.append((k, cls))
        return classes

    def expand(clique: int, csize: int, cand: int, sym: _Subgroup | None) -> None:
        # sym: subgroup() of the elements that fix every set of the clique
        nonlocal best_clique, best_size, best_path, nodes, symmetry_pruned
        nodes += 1
        grown = csize + 1
        above = csize < SPLIT_DEPTH  # a node of both parts
        mine = True
        if above:
            path[csize] = -1
        for k, cls in reversed(colour_classes(cand, best_size - csize + 1)):
            while cls:
                if csize + k <= best_size:
                    return
                bit = cls & -cls  # the latest set of the class in search order
                cls ^= bit
                if not cand & bit:
                    symmetry_pruned += 1
                    continue
                v = bit.bit_length()
                if above:
                    path[csize] += 1
                    # a branch into the split depth: part sum(path) mod 2's
                    mine = part is None or grown < SPLIT_DEPTH or sum(path) % 2 == part
                if mine:
                    sub = cand & adj[v]
                    if sub:
                        expand(clique | bit, grown, sub, sym and subgroup(sym[1][v]))
                    elif grown > best_size:
                        best_clique, best_size = clique | bit, grown
                        best_path = tuple(path[:grown])
                # the orbit goes whichever part took the branch
                cand &= ~sym[0][v] if sym else ~bit

    try:
        expand(0, 0, (1 << len(order)) - 1, subgroup(tuple(range(len(group)))))
    finally:
        # expand refers to itself; drop it so its cells go on return
        del expand
    return best_size, best_clique, best_path, nodes, symmetry_pruned


def _processes() -> int:
    """2 if part 1 of a split search is to run in a forked child: fork
    exists and this process may run on two CPUs; 1 otherwise."""
    import os

    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _parts(layout: _Layout) -> tuple[list[_Part], int]:
    """The parts of the search, and the number of processes that ran them:
    the whole tree below FORK_CROSSOVER searched sets, else parts 0 and 1."""
    if len(layout.order) < FORK_CROSSOVER:
        return [_search_part(layout, None)], 1
    if _processes() == 2:
        parts = _forked_parts(layout)
        if parts is not None:
            return parts, 2
    return [_search_part(layout, 0), _search_part(layout, 1)], 1


def _forked_parts(layout: _Layout) -> list[_Part] | None:
    """Part 0 here and part 1 in a forked child; None if no child can be forked.

    The child sends its result back marshalled over a pipe and exits.
    The parent always reaps the child, and kills it first if its own
    part raises or is interrupted.  A child that fails makes the parent
    raise RuntimeError with the child's message.
    """
    import marshal
    import os
    import signal

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read)
        os.close(write)
        return None
    if pid == 0:  # the child: part 1, then out without running the parent's cleanup
        try:
            os.close(read)
            try:
                reply = True, _search_part(layout, 1)
            except BaseException as exc:
                reply = False, f"{type(exc).__name__}: {exc}".splitlines()[0]
            with open(write, "wb") as pipe:
                pipe.write(marshal.dumps(reply))
        finally:
            os._exit(0)
    os.close(write)
    with open(read, "rb") as pipe:
        try:
            first = _search_part(layout, 0)
            blob = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if not blob:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"search child ended without a result (exit status {code})")
    ok, second = marshal.loads(blob)
    if not ok:
        raise RuntimeError(f"search child failed: {second}")
    return [first, second]


def max_clique(n: int, table: Sequence[int], layout: _Layout | None = None) -> MaxSearch:
    """Exact maximum clique of a complement-invariant relation table.

    layout is the table's _layout if the caller holds it (search_max
    memoises it per (n, predicate)); it is built here otherwise.

    Branch and bound in the style of BBMC (San Segundo et al. 2011):
    1. Universal vertices, related to every other set, join every
       maximum clique, so they go in up front and the search covers
       the rest.
    2. The rest are put in search order by degree (descending,
       canonical tie-break), and the i-th of the m sets in that order
       is bit m - 1 - i of every bitset.  At each node the candidates
       are split greedily into colour classes (independent sets): each
       step takes the highest candidate bit, the earliest set, with
       one bit_length and no negation.  Only vertices of colour
       k >= best - |clique| + 1 are branched on, highest colour first
       and the lowest bit (the latest set) of a class first, and a
       branch stops once |clique| + k cannot beat the best.  A branch
       that leaves no candidate is a leaf and is scored without
       another call.  The rows are renumbered one string permutation
       each (_permuted_rows).
    3. Orbital branching at every node (Ostrowski et al. 2011; Margot
       2002): the group of symmetry_group preserves the table (checked
       here, never assumed).  Each node carries H, the elements of the
       group that fix every set of its clique C: the whole group at the
       root, and at a child the parent's elements that fix the set just
       branched on.  Once a node has branched on v, the whole H-orbit
       of v leaves its candidates.  This is sound because the
       candidates of a node are H-invariant: those of the root are a
       union of orbits; a child's are the parent's candidates, which
       its H keeps since H is a subgroup of the parent's, met with the
       row of v, which every element fixing v keeps; and each removal
       is a whole H-orbit.  So a clique through C + h(v) among the
       candidates left maps under h^-1, which fixes C and keeps the
       candidates, onto one of the same size through C + v, which the
       branch on v has already searched.  Once H is trivial only v
       goes, at no extra cost.  The orbit masks and stabilisers are
       memoised per subgroup in the layout.
    4. Two parts of one tree (McCreesh and Prosser 2015; Depolli et
       al. 2013), from FORK_CROSSOVER searched sets on; fewer are
       searched as one tree (_parts).  Both parts expand every node of
       depth less than SPLIT_DEPTH, and both drop the orbit of every
       branch there, theirs or not, so their candidates agree.  A branch's position
       is its index among the branches its node takes; a branch into
       depth SPLIT_DEPTH belongs to part (the sum of the positions on
       its path) mod 2, and the other part skips it.  Each part keeps
       its own incumbent, so each is a branch and bound of its own, and
       part 1 runs in a forked child when that pays (_processes).  The
       larger size wins.  On equal sizes the clique whose path of
       positions above the split comes first wins, which gives back
       the one-process witness, the first maximum clique in DFS order:
       both parts keep its branch order, and a subtree that holds a
       clique larger than the part's incumbent is never pruned, so no
       part finds that size at an earlier position than its first
       maximum clique.  nodes and symmetry_pruned are summed over the
       parts, so a node above the split counts twice, in one process
       or in two.

    The search never stops early at a target size.  Fully
    deterministic: whether the tree is split depends on the number of
    searched sets alone, and the result does not depend on the
    processes.  The search adds to the layout's subgroups and changes
    nothing else in it.
    """
    layout = layout or _layout(n, table)
    universal, order, *_ = layout
    parts, processes = _parts(layout)
    # the larger size, then the earlier path
    _, clique, *_ = min(parts, key=lambda part: (-part[0], part[2]))
    m = len(order)
    witness = universal + [order[m - b] for b in range(1, m + 1) if clique >> b - 1 & 1]
    return MaxSearch(
        size=len(witness),
        witness=SetSystem(n, witness),
        nodes=sum(part[3] for part in parts),
        universal=len(universal),
        symmetries=len(layout.group) + 1,
        symmetry_pruned=sum(part[4] for part in parts),
        processes=processes,
    )


def search_max(
    n: int,
    predicate: PairwisePredicate,
    bound: int = DEFAULT_EXHAUSTIVE_BOUND,
) -> MaxSearch:
    """Exact maximum predicate-compatible system, with the search counters.

    n is held to the bound, and the bound to HARD_EXHAUSTIVE_CAP.
    """
    check_limit(n, min(bound, HARD_EXHAUSTIVE_CAP), SEARCH_LIMIT)
    return max_clique(n, relation_table(n, predicate), _search_layout(n, predicate))



def enumerate_maximal(
    n: int,
    predicate: PairwisePredicate,
    limit: int | None = None,
) -> Iterator[SetSystem]:
    """Stream all inclusion-maximal compatible systems (maximal cliques).

    Deterministic pivoted Bron-Kerbosch over the compatibility graph;
    the stream order is the fixed DFS order of that algorithm.  A limit
    of k stops after k systems (none for k = 0).  n is held to the default
    bound of search_max; n and the limit are checked on the call, before
    the search starts.
    """
    check_limit(n, DEFAULT_EXHAUSTIVE_BOUND, "the exhaustive-search bound {}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    return islice(_maximal_cliques(n, predicate), limit)


def _maximal_cliques(n: int, predicate: PairwisePredicate) -> Iterator[SetSystem]:
    adj = compatibility_adjacency(n, predicate)
    size = 1 << n
    full = (1 << size) - 1

    def bk(clique: list[int], cand: int, excluded: int) -> Iterator[list[int]]:
        if not cand and not excluded:
            yield clique
            return
        # deterministic pivot: most candidate-neighbors, lowest vertex id breaks ties
        pivot, pivot_score = -1, -1
        probe = cand | excluded
        while probe:
            low = probe & -probe
            u = low.bit_length() - 1
            score = (cand & adj[u]).bit_count()
            if score > pivot_score:
                pivot, pivot_score = u, score
            probe ^= low
        rest = cand & ~adj[pivot]
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            yield from bk(clique + [v], cand & adj[v], excluded & adj[v])
            cand &= ~low
            excluded |= low
            rest ^= low

    try:
        for clique in bk([], full, 0):
            yield SetSystem(n, clique)
    finally:
        # bk refers to itself; drop it so adj goes when the stream ends or is dropped
        del bk

