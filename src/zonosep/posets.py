"""Finite poset utilities: topological order and order-ideal enumeration.

Precedence relations in this package (cubes under shared-facet
precedence, fragments of any flavor under shared-tile precedence) are given as successor maps on an indexed node list.  `Poset`
numbers the nodes by topological position, once, and keeps each
position's arcs in and out.  The enumeration of order ideals is a
reverse search over the ideal lattice on that numbering: the
children of an ideal I are the ideals I + {p} where p is addable (all
predecessors inside I) and lies above every position in I.  Each
ideal then has the unique parent obtained by removing its topologically
largest element, so every ideal is visited exactly once, starting from
the empty ideal, with one enter/leave callback pair per lattice edge -
which is exactly a raising flip and its undo for a walker that builds
every membrane (the test suite's reference walkers do).

The walk is iterative.  An explicit stack holds one frame per ideal on
the current path: the bitmask of children not yet tried and the
bitmask of positions included.  Adding p takes it out of the addable
mask and sets the bit of each successor of p whose predecessors are
now all included; the new frame's children are the addable positions
above p.  No position is rescanned and nothing recurses, so the depth
of the poset is bounded by memory only.

Counting the ideals does not walk them.  `Poset` holds every node's
down-set and up-set as bitmasks over topological positions, and
`Poset.count_ideals` uses I(P) = I(P - up(x)) + I(P - down(x)): the
ideals avoiding x are the ideals of P - up(x), those holding x are
down(x) joined with an ideal of P - down(x).  The split node x has the
largest product of its up-set and down-set sizes within the remaining
set, so that both branches shed many nodes, times the same product
over the whole poset; with that second factor the cubillage posets here
need up to 38% fewer memo states than with the first alone.  Each
remaining set splits into its connected components under
comparability, whose counts multiply, and every count is memoised on
its remaining bitset.  The posets here are narrow and fall apart
quickly, so counts of seven to twenty-two figures take from a few
hundred to about a million memo states.  Counting ideals is #P-hard in
general (Provan & Ball, SIAM J. Comput. 1983), so the memo is held to a
fixed budget of states, past which the count stops with
IdealCapExceeded.  The budget is the only cap: the walk has none, and
a caller that wants to stop it raises from its own callback.
"""

from __future__ import annotations

from typing import Callable, Sequence

# memo states a count may hold before it stops; Z(11,3) w-membranes need
# 906,931 and peak near 170 MiB, Z(12,3) w-membranes run past it
IDEAL_STATE_BUDGET = 1_000_000


class CycleError(RuntimeError):
    """A precedence relation expected to be acyclic has a directed cycle.

    An internal fault, not bad input: the relations come from the code.
    """


class IdealCapExceeded(RuntimeError):
    """An ideal count reached its memo budget."""

    def __init__(self, cap: int):
        super().__init__(f"ideal count's memo exceeded the cap of {cap}")
        self.cap = cap


def topological_order(count: int, succs: Sequence[Sequence[int]]) -> list[int]:
    """Deterministic Kahn order of 0..count-1; raises CycleError on a cycle.

    Ready nodes are taken in increasing index order, so the result is
    reproducible for a fixed input ordering.
    """
    indegree = [0] * count
    for node in range(count):
        for succ in succs[node]:
            indegree[succ] += 1
    import heapq

    ready = [node for node in range(count) if indegree[node] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in succs[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != count:
        raise CycleError(f"cycle among {count - len(order)} of {count} nodes")
    return order


def is_acyclic(count: int, succs: Sequence[Sequence[int]]) -> bool:
    try:
        topological_order(count, succs)
        return True
    except CycleError:
        return False


def scan_ideals(
    count: int,
    succs: Sequence[Sequence[int]],
    visit: Callable[[tuple[int, ...]], None] | None = None,
    enter: Callable[[int], None] | None = None,
    leave: Callable[[int], None] | None = None,
) -> int:
    """Visit every order ideal exactly once; returns the ideal count.

    The walk runs on the topological positions of `Poset(count, succs)`.
    `enter(e)` fires when element e (original index) joins the current
    ideal, `leave(e)` when the walk backtracks over it, and
    `visit(ideal)` once per ideal with the original indices in
    topological order.
    """
    poset = Poset(count, succs)
    preds, later, topo = poset.preds, poset.later, poset.topo
    current: list[int] = []
    visited = 1
    if visit is not None:
        visit(())
    # frame: (children still to try, positions in the ideal); the
    # children of an ideal are its addable positions above its last one
    stack = [(sum(1 << pos for pos in range(count) if not preds[pos]), 0)]
    while stack:
        children, included = stack[-1]
        if not children:
            stack.pop()
            if stack:
                node = current.pop()
                if leave is not None:
                    leave(node)
            continue
        low = children & -children
        rest = children ^ low
        stack[-1] = (rest, included)
        pos = low.bit_length() - 1
        included |= low
        for succ in later[pos]:
            if not preds[succ] & ~included:
                rest |= 1 << succ
        node = topo[pos]
        if enter is not None:
            enter(node)
        current.append(node)
        visited += 1
        if visit is not None:
            visit(tuple(current))
        stack.append((rest, included))
    return visited


class Poset:
    """A finite poset given by successor lists on nodes 0..count-1.

    Nodes are re-indexed by topological position; `preds[p]` (a bitmask)
    and `later[p]` (a list) hold the positions of the given arcs into and
    out of position p, and `down[p]` and `up[p]` are the bitmasks of the
    positions below and above p, p included.  `states` is the number of
    memo states the last count or sum-set fold held.
    """

    def __init__(self, count: int, succs: Sequence[Sequence[int]]):
        self.topo = topological_order(count, succs)
        position = [0] * count
        for pos, node in enumerate(self.topo):
            position[node] = pos
        preds = self.preds = [0] * count
        later: list[list[int]] = [[] for _ in range(count)]
        self.later = later
        for node in range(count):
            for succ in succs[node]:
                preds[position[succ]] |= 1 << position[node]
                later[position[node]].append(position[succ])
        self.down = [1 << pos for pos in range(count)]
        self.up = [1 << pos for pos in range(count)]
        for pos in range(count):
            for below in _positions(preds[pos]):
                self.down[pos] |= self.down[below]
        for pos in range(count - 1, -1, -1):
            for below in _positions(preds[pos]):
                self.up[below] |= self.up[pos]
        self.states = 0

    def nodes(self, mask: int) -> list[int]:
        """The nodes at the positions set in mask, in topological order."""
        return [self.topo[pos] for pos in _positions(mask)]

    def count_ideals(self) -> int:
        return self._fold(1, lambda a, b: a * b, lambda without, with_, _down: without + with_)

    def ideal_sums(self, weights: Sequence[int]) -> set[int]:
        """Every value of the weight sum over an ideal (weights by node)."""
        at = [weights[node] for node in self.topo]

        def branch(without: frozenset, with_: frozenset, down: int) -> frozenset:
            shift = sum(at[pos] for pos in _positions(down))
            return without | {s + shift for s in with_}

        def times(a: frozenset, b: frozenset) -> frozenset:
            return frozenset(x + y for x in a for y in b)

        return set(self._fold(frozenset((0,)), times, branch))

    def _fold(self, one, times, branch):
        """Fold over the ideals by the split on the most comparable node, bottom up.

        `branch(without, with_, down)` combines the value over the ideals
        avoiding the split node with the value over the rest once the
        node's down-set `down` (within the remaining set) is taken;
        `times` joins components.  A remaining set is always convex (an
        ideal minus a filter), so its components are found from its
        minimal elements: two share a component iff their up-sets meet.
        The lowest remaining position is minimal, and so is the lowest
        one outside the up-sets already taken.  A connected remaining
        set R splits on the node x with the largest
        |up(x) & R| * |down(x) & R| * |up(x)| * |down(x)| (lowest
        position on ties).  The factors within R make both branches drop
        many nodes; the whole-poset ones are computed once per fold.  An
        explicit stack replaces recursion, so depth costs no frames.
        """
        budget = IDEAL_STATE_BUDGET
        up, down = self.up, self.down
        reach = [u.bit_count() * d.bit_count() for u, d in zip(up, down)]
        full = (1 << len(self.topo)) - 1
        memo = {0: one}
        plans: dict[int, tuple] = {}
        stack = [full]
        while stack:
            rest = stack[-1]
            if rest in memo:
                stack.pop()
                continue
            plan = plans.pop(rest, None)
            if plan is None:
                parts: list[int] = []
                todo = rest
                while todo:
                    part = up[(todo & -todo).bit_length() - 1] & rest
                    todo &= ~part
                    disjoint = []
                    for other in parts:
                        if other & part:
                            part |= other
                        else:
                            disjoint.append(other)
                    disjoint.append(part)
                    parts = disjoint
                if len(parts) > 1:
                    plan = (None, parts)
                else:
                    best = -1
                    todo = rest
                    while todo:
                        low = todo & -todo
                        todo ^= low
                        pos = low.bit_length() - 1
                        score = (
                            (up[pos] & rest).bit_count() * (down[pos] & rest).bit_count()
                            * reach[pos]
                        )
                        if score > best:
                            best, x = score, pos
                    plan = (x, (rest & ~up[x], rest & ~down[x]))
                plans[rest] = plan
                for part in plan[1]:
                    if part not in memo:
                        stack.append(part)
                continue
            x, parts = plan
            if x is None:
                value = memo[parts[0]]
                for part in parts[1:]:
                    value = times(value, memo[part])
                memo[rest] = value
            else:
                memo[rest] = branch(memo[parts[0]], memo[parts[1]], rest & down[x])
            stack.pop()
            if len(memo) > budget:
                raise IdealCapExceeded(budget)
        self.states = len(memo)
        return memo[full]


def _positions(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def digraph_dot(
    labels: Sequence[str], succs: Sequence[Sequence[int]], name: str = "g"
) -> str:
    """Graphviz digraph text for an adjacency-list graph with node labels."""
    lines = [f"digraph {name} {{"]
    for label in labels:
        lines.append(f'  "{label}";')
    for i, out in enumerate(succs):
        for j in out:
            lines.append(f'  "{labels[i]}" -> "{labels[j]}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
