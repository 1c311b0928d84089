"""Finite poset utilities: topological order and order-ideal enumeration.

Precedence relations in this package (cubes under shared-facet
precedence, fragments and enlarged fragments under shared-tile
precedence) are given as successor maps on an indexed node list.  The
enumeration of order ideals is a reverse search over the ideal
lattice: nodes are re-indexed by topological position, and the
children of an ideal I are the ideals I + {p} where p is addable (all
predecessors inside I) and lies above every position in I.  Each
ideal then has the unique parent obtained by removing its topologically
largest element, so every ideal is visited exactly once, starting from
the empty ideal, with one enter/leave callback pair per lattice edge -
which is exactly a raising flip and its undo for the membrane
structures built on top.

The walk is iterative.  An explicit stack holds one frame per ideal on
the current path: the bitmask of children not yet tried and the
bitmask of positions included.  Adding p takes it out of the addable
mask and sets the bit of each successor of p whose predecessors are
now all included; the new frame's children are the addable positions
above p.  No position is rescanned and nothing recurses, so the depth
of the poset is bounded by memory only.
"""

from __future__ import annotations

from typing import Callable, Sequence


class CycleError(ValueError):
    """A precedence relation expected to be acyclic has a directed cycle."""


class IdealCapExceeded(RuntimeError):
    """Ideal enumeration hit its configured cap before finishing."""

    def __init__(self, cap: int):
        super().__init__(f"order-ideal enumeration exceeded the cap of {cap}")
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
    cap: int | None = None,
) -> int:
    """Visit every order ideal exactly once; returns the ideal count.

    Nodes are re-indexed internally into topological order.  `enter(e)`
    fires when element e (original index) joins the current ideal,
    `leave(e)` when the walk backtracks over it, and `visit(ideal)`
    once per ideal with the original indices in topological order.
    Raises IdealCapExceeded when more than `cap` ideals appear.
    """
    topo = topological_order(count, succs)
    position = [0] * count
    for i, node in enumerate(topo):
        position[node] = i
    # per topological position: predecessor bitmask, successor positions
    preds = [0] * count
    later: list[list[int]] = [[] for _ in range(count)]
    for node in range(count):
        for succ in succs[node]:
            preds[position[succ]] |= 1 << position[node]
            later[position[node]].append(position[succ])

    current: list[int] = []
    visited = 1
    if cap is not None and visited > cap:
        raise IdealCapExceeded(cap)
    if visit is not None:
        visit(())
    roots = 0
    for pos in range(count):
        if not preds[pos]:
            roots |= 1 << pos
    # frame: (children still to try, positions in the ideal); the
    # children of an ideal are its addable positions above its last one
    stack = [(roots, 0)]
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
        if cap is not None and visited > cap:
            raise IdealCapExceeded(cap)
        if visit is not None:
            visit(tuple(current))
        stack.append((rest, included))
    return visited


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
