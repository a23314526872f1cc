"""Graph primitives for the firefighting game on cactus graphs.

Vertices are dense integer ids 0..n-1 with a designated fire source (the
root).  A cactus is a connected graph in which every edge lies on at most
one cycle; trees (no cycle) and 1-almost trees (at most one cycle) are the
special cases the restricted strategies need.  All structures here are
immutable after construction.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator


class GraphError(Exception):
    """Base class for structural errors raised by this module."""


class DisconnectedError(GraphError):
    pass


class NotCactusError(GraphError):
    pass


class RootInSetError(GraphError):
    pass


class VertexNotOnCycleError(GraphError):
    pass


class NotRootCycleError(GraphError):
    pass


class EdgeNotOnCycleError(GraphError):
    pass


class InvalidTargetError(GraphError):
    pass


def ceil_sqrt(x: int) -> int:
    """Smallest integer m with m*m >= x (exact, no floats)."""
    if x < 0:
        raise ValueError("ceil_sqrt of negative value")
    if x == 0:
        return 0
    return 1 + math.isqrt(x - 1)


@dataclass(frozen=True)
class Graph:
    """Simple undirected connected graph with a root vertex.

    ``adjacency[v]`` is the sorted tuple of v's neighbors.  Build through
    :meth:`from_edges`, which validates simplicity and connectivity.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    root: int

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], root: int = 0) -> "Graph":
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range")
        seen: set[tuple[int, int]] = set()
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        g = cls(n, tuple(tuple(sorted(nb)) for nb in adj), root)
        # connectivity is part of the construction contract: every vertex must matter
        if len(_reachable(g, frozenset(), root)) != n:
            raise DisconnectedError("graph is not connected")
        return g

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u < v:
                    yield (u, v)

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2

    def vertices(self) -> range:
        return range(self.n)


@dataclass(frozen=True)
class Subgraph:
    """A materialized subgraph together with the map back to parent ids.

    ``to_orig[i]`` is the parent-graph id of view vertex ``i``.  Ids are
    assigned in increasing parent-id order, so comparisons between view ids
    agree with comparisons between the original ids (the reduced-view root
    is the one exception and is never a protection candidate).
    """

    graph: Graph
    to_orig: tuple[int, ...]

    def orig(self, v: int) -> int:
        return self.to_orig[v]

    def index_map(self) -> dict[int, int]:
        return {o: i for i, o in enumerate(self.to_orig)}


def induced_subgraph(
    g: Graph,
    keep: Iterable[int],
    root: int,
    drop_edge: tuple[int, int] | None = None,
) -> Subgraph:
    """Induced subgraph on ``keep`` (original ids), optionally minus one edge."""
    kept = sorted(set(keep))
    if root not in kept:
        raise ValueError("root must be kept")
    index = {o: i for i, o in enumerate(kept)}
    banned = None
    if drop_edge is not None:
        a, b = drop_edge
        banned = (min(a, b), max(a, b))
    edges = []
    for u in kept:
        for v in g.adjacency[u]:
            if u < v and v in index:
                if banned is not None and (u, v) == banned:
                    continue
                edges.append((index[u], index[v]))
    sub = Graph.from_edges(len(kept), edges, index[root])
    return Subgraph(sub, tuple(kept))


def _reachable(g: Graph, removed: frozenset[int], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if v not in seen and v not in removed:
                seen.add(v)
                queue.append(v)
    return seen


def _distances(g: Graph, removed: frozenset[int], start: int) -> dict[int, int]:
    dist = {start: 0}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if v not in dist and v not in removed:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def covered_set(g: Graph, removed: Iterable[int], s: Iterable[int]) -> frozenset[int]:
    """Vertices whose every path to the root meets ``s``.

    Computed as the complement of the root's reachable region when search
    may not enter ``s``.  Vertices of ``s`` cover themselves; the root is
    never covered.  ``removed`` vertices are outside the game entirely.
    """
    removed = frozenset(removed)
    s = frozenset(s)
    if g.root in removed:
        raise ValueError("root cannot be removed")
    if g.root in s:
        raise RootInSetError("the fire source cannot be part of a protected set")
    if s & removed:
        raise ValueError("protected set overlaps removed vertices")
    blocked = removed | s
    seen = _reachable(g, blocked, g.root)
    return frozenset(v for v in range(g.n) if v not in removed and v not in seen)


def weight(g: Graph, removed: Iterable[int], s: Iterable[int]) -> int:
    """Number of vertices covered by ``s``: the profit of protecting it."""
    return len(covered_set(g, removed, s))


def dist(g: Graph, removed: Iterable[int], u: int, v: int) -> int | float:
    """Shortest-path length between u and v avoiding removed vertices."""
    removed = frozenset(removed)
    if u in removed or v in removed:
        raise ValueError("endpoint is removed")
    d = _distances(g, removed, u)
    return d.get(v, math.inf)


def count_safe(g: Graph, removed: Iterable[int], d: int) -> int:
    """Number of surviving vertices at distance >= d from the root.

    Unreachable vertices count for every d.  Nonincreasing in d.
    """
    removed = frozenset(removed)
    if g.root in removed:
        raise ValueError("root cannot be removed")
    dd = _distances(g, removed, g.root)
    alive = g.n - len(removed)
    near = sum(1 for x in dd.values() if x < d)
    return alive - near


class GraphClass(Enum):
    TREE = "tree"
    ONE_ALMOST_TREE = "one-almost-tree"
    CACTUS = "cactus"


@dataclass(frozen=True, eq=True)
class CactusDecomposition:
    """Cycle structure of a validated cactus.

    ``cycles[i]`` lists one cycle in cyclic order; cycles through the root
    start at the root and continue toward the smaller root neighbor, other
    cycles start at their smallest member.  ``vertex_cycles[v]`` holds the
    indices of the cycles containing v (a cut vertex may sit on several).
    """

    cycles: tuple[tuple[int, ...], ...]
    edge_cycle: dict[tuple[int, int], int]
    vertex_cycles: tuple[tuple[int, ...], ...]
    class_tag: GraphClass
    root_cycle_indices: tuple[int, ...]

    def is_cycle_vertex(self, v: int) -> bool:
        return bool(self.vertex_cycles[v])

    def cycle_of_edge(self, u: int, v: int) -> int | None:
        return self.edge_cycle.get((min(u, v), max(u, v)))


def _biconnected_edge_components(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge sets of the biconnected components (iterative lowpoint search)."""
    disc = [0] * g.n
    low = [0] * g.n
    timer = 1
    comps: list[list[tuple[int, int]]] = []
    estack: list[tuple[int, int]] = []
    for s in range(g.n):
        if disc[s]:
            continue
        stack: list[tuple[int, int, Iterator[int]]] = [(s, -1, iter(g.adjacency[s]))]
        disc[s] = low[s] = timer
        timer += 1
        while stack:
            u, parent, it = stack[-1]
            advanced = False
            for v in it:
                if not disc[v]:
                    estack.append((u, v))
                    disc[v] = low[v] = timer
                    timer += 1
                    stack.append((v, u, iter(g.adjacency[v])))
                    advanced = True
                    break
                if v != parent and disc[v] < disc[u]:
                    estack.append((u, v))
                    if disc[v] < low[u]:
                        low[u] = disc[v]
            if advanced:
                continue
            stack.pop()
            if stack:
                pu = stack[-1][0]
                if low[u] < low[pu]:
                    stack[-1] = (pu, stack[-1][1], stack[-1][2])
                    low[pu] = low[u]
                if low[u] >= disc[pu]:
                    comp = []
                    while estack:
                        e = estack.pop()
                        comp.append(e)
                        if e == (pu, u):
                            break
                    comps.append(comp)
    return comps


def _cycle_order(members: set[int], adj: dict[int, list[int]], anchor: int) -> tuple[int, ...]:
    start = anchor if anchor in members else min(members)
    first = min(adj[start])
    order = [start, first]
    prev, cur = start, first
    while cur != start:
        a, b = adj[cur]
        nxt = b if a == prev else a
        order.append(nxt)
        prev, cur = cur, nxt
    return tuple(order[:-1])


def validate_and_decompose(g: Graph) -> CactusDecomposition:
    """Check the cactus property and extract every cycle.

    Raises :class:`NotCactusError` when some biconnected component is not a
    single cycle, :class:`DisconnectedError` when the graph is not connected.
    """
    if len(_reachable(g, frozenset(), g.root)) != g.n:
        raise DisconnectedError("graph is not connected")
    raw_cycles: list[tuple[int, ...]] = []
    for comp in _biconnected_edge_components(g):
        if len(comp) <= 1:
            continue
        members: set[int] = set()
        cadj: dict[int, list[int]] = {}
        for u, v in comp:
            members.add(u)
            members.add(v)
            cadj.setdefault(u, []).append(v)
            cadj.setdefault(v, []).append(u)
        if len(comp) != len(members) or any(len(a) != 2 for a in cadj.values()):
            raise NotCactusError("a biconnected component is denser than one cycle")
        raw_cycles.append(_cycle_order(members, cadj, g.root))
    raw_cycles.sort(key=min)
    cycles = tuple(raw_cycles)
    edge_cycle: dict[tuple[int, int], int] = {}
    vertex_cycles: list[list[int]] = [[] for _ in range(g.n)]
    root_idx = []
    for i, cyc in enumerate(cycles):
        for v in cyc:
            vertex_cycles[v].append(i)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            edge_cycle[(min(a, b), max(a, b))] = i
        if g.root in cyc:
            root_idx.append(i)
    if not cycles:
        tag = GraphClass.TREE
    elif len(cycles) == 1:
        tag = GraphClass.ONE_ALMOST_TREE
    else:
        tag = GraphClass.CACTUS
    return CactusDecomposition(
        cycles=cycles,
        edge_cycle=edge_cycle,
        vertex_cycles=tuple(tuple(c) for c in vertex_cycles),
        class_tag=tag,
        root_cycle_indices=tuple(root_idx),
    )


@dataclass(frozen=True)
class DominatorTree:
    """Dominator tree of a rooted cactus.

    ``idom[v]`` is v's immediate dominator (-1 for the root), ``order`` is
    a BFS order from the root, so every vertex comes after its dominator,
    and ``size[v]`` is the size of v's dominator subtree.  The subtree of v
    is exactly ``covered_set({v})``, so ``size[v]`` is the weight of v.
    """

    idom: tuple[int, ...]
    order: tuple[int, ...]
    size: tuple[int, ...]

    def cycle_weight(self, cycle: tuple[int, ...]) -> int:
        """Weight of a root cycle (root first): its other vertices' subtrees."""
        return sum(self.size[v] for v in cycle[1:])


def dominator_tree(g: Graph, decomp: CactusDecomposition) -> DominatorTree:
    """Immediate dominators and subtree sizes of a validated cactus, one BFS.

    A vertex's BFS tree edge lies in its parent block.  When that block is
    a cycle, the vertex is dominated by the cycle's top (its vertex closest
    to the root); otherwise by its BFS parent.  Sizes are summed in reverse
    BFS order.
    """
    root = g.root
    idom = [-1] * g.n
    via: list[int | None] = [None] * g.n  # cycle of each vertex's BFS tree edge
    seen = [False] * g.n
    seen[root] = True
    order = [root]
    edge_cycle = decomp.edge_cycle
    for u in order:  # the list grows behind the loop: a FIFO queue
        for v in g.adjacency[u]:
            if not seen[v]:
                seen[v] = True
                c = edge_cycle.get((u, v) if u < v else (v, u))
                via[v] = c
                # below the top of its cycle, u already hangs off that top
                idom[v] = idom[u] if c is not None and via[u] == c else u
                order.append(v)
    size = [1] * g.n
    for v in reversed(order[1:]):
        size[idom[v]] += size[v]
    return DominatorTree(tuple(idom), tuple(order), tuple(size))


def _cycle_for_break(decomp: CactusDecomposition, g: Graph, c: int) -> tuple[int, ...]:
    if not 0 <= c < len(decomp.cycles):
        raise ValueError(f"no cycle with index {c}")
    cyc = decomp.cycles[c]
    if g.root not in cyc:
        raise NotRootCycleError("operation only defined for cycles through the root")
    return cyc


def break_subgraph(g: Graph, decomp: CactusDecomposition, c: int, v: int) -> Subgraph:
    """Territory that stays reachable after breaking root cycle ``c`` at ``v``.

    The induced subgraph on the root plus everything the cycle covers, with
    v's own covered set removed.
    """
    cyc = _cycle_for_break(decomp, g, c)
    if v == g.root:
        raise RootInSetError("cannot break a cycle at the root")
    if v not in cyc:
        raise VertexNotOnCycleError(f"{v} is not on cycle {c}")
    cyc_cov = covered_set(g, frozenset(), frozenset(cyc) - {g.root})
    v_cov = covered_set(g, frozenset(), frozenset([v]))
    keep = ({g.root} | set(cyc_cov)) - set(v_cov)
    return induced_subgraph(g, keep, g.root)


def break_subgraph_edge(
    g: Graph, decomp: CactusDecomposition, c: int, e: tuple[int, int]
) -> Subgraph:
    """Like :func:`break_subgraph` but severing one cycle edge instead."""
    cyc = _cycle_for_break(decomp, g, c)
    a, b = e
    if decomp.cycle_of_edge(a, b) != c:
        raise EdgeNotOnCycleError(f"edge {e} is not on cycle {c}")
    cyc_cov = covered_set(g, frozenset(), frozenset(cyc) - {g.root})
    keep = {g.root} | set(cyc_cov)
    return induced_subgraph(g, keep, g.root, drop_edge=(a, b))


def _largest_d_with_count(sub: Subgraph, m: int) -> int | None:
    if m < 1:
        raise InvalidTargetError("population target must be at least 1")
    dd = _distances(sub.graph, frozenset(), sub.graph.root)
    dists = sorted(dd.values(), reverse=True)
    if len(dists) < m:
        return None
    # count_safe(d) >= m exactly for d up to the m-th largest distance
    return dists[m - 1]


def tolerance(g: Graph, decomp: CactusDecomposition, u: int, c: int, m: int) -> int | None:
    """Largest d such that breaking cycle ``c`` at ``u`` keeps at least ``m``
    vertices at distance >= d from the root.  None when even d=0 falls short.
    """
    return _largest_d_with_count(break_subgraph(g, decomp, c, u), m)


def tolerance_edge(
    g: Graph, decomp: CactusDecomposition, e: tuple[int, int], c: int, m: int
) -> int | None:
    """Edge variant of :func:`tolerance`: sever ``e`` instead of a vertex."""
    return _largest_d_with_count(break_subgraph_edge(g, decomp, c, e), m)
