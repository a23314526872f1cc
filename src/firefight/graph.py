"""Graph primitives for the firefighting game on cactus graphs.

Vertices are dense integer ids 0..n-1 with a designated fire source (the
root).  A cactus is a connected graph in which every edge lies on at most
one cycle; trees (no cycle) and 1-almost trees (at most one cycle) are the
special cases the restricted strategies need.  All structures here are
immutable after construction; a graph only fills in its BFS on first use.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, NamedTuple


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


# largest graph the package builds or parses; bigger requests are refused up front
MAX_VERTICES = 10**6


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
    :meth:`from_edges`, or :meth:`from_adjacency` from neighbor lists, which
    validate simplicity and connectivity; the views :func:`contract` builds
    are valid by construction and skip it.  The graph keeps its BFS from
    the root (:attr:`bfs`), which :meth:`from_adjacency` runs for those
    checks and a view runs on first use; the chord walk
    (:func:`fundamental_cycles`) reads it.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    root: int
    _bfs_tree: BfsTree | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], root: int = 0) -> "Graph":
        """The graph on ``n`` vertices with ``edges``, each an unordered
        pair.  The first faulty edge in input order names the ValueError:
        an endpoint out of range, a self-loop or a duplicate."""
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if not 0 <= root < n:
            raise ValueError(f"root {root} out of range")
        edges = list(edges)  # read again only to name a fault
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                # a self-loop or duplicate before this edge comes first
                raise ValueError(_first_fault(edges, n))
            adj[u].append(v)
            adj[v].append(u)
        return cls.from_adjacency(adj, root, edges)

    @classmethod
    def from_adjacency(
        cls, adj: list[list[int]], root: int, edges: Iterable[tuple[int, int]]
    ) -> "Graph":
        """The graph whose vertex v has the neighbors ``adj[v]``, in any
        order, the lists built from ``edges`` in input order (each edge
        appended at both ends); sorts the lists in place.  Checks what
        :meth:`from_edges` checks after the endpoints' range: ValueError
        names the first self-loop or duplicate of ``edges``, and
        DisconnectedError a graph the root's BFS does not span.  ``edges``
        is read only when the BFS shows one of the two."""
        for nb in adj:
            nb.sort()
        n = len(adj)
        g = cls(n, tuple(map(tuple, adj)), root)
        tree = g.bfs
        if len(tree.order) < n or not _simple(tree, sum(map(len, adj)) // 2):
            fault = _first_fault(edges, n)
            if fault is not None:
                raise ValueError(fault)
            # connectivity is part of the construction contract: every vertex must matter
            raise DisconnectedError("graph is not connected")
        return g

    @property
    def bfs(self) -> BfsTree:
        """The FIFO BFS from the root over the sorted adjacency, run once."""
        if self._bfs_tree is None:
            # not a functools.cached_property: on CPython 3.11 its write to
            # __dict__ slows every later attribute read of the graph
            object.__setattr__(self, "_bfs_tree", _bfs(self))
        return self._bfs_tree

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


def _first_fault(edges: Iterable[tuple[int, int]], n: int) -> str | None:
    """What is wrong with the first faulty edge of ``edges`` on ``n``
    vertices, in input order: an endpoint out of range, a self-loop or a
    duplicate; None when no edge is faulty."""
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) out of range"
        if u == v:
            return f"self-loop at {u}"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return f"duplicate edge {key}"
        seen.add(key)
    return None


def _simple(tree: BfsTree, m: int) -> bool:
    """Whether the graph of ``tree``, a BFS that spans it, has neither a
    self-loop nor a duplicate among its ``m`` edges (counted with their
    copies).  Each of the n - 1 tree edges is met first from the parent,
    and each other edge is a chord, met once from its smaller end; so a
    simple graph has m - n + 1 chords, all distinct, none a tree edge.
    A self-loop is met only at its own vertex and never counted; a second
    copy of a tree edge is counted only when the parent is the smaller
    end, as a chord that is a tree edge; a second copy of another edge
    repeats its chord.  So the three checks hold exactly when the graph
    is simple."""
    chords = tree.chords
    parent = tree.parent
    return (
        len(chords) == m - len(tree.order) + 1
        and len(set(chords)) == len(chords)
        and all(parent[v] != u for u, v in chords)
    )


class BfsTree(NamedTuple):
    """A BFS from the root: the reached vertices in visiting order, each
    vertex's BFS parent (-1 for the root and when unreached) and depth
    (-1 when unreached), and the chords, the edges between reached vertices
    that are not tree edges (parent[v], v), each once as (u, v) with u < v,
    in the order the BFS met them."""

    order: tuple[int, ...]
    parent: tuple[int, ...]
    depth: tuple[int, ...]
    chords: tuple[tuple[int, int], ...]


def _bfs(g: Graph) -> BfsTree:
    root, adj = g.root, g.adjacency
    parent = [-1] * g.n
    depth = [-1] * g.n
    depth[root] = 0
    order = [root]
    chords = []
    for u in order:  # the list grows behind the loop: a FIFO queue
        d = depth[u] + 1
        p = parent[u]
        for v in adj[u]:
            if depth[v] < 0:
                depth[v] = d
                parent[v] = u
                order.append(v)
            elif v != p and u < v:  # met from both ends: kept from the smaller
                chords.append((u, v))
    return BfsTree(tuple(order), tuple(parent), tuple(depth), tuple(chords))


@dataclass(frozen=True)
class Subgraph:
    """A materialized subgraph together with the map back to parent ids.

    ``to_orig[i]`` is the parent-graph id of view vertex ``i``.  Ids are
    assigned in increasing parent-id order, so comparisons between view ids
    agree with comparisons between the original ids (the root of a view
    :func:`contract` builds is id 0, the one exception, and is never a
    protection candidate).
    """

    graph: Graph
    to_orig: tuple[int, ...]

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
    seen = _distances(g, blocked, g.root)
    return frozenset(v for v in range(g.n) if v not in removed and v not in seen)


def weight(g: Graph, removed: Iterable[int], s: Iterable[int]) -> int:
    """Number of vertices covered by ``s``: the profit of protecting it."""
    return len(covered_set(g, removed, s))


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


class CycleWalk(NamedTuple):
    """The cycles of a validated cactus and its dominator tree, as its chord
    walk finds them.

    ``cycles[i]`` is the cycle closed by the i-th chord of the graph's BFS
    (:attr:`BfsTree.chords`), in cyclic order from its top ``tops[i]``,
    its member of least BFS depth, through which every path from the root
    enters the cycle; which way round it runs is left to the walk.
    ``class_tag`` is the graph's class.  ``idom[v]`` is v's immediate
    dominator (-1 for the root) and ``size[v]`` the size of v's dominator
    subtree, which is exactly ``covered_set({v})``, so ``size[v]`` is the
    weight of v; a root cycle weighs the sizes of its members but the root.
    :func:`validate_and_decompose` gives the canonical form, of this same
    type.
    """

    cycles: tuple[tuple[int, ...], ...]
    tops: tuple[int, ...]
    class_tag: GraphClass
    idom: tuple[int, ...]
    size: tuple[int, ...]


def fundamental_cycles(g: Graph) -> CycleWalk:
    """Check the cactus property, walk every cycle of g's BFS tree once, and
    read g's dominator tree off the walk.

    Reads the BFS the graph keeps (:attr:`Graph.bfs`) and walks only its
    chords, so a tree needs no walk.  Each chord closes one cycle, found
    by walking both ends up to their lowest common ancestor, the cycle's
    top.  A graph is a cactus iff these fundamental cycles are
    edge-disjoint, so a tree edge walked twice raises
    :class:`NotCactusError`; :class:`DisconnectedError` is raised when the
    graph is not connected.  A vertex whose BFS tree edge is a bridge is
    dominated by its BFS parent; every other vertex lies below the top of
    exactly one cycle, the one holding that edge, and is dominated by that
    top.  Sizes are summed in reverse BFS order.  O(n).
    """
    tree = g.bfs
    if len(tree.order) != g.n:
        raise DisconnectedError("graph is not connected")
    return _chord_walk(tree, g.n)


def _chord_walk(tree: BfsTree, n: int) -> CycleWalk:
    """The walk of :func:`fundamental_cycles` over ``tree``, a BFS whose
    vertices are ids below ``n`` and whose root is ``order[0]``; ids the
    BFS did not reach stay out of every cycle and keep size 1."""
    order, parent, depth, chords = tree
    walked = [False] * n  # tree edge (parent[v], v), keyed by v
    idom = list(parent)
    cycles = []
    tops = []
    for a, b in chords:
        up: list[int] = []
        down: list[int] = []
        while a != b:
            if depth[a] >= depth[b]:
                x, a = a, parent[a]
                up.append(x)
            else:
                x, b = b, parent[b]
                down.append(x)
            if walked[x]:
                raise NotCactusError("a biconnected component is denser than one cycle")
            walked[x] = True
        down.reverse()
        down += up
        for x in down:
            idom[x] = a
        cycles.append((a, *down))  # the top, down to one chord end, across, back up
        tops.append(a)
    size = [1] * n
    for v in reversed(order[1:]):
        size[idom[v]] += size[v]
    if not cycles:
        tag = GraphClass.TREE
    elif len(cycles) == 1:
        tag = GraphClass.ONE_ALMOST_TREE
    else:
        tag = GraphClass.CACTUS
    return CycleWalk(tuple(cycles), tuple(tops), tag, tuple(idom), tuple(size))


def _orient(cyc: tuple[int, ...], start: int) -> tuple[int, ...]:
    """The cycle read from position ``start`` toward its smaller neighbor."""
    r = cyc[start:] + cyc[:start] if start else cyc
    return r if r[1] < r[-1] else (r[0], *reversed(r[1:]))


def validate_and_decompose(g: Graph) -> CycleWalk:
    """g's chord walk (:func:`fundamental_cycles`), which raises
    :class:`NotCactusError` and :class:`DisconnectedError`, in canonical form.

    Each cycle is read from its top when that is the root and from its
    smallest member otherwise, toward the smaller neighbor, and the cycles
    are sorted by ``(min(c), c)``, each minimum computed once, so when the
    root is vertex 0, as in every view, root cycles come first, in the
    order of their smaller root neighbor.  The tops follow their cycles;
    the dominator tree, which no cycle order changes, is the walk's.
    """
    walk = fundamental_cycles(g)
    root = g.root
    found = []  # (min, cycle, top)
    for cyc, top in zip(walk.cycles, walk.tops):
        low = min(cyc)
        found.append((low, _orient(cyc, 0 if top == root else cyc.index(low)), top))
    found.sort()  # no two cycles are equal, so the tops are never compared
    cycles = tuple([c for _, c, _ in found])
    return walk._replace(cycles=cycles, tops=tuple([t for _, _, t in found]))


def contract(g: Graph, index: list[int]) -> Subgraph:
    """The view of g that merges, drops and keeps vertices as ``index`` says.

    ``index[v]`` is 0 for the root and every vertex merged into it, -1 for
    a dropped vertex, and 1..k for the kept vertices in increasing order of
    v.  The merged vertices must form a connected set, and every kept
    vertex must reach it avoiding dropped ones.  The view is read off
    ``g.adjacency`` with parallel root edges collapsed.
    """
    adj = g.adjacency
    view_id = index.__getitem__
    kept = [v for v, i in enumerate(index) if i > 0]
    adjacency: list[tuple[int, ...]] = [()]
    root_nbrs = []
    for i, v in enumerate(kept, 1):
        nbrs = tuple(map(view_id, adj[v]))
        if 0 in nbrs:
            root_nbrs.append(i)
            nbrs = (0, *[j for j in nbrs if j > 0])
        elif -1 in nbrs:
            nbrs = tuple([j for j in nbrs if j > 0])
        adjacency.append(nbrs)
    adjacency[0] = tuple(root_nbrs)
    return Subgraph(Graph(len(adjacency), tuple(adjacency), 0), (g.root, *kept))


def _cycle_for_break(walk: CycleWalk, g: Graph, c: int, cut) -> tuple[int, ...]:
    """Root cycle ``c``, checked to break at the vertex or edge ``cut``."""
    if not 0 <= c < len(walk.cycles):
        raise ValueError(f"no cycle with index {c}")
    cyc = walk.cycles[c]
    if g.root not in cyc:
        raise NotRootCycleError("operation only defined for cycles through the root")
    if isinstance(cut, tuple):
        pairs = set(zip(cyc, cyc[1:] + cyc[:1]))
        if cut not in pairs and cut[::-1] not in pairs:
            raise EdgeNotOnCycleError(f"edge {cut} is not on cycle {c}")
    elif cut == g.root:
        raise RootInSetError("cannot break a cycle at the root")
    elif cut not in cyc:
        raise VertexNotOnCycleError(f"{cut} is not on cycle {c}")
    return cyc


def break_subgraph(g: Graph, walk: CycleWalk, c: int, v: int) -> Subgraph:
    """The territory that stays reachable after breaking root cycle ``c`` at ``v``.

    The induced subgraph on the root plus everything the cycle covers, with
    v's own covered set removed: the definition behind :func:`tolerance`,
    which reads the root distances off the BFS the view keeps.
    """
    cyc = _cycle_for_break(walk, g, c, v)
    keep = {g.root} | covered_set(g, (), set(cyc) - {g.root})
    return induced_subgraph(g, keep - covered_set(g, (), {v}), g.root)


def break_subgraph_edge(g: Graph, walk: CycleWalk, c: int, e: tuple[int, int]) -> Subgraph:
    """Like :func:`break_subgraph` but severing one cycle edge instead."""
    cyc = _cycle_for_break(walk, g, c, tuple(e))
    keep = {g.root} | covered_set(g, (), set(cyc) - {g.root})
    return induced_subgraph(g, keep, g.root, drop_edge=e)


def break_depth(dists: list[int], m: int) -> int | None:
    """Largest d keeping ``m`` vertices at >= d, given the root distances in
    nondecreasing order: the m-th last distance, or None."""
    if m < 1:
        raise InvalidTargetError("population target must be at least 1")
    return dists[-m] if len(dists) >= m else None


def tolerance(g: Graph, walk: CycleWalk, u: int, c: int, m: int) -> int | None:
    """Largest d such that breaking cycle ``c`` at ``u`` keeps at least ``m``
    vertices at distance >= d from the root.  None when even d=0 falls short.

    Read off the root distances of the break's view (:func:`break_subgraph`),
    which its construction already found by BFS.
    """
    return break_depth(sorted(break_subgraph(g, walk, c, u).graph.bfs.depth), m)


def tolerance_edge(
    g: Graph, walk: CycleWalk, e: tuple[int, int], c: int, m: int
) -> int | None:
    """Edge variant of :func:`tolerance`: sever ``e`` instead of a vertex
    (:func:`break_subgraph_edge`)."""
    return break_depth(sorted(break_subgraph_edge(g, walk, c, tuple(e)).graph.bfs.depth), m)
