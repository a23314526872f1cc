"""Online protection strategies.

All four strategies run one core: ``_step`` weighs the root neighbors and
root-cycle vertices and protects greedily or seals a heavy root cycle with
a pair; they differ only in the break policy a lone firefighter consults
against a heavy root cycle (none for ``greedy-tree`` and ``alg-e``).

Every decision weighs the reduced view of the position: the burned region
merged into a root, the truly available vertices kept.  A game does not
rebuild that view per round or per placement; it keeps the residual game
(``_Residual``) in its own ids from round to round: one chord walk per
game, which gives the dominator tree too, never a canonical decomposition,
then O(log n) per candidate change as the fire spreads and firefighters are
placed.  A root cycle is one arc and puts forward one candidate, so
opening, sealing or breaking it takes a fixed number of Python steps plus
C-level passes over its members.  Within a round a strategy may place
several firefighters; each placement drops the territory it covers from
the residual, which is what makes per-placement weights add up to the
final profit.  A break is decided on the residual game too, once its
policy's cheap guard passes: its arcs are the view's root cycles, its
sizes the view's weights, and a cut cycle's territory is read off arc
positions and one profile per cycle, the depths of what hangs off its
members (``_territory``, the package's one territory walk, which visits
only that).  No decision builds a view.

The residual game also holds the rest of a game's strategy state: the
break policy and the cool-down, an int, the rounds left; building it checks
the strategy's graph class.  ``_round`` plays one round on it, protects
each decision straight into the game state, which validates it, and
records it as a :class:`ProtectEvent`.  Every record, a break's included,
is in the ids of the graph the game is played on; :func:`decision_view`
rebuilds the view a decision weighed, for a caller who wants its ids.  The
``*_round`` functions play round one of a game on the graph they are given,
and :func:`improved_break` decides the cactus break on a fresh residual
game of its graph, so every break runs one core.

Square-root comparisons are done in exact integer arithmetic throughout:
``w >= sqrt(W)`` becomes ``w*w >= W`` and population targets use
``ceil_sqrt``.  Ties between equally good vertices go to the lowest id.
Root cycles are ranked by weight, then by their sorted ends; in a reduced
view every root cycle holds the root, id 0, so ties between root cycles go
to the smaller root neighbor, as in the canonical ``(min(c), c)`` order.

A vertex is worth its dominator subtree (``CycleWalk.size``), a root cycle
the subtrees of its non-root vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import chain, compress, repeat
from operator import add, contains, itemgetter, le, neg, sub
from typing import Callable, NamedTuple, Sequence

from .engine import AVAILABLE, GameState, Instance, TraceEntry
from .graph import (
    CycleWalk,
    Graph,
    GraphClass,
    Subgraph,
    break_depth,
    ceil_sqrt,
    covered_set,  # unused here, but the benchmark's tests wrap it under this module's name
    fundamental_cycles,
)


class AlgorithmError(Exception):
    pass


class WrongGraphClassError(AlgorithmError):
    pass


class NoEligibleCycleError(AlgorithmError):
    pass


class NoEligibleBreakVertexError(AlgorithmError):
    pass


class AlgorithmKind(Enum):
    GREEDY_TREE = "greedy-tree"
    ALG_A = "alg-a"
    ALG_C = "alg-c"
    ALG_E = "alg-e"

    def accepts(self, cls: GraphClass) -> bool:
        """Whether this strategy plays on graphs of class ``cls``."""
        return cls in _KINDS[self].classes

    def bound_for(self, sequence: tuple[int, ...]) -> tuple[int, int] | None:
        """The proven ratio bound c*sqrt(n) + k as (c, k), or None."""
        contract = _KINDS[self]
        if contract.even_only and any(f % 2 for f in sequence):
            return None
        return contract.bound


@dataclass(frozen=True)
class BreakDetail:
    """Everything a cycle break decided, in the ids of the game's graph.

    ``vertex`` is protected; ``anchor`` is the root neighbor whose root edge
    was conceptually severed to measure distances; ``depth`` is the largest
    fire travel distance that still keeps ``target`` vertices safe;
    ``cooldown`` is the fire's travel time to ``vertex`` along the opened
    cycle; ``cycle`` is the scanned cycle starting (root, anchor, ...).
    """

    vertex: int
    anchor: int
    depth: int
    cooldown: int
    cycle: tuple[int, ...]
    target: int
    cycle_weight: int


@dataclass(frozen=True)
class ProtectEvent:
    """A recorded protection: what was done and why, in the ids of the
    game's graph; a break's ``brk.vertex`` is ``vertex``."""

    time: int
    round: int
    vertex: int
    reason: str
    brk: BreakDetail | None


def _territory(res: _Residual, arc: _Arc) -> tuple[list[int], list[int]]:
    """The profile of root cycle ``arc`` of the residual game ``res``: what
    its cuts' territories hold beyond the arc itself, as two aligned lists,
    the position of the member each vertex hangs off and its depth below it.

    A cut at either end of the arc, or at that end's root edge, leaves the
    arc a path from its other end, so a member's root distance follows from
    its position, and what hangs off it lies that far plus its depth
    (:func:`_cut`).  What hangs off a member is reached through it alone:
    the profile is one BFS of the game graph from the members of size above
    1 that never enters the cycle.  Members of size 1 are not visited, nor
    is the arc walked, and a bare arc, all of size 1, hangs nothing: its
    profile is empty, read off without a scan.  Nothing hanging off a live
    member changes, so an arc's profile is walked once, and a cut drops the
    members the fire has taken since by their positions.
    """
    if arc.bare:
        return [], []
    if arc.profile is None:
        cyc, lo, hi = arc.cyc, arc.lo, arc.hi
        pos = list(compress(range(lo, hi), map((1).__lt__, arc.sizes[lo - 1 : hi - 1])))
        heavy = len(pos)
        order = list(map(cyc.__getitem__, pos))
        depth = [0] * heavy
        seen = dict.fromkeys(cyc)
        adj = res.state.instance.graph.adjacency
        for x, p, d in zip(order, pos, depth):  # the lists grow behind the loop: a FIFO queue
            d += 1
            for y in adj[x]:
                if y not in seen:
                    seen[y] = None
                    order.append(y)
                    pos.append(p)
                    depth.append(d)
        arc.profile = pos[heavy:], depth[heavy:]
    return arc.profile


def _cut(
    arc: _Arc, profile: tuple[list[int], list[int]], anchor: int, at_edge: bool
) -> tuple[list[int], list[int], Sequence[int]]:
    """Root cycle ``arc`` cut at its end ``anchor``, or at that end's root
    edge when ``at_edge``, read off its ``profile`` by C-level passes.

    The fire then enters at the other end: the member at position p lies
    ``hi - p`` from the root when the anchor is the ``lo`` end and
    ``p - lo + 1`` when it is the other, so the anchor lies farthest, at
    the arc's length.  A cut at the anchor drops it and what hangs off it.
    Returns the root distances of the vertices hanging off the members
    kept, the positions of the members they hang off, and the territory's
    root distances, the root's 0 first, nondecreasing.
    """
    lo, hi = arc.lo, arc.hi
    pos, depth = profile
    if anchor == arc.cyc[lo]:
        kept = range(lo + (not at_edge), hi)
        member_dist = map(sub, repeat(hi), pos)
    else:
        kept = range(lo, hi - (not at_edge))
        member_dist = map(sub, pos, repeat(lo - 1))
    live = list(map(contains, repeat(kept), pos))
    hanging = list(compress(map(add, member_dist, depth), live))
    dists: Sequence[int] = range(len(kept) + 1)  # the root and the members
    if hanging:
        dists = sorted(chain(dists, hanging))
    return hanging, list(compress(pos, live)), dists


def _deepest_cut(
    res: _Residual, cuts: list[tuple[_Arc, tuple[int, ...]]], target: int, at_edge: bool
) -> tuple[int, int, _Arc, list[int], list[int]] | None:
    """The deepest cut among candidate anchors, ties to the lower anchor.

    ``cuts`` holds (root cycle, its candidate anchors) pairs of the
    residual game ``res``; the cut is the anchor, or its root edge when
    ``at_edge``, and its depth is the largest fire travel distance that
    keeps ``target`` opened vertices safe.  Every anchor of a cycle reads
    its one profile.  Returns (depth, anchor, cycle, and the distances and
    member positions of its hanging vertices as :func:`_cut` gives them),
    or None if none does.
    """
    best = None
    for arc, anchors in cuts:
        profile = _territory(res, arc)
        for u in anchors:
            hanging, at, dists = _cut(arc, profile, u, at_edge)
            t = break_depth(dists, target)
            if t is not None and (best is None or (t, -u) > (best[0], -best[1])):
                best = (t, u, arc, hanging, at)
    return best


def _improved_break(res: _Residual, eta_sq: int) -> BreakDetail:
    """The cactus break over the root cycles of the residual game ``res``,
    their live arcs and weights; see :func:`improved_break`."""
    eligible = [arc for arc in res.arcs.values() if arc.weight * arc.weight >= eta_sq]
    if not eligible:
        raise NoEligibleCycleError("no root cycle reaches the weight threshold")
    heaviest = max(arc.weight for arc in eligible)
    target = ceil_sqrt(heaviest)
    size = res.size
    cuts = []
    for arc in eligible:
        anchors = tuple(u for u in arc.ends() if (arc.weight - size[u]) ** 2 >= heaviest)
        if anchors:
            cuts.append((arc, anchors))
    best = _deepest_cut(res, cuts, target, at_edge=True)
    if best is None:
        raise NoEligibleBreakVertexError("no root neighbor leaves enough territory")
    depth, anchor, arc, hanging, at = best
    # the first member from the anchor with territory at depth or beyond
    # hanging off it: the anchor itself, which lies farthest, when the arc
    # is that long, or else the member nearest the anchor among those that
    # hang a vertex that deep
    lo, hi = arc.lo, arc.hi
    if depth <= hi - lo:
        vertex, cooldown = anchor, hi - lo
    else:
        # a depth beyond the arc is some hanging vertex's distance
        deep = list(compress(at, map(le, repeat(depth), hanging)))
        if anchor == arc.cyc[lo]:
            p = min(deep)
            cooldown = hi - p
        else:
            p = max(deep)
            cooldown = p - lo + 1
        vertex = arc.cyc[p]
    return BreakDetail(
        vertex=vertex,
        anchor=anchor,
        depth=depth,
        cooldown=cooldown,
        cycle=(res.state.instance.graph.root, *arc.read_from(anchor)),
        target=target,
        cycle_weight=heaviest,
    )


def improved_break(g: Graph, walk: CycleWalk, eta_sq: int) -> BreakDetail:
    """Pick the cycle break point that buys the most burning time.

    Considers root cycles whose weight squared (read off the dominator tree
    of g's chord ``walk``, in either form) is at least ``eta_sq``.  Among
    their root neighbors that leave enough territory behind, the anchor
    maximizes the edge tolerance at the square-root population target,
    read off one profile of each cycle (:func:`_territory`) for both its
    root neighbors.  The protected vertex is the first along the opened
    cycle with territory at depth ``depth`` or beyond hanging off it, and
    the cool-down its distance.  This is the break a game decides on its
    residual game, here on a fresh game of ``g``, as the ``*_round``
    functions play theirs.
    """
    res = _Residual(GameState(Instance(g, ())), walk, AlgorithmKind.ALG_C)
    return _improved_break(res, eta_sq)


# A break policy answers a lone firefighter facing the root cycle ``i`` of
# weight w_cyc, the heaviest, heavier than the best single pick squared: a
# break, or None to stay greedy.  It gets (res, w_cyc, i) and decides on the
# residual game ``res``, in the game's ids, once its cheap guard passes.
BreakPolicy = Callable[["_Residual", int, int], BreakDetail | None]


def _tolerance_break(res: _Residual, w_cyc: int, i: int) -> BreakDetail:
    """1-almost-tree break: the more tolerant root neighbor of the cycle.
    There is one: no member outweighs the best pick w1, and w1 * w1 < w_cyc,
    so a cut at either end u keeps w_cyc - size[u] + 1 > sqrt(w_cyc) distances."""
    arc = res.arcs[i]
    target = ceil_sqrt(w_cyc)
    depth, anchor = _deepest_cut(res, [(arc, arc.ends())], target, at_edge=False)[:2]
    return BreakDetail(
        vertex=anchor,
        anchor=anchor,
        depth=depth,
        cooldown=0,
        cycle=(res.state.instance.graph.root, *arc.read_from(anchor)),
        target=target,
        cycle_weight=w_cyc,
    )


def _guarded_improved_break(res: _Residual, w_cyc: int, i: int) -> BreakDetail | None:
    """Cactus break: only on cycles of weight above sqrt(n), never in a
    cool-down, and never on a weight-2 cycle, which is then the triangle.
    Past the guard both ends u of cycle ``i``, the heaviest, are anchors: no
    member outweighs the best pick w1, so size[u] < sqrt(w_cyc), and from
    w_cyc = 3 on (w_cyc - size[u])**2 >= w_cyc; a cut at either keeps
    w_cyc + 1 >= ceil(sqrt(w_cyc)) distances."""
    n = res.state.instance.graph.n
    if w_cyc * w_cyc <= n or w_cyc == 2 or res.cooldown > 0:
        return None
    return _improved_break(res, n)


class _Arc:
    """A root cycle of the residual game: cycle ``i`` of the walk read from
    its top, which burned, as ``cyc``, its live members ``cyc[lo:hi]`` of
    total size ``weight``.  The members' sizes are gathered once, at open,
    into ``sizes``, where ``sizes[p - 1]`` is the size of ``cyc[p]``: no
    live member's size changes while its arc lives, so the member heap, the
    profile and the chains a protection opens slice that tuple.  The fire
    takes members at the two ends only.  The arc is ``bare`` when every
    member has size 1, so hangs nothing; its weight is its member count.

    The arc's best, the one candidate it puts forward, is found at open by
    C-level passes over the sizes (the largest, then the lowest id of that
    size); ``at`` is its position, which :meth:`best` keeps current once
    members leave.  ``heap`` is None until that best leaves while two
    members or more stay, or the runner-up of an arc that is not bare is
    asked; it is then built once, from the live members keyed (-size, id,
    position), and its top, once the members that left are popped, is the
    best."""

    __slots__ = ("i", "cyc", "lo", "hi", "weight", "sizes", "bare", "at", "heap", "profile")

    def __init__(self, i: int, cyc: tuple[int, ...], size: list[int]):
        members = cyc[1:]
        sizes = itemgetter(*members)(size)  # a tuple: a cycle has two members or more
        self.i, self.cyc, self.lo, self.hi, self.sizes = i, cyc, 1, len(cyc), sizes
        top = max(sizes)
        self.bare = top == 1
        self.weight = len(members) if self.bare else sum(sizes)
        best = min(members) if self.bare else min(compress(members, map(top.__eq__, sizes)))
        self.at = cyc.index(best, 1)
        self.heap: list[tuple[int, int, int]] | None = None
        self.profile: tuple[list[int], list[int]] | None = None  # see _territory

    def ends(self) -> tuple[int, int]:
        return self.cyc[self.lo], self.cyc[self.hi - 1]

    def read_from(self, end: int) -> tuple[int, ...]:
        """The live members, from ``end`` to the other end."""
        cyc, lo, hi = self.cyc, self.lo, self.hi
        return cyc[lo:hi] if cyc[lo] == end else cyc[hi - 1 : lo - 1 : -1]

    def _heap(self) -> list[tuple[int, int, int]]:
        """The member heap, built from the live members on first use, with
        the members that left popped off its top."""
        cyc, lo, hi, heap = self.cyc, self.lo, self.hi, self.heap
        if heap is None:
            live = cyc[lo:hi]
            heap = list(zip(map(neg, self.sizes[lo - 1 : hi - 1]), live, range(lo, hi)))
            heapify(heap)
            self.heap = heap
        while not lo <= heap[0][2] < hi:
            heappop(heap)
        return heap

    def best(self) -> int:
        """The heaviest live member, ties to the lower id."""
        if not self.lo <= self.at < self.hi:
            self.at = self._heap()[0][2]
        return self.cyc[self.at]

    def runner_up(self) -> int:
        """The second largest live member size: 1 on a bare arc, which
        always keeps two members."""
        if self.bare:
            return 1
        heap = self._heap()
        top = heappop(heap)
        w = -self._heap()[0][0]
        heappush(heap, top)
        return w


class _Residual:
    """A game's strategy state, in the game's own ids, kept across rounds:
    the live part of the position, the strategy's break ``policy`` and its
    ``cooldown``, the rounds left.  It is built on the game graph's chord
    walk (:func:`~firefight.graph.fundamental_cycles`); the canonical form
    plays the same game, since nothing here depends on a cycle's
    orientation or index.  Building it checks that the strategy ``kind``
    plays on the graph's class.

    Live vertices are the truly available ones; the burned region plays the
    reduced view's root.  ``size[v]`` is live v's dominator-subtree size in
    the view.  It starts as a list copy of the walk's ``size``, ``own``, so
    a game never changes a walk its caller holds.  A spread changes no live
    size: a live vertex keeps dominating what it dominated.  The territory
    a protection covers needs no walk: the fire never reaches it, and
    ``saved`` adds up its size.  Candidates are dominated by the burned
    region alone, so their territories are disjoint and ``saved`` is the
    profit the protections so far secure.

    A cycle opens when its top burns (``topped[top]``) into a root cycle,
    one :class:`_Arc` in ``arcs``, ranked in a lazy heap by (-weight,
    smaller end, larger end).  The candidates are the root neighbors and
    the live arc members; a lazy heap keyed (-size, id, stamp) holds the
    root neighbors off the arcs and each arc's best, so no arc member but
    its best is pushed, and an entry is current while it carries its
    vertex's stamp.  ``mark[v]`` is the arc v ends or is the best of, or
    the chain it ends; ``cand[v]`` is set once the spread need not push v.
    An arc's best is read off it without forcing its member heap (see
    :class:`_Arc`), so opening an arc heapifies nothing, and each arc
    builds at most one heap.  A protection on an arc opens it into two
    chains, paths from the fire to the protection, each put forward by its
    end alone, worth the sum of its sizes, or its member count on a bare
    arc; the fire moves a chain's end one member on, whose size is the
    end's less the end's own.  So opening, sealing or breaking a root cycle
    takes a fixed number of steps plus C-level passes over its members, and
    a burned vertex O(log n).  View ids keep the original order, so the
    rankings agree with a view rebuilt from scratch.

    A break is decided here too, in game ids: the arcs are the root cycles
    and their weights, the sizes give their anchors, a cycle's territory is
    its arc positions plus the depths of what hangs off its members
    (:func:`_territory`), and the break's record is given in those ids.
    """

    def __init__(self, state: GameState, walk: CycleWalk, kind: AlgorithmKind):
        self.policy = _checked(kind, walk).policy
        g = state.instance.graph
        self.state, self.cycles, self.cooldown, self.saved = state, walk.cycles, 0, 0
        self.own = walk.size
        self.size = list(walk.size)
        self.stamp = [0] * g.n
        self.cand = bytearray(g.n)
        self.mark: list[_Arc | tuple[tuple[int, ...], int, int] | None] = [None] * g.n
        self.heap: list[tuple[int, int, int]] = []
        self.topped: list[tuple[int, ...]] = [()] * g.n  # the cycles v is the top of
        for i, top in enumerate(walk.tops):
            self.topped[top] += (i,)
        self.arcs: dict[int, _Arc] = {}
        self.cycle_heap: list[tuple[int, int, int, int, int]] = []
        self.burn([g.root])

    def _push(self, v: int) -> None:
        self.stamp[v] += 1
        heappush(self.heap, (-self.size[v], v, self.stamp[v]))

    def best(self) -> tuple[int, int] | None:
        """(size, vertex) of the heaviest candidate, ties to the lower id."""
        heap, stamp = self.heap, self.stamp
        while heap:
            w, v, s = heap[0]
            if s == stamp[v]:
                return -w, v
            heappop(heap)
        return None

    def second(self) -> int:
        """The second largest candidate size: the next entry's, or, when the
        top is an arc's best, its runner-up's."""
        heap = self.heap
        top = heappop(heap)
        rest = self.best()
        w2 = rest[0] if rest else 0
        arc = self.mark[top[1]]
        if type(arc) is _Arc:
            w2 = max(w2, arc.runner_up())
        heappush(heap, top)
        return w2

    def _rank(self, arc: _Arc) -> None:
        cyc, lo, hi = arc.cyc, arc.lo, arc.hi
        a, b = cyc[lo], cyc[hi - 1]
        if b < a:
            a, b = b, a
        heappush(self.cycle_heap, (-arc.weight, a, b, arc.i, hi - lo))

    def heaviest(self) -> tuple[int, tuple[int, int], int] | None:
        """(weight, sorted ends, index) of the top root cycle, ties to the smaller end."""
        heap = self.cycle_heap
        while heap:
            w, a, b, i, length = heap[0]
            arc = self.arcs.get(i)
            if arc is not None and arc.hi - arc.lo == length:  # an arc only ever shrinks
                return -w, (a, b), i
            heappop(heap)
        return None

    def _open(self, i: int, top: int) -> None:
        """Cycle i becomes a root cycle, its top ``top`` having burned: one
        arc, which C-level passes weigh and rank, whose best joins the
        candidates."""
        cyc = self.cycles[i]
        if cyc[0] != top:  # a canonical cycle may start elsewhere
            k = cyc.index(top)
            cyc = cyc[k:] + cyc[:k]
        self.arcs[i] = arc = _Arc(i, cyc, self.size)
        a, b, best = cyc[1], cyc[-1], cyc[arc.at]
        self.cand[a] = self.cand[b] = 1
        self.mark[a] = self.mark[b] = self.mark[best] = arc
        self._push(best)
        self._rank(arc)

    def burn(self, burned: list[int]) -> None:
        """The fire took ``burned``: they leave, their live neighbors join."""
        adj = self.state.instance.graph.adjacency
        status = self.state.status
        size, stamp, cand, mark, topped, heap = (
            self.size, self.stamp, self.cand, self.mark, self.topped, self.heap
        )
        for v in burned:
            stamp[v] += 1
            m = mark[v]
            if m is not None:  # the end of an arc or of a chain
                if type(m) is _Arc:
                    self._shrink(m, v)
                else:
                    self._advance(m, v)
            for i in topped[v]:
                self._open(i, v)
            for u in adj[v]:
                if status[u] is AVAILABLE and not cand[u]:
                    cand[u] = 1
                    stamp[u] += 1
                    heappush(heap, (-size[u], u, stamp[u]))

    def _shrink(self, arc: _Arc, v: int) -> None:
        """The fire took ``v``, an end of ``arc``: the next member ends it,
        and a new best is put forward if v was the best; an arc of one
        member is just that root neighbor, its best."""
        cyc = arc.cyc
        was_best = cyc[arc.at] == v
        if cyc[arc.lo] == v:
            arc.lo += 1
            u = cyc[arc.lo]
        else:
            arc.hi -= 1
            u = cyc[arc.hi - 1]
        arc.weight -= self.size[v]
        self.cand[u] = 1
        alive = arc.hi - arc.lo >= 2
        if was_best:
            best = arc.best() if alive else u
            self.mark[best] = arc
            self._push(best)
        if alive:
            self.mark[u] = arc
            self._rank(arc)
        else:  # its best, a current entry, stays as a root neighbor
            self.mark[u] = None
            del self.arcs[arc.i]

    def _advance(self, chain: tuple[tuple[int, ...], int, int], v: int) -> None:
        """The fire took ``v``, the end ``cyc[pos]`` of a chain (cyc, pos,
        step): the next member ends it, worth the rest of the chain, unless
        it is the protection that made the chain."""
        cyc, pos, step = chain
        u = cyc[pos + step]
        if self.state.status[u] is AVAILABLE:
            self.size[u] = self.size[v] - self.own[v]
            self.mark[u] = (cyc, pos + step, step)
            self.cand[u] = 1
            self._push(u)

    def protect(self, v: int, brk: BreakDetail | None = None) -> None:
        """v is protected: its size is saved and it leaves.  A protection on
        an arc is one of its ends or its best, which mark it, or the vertex
        of a break ``brk``, on the arc its anchor ends; it opens the arc
        into two chains, one per side of v, each put forward by its end at
        the fire with the sum of the side's sizes, on a bare arc its member
        count."""
        self.saved += self.size[v]
        self.stamp[v] += 1
        arc = self.mark[v if brk is None else brk.anchor]
        if type(arc) is not _Arc:
            return
        del self.arcs[arc.i]
        cyc, lo, hi, at = arc.cyc, arc.lo, arc.hi, arc.at
        best = cyc[at]
        mark, size = self.mark, self.size
        mark[cyc[lo]] = mark[cyc[hi - 1]] = mark[best] = None
        self.stamp[best] += 1  # the arc's entry; a chain end gets its own
        # on a bare arc v is an end or the best, found without a scan
        p = at if v == best else hi - 1 if v == cyc[hi - 1] else cyc.index(v, lo, hi)
        for end, a, b, step in ((lo, lo, p, 1), (hi - 1, p + 1, hi, -1)):
            if a < b:
                e = cyc[end]
                size[e] = b - a if arc.bare else sum(arc.sizes[a - 1 : b - 1])
                mark[e] = (cyc, end, step)
                self._push(e)


def _step(res: _Residual, f_left: int) -> tuple[list[int], str, BreakDetail | None]:
    """The next protection(s): greedy, a pair sealing a root cycle, or a break.

    Candidates are the root neighbors plus every root-cycle vertex.  With
    no root cycle this is the tree greedy.  Two firefighters seal the
    heaviest root cycle when it outweighs the two best picks together; one
    firefighter consults ``res.policy`` when the cycle outweighs the best
    pick squared.  A one-firefighter decision on a root cycle restarts
    ``res.cooldown``: at the break's value after a break, at zero otherwise.
    """
    w1, v1 = res.best()
    top = res.heaviest()
    if top is None:
        return [v1], "greedy", None
    w_cyc, ends, i = top
    if f_left >= 2:
        if w1 + res.second() >= w_cyc:
            return [v1], "greedy", None
        return list(ends), "pair", None
    brk = None
    if w1 * w1 < w_cyc and res.policy is not None:
        brk = res.policy(res, w_cyc, i)
    if brk is None:
        res.cooldown = 0
        return [v1], "greedy", None
    res.cooldown = brk.cooldown
    return [brk.vertex], "break", brk


def _round(res: _Residual) -> list[ProtectEvent]:
    """Play the current round's firefighters one decision at a time.

    The cool-down elapses once per round, firefighters or not.  Each
    decision is protected straight into the game state, which validates
    it, and into the residual game.
    """
    state = res.state
    res.cooldown = max(res.cooldown - 1, 0)
    f = state.instance.firefighters(state.round)
    events: list[ProtectEvent] = []
    while f > 0 and res.best() is not None:
        locs, reason, brk = _step(res, f)
        for v in locs:
            state.protect(v)
            res.protect(v, brk)
            events.append(ProtectEvent(len(state.trace), state.round, v, reason, brk))
        f -= len(locs)
    return events


def _first_round(
    kind: AlgorithmKind, view: Graph, walk: CycleWalk, f: int, cooldown: int = 0
) -> tuple[list[ProtectEvent], int]:
    """Round one of a game of ``kind`` on ``view`` with f firefighters; its
    events and the cool-down it leaves."""
    res = _Residual(GameState(Instance(view, (f,))), walk, kind)
    res.cooldown = cooldown
    return _round(res), res.cooldown


def greedy_tree_round(view: Graph, f: int) -> list[ProtectEvent]:
    """Protect the f heaviest root neighbors of a tree, one at a time."""
    return _first_round(AlgorithmKind.GREEDY_TREE, view, fundamental_cycles(view), f)[0]


def alg_a_round(view: Graph, walk: CycleWalk, f: int) -> list[ProtectEvent]:
    """One round of the 1-almost-tree strategy on the current view."""
    return _first_round(AlgorithmKind.ALG_A, view, walk, f)[0]


def alg_e_round(view: Graph, walk: CycleWalk, f: int) -> list[ProtectEvent]:
    """One round of the plain cactus strategy (no cycle breaking)."""
    return _first_round(AlgorithmKind.ALG_E, view, walk, f)[0]


def alg_c_round(
    view: Graph, walk: CycleWalk, f: int, cooldown: int
) -> tuple[list[ProtectEvent], int]:
    """One round of the full cactus strategy; returns the new cool-down.

    The cool-down timer elapses once per round, firefighters or not.
    """
    return _first_round(AlgorithmKind.ALG_C, view, walk, f, cooldown)


@dataclass(frozen=True)
class RunResult:
    profit: int
    trace: tuple[TraceEntry, ...]
    events: tuple[ProtectEvent, ...]
    graph_class: GraphClass


class Contract(NamedTuple):
    """A strategy's contract: the graph classes it plays on, the break
    policy of its lone firefighter, and its proven ratio bound
    c*sqrt(n) + k as (c, k), which may hold on even sequences only."""

    classes: frozenset[GraphClass]
    policy: BreakPolicy | None
    bound: tuple[int, int]
    even_only: bool = False


# the kinds differ in nothing else; the bounds are 2 for the tree greedy,
# O(sqrt(n)) for alg-a and alg-c, and 3 for alg-e on even sequences
_KINDS: dict[AlgorithmKind, Contract] = {
    AlgorithmKind.GREEDY_TREE: Contract(frozenset({GraphClass.TREE}), None, (0, 2)),
    AlgorithmKind.ALG_A: Contract(
        frozenset({GraphClass.TREE, GraphClass.ONE_ALMOST_TREE}), _tolerance_break, (6, 1)
    ),
    AlgorithmKind.ALG_C: Contract(frozenset(GraphClass), _guarded_improved_break, (15, 1)),
    AlgorithmKind.ALG_E: Contract(frozenset(GraphClass), None, (0, 3), even_only=True),
}


def _checked(kind: AlgorithmKind, walk: CycleWalk) -> Contract:
    """``kind``'s contract, once it accepts the class of ``walk``'s graph."""
    tag = walk.class_tag
    if not kind.accepts(tag):
        raise WrongGraphClassError(f"{kind.value} does not accept a {tag.value} instance")
    return _KINDS[kind]


def within_bound(bound: tuple[int, int], n: int, opt: int, alg: int) -> bool:
    """opt <= (c*sqrt(n) + k) * alg, decided in integers."""
    c, k = bound
    excess = opt - k * alg
    return excess <= 0 or excess * excess <= c * c * alg * alg * n


def run_algorithm(instance: Instance, kind: AlgorithmKind) -> RunResult:
    """Play a whole game with the chosen strategy.

    Every protection is recorded as a :class:`ProtectEvent`.  The graph's
    chords are walked once (:func:`~firefight.graph.fundamental_cycles`),
    from the BFS it keeps, and never canonicalized; its class is returned
    as ``graph_class``; ``kind`` must accept that class, even with no
    firefighter to place.  The residual game, built once if any round has
    firefighters, plays every round up to the last such one, and the game
    ends with that round's decisions: the fire does not spread after them,
    let alone burn out, since nothing reads it.  The profit is the sum of the
    protections' sizes in the residual game (``_Residual.saved``), each the
    territory the fire never reaches; with no firefighter it is 0, since
    the graph is connected.
    """
    walk = fundamental_cycles(instance.graph)
    state = GameState(instance)
    last = max((r for r, f in enumerate(instance.sequence, 1) if f), default=0)
    events: list[ProtectEvent] = []
    profit = 0
    if last:
        res = _Residual(state, walk, kind)
        while not state.is_finished():
            events += _round(res)
            if state.round == last:
                break
            res.burn(state.spread())
        profit = res.saved
    else:
        _checked(kind, walk)
    return RunResult(profit, tuple(state.trace), tuple(events), walk.class_tag)


def decision_view(instance: Instance, result: RunResult, k: int) -> Subgraph:
    """The view that decided ``result.events[k]``, rebuilt from the trace.

    A decision sees the round's view minus what the round's earlier
    decisions cover.  A pair's two protections are one decision, so the
    second one's view is the first one's: pairs come two at a time.
    """
    events = result.events
    rnd, first = events[k].round, k
    if events[k].reason == "pair":
        run = k  # where the round's unbroken run of pair protections starts
        while run > 0 and (events[run - 1].round, events[run - 1].reason) == (rnd, "pair"):
            run -= 1
        first -= (k - run) % 2
    state = GameState(instance)
    for e in events[:first]:
        while state.round < e.round:
            state.spread()
        state.protect(e.vertex)
    while state.round < rnd:
        state.spread()
    return state.reduced_view()
