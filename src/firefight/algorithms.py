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
placed.  Within a round a strategy may place several firefighters; each
placement drops the territory it covers from the residual, which is what
makes per-placement weights add up to the final profit.  A break is
decided on the residual game too, once its policy's cheap guard passes:
its live arcs are the view's root cycles, its sizes the view's weights,
and a cut cycle's territory is one BFS of the game graph through the
available vertices (``_territory``, the package's one territory walk).
No decision builds a view.

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

import logging
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import Callable, NamedTuple

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

log = logging.getLogger(__name__)


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


def _territory(
    res: _Residual, cyc: tuple[int, ...], cut: int, at_edge: bool
) -> tuple[dict[int, int], dict[int, int]]:
    """The territory root cycle ``cyc`` (root first) of the residual game
    ``res`` opens once cut at its end ``cut``, or at that end's root edge
    when ``at_edge``.

    One BFS of the game graph from the cycle's other end through available
    vertices, which never enters the cut vertex: burned vertices play the
    root, already visited.  Each visited vertex hangs off the member the
    walk entered it through.  Returns the root distances in BFS order, the
    root's 0 first, and each member's reach, the farthest distance among
    the vertices that hang off it: the last one visited.
    """
    adj = res.state.instance.graph.adjacency
    status = res.state.status
    root = cyc[0]
    start = cyc[-1] if cut == cyc[1] else cyc[1]
    members = set(cyc)
    skip = -1 if at_edge else cut
    dist = {root: 0, start: 1}
    order = [start]
    via = [start]  # via[k]: the member order[k] hangs off
    for u, top in zip(order, via):  # both grow behind the loop: a FIFO queue
        d = dist[u] + 1
        for v in adj[u]:
            if v not in dist and v != skip and status[v] is AVAILABLE:
                dist[v] = d
                order.append(v)
                via.append(v if v in members else top)
    return dist, dict(zip(via, islice(dist.values(), 1, None)))


def _deepest_cut(
    res: _Residual, anchors: list[tuple[tuple[int, ...], int]], target: int, at_edge: bool
) -> tuple[int, int, tuple[int, ...], dict[int, int], dict[int, int]] | None:
    """The deepest cut among candidate anchors, ties to the lower anchor.

    ``anchors`` holds (root cycle, root neighbor) pairs of the residual
    game ``res``; the cut is the anchor, or its root edge when ``at_edge``,
    and its depth is the largest fire travel distance that keeps ``target``
    opened vertices safe.  Returns (depth, anchor, cycle, distances, reach),
    or None if none does.
    """
    best = None
    for cyc, u in anchors:
        dist, reach = _territory(res, cyc, u, at_edge)
        t = break_depth(list(dist.values()), target)
        if t is not None and (best is None or (t, -u) > (best[0], -best[1])):
            best = (t, u, cyc, dist, reach)
    return best


def _from_anchor(cycle: tuple[int, ...], anchor: int) -> tuple[int, ...]:
    """A root cycle (root first) oriented to run (root, anchor, ...)."""
    return cycle if cycle[1] == anchor else (cycle[0],) + tuple(reversed(cycle[1:]))


def _improved_break(res: _Residual, eta_sq: int) -> BreakDetail:
    """The cactus break over the root cycles of the residual game ``res``,
    their live arcs and weights; see :func:`improved_break`."""
    eligible = [(i, w) for i, (_, _, w) in res.arcs.items() if w * w >= eta_sq]
    if not eligible:
        raise NoEligibleCycleError("no root cycle reaches the weight threshold")
    heaviest = max(w for _, w in eligible)
    target = ceil_sqrt(heaviest)
    anchors = []
    for i, w in eligible:
        cyc = res.root_cycle(i)
        for u in (cyc[1], cyc[-1]):
            rest = w - res.size[u]
            if rest >= 0 and rest * rest >= heaviest:
                anchors.append((cyc, u))
    best = _deepest_cut(res, anchors, target, at_edge=True)
    if best is None:
        raise NoEligibleBreakVertexError("no root neighbor leaves enough territory")
    depth, anchor, cyc, dist, reach = best
    cyc = _from_anchor(cyc, anchor)
    for u_hat in cyc[1:]:
        if reach[u_hat] >= depth:
            return BreakDetail(
                vertex=u_hat,
                anchor=anchor,
                depth=depth,
                cooldown=dist[u_hat],
                cycle=cyc,
                target=target,
                cycle_weight=heaviest,
            )
    raise NoEligibleBreakVertexError("no cycle vertex covers the required depth")


def improved_break(g: Graph, walk: CycleWalk, eta_sq: int) -> BreakDetail:
    """Pick the cycle break point that buys the most burning time.

    Considers root cycles whose weight squared (read off the dominator tree
    of g's chord ``walk``, in either form) is at least ``eta_sq``.  Among
    their root neighbors that leave enough territory behind, the anchor
    maximizes the edge tolerance at the square-root population target: one
    BFS of the territory the cycle opens when the anchor's root edge is
    cut.  The winner's walk gives the protected vertex, the first along the
    opened cycle with territory at depth ``depth`` or beyond hanging off
    it, and its cool-down.  This is the break a game decides on its
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


def _tolerance_break(res: _Residual, w_cyc: int, i: int) -> BreakDetail | None:
    """1-almost-tree break: the more tolerant root neighbor of the cycle."""
    cyc = res.root_cycle(i)
    target = ceil_sqrt(w_cyc)
    best = _deepest_cut(res, [(cyc, cyc[1]), (cyc, cyc[-1])], target, at_edge=False)
    if best is None:  # cannot happen for a break-branch cycle; stay safe
        return None
    depth, anchor = best[:2]
    return BreakDetail(
        vertex=anchor,
        anchor=anchor,
        depth=depth,
        cooldown=0,
        cycle=_from_anchor(cyc, anchor),
        target=target,
        cycle_weight=w_cyc,
    )


def _guarded_improved_break(res: _Residual, w_cyc: int, i: int) -> BreakDetail | None:
    """Cactus break: only on cycles of weight above sqrt(n), never in a cool-down."""
    n = res.state.instance.graph.n
    if w_cyc * w_cyc <= n or res.cooldown > 0:
        return None
    try:
        return _improved_break(res, n)
    except (NoEligibleCycleError, NoEligibleBreakVertexError) as exc:
        # the guard makes this unreachable except on tiny cycles; fall back
        log.warning("cycle break found no eligible vertex (%s); protecting greedily", exc)
        return None


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
    the view.  It starts as a list copy of the walk's ``size``, so a game
    never changes a walk its caller holds.  A spread changes no live size:
    a live vertex keeps dominating what it dominated.  A protection inside
    a root cycle opens it into two paths, whose sizes become chain sums,
    once per cycle.  The territory a protection covers needs no walk: the
    fire never reaches it, and ``saved`` adds up its size.  Candidates are
    dominated by the burned region alone, so their territories are disjoint
    and ``saved`` is the profit the protections so far secure.

    Candidates (root neighbors and live root-cycle members) sit in a lazy
    heap keyed (-size, id, stamp); an entry is current while it carries its
    vertex's stamp.  A cycle opens when its top burns (``topped[top]``).  A
    root cycle is its live arc, ``arcs[i] = [start, length, weight]`` with
    positions in the walk's ``cycles[i]``, ranked in a second lazy heap by
    (-weight, smaller end, larger end).  View ids keep the original order,
    so both rankings agree with a view rebuilt from scratch.

    A break is decided here too, in game ids: the live arcs are the root
    cycles (:meth:`root_cycle`) and ``arcs`` their weights, the sizes give
    their anchors, a cycle's territory is walked through the available
    vertices of the game state (:func:`_territory`), and the break's record
    is given in those ids.
    """

    def __init__(self, state: GameState, walk: CycleWalk, kind: AlgorithmKind):
        self.policy = _checked(kind, walk).policy
        g = state.instance.graph
        self.state, self.cycles, self.cooldown, self.saved = state, walk.cycles, 0, 0
        self.size = list(walk.size)
        self.stamp = [0] * g.n
        self.cand = bytearray(g.n)
        self.heap: list[tuple[int, int, int]] = []
        self.on_cycle = [-1] * g.n  # the root cycle v is a live member of
        self.topped: list[tuple[int, ...]] = [()] * g.n  # the cycles v is the top of
        for i, top in enumerate(walk.tops):
            self.topped[top] += (i,)
        self.arcs: dict[int, list[int]] = {}
        self.cycle_heap: list[tuple[int, int, int, int, int]] = []
        self.burn([g.root])

    def _push(self, v: int) -> None:
        self.stamp[v] += 1
        self.cand[v] = 1
        heappush(self.heap, (-self.size[v], v, self.stamp[v]))

    def _drop(self, v: int) -> None:
        self.stamp[v] += 1
        self.cand[v] = 0

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
        """The second largest candidate size."""
        top = heappop(self.heap)
        w2 = self.best()[0]
        heappush(self.heap, top)
        return w2

    def _rank(self, i: int) -> None:
        start, length, w = self.arcs[i]
        cyc = self.cycles[i]
        a, b = sorted((cyc[start], cyc[(start + length - 1) % len(cyc)]))
        heappush(self.cycle_heap, (-w, a, b, i, length))

    def heaviest(self) -> tuple[int, tuple[int, int], int] | None:
        """(weight, sorted ends, index) of the top root cycle, ties to the smaller end."""
        heap = self.cycle_heap
        while heap:
            w, a, b, i, length = heap[0]
            arc = self.arcs.get(i)
            if arc is not None and arc[1] == length:  # an arc only ever shrinks
                return -w, (a, b), i
            heappop(heap)
        return None

    def _members(self, i: int) -> tuple[int, ...]:
        start, length, _ = self.arcs[i]
        cyc = self.cycles[i]
        end = start + length
        return cyc[start:end] if end <= len(cyc) else cyc[start:] + cyc[:end - len(cyc)]

    def _open(self, i: int, top: int) -> None:
        """Cycle i becomes a root cycle, its top ``top`` having burned: its
        other members join the candidates in one pass, one heapify when
        they outnumber the heap."""
        cyc = self.cycles[i]
        self.arcs[i] = arc = [(cyc.index(top) + 1) % len(cyc), len(cyc) - 1, 0]
        members = self._members(i)
        size, stamp, cand, on_cycle = self.size, self.stamp, self.cand, self.on_cycle
        arc[2] = sum(map(size.__getitem__, members))
        entries = []
        for u in members:
            on_cycle[u] = i
            if not cand[u]:
                stamp[u] += 1
                cand[u] = 1
                entries.append((-size[u], u, stamp[u]))
        heap = self.heap
        if len(entries) > len(heap):
            heap += entries
            heapify(heap)
        else:
            for e in entries:
                heappush(heap, e)
        self._rank(i)

    def burn(self, burned: list[int]) -> None:
        """The fire took ``burned``: they leave, their live neighbors join."""
        adj = self.state.instance.graph.adjacency
        status = self.state.status
        cand, on_cycle, topped = self.cand, self.on_cycle, self.topped
        for v in burned:
            if cand[v]:
                self._drop(v)
            i = on_cycle[v]
            if i >= 0:  # an end of a root cycle's live arc
                on_cycle[v] = -1
                arc = self.arcs[i]
                cyc = self.cycles[i]
                if cyc[arc[0]] == v:
                    arc[0] = (arc[0] + 1) % len(cyc)
                arc[1] -= 1
                arc[2] -= self.size[v]
                if arc[1] >= 2:
                    self._rank(i)
                else:  # dissolved: a lone member is just a root neighbor
                    for u in self._members(i):
                        on_cycle[u] = -1
                    del self.arcs[i]
            for i in topped[v]:
                self._open(i, v)
            for u in adj[v]:
                if status[u] is AVAILABLE and not cand[u]:
                    self._push(u)

    def protect(self, v: int) -> None:
        """v is protected: its size is saved, it leaves, and a root cycle
        through it opens."""
        self.saved += self.size[v]
        self._drop(v)
        i = self.on_cycle[v]
        if i < 0:
            return
        members = self._members(i)
        del self.arcs[i]
        j = members.index(v)
        size, stamp, cand, on_cycle = self.size, self.stamp, self.cand, self.on_cycle
        # each side is a path from its end at the fire to v: sizes become
        # chain sums, and its members leave the candidates
        for side in (members[:j][::-1], members[j + 1:]):
            acc = 0
            for u in side:
                acc += size[u]
                size[u] = acc
                on_cycle[u] = -1
                stamp[u] += 1
                cand[u] = 0
            if side:
                self._push(side[-1])
        on_cycle[v] = -1

    def root_cycle(self, i: int) -> tuple[int, ...]:
        """Root cycle i in game ids: the root, which stands for the burned
        region, then its live arc."""
        return (self.state.instance.graph.root, *self._members(i))


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
            res.protect(v)
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
    ends there: the fire is not burned out.  The profit is the sum of the
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
        while state.round <= last and not state.is_finished():
            events += _round(res)
            burned = state.spread()
            if state.round <= last:
                res.burn(burned)
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
