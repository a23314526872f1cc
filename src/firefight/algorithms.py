"""Online protection strategies.

All four strategies run one core: ``_step`` weighs the root neighbors and
root-cycle vertices and protects greedily or seals a heavy root cycle with
a pair; they differ only in the break policy a lone firefighter consults
against a heavy root cycle (none for ``greedy-tree`` and ``alg-e``).

Every decision weighs the reduced view of the position: the burned region
merged into a root, the truly available vertices kept.  A game does not
rebuild that view per round or per placement; it keeps the residual game
(``_Residual``) in its own ids from round to round: one decomposition and
one dominator pass per game, then O(log n) per candidate change as the fire
spreads and firefighters are placed.  Within a round a strategy may place
several firefighters; each placement drops the territory it covers from
the residual, which is what makes per-placement weights add up to the final
profit.  Only a break builds the view itself
(:func:`~firefight.graph.contract`), and only once its policy's cheap guard
passes.

``_round`` protects each decision straight into the game state, which
validates it, and records it as a :class:`ProtectEvent`; the ``*_round``
functions play round one of a game on their view, so their events are in
the view's ids.  The cool-down is an int, the rounds left.

Square-root comparisons are done in exact integer arithmetic throughout:
``w >= sqrt(W)`` becomes ``w*w >= W`` and population targets use
``ceil_sqrt``.  Ties between equally good vertices go to the lowest id.
Root cycles are ranked by weight, then by the canonical ``decomp.cycles``
order, ``(min(c), c)``; in a reduced view every root cycle holds the root,
id 0, so ties between root cycles go to the smaller root neighbor.

A vertex is worth its dominator subtree
(:func:`~firefight.graph.dominator_tree`), a root cycle the subtrees of its
non-root vertices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import cache
from heapq import heappop, heappush
from typing import Callable, NamedTuple

from .engine import GameState, Instance, Status, TraceEntry
from .graph import (
    CactusDecomposition,
    DominatorTree,
    Graph,
    GraphClass,
    Subgraph,
    break_depth,
    break_distances,
    ceil_sqrt,
    contract,
    covered_set,  # unused here, but the benchmark's tests wrap it under this module's name
    dominator_tree,
    validate_and_decompose,
)

log = logging.getLogger(__name__)


class AlgorithmError(Exception):
    pass


class NotATreeError(AlgorithmError):
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
    """Everything a cycle break decided, in the deciding graph's ids.

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
    """A recorded protection: what was done and why.  ``brk`` is in the ids
    of the decision's view, which :func:`decision_view` rebuilds."""

    time: int
    round: int
    vertex: int
    reason: str
    brk: BreakDetail | None


def _deepest_cut(
    g: Graph, decomp: CactusDecomposition, anchors: list[tuple[int, int]], target: int,
    at_edge: bool,
) -> tuple[int, int, int, dict[int, int]] | None:
    """The deepest cut among candidate anchors, ties to the lower anchor.

    ``anchors`` holds (root cycle index, root neighbor) pairs; the cut is
    the anchor, or its root edge when ``at_edge``, and its depth is the
    largest fire travel distance that keeps ``target`` opened vertices safe.
    Returns (depth, anchor, cycle index, distances), or None if none does.
    """
    best = None
    for ci, u in anchors:
        dist = break_distances(g, decomp, ci, (g.root, u) if at_edge else u)
        t = break_depth(dist, target)
        if t is not None and (best is None or (t, -u) > (best[0], -best[1])):
            best = (t, u, ci, dist)
    return best


def _from_anchor(cycle: tuple[int, ...], anchor: int) -> tuple[int, ...]:
    """A root cycle (root first) oriented to run (root, anchor, ...)."""
    return cycle if cycle[1] == anchor else (cycle[0],) + tuple(reversed(cycle[1:]))


def improved_break(
    g: Graph, decomp: CactusDecomposition, dom: DominatorTree, eta_sq: int
) -> BreakDetail:
    """Pick the cycle break point that buys the most burning time.

    Considers root cycles whose weight squared (read off g's dominator tree
    ``dom``) is at least ``eta_sq``.  Among their root neighbors that leave
    enough territory behind, the anchor maximizes the edge tolerance at the
    square-root population target: one BFS of the territory the cycle opens
    when the anchor's root edge is cut.  The winner's distances give the
    protected vertex, the first along the opened cycle covering territory
    at depth ``depth`` or beyond, and its cool-down.
    """
    eligible: list[tuple[int, int]] = []
    for i in decomp.root_cycle_indices:
        w = dom.cycle_weight(decomp.cycles[i])
        if w * w >= eta_sq:
            eligible.append((i, w))
    if not eligible:
        raise NoEligibleCycleError("no root cycle reaches the weight threshold")
    heaviest = max(w for _, w in eligible)
    target = ceil_sqrt(heaviest)
    anchors = []
    for i, w in eligible:
        cyc = decomp.cycles[i]
        for u in (cyc[1], cyc[-1]):
            rest = w - dom.size[u]
            if rest >= 0 and rest * rest >= heaviest:
                anchors.append((i, u))
    best = _deepest_cut(g, decomp, anchors, target, at_edge=True)
    if best is None:
        raise NoEligibleBreakVertexError("no root neighbor leaves enough territory")
    depth, anchor, ci, dmap = best
    cyc = _from_anchor(decomp.cycles[ci], anchor)
    # reach[v]: the farthest opened distance in v's territory (dominator subtree)
    reach = [-1] * g.n
    for v, d in dmap.items():
        reach[v] = d
    for v in reversed(dom.order[1:]):
        p = dom.idom[v]
        if reach[v] > reach[p]:
            reach[p] = reach[v]
    for u_hat in cyc[1:]:
        if reach[u_hat] >= depth:
            return BreakDetail(
                vertex=u_hat,
                anchor=anchor,
                depth=depth,
                cooldown=dmap[u_hat],
                cycle=cyc,
                target=target,
                cycle_weight=heaviest,
            )
    raise NoEligibleBreakVertexError("no cycle vertex covers the required depth")


class BreakView(NamedTuple):
    """What a break is decided on: the decision's view, its decomposition
    and dominator tree, and the index of its heaviest root cycle."""

    sub: Subgraph
    decomp: CactusDecomposition
    dom: DominatorTree
    heaviest: int


# A break policy answers a lone firefighter facing a root cycle of weight
# w_cyc heavier than the best single pick squared: a break, or None to stay
# greedy.  It gets (w_cyc, cooldown, n_original, view) and calls ``view()``,
# which builds the decision's view, only once its cheap guard passes.
BreakPolicy = Callable[[int, int, int, Callable[[], BreakView]], BreakDetail | None]


def _tolerance_break(
    w_cyc: int, cooldown: int, n_original: int, view: Callable[[], BreakView]
) -> BreakDetail | None:
    """1-almost-tree break: the more tolerant root neighbor of the cycle."""
    bv = view()
    ci = bv.heaviest
    cyc = bv.decomp.cycles[ci]
    target = ceil_sqrt(w_cyc)
    best = _deepest_cut(
        bv.sub.graph, bv.decomp, [(ci, cyc[1]), (ci, cyc[-1])], target, at_edge=False
    )
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


def _guarded_improved_break(
    w_cyc: int, cooldown: int, n_original: int, view: Callable[[], BreakView]
) -> BreakDetail | None:
    """Cactus break: only on cycles of weight above sqrt(n), never in a cool-down."""
    if w_cyc * w_cyc <= n_original or cooldown > 0:
        return None
    bv = view()
    try:
        return improved_break(bv.sub.graph, bv.decomp, bv.dom, n_original)
    except (NoEligibleCycleError, NoEligibleBreakVertexError) as exc:
        # the guard makes this unreachable except on tiny cycles; fall back
        log.warning("cycle break found no eligible vertex (%s); protecting greedily", exc)
        return None


class _Residual:
    """The live part of a game, in the game's own ids, kept across rounds.

    Live vertices are the truly available ones; the burned region plays the
    reduced view's root.  ``size[v]`` is live v's dominator-subtree size in
    the view.  A spread changes no live size: a live vertex keeps
    dominating what it dominated.  A protection inside a root cycle opens
    it into two paths, whose sizes become chain sums, once per cycle.  The
    territory a protection covers needs no walk: the fire never reaches it.

    Candidates (root neighbors and live root-cycle members) sit in a lazy
    heap keyed (-size, id, stamp); an entry is current while it carries its
    vertex's stamp.  A root cycle is its live arc, ``arcs[i] = [start,
    length, weight]`` with positions in ``decomp.cycles[i]``, ranked in a
    second lazy heap by (-weight, smaller end).  View ids keep the original
    order, so both rankings agree with a view rebuilt from scratch.
    """

    def __init__(self, state: GameState, decomp: CactusDecomposition, keep_ids: bool = False):
        g = state.instance.graph
        self.state, self.decomp = state, decomp
        # round functions decide on the view they were given, in its ids, until it changes
        self.keep_ids = keep_ids
        self.size = list(dominator_tree(g, decomp).size)
        self.stamp = [0] * g.n
        self.cand = bytearray(g.n)
        self.heap: list[tuple[int, int, int]] = []
        self.on_cycle = [-1] * g.n  # the root cycle v is a live member of
        self.touched = bytearray(len(decomp.cycles))  # has been a root cycle
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
        cyc = self.decomp.cycles[i]
        a, b = sorted((cyc[start], cyc[(start + length - 1) % len(cyc)]))
        heappush(self.cycle_heap, (-w, a, b, i, length))

    def heaviest(self) -> tuple[int, tuple[int, int]] | None:
        """(weight, sorted ends) of the top root cycle, ties to the smaller end."""
        heap = self.cycle_heap
        while heap:
            w, a, b, i, length = heap[0]
            arc = self.arcs.get(i)
            if arc is not None and arc[1] == length:  # an arc only ever shrinks
                return -w, (a, b)
            heappop(heap)
        return None

    def _members(self, i: int) -> list[int]:
        start, length, _ = self.arcs[i]
        cyc = self.decomp.cycles[i]
        return [cyc[(start + t) % len(cyc)] for t in range(length)]

    def burn(self, burned: list[int]) -> None:
        """The fire took ``burned``: they leave, their live neighbors join."""
        adj = self.state.instance.graph.adjacency
        status = self.state.status
        for v in burned:
            if self.cand[v]:
                self._drop(v)
            i = self.on_cycle[v]
            if i >= 0:  # an end of a root cycle's live arc
                self.on_cycle[v] = -1
                arc = self.arcs[i]
                cyc = self.decomp.cycles[i]
                if cyc[arc[0]] == v:
                    arc[0] = (arc[0] + 1) % len(cyc)
                arc[1] -= 1
                arc[2] -= self.size[v]
                if arc[1] >= 2:
                    self._rank(i)
                else:  # dissolved: a lone member is just a root neighbor
                    for u in self._members(i):
                        self.on_cycle[u] = -1
                    del self.arcs[i]
            for i in self.decomp.vertex_cycles[v]:
                if not self.touched[i]:  # v was the top of cycle i
                    self.touched[i] = 1
                    cyc = self.decomp.cycles[i]
                    self.arcs[i] = arc = [(cyc.index(v) + 1) % len(cyc), len(cyc) - 1, 0]
                    members = self._members(i)
                    arc[2] = sum(self.size[u] for u in members)
                    for u in members:
                        self.on_cycle[u] = i
                        if not self.cand[u]:
                            self._push(u)
                    self._rank(i)
            for u in adj[v]:
                if status[u] is Status.AVAILABLE and not self.cand[u]:
                    self._push(u)

    def protect(self, v: int) -> None:
        """v is protected: it leaves, and a root cycle through it opens."""
        self._drop(v)
        i = self.on_cycle[v]
        if i < 0:
            return
        members = self._members(i)
        del self.arcs[i]
        j = members.index(v)
        size = self.size
        # each side is a path from its end at the fire to v: sizes become chain sums
        for side in (members[:j][::-1], members[j + 1:]):
            acc = 0
            for u in side:
                acc += size[u]
                size[u] = acc
                self.on_cycle[u] = -1
                self._drop(u)
            if side:
                self._push(side[-1])
        self.on_cycle[v] = -1

    def view(self, end: int) -> BreakView:
        """The decision's view, whose heaviest root cycle has smaller end ``end``."""
        state = self.state
        g = state.instance.graph
        if self.keep_ids and not state.trace:
            sub, dec = Subgraph(g, tuple(range(g.n))), self.decomp
        else:
            sub, dec = contract(g, self.decomp, state.view_index())
        u = sub.to_orig.index(end)
        ci = next(i for i in dec.root_cycle_indices if dec.cycles[i][1] == u)
        return BreakView(sub, dec, dominator_tree(sub.graph, dec), ci)


def _step(
    res: _Residual, f_left: int, policy: BreakPolicy | None, cooldown: int, n_original: int
) -> tuple[list[int], str, BreakDetail | None, int]:
    """The next protection(s): greedy, a pair sealing a root cycle, or a break.

    Candidates are the root neighbors plus every root-cycle vertex.  With
    no root cycle this is the tree greedy.  Two firefighters seal the
    heaviest root cycle when it outweighs the two best picks together; one
    firefighter consults ``policy`` when the cycle outweighs the best pick
    squared.  A one-firefighter decision on a root cycle restarts the
    cool-down: at the break's value after a break, at zero otherwise.
    """
    w1, v1 = res.best()
    top = res.heaviest()
    if top is None:
        return [v1], "greedy", None, cooldown
    w_cyc, ends = top
    if f_left >= 2:
        if w1 + res.second() >= w_cyc:
            return [v1], "greedy", None, cooldown
        return list(ends), "pair", None, cooldown
    brk = None
    if w1 * w1 < w_cyc and policy is not None:
        view = cache(lambda: res.view(ends[0]))
        brk = policy(w_cyc, cooldown, n_original, view)
    if brk is None:
        return [v1], "greedy", None, 0
    return [view().sub.to_orig[brk.vertex]], "break", brk, brk.cooldown


def _round(
    res: _Residual, policy: BreakPolicy | None, cooldown: int, n_original: int
) -> tuple[list[ProtectEvent], int]:
    """Protect the current round's firefighters one decision at a time.

    Each decision is protected straight into the game state, which
    validates it, and into the residual game.  The cool-down (rounds left)
    elapses once per round.
    """
    state = res.state
    cd = max(cooldown - 1, 0)
    f = state.instance.firefighters(state.round)
    events: list[ProtectEvent] = []
    while f > 0 and res.best() is not None:
        locs, reason, brk, cd = _step(res, f, policy, cd, n_original)
        for v in locs:
            state.protect(v)
            res.protect(v)
            events.append(ProtectEvent(len(state.trace), state.round, v, reason, brk))
        f -= len(locs)
    return events, cd


def _first_round(
    kind: AlgorithmKind, view: Graph, decomp: CactusDecomposition,
    f: int, cooldown: int, n_original: int,
) -> tuple[list[ProtectEvent], int]:
    """Round one of a game of ``kind`` on ``view`` with f firefighters."""
    policy = _checked_policy(kind, decomp)
    state = GameState(Instance(view, (f,)))
    return _round(_Residual(state, decomp, keep_ids=True), policy, cooldown, n_original)


def greedy_tree_round(view: Graph, f: int) -> list[ProtectEvent]:
    """Protect the f heaviest root neighbors of a tree, one at a time."""
    if view.edge_count() != view.n - 1:
        raise NotATreeError("greedy baseline only plays on trees")
    decomp = validate_and_decompose(view)
    return _first_round(AlgorithmKind.GREEDY_TREE, view, decomp, f, 0, view.n)[0]


def alg_a_round(view: Graph, decomp: CactusDecomposition, f: int) -> list[ProtectEvent]:
    """One round of the 1-almost-tree strategy on the current view."""
    return _first_round(AlgorithmKind.ALG_A, view, decomp, f, 0, view.n)[0]


def alg_e_round(view: Graph, decomp: CactusDecomposition, f: int) -> list[ProtectEvent]:
    """One round of the plain cactus strategy (no cycle breaking)."""
    return _first_round(AlgorithmKind.ALG_E, view, decomp, f, 0, view.n)[0]


def alg_c_round(
    view: Graph, decomp: CactusDecomposition, f: int, cooldown: int, n_original: int
) -> tuple[list[ProtectEvent], int]:
    """One round of the full cactus strategy; returns the new cool-down.

    The cool-down timer elapses once per round, firefighters or not.
    """
    return _first_round(AlgorithmKind.ALG_C, view, decomp, f, cooldown, n_original)


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


def _checked_policy(kind: AlgorithmKind, decomp: CactusDecomposition) -> BreakPolicy | None:
    """``kind``'s break policy, once it accepts the class of ``decomp``'s graph."""
    tag = decomp.class_tag
    if not kind.accepts(tag):
        raise WrongGraphClassError(f"{kind.value} does not accept a {tag.value} instance")
    return _KINDS[kind].policy


def within_bound(bound: tuple[int, int], n: int, opt: int, alg: int) -> bool:
    """opt <= (c*sqrt(n) + k) * alg, decided in integers."""
    c, k = bound
    excess = opt - k * alg
    return excess <= 0 or excess * excess <= c * c * alg * alg * n


def run_algorithm(instance: Instance, kind: AlgorithmKind) -> RunResult:
    """Play a whole game with the chosen strategy.

    Every protection is recorded as a :class:`ProtectEvent`.  The graph is
    decomposed once, and its class is returned as ``graph_class``; the
    residual game is built once and kept up to date until the last round
    with firefighters, after which the fire only spreads.  Rounds without
    firefighters only tick the cool-down.
    """
    decomp0 = validate_and_decompose(instance.graph)
    policy = _checked_policy(kind, decomp0)
    state = GameState(instance)
    last = max((r for r, f in enumerate(instance.sequence, 1) if f), default=0)
    res = _Residual(state, decomp0) if last else None
    cd = 0
    events: list[ProtectEvent] = []
    while not state.is_finished():
        if instance.firefighters(state.round) > 0:
            placed, cd = _round(res, policy, cd, instance.graph.n)
            events.extend(placed)
        else:
            cd = max(cd - 1, 0)
        burned = state.spread()
        if state.round <= last:
            res.burn(burned)
    return RunResult(state.profit(), tuple(state.trace), tuple(events), decomp0.class_tag)


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
