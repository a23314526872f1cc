"""Online protection strategies.

All four strategies run one core: ``_step`` weighs the root neighbors and
root-cycle vertices and protects greedily or seals a heavy root cycle with
a pair; they differ only in the break policy a lone firefighter consults
against a heavy root cycle (none for ``greedy-tree`` and ``alg-e``).

All deciders are pure functions of the current reduced view.  Within a
round a strategy may place several firefighters; after each placement the
view is re-derived (the newly covered territory disappears), which is what
makes per-placement weights add up to the final profit.  A game decomposes
its graph once; every view and every strip derives its graph and its
decomposition from that one (:func:`~firefight.graph.contract`).

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

Weights come from one dominator-tree pass per decision
(:func:`~firefight.graph.dominator_tree`): a vertex is worth its dominator
subtree, a root cycle the subtrees of its non-root vertices.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

from .engine import GameState, Instance, TraceEntry
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
    covered_set,
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


def _strip_covered(
    g: Graph, decomp: CactusDecomposition, chosen: list[int]
) -> tuple[Subgraph, CactusDecomposition]:
    """What stays in play once ``chosen`` is protected: the root (id 0) and
    the vertices it still reaches, with their decomposition."""
    cov = covered_set(g, (), chosen)
    kept = [v for v in range(g.n) if v not in cov and v != g.root]
    index = [-1] * g.n
    index[g.root] = 0
    for i, v in enumerate(kept, 1):
        index[v] = i
    return contract(g, decomp, index)


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


RootCycle = tuple[int, tuple[int, ...], int]  # (cycle index, cycle, weight)

# A break policy answers a lone firefighter facing a root cycle heavier than
# the best single pick squared: a break, or None to stay greedy.
BreakPolicy = Callable[
    [Graph, CactusDecomposition, DominatorTree, RootCycle, int, int],
    BreakDetail | None,
]


def _tolerance_break(
    g: Graph, decomp: CactusDecomposition, dom: DominatorTree, heaviest: RootCycle,
    cooldown: int, n_original: int,
) -> BreakDetail | None:
    """1-almost-tree break: the more tolerant root neighbor of the cycle."""
    ci, cyc, w_cyc = heaviest
    target = ceil_sqrt(w_cyc)
    best = _deepest_cut(g, decomp, [(ci, cyc[1]), (ci, cyc[-1])], target, at_edge=False)
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
    g: Graph, decomp: CactusDecomposition, dom: DominatorTree, heaviest: RootCycle,
    cooldown: int, n_original: int,
) -> BreakDetail | None:
    """Cactus break: only on cycles of weight above sqrt(n), never in a cool-down."""
    w_cyc = heaviest[2]
    if w_cyc * w_cyc <= n_original or cooldown > 0:
        return None
    try:
        return improved_break(g, decomp, dom, n_original)
    except (NoEligibleCycleError, NoEligibleBreakVertexError) as exc:
        # the guard makes this unreachable except on tiny cycles; fall back
        log.warning("cycle break found no eligible vertex (%s); protecting greedily", exc)
        return None


def _step(
    g: Graph,
    decomp: CactusDecomposition,
    f_left: int,
    policy: BreakPolicy | None,
    cooldown: int,
    n_original: int,
) -> tuple[list[int], str, BreakDetail | None, int]:
    """The next protection(s): greedy, a pair sealing a root cycle, or a break.

    Candidates are the root neighbors plus every root-cycle vertex.  With
    no root cycle this is the tree greedy.  Two firefighters seal the
    heaviest root cycle when it outweighs the two best picks together; one
    firefighter consults ``policy`` when the cycle outweighs the best pick
    squared.  A one-firefighter decision on a root cycle restarts the
    cool-down: at the break's value after a break, at zero otherwise.
    """
    dom = dominator_tree(g, decomp)
    cycles = [(i, decomp.cycles[i]) for i in decomp.root_cycle_indices]
    cycles = [(i, c, dom.cycle_weight(c)) for i, c in cycles]
    cycles.sort(key=lambda t: -t[2])  # stable: ties keep decomp.cycles order
    pool = set(g.adjacency[g.root]).union(*(c[1:] for _, c, _ in cycles))
    order = sorted(((dom.size[v], v) for v in pool), key=lambda t: (-t[0], t[1]))
    w1, v1 = order[0]
    if not cycles:
        return [v1], "greedy", None, cooldown
    _, cyc1, w_cyc = cycles[0]
    if f_left >= 2:
        if w1 + order[1][0] >= w_cyc:
            return [v1], "greedy", None, cooldown
        return sorted((cyc1[1], cyc1[-1])), "pair", None, cooldown
    brk = None
    if w1 * w1 < w_cyc and policy is not None:
        brk = policy(g, decomp, dom, cycles[0], cooldown, n_original)
    if brk is None:
        return [v1], "greedy", None, 0
    return [brk.vertex], "break", brk, brk.cooldown


def _round(
    state: GameState, view: Subgraph, decomp: CactusDecomposition,
    policy: BreakPolicy | None, cooldown: int, n_original: int,
) -> tuple[list[ProtectEvent], int]:
    """Protect the current round's firefighters one decision at a time.

    ``view`` is the round's reduced view of ``state``; each decision is
    protected straight into ``state``, which validates it.  The cool-down
    (rounds left) elapses once per round; after each decision the covered
    territory is stripped, and the rest's decomposition is derived from the
    current one.  ``to_orig`` maps the strip's ids back to ``state``'s.
    """
    cd = max(cooldown - 1, 0)
    f = state.instance.firefighters(state.round)
    g, dec, to_orig = view.graph, decomp, view.to_orig
    events: list[ProtectEvent] = []
    while f > 0 and g.n > 1:
        locs, reason, brk, cd = _step(g, dec, f, policy, cd, n_original)
        locs = locs[:f]
        for lv in locs:
            state.protect(to_orig[lv])
            events.append(ProtectEvent(len(state.trace), state.round, to_orig[lv], reason, brk))
        f -= len(locs)
        if f <= 0:
            break
        sub, dec = _strip_covered(g, dec, locs)
        to_orig = tuple(to_orig[o] for o in sub.to_orig)
        g = sub.graph
    return events, cd


def _first_round(
    kind: AlgorithmKind, view: Graph, decomp: CactusDecomposition,
    f: int, cooldown: int, n_original: int,
) -> tuple[list[ProtectEvent], int]:
    """Round one of a game of ``kind`` on ``view`` with f firefighters."""
    policy = _checked_policy(kind, decomp)
    state = GameState(Instance(view, (f,)))
    whole = Subgraph(view, tuple(range(view.n)))
    return _round(state, whole, decomp, policy, cooldown, n_original)


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
    decomposed once, and its class is returned as ``graph_class``; each
    round's view and its decomposition derive from that.  Rounds without
    firefighters only tick the cool-down.
    """
    decomp0 = validate_and_decompose(instance.graph)
    policy = _checked_policy(kind, decomp0)
    state = GameState(instance)
    cd = 0
    events: list[ProtectEvent] = []
    while not state.is_finished():
        if instance.firefighters(state.round) > 0:
            view, dec = contract(instance.graph, decomp0, state.view_index())
            placed, cd = _round(state, view, dec, policy, cd, instance.graph.n)
            events.extend(placed)
        else:
            cd = max(cd - 1, 0)
        state.spread()
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
