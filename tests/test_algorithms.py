import hashlib
import heapq
import logging
import random
import sys
from dataclasses import astuple, replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from firefight import algorithms, engine, graph
from firefight.algorithms import (
    AlgorithmKind,
    BreakDetail,
    NoEligibleBreakVertexError,
    NoEligibleCycleError,
    WrongGraphClassError,
    alg_a_round,
    alg_c_round,
    alg_e_round,
    decision_view,
    greedy_tree_round,
    improved_break,
    run_algorithm,
)
from firefight.engine import GameState, Instance, Status, replay
from firefight.graph import (
    Graph,
    GraphClass,
    Subgraph,
    ceil_sqrt,
    covered_set,
    fundamental_cycles,
    induced_subgraph,
    validate_and_decompose,
    _distances,
)
from firefight.optimum import normalize_nonredundant, opt_upper_bound
from firefight.instances import (
    make_tadpole,
    random_cactus,
    random_one_almost_tree,
    random_sequence,
    random_tree,
)


def test_kind_values():
    assert {k.value for k in AlgorithmKind} == {
        "greedy-tree",
        "alg-a",
        "alg-c",
        "alg-e",
    }


def test_tadpole_traces_frozen():
    inst = Instance(make_tadpole(10, 3), (1, 1))
    runs = {
        kind: run_algorithm(inst, kind)
        for kind in (AlgorithmKind.ALG_A, AlgorithmKind.ALG_C, AlgorithmKind.ALG_E)
    }
    for kind in (AlgorithmKind.ALG_A, AlgorithmKind.ALG_C):
        r = runs[kind]
        assert r.profit == 9
        assert [(t.round, t.vertex) for t in r.trace] == [(1, 1), (2, 9)]
        assert [e.reason for e in r.events] == ["break", "greedy"]
    r = runs[AlgorithmKind.ALG_E]
    assert r.profit == 4
    assert [(t.round, t.vertex) for t in r.trace] == [(1, 11), (2, 2)]
    assert [e.reason for e in r.events] == ["greedy", "greedy"]


def test_tadpole_break_event_detail_frozen():
    inst = Instance(make_tadpole(10, 3), (1, 1))
    r = run_algorithm(inst, AlgorithmKind.ALG_C)
    brk = r.events[0].brk
    assert brk is not None
    assert brk.vertex == 1
    assert brk.anchor == 1
    assert brk.depth == 7
    assert brk.cooldown == 10
    assert brk.target == 4
    assert brk.cycle_weight == 10
    assert brk.cycle == tuple(range(11))


def test_pair_protection_on_heavy_root_cycle():
    # two firefighters close the cycle at both root neighbors
    inst = Instance(make_tadpole(10, 3), (2,))
    for kind in (AlgorithmKind.ALG_A, AlgorithmKind.ALG_C, AlgorithmKind.ALG_E):
        r = run_algorithm(inst, kind)
        assert r.profit == 10
        assert [e.reason for e in r.events] == ["pair", "pair"]
        assert sorted(t.vertex for t in r.trace) == [1, 10]


def test_improved_break_frozen_example():
    # hexagon through the root with a pendant at vertex 3
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (3, 6)])
    d = validate_and_decompose(g)
    b = improved_break(g, d, eta_sq=7)
    assert (b.vertex, b.anchor, b.depth, b.cooldown) == (1, 1, 4, 5)
    assert b.target == 3
    assert b.cycle == (0, 1, 2, 3, 4, 5)
    assert b.cycle_weight == 6


def test_improved_break_requires_heavy_cycle():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    d = validate_and_decompose(g)
    with pytest.raises(NoEligibleCycleError):
        improved_break(g, d, eta_sq=10**6)


def test_greedy_round_takes_heaviest_subtree():
    # subtree sizes under the root: 3 via vertex 1, 1 via vertex 5
    g = Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5)])
    choices = greedy_tree_round(g, 1)
    assert [c.vertex for c in choices] == [1]
    assert choices[0].reason == "greedy"


def test_greedy_round_rejects_cycles():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(WrongGraphClassError):
        greedy_tree_round(g, 1)


def test_class_gating():
    two_cycles = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 3)]
    )
    with pytest.raises(WrongGraphClassError):
        run_algorithm(Instance(two_cycles, (1,)), AlgorithmKind.ALG_A)
    with pytest.raises(WrongGraphClassError):
        run_algorithm(Instance(two_cycles, (1,)), AlgorithmKind.GREEDY_TREE)
    with pytest.raises(WrongGraphClassError):
        alg_a_round(two_cycles, validate_and_decompose(two_cycles), 1)
    # the class is checked even when no firefighter ever comes
    for seq in ((), (0, 0, 0)):
        with pytest.raises(WrongGraphClassError):
            run_algorithm(Instance(two_cycles, seq), AlgorithmKind.ALG_A)
    cactus_run = run_algorithm(Instance(two_cycles, (1,)), AlgorithmKind.ALG_C)
    assert cactus_run.graph_class is GraphClass.CACTUS
    # trees are accepted by every strategy
    tree = random_tree(8, 5)
    for kind in AlgorithmKind:
        assert run_algorithm(Instance(tree, (1, 1)), kind).graph_class is GraphClass.TREE
    # the proven bounds c*sqrt(n) + k; alg-e's holds on even sequences only
    assert {kind: kind.bound_for((2, 4)) for kind in AlgorithmKind} == {
        AlgorithmKind.GREEDY_TREE: (0, 2),
        AlgorithmKind.ALG_A: (6, 1),
        AlgorithmKind.ALG_C: (15, 1),
        AlgorithmKind.ALG_E: (0, 3),
    }
    assert AlgorithmKind.ALG_E.bound_for((2, 1)) is None
    assert AlgorithmKind.ALG_C.bound_for((2, 1)) == (15, 1)


def test_cooldown_state_tick():
    # the cool-down is the rounds left; an empty round only ticks it
    g = make_tadpole(10, 3)
    d = validate_and_decompose(g)
    assert [alg_c_round(g, d, 0, c) for c in (0, 1, 3)] == [([], 0), ([], 0), ([], 2)]


def test_game_plays_every_round_up_to_the_last_with_firefighters(monkeypatch):
    # three legs of 8 under the root: the fire still burns after round 5
    legs = [(0 if i % 8 == 0 else i, i + 1) for i in range(24)]
    inst = Instance(Graph.from_edges(25, legs), (0, 1, 0, 0, 1, 0, 0))
    rounds = []
    real = algorithms._round

    def spy(res):
        rounds.append(res.state.round)
        return real(res)

    spreads = 0
    real_spread = GameState.spread

    def spread(state):
        nonlocal spreads
        spreads += 1
        return real_spread(state)

    monkeypatch.setattr(algorithms, "_round", spy)
    monkeypatch.setattr(GameState, "spread", spread)
    for kind in AlgorithmKind:
        rounds.clear()
        spreads = 0
        r = run_algorithm(inst, kind)
        assert rounds == [1, 2, 3, 4, 5], kind
        # the fire spreads between rounds only: not after round 5's decision
        assert spreads == 4, kind
        assert [t.round for t in r.trace] == [2, 5]
        assert r.profit == 7 + 4


def test_alg_c_round_reports_cooldown():
    g = make_tadpole(10, 3)
    decomp = validate_and_decompose(g)
    choices, cd = alg_c_round(g, decomp, 1, 0)
    assert [c.reason for c in choices] == ["break"]
    assert cd == 10
    # an active cool-down forces one greedy protection, then clears
    choices2, cd2 = alg_c_round(g, decomp, 1, 5)
    assert [c.reason for c in choices2] == ["greedy"]
    assert cd2 == 0


def _renamed(brk, ids):
    """``brk`` with its vertex, anchor and cycle renamed through ``ids``."""
    return replace(
        brk, vertex=ids[brk.vertex], anchor=ids[brk.anchor], cycle=tuple(ids[v] for v in brk.cycle)
    )


def _check_break_ids(g, d, e, sub=None):
    """Event ``e``'s break is in g's ids: it protects the event's vertex,
    and its cycle runs (g.root, anchor, ...) along a cycle of g's
    decomposition ``d``.  Once the fire has spread, g.root stands for the
    burned region, so the cycle closes in the decision's view ``sub``."""
    brk, cyc = e.brk, e.brk.cycle
    assert brk.vertex == e.vertex
    assert cyc[:2] == (g.root, brk.anchor)
    if sub is not None:
        g, cyc = sub.graph, _renamed(brk, sub.index_map()).cycle
        d = validate_and_decompose(g)
    assert set(cyc) in [set(c) for c in d.cycles]
    assert all(g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))


def test_round_functions_report_breaks_in_their_graph_ids():
    """Every break is reported in the ids of the graph the game is played
    on, like its event, by the round functions and by whole games alike,
    also when earlier decisions of the round came first and on graphs whose
    root is not 0."""
    rng = random.Random(0)
    g = _relabelled(random_cactus(rng.randint(8, 40), rng.uniform(0.5, 1.0), rng.randint(4, 16), 0), rng)
    assert g.root == 7
    d = validate_and_decompose(g)
    events, _ = alg_c_round(g, d, 3, 0)
    assert [(e.vertex, e.reason) for e in events] == [(17, "pair"), (19, "pair"), (0, "break")]
    brk = events[2].brk
    assert (brk.vertex, brk.anchor) == (0, 0)
    assert brk.cycle == (7, 0, 27, 20, 10, 5, 21, 13, 1)
    late = {"in round": 0, "later rounds": 0}
    for seed in range(1500):
        rng = random.Random(seed)
        g = _relabelled(random_cactus(rng.randint(8, 40), rng.uniform(0.5, 1.0), rng.randint(4, 16), seed), rng)
        d = validate_and_decompose(g)
        events, _ = alg_c_round(g, d, rng.randint(2, 4), 0)
        for k, e in enumerate(events):
            if e.brk is not None:
                _check_break_ids(g, d, e)
                late["in round"] += k > 0
        inst = Instance(g, tuple(rng.choice((1, 1, 1, 2, 3, 4)) for _ in range(rng.randint(1, 8))))
        r = run_algorithm(inst, AlgorithmKind.ALG_C)
        for k, e in enumerate(r.events):
            if e.brk is not None:
                _check_break_ids(g, d, e, decision_view(inst, r, k) if e.round > 1 else None)
                late["later rounds"] += e.round > 1
    assert min(late.values()) >= 10, late


def test_break_without_eligible_vertex_falls_back_to_greedy(caplog):
    # a triangle's cycle outweighs the best pick squared, but cutting either
    # root edge leaves too little territory behind: the guard stays greedy
    # on a cycle of weight 2, and nothing is logged
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with caplog.at_level(logging.DEBUG):
        r = run_algorithm(Instance(triangle, (1,)), AlgorithmKind.ALG_C)
    assert caplog.records == []
    assert [(e.vertex, e.reason, e.brk) for e in r.events] == [(1, "greedy", None)]
    assert r.profit == 1


def _random_instance(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 13)
    style = rng.randrange(3)
    if style == 0:
        g = random_tree(n, seed)
    elif style == 1:
        g = random_one_almost_tree(max(n, 4), seed)
    else:
        g = random_cactus(n, 0.6, 6, seed)
    seq = random_sequence(rng.randint(1, 4), rng.randint(1, 6), False, seed + 1)
    return Instance(g, seq)


@given(st.integers(0, 2**20))
def test_run_profit_matches_replay_of_trace(seed):
    inst = _random_instance(seed)
    tag = validate_and_decompose(inst.graph).class_tag
    for kind in AlgorithmKind:
        try:
            result = run_algorithm(inst, kind)
        except WrongGraphClassError:
            assert (kind, tag.value) not in _accepts
            continue
        assert (kind, tag.value) in _accepts
        profit, _ = replay(inst, tuple((t.round, t.vertex) for t in result.trace))
        assert profit == result.profit
        assert len(result.events) == len(result.trace)
        for k, (event, entry) in enumerate(zip(result.events, result.trace)):
            assert (event.time, event.round, event.vertex) == entry
            assert event.vertex in decision_view(inst, result, k).to_orig


def test_games_end_at_their_last_decision(monkeypatch):
    """No game burns out or asks the game state for its profit: the profit
    is the residual game's sum of the protected sizes."""
    called = []

    def spy(name):
        return lambda self, *args: called.append(name)

    monkeypatch.setattr(GameState, "burn_out", spy("burn_out"))
    monkeypatch.setattr(GameState, "profit", spy("profit"))
    played = 0
    for seed in range(300):
        inst = _random_instance(seed)
        tag = validate_and_decompose(inst.graph).class_tag
        for kind in AlgorithmKind:
            if kind.accepts(tag):
                run_algorithm(inst, kind)
                played += 1
    assert played > 600 and called == []


def test_arcs_keep_their_members_sizes(monkeypatch):
    """An arc gathers its members' sizes once, at open, and slices them
    for its heap, its profile and its chains: around every round of the
    random games, each live arc's kept size at position p is the residual
    game's size of ``cyc[p]``, its weight their sum, and a bare arc's
    weight its live member count."""
    checked = {True: 0, False: 0}

    def check(res):
        for arc in res.arcs.values():
            live = range(arc.lo, arc.hi)
            sizes = [res.size[arc.cyc[p]] for p in live]
            assert [arc.sizes[p - 1] for p in live] == sizes
            assert arc.weight == sum(sizes)
            if arc.bare:
                assert arc.weight == len(live)
            checked[arc.bare] += 1

    real = algorithms._round

    def spy(res):
        check(res)
        events = real(res)
        check(res)
        return events

    monkeypatch.setattr(algorithms, "_round", spy)
    for seed in range(300):
        inst = _random_instance(seed)
        tag = validate_and_decompose(inst.graph).class_tag
        for kind in (AlgorithmKind.ALG_A, AlgorithmKind.ALG_C, AlgorithmKind.ALG_E):
            if kind.accepts(tag):
                run_algorithm(inst, kind)
    assert checked[True] > 0 and checked[False] > 0, checked


_PATH6 = Graph.from_edges(6, [(i, i + 1) for i in range(5)])


@pytest.mark.parametrize(
    "inst, kind, profit, reasons",
    [
        # protecting 1 stops the fire in round 1, before the last nonzero round
        (Instance(_PATH6, (1, 0, 1)), AlgorithmKind.ALG_C, 5, ["greedy"]),
        # a pair seals the root cycle
        (Instance(make_tadpole(10, 3), (2,)), AlgorithmKind.ALG_E, 10, ["pair", "pair"]),
        # a break with a cool-down, then a greedy pick on its opened side
        (Instance(make_tadpole(10, 3), (1, 1)), AlgorithmKind.ALG_C, 9, ["break", "greedy"]),
        (Instance(make_tadpole(10, 3), (1, 1)), AlgorithmKind.ALG_A, 9, ["break", "greedy"]),
        (Instance(make_tadpole(10, 3), (0, 0, 0)), AlgorithmKind.ALG_C, 0, []),
    ],
)
def test_profit_is_the_weight_of_the_protections(inst, kind, profit, reasons):
    result = run_algorithm(inst, kind)
    schedule = [(t.round, t.vertex) for t in result.trace]
    assert [e.reason for e in result.events] == reasons
    if kind is AlgorithmKind.ALG_C and "break" in reasons:
        assert result.events[0].brk.cooldown > 0
    protected = [t.vertex for t in result.trace]
    assert result.profit == replay(inst, schedule)[0] == engine.profit_of_protections(inst.graph, protected)
    assert result.profit == profit


_accepts = {
    (AlgorithmKind.GREEDY_TREE, "tree"),
    (AlgorithmKind.ALG_A, "tree"),
    (AlgorithmKind.ALG_A, "one-almost-tree"),
    (AlgorithmKind.ALG_C, "tree"),
    (AlgorithmKind.ALG_C, "one-almost-tree"),
    (AlgorithmKind.ALG_C, "cactus"),
    (AlgorithmKind.ALG_E, "tree"),
    (AlgorithmKind.ALG_E, "one-almost-tree"),
    (AlgorithmKind.ALG_E, "cactus"),
}


@given(st.integers(0, 2**20))
def test_runs_are_deterministic(seed):
    inst = _random_instance(seed)
    for kind in AlgorithmKind:
        try:
            first = run_algorithm(inst, kind)
            second = run_algorithm(inst, kind)
        except WrongGraphClassError:
            continue
        assert first.profit == second.profit
        assert first.trace == second.trace


@given(st.integers(0, 2**20))
def test_alg_e_never_breaks(seed):
    inst = _random_instance(seed)
    result = run_algorithm(inst, AlgorithmKind.ALG_E)
    assert all(e.reason in ("greedy", "pair") for e in result.events)
    assert all(e.brk is None for e in result.events)


def _golden_instance(seed):
    rng = random.Random(seed)
    style = seed % 4
    n = rng.randint(4, 18)
    if style == 0:
        g = random_tree(n, seed)
    elif style == 1:
        g = random_one_almost_tree(n, seed)
    elif style == 2:
        g = random_cactus(n, rng.uniform(0.3, 0.9), rng.randint(3, 9), seed)
    else:
        g = make_tadpole(rng.randint(2, 14), rng.randint(1, 5))
    even = seed % 3 == 0
    seq = random_sequence(rng.randint(1, 8), rng.randint(0, 8), even, seed + 1)
    return Instance(g, seq)


# sha256 over every accepted (instance, kind) run below: a changed profit,
# protection or decision record anywhere changes it
GOLDEN_TRACE_SHA256 = "e263b013132e921f84b4eadcf1a3f40c1594e9d669f1a1e1e5a149d59caaddc9"


def test_golden_traces():
    h = hashlib.sha256()
    for seed in range(400):
        inst = _golden_instance(seed)
        for kind in AlgorithmKind:
            try:
                r = run_algorithm(inst, kind)
            except WrongGraphClassError:
                continue
            # each break is hashed in its decision view's ids, the root 0
            events = []
            for k, e in enumerate(r.events):
                sub = decision_view(inst, r, k)
                brk = None if e.brk is None else astuple(_renamed(e.brk, sub.index_map()))
                events.append((e.time, e.round, e.vertex, e.reason, brk, sub.to_orig))
            h.update(repr((seed, kind.value, r.profit, r.trace, events)).encode())
    assert h.hexdigest() == GOLDEN_TRACE_SHA256


def test_empty_round_only_ticks_cooldown():
    g = make_tadpole(10, 3)
    dec = validate_and_decompose(g)
    assert alg_c_round(g, dec, 0, 5) == ([], 4)


def test_root_cycle_ties_fall_to_decomposition_order():
    # two root 4-cycles of weight 3; (0, 5, 1, 6) holds the lower id 1 but
    # every root cycle holds the root, so the tie goes to decomp.cycles order
    g = Graph.from_edges(7, [(0, 5), (5, 1), (1, 6), (6, 0), (0, 2), (2, 3), (3, 4), (4, 0)])
    d = validate_and_decompose(g)
    assert d.cycles == ((0, 2, 3, 4), (0, 5, 1, 6))
    choices = alg_e_round(g, d, 2)
    assert [(c.vertex, c.reason) for c in choices] == [(2, "pair"), (4, "pair")]


def _root_cycles(g, walk):
    """The indices of ``walk``'s cycles through the root."""
    return [i for i, top in enumerate(walk.tops) if top == g.root]


def _reference_improved_break(g, decomp, eta_sq):
    """improved_break with one covered_set per weight and per cycle vertex,
    and distances read off each materialized opened territory."""
    root = g.root

    def weight(s):
        return len(covered_set(g, frozenset(), frozenset(s)))

    def opened(cyc, anchor):
        """Root distances, in g's ids, once the root edge to ``anchor`` is cut."""
        keep = {root} | covered_set(g, frozenset(), frozenset(cyc) - {root})
        sub = induced_subgraph(g, keep, root, drop_edge=(root, anchor))
        local = _distances(sub.graph, frozenset(), sub.graph.root)
        return {sub.to_orig[v]: d for v, d in local.items()}

    eligible = []
    for i in _root_cycles(g, decomp):
        w = weight(set(decomp.cycles[i]) - {root})
        if w * w >= eta_sq:
            eligible.append((i, w))
    if not eligible:
        raise NoEligibleCycleError
    heaviest = max(w for _, w in eligible)
    target = ceil_sqrt(heaviest)
    best = None
    for i, w in eligible:
        cyc = decomp.cycles[i]
        for u in (cyc[1], cyc[-1]):
            rest = w - weight({u})
            if rest < 0 or rest * rest < heaviest:
                continue
            dmap = opened(cyc, u)
            # the largest d with at least target vertices at distance >= d
            dists = sorted(dmap.values(), reverse=True)
            if len(dists) < target:
                continue
            t = dists[target - 1]
            if best is None or (t, -u) > (best[0], best[1]):
                best = (t, -u, i, dmap)
    if best is None:
        raise NoEligibleBreakVertexError
    depth, anchor, cyc, dmap = best[0], -best[1], decomp.cycles[best[2]], best[3]
    if cyc[1] != anchor:
        cyc = (cyc[0],) + tuple(reversed(cyc[1:]))
    for u_hat in cyc[1:]:
        if any(dmap.get(v, -1) >= depth for v in covered_set(g, frozenset(), {u_hat})):
            return BreakDetail(u_hat, anchor, depth, dmap[u_hat], cyc, target, heaviest)
    raise NoEligibleBreakVertexError


def test_improved_break_matches_covered_set_reference():
    breaks = 0
    for seed in range(300):
        rng = random.Random(seed)
        if seed % 3 == 0:
            g = make_tadpole(rng.randint(3, 40), rng.randint(1, 8))
        else:
            n = rng.randint(6, 40)
            g = random_cactus(n, rng.uniform(0.5, 1.0), rng.randint(4, 16), seed)
        if seed % 2:
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], perm[g.root])
        d = validate_and_decompose(g)
        eta_sq = rng.randint(1, 2 * g.n)
        try:
            expected = _reference_improved_break(g, d, eta_sq)
        except (NoEligibleCycleError, NoEligibleBreakVertexError) as exc:
            for walk in (d, fundamental_cycles(g)):
                with pytest.raises(type(exc)):
                    improved_break(g, walk, eta_sq)
            continue
        # the break does not depend on the order or orientation of the cycles
        assert improved_break(g, d, eta_sq) == expected
        assert improved_break(g, fundamental_cycles(g), eta_sq) == expected
        breaks += 1
    assert breaks >= 200


def _reference_tolerance_break(g, decomp):
    """alg-a's break on g's root cycle with weights from covered_set: the
    more tolerant root neighbor, ties to the lower one."""
    root = g.root
    (ci,) = _root_cycles(g, decomp)
    cyc = decomp.cycles[ci]
    w = len(covered_set(g, frozenset(), frozenset(cyc) - {root}))
    target = ceil_sqrt(w)
    scored = [
        (t, -u)
        for u in (cyc[1], cyc[-1])
        if (t := graph.tolerance(g, decomp, u, ci, target)) is not None
    ]
    depth, neg_u = max(scored)
    anchor = -neg_u
    if cyc[1] != anchor:
        cyc = (cyc[0],) + tuple(reversed(cyc[1:]))
    return BreakDetail(anchor, anchor, depth, 0, cyc, target, w)


def test_alg_a_break_matches_tolerance_reference():
    breaks = 0
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(4, 30)
        g = random_one_almost_tree(n, seed, through_root=True)
        if seed % 2:
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], perm[g.root])
        d = validate_and_decompose(g)
        (event,) = alg_a_round(g, d, 1)
        if event.reason != "break":
            continue
        assert event.brk == _reference_tolerance_break(g, d)
        breaks += 1
    assert breaks >= 50, breaks


def test_breaks_build_no_subgraph(monkeypatch):
    """alg-a and alg-c decide their breaks without materializing a subgraph."""
    games = [Instance(make_tadpole(a, b), (1,) * 6) for a in range(3, 40, 4) for b in (1, 3, 8)]
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(8, 40)
        seq = random_sequence(rng.randint(2, 6), rng.randint(1, 3), False, seed)
        games.append(Instance(random_one_almost_tree(n, seed), seq))
        games.append(Instance(random_cactus(n, rng.uniform(0.5, 1.0), 16, seed), seq))

    def forbidden(*args, **kwargs):
        raise AssertionError("a strategy built a subgraph")

    monkeypatch.setattr(Graph, "from_edges", forbidden)
    for name in ("induced_subgraph", "break_subgraph", "break_subgraph_edge"):
        monkeypatch.setattr(graph, name, forbidden)
    breaks = {AlgorithmKind.ALG_A: 0, AlgorithmKind.ALG_C: 0}
    for inst in games:
        for kind in breaks:
            if kind is AlgorithmKind.ALG_A and len(validate_and_decompose(inst.graph).cycles) > 1:
                continue
            events = run_algorithm(inst, kind).events
            breaks[kind] += sum(e.reason == "break" for e in events)
    assert min(breaks.values()) >= 20, breaks


def _expected_residual(sub):
    """What a decision on view ``sub`` weighs, read off a fresh canonical
    decomposition, in original ids: each candidate's size, and the root
    cycles as (smaller end, weight) in rank order."""
    g, orig = sub.graph, sub.to_orig
    d = validate_and_decompose(g)
    cycles = [d.cycles[i] for i in _root_cycles(g, d)]
    pool = set(g.adjacency[0]).union(*(c[1:] for c in cycles))
    ranked = sorted((-sum(d.size[v] for v in c[1:]), orig[c[1]]) for c in cycles)
    return {orig[v]: d.size[v] for v in pool}, [(end, -w) for w, end in ranked]


def _residual_now(res):
    """The same two things as the residual game holds them: the current
    entries of its candidate heap, each arc's live members in place of its
    best, and the arcs' weights."""
    sizes = {v: -w for w, v, s in res.heap if s == res.stamp[v]}
    cycles = []
    for arc in res.arcs.values():
        for u in arc.cyc[arc.lo : arc.hi]:  # the best's entry carries its size
            assert sizes.setdefault(u, res.size[u]) == res.size[u]
        cycles.append((-arc.weight, min(arc.ends())))
    return sizes, [(end, -w) for w, end in sorted(cycles)]


def _live_view(state):
    """The reduced view of ``state`` built from scratch: the burned region
    merged into a root, the truly available vertices kept in id order."""
    g = state.instance.graph
    live = sorted(state.truly_available())
    index = {v: i for i, v in enumerate(live, 1)}
    for v, s in enumerate(state.status):
        if s is Status.BURNED:
            index[v] = 0
    edges = {
        (min(index[u], index[v]), max(index[u], index[v]))
        for u, v in g.edges()
        if u in index and v in index and index[u] + index[v] > 0
    }
    return Subgraph(Graph.from_edges(len(live) + 1, sorted(edges), 0), (g.root, *live))


def _relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], perm[g.root])


def _check_reduced_view(state):
    """The position's reduced view is the contraction of its live part."""
    sub = state.reduced_view()
    g, view, index = state.instance.graph, sub.graph, state.view_index()
    contracted = {
        (min(index[u], index[v]), max(index[u], index[v]))
        for u, v in g.edges()
        if index[u] >= 0 and index[v] >= 0 and index[u] + index[v] > 0
    }
    assert set(view.edges()) == contracted
    assert sub.to_orig[0] == g.root
    assert all(sub.to_orig[i] == v for v, i in enumerate(index) if i > 0)
    assert Graph.from_edges(view.n, view.edges(), 0) == view


def test_derived_views_equal_rebuilds(monkeypatch):
    """The residual game a game keeps across rounds equals, at every
    decision, a from-scratch rebuild of the live position: at a round's
    first decision (a view) and after earlier ones (a strip).  While a root
    cycle is live, the runner-up a pair weighs is the rebuild's second
    largest candidate size, on bare arcs (every member of size 1) and on
    arcs that hang vertices.  The position's reduced view, which no game
    builds, is checked there too."""
    counts = {"views": 0, "strips": 0, "bare": 0, "not bare": 0}
    step = algorithms._step

    def checked_step(res, *args):
        state = res.state
        expected = _expected_residual(_live_view(state))
        assert _residual_now(res) == expected
        _check_reduced_view(state)
        counts["strips" if state.trace and state.trace[-1].round == state.round else "views"] += 1
        if res.heaviest() is not None:
            assert res.second() == sorted(expected[0].values())[-2]
            counts["bare"] += any(arc.bare for arc in res.arcs.values())
            counts["not bare"] += not all(arc.bare for arc in res.arcs.values())
        return step(res, *args)

    monkeypatch.setattr(algorithms, "_step", checked_step)
    for seed in range(450):
        rng = random.Random(seed)
        if seed % 2:
            inst = _golden_instance(seed)
        else:
            g = random_cactus(rng.randint(10, 50), rng.uniform(0.5, 1.0), rng.randint(3, 12), seed)
            seq = random_sequence(rng.randint(2, 6), rng.randint(2, 12), False, seed + 1)
            inst = Instance(g, seq)
        if seed % 3:
            inst = Instance(_relabelled(inst.graph, rng), inst.sequence)
        for kind in (AlgorithmKind.ALG_C, AlgorithmKind.ALG_E):
            run_algorithm(inst, kind)
    # bare root cycles, relabelled so the best of an arc sits anywhere on it
    for seed in range(60):
        rng = random.Random(seed)
        if seed % 2:
            g = make_tadpole(rng.randint(2, 40), rng.randint(1, 8))
        else:
            g = _flower(rng.randint(2, 5), rng.randint(3, 12))
        seq = tuple(rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(1, 6)))
        inst = Instance(_relabelled(g, rng), seq)
        for kind in (AlgorithmKind.ALG_C, AlgorithmKind.ALG_E):
            run_algorithm(inst, kind)
    assert counts["views"] >= 700 and counts["strips"] >= 300, counts
    assert counts["bare"] >= 600 and counts["not bare"] >= 450, counts


def test_decision_view_is_the_decided_graph(monkeypatch):
    """decision_view rebuilds, from the trace alone, what each protection
    was decided on: the residual game's candidates with their sizes and its
    root cycles with their weights, and the view a break's record names.
    Covers round views, strips, pairs and breaks."""
    decided = []
    step = algorithms._step

    def spy(res, *args):
        before = _residual_now(res)
        out = step(res, *args)
        # a pair is one decision, two protections
        decided.extend((len(decided), before) for _ in out[0])
        return out

    monkeypatch.setattr(algorithms, "_step", spy)
    seen = {"protections": 0, "pairs": 0, "breaks": 0, "strips": 0}
    for seed in range(600):
        rng = random.Random(seed)
        n = rng.randint(6, 30)
        kind = (AlgorithmKind.ALG_A, AlgorithmKind.ALG_C, AlgorithmKind.ALG_E)[seed % 3]
        if kind is AlgorithmKind.ALG_A:
            g = random_one_almost_tree(n, seed)
        elif seed % 4 == 1:
            g = make_tadpole(rng.randint(3, 25), rng.randint(1, 6))
        else:
            g = random_cactus(n, rng.uniform(0.5, 1.0), rng.randint(3, 10), seed)
        if seed % 2:
            g = _relabelled(g, rng)
        inst = Instance(g, tuple(rng.choice((0, 1, 1, 1, 2, 3, 4)) for _ in range(rng.randint(1, 6))))
        decided.clear()
        r = run_algorithm(inst, kind)
        assert len(decided) == len(r.events)
        for k, e in enumerate(r.events):
            sub = decision_view(inst, r, k)
            assert decided[k][1] == _expected_residual(sub)
            if e.reason == "break":
                assert e.brk.vertex == e.vertex
                assert set(e.brk.cycle[1:]) <= set(sub.to_orig[1:])
            seen["pairs"] += e.reason == "pair"
            seen["breaks"] += e.reason == "break"
            # a later decision in the same round sees what the earlier ones left
            seen["strips"] += k > 0 and r.events[k - 1].round == e.round and (
                decided[k][0] != decided[k - 1][0]
            )
        seen["protections"] += len(r.events)
    assert seen["pairs"] >= 400 and seen["breaks"] >= 40 and seen["strips"] >= 200, seen


def test_game_builds_views_only_for_breaks(monkeypatch):
    """A game walks its chords once, which gives its dominator tree too,
    builds no view, not even for a break, and no game canonicalizes its
    cycles: its policies decide on the residual game, however many rounds
    have firefighters and however many breaks."""
    calls = {"reduced_view": 0, "contract": 0, "fundamental_cycles": 0, "validate_and_decompose": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(GameState, "reduced_view", counted("reduced_view", GameState.reduced_view))
    monkeypatch.setattr(engine, "contract", counted("contract", graph.contract))
    monkeypatch.setattr(
        algorithms, "fundamental_cycles", counted("fundamental_cycles", fundamental_cycles)
    )
    decompose = counted("validate_and_decompose", graph.validate_and_decompose)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "firefight" and hasattr(module, "validate_and_decompose"):
            monkeypatch.setattr(module, "validate_and_decompose", decompose)
    games = [Instance(make_tadpole(a, b), (1,) * 12) for a in range(3, 60, 7) for b in (1, 4, 9)]
    for s in range(2, 21):
        spider = [(0 if i % s == 0 else i, i + 1) for i in range(s * s)]
        games.append(Instance(Graph.from_edges(s * s + 1, spider), (1,) * s))
    for seed in range(60):
        rng = random.Random(seed)
        n = rng.randint(10, 60)
        seq = tuple(rng.choice((0, 1, 1, 2)) for _ in range(rng.randint(4, 12)))
        games.append(Instance(_relabelled(random_cactus(n, 0.8, 12, seed), rng), seq))
        games.append(Instance(random_one_almost_tree(n, seed), seq))
    played = {"games": 0, "long games": 0, "consulted": 0}
    for inst in games:
        for kind in AlgorithmKind:
            calls.update(dict.fromkeys(calls, 0))
            try:
                r = run_algorithm(inst, kind)
            except WrongGraphClassError:
                continue
            assert calls == {
                "reduced_view": 0,
                "contract": 0,
                "fundamental_cycles": 1,
                "validate_and_decompose": 0,
            }, (kind, calls)
            played["games"] += 1
            played["long games"] += len({t.round for t in r.trace}) >= 5
            played["consulted"] += sum(e.reason == "break" for e in r.events)
    assert played["long games"] >= 60, played
    assert played["consulted"] >= 40, played


def _flower(petals, size):
    """``petals`` cycles of ``size`` vertices sharing only the root, vertex 0."""
    edges = []
    for p in range(petals):
        first, last = 1 + p * (size - 1), (p + 1) * (size - 1)
        edges += [(0, first), (last, 0)] + [(i, i + 1) for i in range(first, last)]
    return Graph.from_edges(1 + petals * (size - 1), edges)


def _hairy_flower(petals, size, rng):
    """``_flower`` with zero, one or two leaves hanging off each non-root vertex."""
    g = _flower(petals, size)
    edges, n = list(g.edges()), g.n
    for v in range(1, g.n):
        for _ in range(rng.choice((0, 0, 1, 2))):
            edges.append((v, n))
            n += 1
    return Graph.from_edges(n, edges)


def test_run_algorithm_never_builds_a_view(monkeypatch):
    """No decision of a game builds the position's reduced view or lists
    its live part, not even for a break: greedy picks, pairs and breaks all
    read the residual game, and their records are in the game's ids, so
    nothing is renamed."""

    def forbidden(*args):
        raise AssertionError("a game built a reduced view or walked its live part")

    monkeypatch.setattr(GameState, "reduced_view", forbidden)
    monkeypatch.setattr(engine, "contract", forbidden)
    for name in ("_live", "truly_available", "view_index"):
        monkeypatch.setattr(GameState, name, forbidden)
    games = [_golden_instance(seed) for seed in range(400)]
    games += [Instance(_flower(p, s), (1,) * (p * s)) for p in range(2, 7) for s in (4, 9, 16)]
    reasons = {"greedy": 0, "pair": 0, "break": 0}
    for inst in games:
        for kind in AlgorithmKind:
            if kind.accepts(validate_and_decompose(inst.graph).class_tag):
                for e in run_algorithm(inst, kind).events:
                    reasons[e.reason] += 1
    assert min(reasons.values()) >= 40, reasons


def test_breaks_equal_view_built_reference():
    """Every break a game decides on its residual game is the break the
    view-built reference decides on the decision's view, renamed into the
    game's ids: the covered_set reference of ``improved_break`` on the
    view's own decomposition for alg-c, which shares no code with the
    game's break core, and the covered_set tolerance reference for alg-a.
    Some breaks come after greedy protections of the same round."""
    games = []
    for seed in range(240):
        rng = random.Random(seed)
        style = seed % 3
        if style == 0:
            g = random_cactus(rng.randint(8, 40), rng.uniform(0.5, 1.0), rng.randint(4, 16), seed)
        elif style == 1:  # a tail at least as heavy as the cycle is picked first
            g = make_tadpole(rng.randint(3, 30), rng.randint(1, 30))
        else:
            g = _flower(rng.randint(2, 5), rng.randint(4, 12))
        seq = tuple(rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(1, 6)))
        games.append((Instance(_relabelled(g, rng), seq), AlgorithmKind.ALG_C))
        if style < 2:
            g = random_one_almost_tree(rng.randint(4, 30), seed) if style == 0 else g
            games.append((Instance(_relabelled(g, rng), seq), AlgorithmKind.ALG_A))
    # petals whose members hang leaves: a later break reads the profiles an
    # earlier one walked, of arcs the fire has shortened since
    hairy = len(games)
    for seed in range(40):
        rng = random.Random(seed)
        g = _hairy_flower(rng.randint(2, 5), rng.randint(5, 12), rng)
        games.append((Instance(_relabelled(g, rng), (1,) * rng.randint(4, 12)), AlgorithmKind.ALG_C))
    breaks = {AlgorithmKind.ALG_A: 0, AlgorithmKind.ALG_C: 0, "after greedy": 0, "hairy": 0}
    for j, (inst, kind) in enumerate(games):
        r = run_algorithm(inst, kind)
        for k, e in enumerate(r.events):
            if e.reason != "break":
                continue
            sub = decision_view(inst, r, k)
            view = sub.graph
            d = validate_and_decompose(view)
            if kind is AlgorithmKind.ALG_C:
                expected = _reference_improved_break(view, d, inst.graph.n)
            else:
                expected = _reference_tolerance_break(view, d)
            assert e.brk == _renamed(expected, sub.to_orig), (inst, kind, k)
            assert e.brk.vertex == e.vertex
            breaks[kind] += 1
            breaks["hairy"] += j >= hairy
            before = r.events[k - 1] if k else None
            breaks["after greedy"] += before is not None and (before.round, before.reason) == (e.round, "greedy")
    assert breaks[AlgorithmKind.ALG_C] >= 40 and breaks[AlgorithmKind.ALG_A] >= 40, breaks
    assert breaks["after greedy"] >= 10, breaks
    assert breaks["hairy"] >= 30, breaks


def _play_on_canonical(inst, kind):
    """``run_algorithm`` with its residual game built on the canonical
    decomposition instead of the chord walk."""
    decomp = validate_and_decompose(inst.graph)
    state = GameState(inst)
    last = max((r for r, f in enumerate(inst.sequence, 1) if f), default=0)
    events = []
    profit = 0
    if last:
        res = algorithms._Residual(state, decomp, kind)
        while state.round <= last and not state.is_finished():
            events += algorithms._round(res)
            burned = state.spread()
            if state.round <= last:
                res.burn(burned)
        profit = res.saved
    else:
        algorithms._checked(kind, decomp)
    return algorithms.RunResult(profit, tuple(state.trace), tuple(events), decomp.class_tag)


def _differential_graph(rng, kind):
    """A relabelled graph of a class ``kind`` plays on."""
    n = rng.randint(4, 30)
    styles = {
        AlgorithmKind.GREEDY_TREE: ("tree",),
        AlgorithmKind.ALG_A: ("tree", "one-almost-tree", "one-almost-tree", "tadpole"),
    }.get(kind, ("tree", "one-almost-tree", "tadpole", "cactus", "cactus", "flower"))
    style = rng.choice(styles)
    if style == "tree":
        g = random_tree(n, rng.randrange(2**20))
    elif style == "one-almost-tree":
        g = random_one_almost_tree(n, rng.randrange(2**20))
    elif style == "tadpole":
        g = make_tadpole(rng.randint(3, 20), rng.randint(1, 12))
    elif style == "cactus":
        g = random_cactus(n, rng.uniform(0.5, 1.0), rng.randint(3, 12), rng.randrange(2**20))
    else:
        g = _flower(rng.randint(2, 5), rng.randint(3, 9))
    return _relabelled(g, rng)


def test_games_on_the_chord_walk_equal_games_on_the_canonical_decomposition():
    """The residual game does not depend on a cycle's orientation or index:
    on 2000 random instances of every strategy, a game built on the
    canonical decomposition gives run_algorithm's profit, trace, events and
    break records."""
    seen = {"reordered": 0, "pair": 0, "break": 0}
    for kind in AlgorithmKind:
        rng = random.Random(kind.value)
        for _ in range(2000):
            g = _differential_graph(rng, kind)
            seq = tuple(rng.choice((0, 1, 1, 1, 2, 3)) for _ in range(rng.randint(1, 8)))
            inst = Instance(g, seq)
            result = run_algorithm(inst, kind)
            assert _play_on_canonical(inst, kind) == result, (inst, kind)
            seen["reordered"] += fundamental_cycles(g).cycles != validate_and_decompose(g).cycles
            for e in result.events:
                seen[e.reason] = seen.get(e.reason, 0) + 1
    assert seen["reordered"] >= 3000 and seen["pair"] >= 2000 and seen["break"] >= 500, seen


def test_games_without_firefighters_build_no_residual_game(monkeypatch):
    """A game whose sequence brings no firefighter checks the strategy's
    class (see test_class_gating) and ends with profit 0, the graph being
    connected: it builds no residual game."""
    calls = []

    class Counted(algorithms._Residual):
        def __init__(self, *args):
            calls.append(args)
            super().__init__(*args)

    monkeypatch.setattr(algorithms, "_Residual", Counted)
    path = Graph.from_edges(300, [(i, i + 1) for i in range(299)])
    shapes = [path, make_tadpole(20, 4), _flower(3, 5), random_tree(30, 1), random_cactus(30, 0.8, 6, 2)]
    for g in shapes:
        for seq in ((), (0,), (0, 0, 0)):
            for kind in AlgorithmKind:
                if not kind.accepts(validate_and_decompose(g).class_tag):
                    continue
                r = run_algorithm(Instance(g, seq), kind)
                assert (r.profit, r.trace, r.events) == (0, (), ())
    assert calls == []
    run_algorithm(Instance(path, (0, 1)), AlgorithmKind.ALG_C)
    assert len(calls) == 1


def test_games_leave_their_walk_unchanged():
    """A game copies the sizes it changes: a round played twice on one
    decomposition decides the same both times and leaves the decomposition
    equal to a fresh one, also when it protects inside a root cycle."""
    inside = 0
    for seed in range(120):
        rng = random.Random(seed)
        if seed % 3 == 0:
            g = make_tadpole(rng.randint(3, 40), rng.randint(1, 8))
        elif seed % 3 == 1:
            g = _flower(rng.randint(2, 5), rng.randint(4, 12))
        else:
            g = random_cactus(rng.randint(6, 40), rng.uniform(0.5, 1.0), rng.randint(4, 16), seed)
        w = validate_and_decompose(g)
        first = alg_c_round(g, w, 1, 0)
        assert alg_c_round(g, w, 1, 0) == first
        assert w == validate_and_decompose(g)
        (event,), _ = first
        inside += any(event.vertex in c[1:] for c in w.cycles if c[0] == g.root)
    assert inside >= 80, inside


def test_one_bfs_per_graph(monkeypatch):
    """A graph BFSes once, when from_edges checks that it is connected;
    games, chord walks, decompositions and the solver's bounds read
    that BFS, and BFS no other graph.  A reduced view BFSes on first use,
    at most once."""
    bfsed = []
    real = graph._bfs

    def counted(g):
        bfsed.append(g)  # holds the graph, so ids stay unique
        return real(g)

    shapes = [make_tadpole(10, 3), make_tadpole(30, 6)]
    for seed in range(20):
        rng = random.Random(seed)
        shapes.append(_relabelled(random_cactus(rng.randint(10, 40), 0.8, 12, seed), rng))
    monkeypatch.setattr(graph, "_bfs", counted)
    views = 0
    for shape in shapes:
        bfsed.clear()
        g = Graph.from_edges(shape.n, list(shape.edges()), shape.root)
        assert bfsed == [g]
        inst = Instance(g, (1, 1, 0, 2, 1))
        for kind in AlgorithmKind:
            if kind.accepts(validate_and_decompose(g).class_tag):
                run_algorithm(inst, kind)
        fundamental_cycles(g)
        opt_upper_bound(inst)
        normalize_nonredundant(inst, ())
        assert bfsed == [g]
        state = GameState(inst)
        state.spread()
        view = state.reduced_view().graph
        fundamental_cycles(view)
        validate_and_decompose(view)
        assert sum(x is g for x in bfsed) == 1
        assert len({id(x) for x in bfsed}) == len(bfsed)
        views += len(bfsed) - 1
    assert views >= 5, views


# the frames of the chord walk, which the line count leaves aside
_WALK_FRAMES = ("fundamental_cycles", "_chord_walk")


def _package_lines(play):
    """The ``line`` events ``play()`` runs in the package, the chord walk's
    aside (``fundamental_cycles`` and the ``_chord_walk`` it calls): the
    Python steps of a game beyond its O(n) walk."""
    package = algorithms.__file__.rsplit("algorithms.py", 1)[0]
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package) and code.co_name not in _WALK_FRAMES:
            return local
        return None

    sys.settrace(call)
    try:
        play()
    finally:
        sys.settrace(None)
    return lines


# how many times the package's Python steps may grow when the cycle grows 10x
ROOT_CYCLE_LINE_GROWTH = (11, 10)


def test_root_cycle_work_does_not_grow_with_the_cycle():
    """Opening, sealing and breaking a root cycle take a fixed number of
    Python steps, whatever its length: on tadpoles whose cycle grows from
    1000 to 10000 vertices beside a fixed tail, the package's line events
    in games of alg-a, alg-c and alg-e (the chord walk's aside) grow by at
    most ROOT_CYCLE_LINE_GROWTH.  Sequence (1, 1, 1) makes a greedy pick
    of the tail, then a break for alg-a and alg-c; (2, 1) seals the cycle
    with a pair.  A Python pass over the members would make the ratio
    about 10."""
    beta = 100  # beta**2 >= alpha: the tail is picked first
    tadpoles = [make_tadpole(alpha, beta) for alpha in (1000, 10000)]
    for g in tadpoles:
        g.bfs  # built once per graph, outside the count
    reasons = set()
    for kind in (AlgorithmKind.ALG_A, AlgorithmKind.ALG_C, AlgorithmKind.ALG_E):
        for seq in ((1, 1, 1), (2, 1)):
            small, big = (
                _package_lines(lambda: run_algorithm(Instance(g, seq), kind)) for g in tadpoles
            )
            growth = Fraction(big, small)
            assert growth <= Fraction(*ROOT_CYCLE_LINE_GROWTH), (kind, seq, small, big)
            events = run_algorithm(Instance(tadpoles[1], seq), kind).events
            reasons.add((kind, seq, tuple(e.reason for e in events)))
    assert (AlgorithmKind.ALG_A, (1, 1, 1), ("greedy", "break", "greedy")) in reasons, reasons
    assert (AlgorithmKind.ALG_C, (1, 1, 1), ("greedy", "break", "greedy")) in reasons, reasons
    assert all(r[:2] == ("pair", "pair") for k, s, r in reasons if s == (2, 1)), reasons


def test_member_heaps_are_built_only_when_needed(monkeypatch):
    """An opened root cycle's best is found without a heap, and a bare
    arc's runner-up is 1, so a member heap is built only once the best
    leaves the arc, and at most once per arc.  On a fixed relabelling of
    a tadpole, whose bare cycle's best lies inside it and is protected or
    split off before the fire reaches it, no game builds one; on the
    tadpole as made, vertex 1, the lowest id and so the best, is an end of
    the cycle and burns in round 1, so alg-e builds one."""
    calls = 0

    def counted(heap):
        nonlocal calls
        calls += 1
        heapq.heapify(heap)

    monkeypatch.setattr(algorithms, "heapify", counted)
    g = make_tadpole(577, 24)
    relabelled = _relabelled(g, random.Random(1))
    for kind in (AlgorithmKind.ALG_A, AlgorithmKind.ALG_C, AlgorithmKind.ALG_E):
        for seq in ((1, 1, 1), (2, 1), (1, 3)):
            calls = 0
            run_algorithm(Instance(relabelled, seq), kind)
            assert calls == 0, (kind, seq, calls)
    for seq in ((1, 1, 1), (1, 3)):
        calls = 0
        r = run_algorithm(Instance(g, seq), AlgorithmKind.ALG_E)
        assert r.events[0].vertex == 578  # the tail's head, so the fire takes vertex 1
        assert calls == 1, (seq, calls)
    # the fire takes a triangle's best, vertex 1, which hangs vertex 3, and
    # its other member at once: an arc left one member needs no heap
    triangle = [(0, 1), (1, 2), (2, 0), (1, 3)]
    g = Graph.from_edges(9, triangle + [(0, 4), (4, 5), (5, 6), (6, 7), (7, 8)])
    calls = 0
    r = run_algorithm(Instance(g, (1, 1)), AlgorithmKind.ALG_E)
    assert [e.vertex for e in r.events] == [4, 3] and calls == 0
