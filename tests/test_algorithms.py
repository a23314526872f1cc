import hashlib
import logging
import random
from dataclasses import astuple

import pytest
from hypothesis import given, strategies as st

from firefight import algorithms, graph
from firefight.algorithms import (
    AlgorithmKind,
    BreakDetail,
    NoEligibleBreakVertexError,
    NoEligibleCycleError,
    NotATreeError,
    WrongGraphClassError,
    alg_a_round,
    alg_c_round,
    alg_e_round,
    decision_view,
    greedy_tree_round,
    improved_break,
    run_algorithm,
)
from firefight.engine import Instance, Status, replay
from firefight.graph import (
    Graph,
    GraphClass,
    Subgraph,
    ceil_sqrt,
    contract,
    covered_set,
    dominator_tree,
    induced_subgraph,
    validate_and_decompose,
    _distances,
)
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
    b = improved_break(g, d, dominator_tree(g, d), eta_sq=7)
    assert (b.vertex, b.anchor, b.depth, b.cooldown) == (1, 1, 4, 5)
    assert b.target == 3
    assert b.cycle == (0, 1, 2, 3, 4, 5)
    assert b.cycle_weight == 6


def test_improved_break_requires_heavy_cycle():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    d = validate_and_decompose(g)
    with pytest.raises(NoEligibleCycleError):
        improved_break(g, d, dominator_tree(g, d), eta_sq=10**6)


def test_greedy_round_takes_heaviest_subtree():
    # subtree sizes under the root: 3 via vertex 1, 1 via vertex 5
    g = Graph.from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5)])
    choices = greedy_tree_round(g, 1)
    assert [c.vertex for c in choices] == [1]
    assert choices[0].reason == "greedy"


def test_greedy_round_rejects_cycles():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(NotATreeError):
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
    assert [alg_c_round(g, d, 0, c, g.n) for c in (0, 1, 3)] == [([], 0), ([], 0), ([], 2)]


def test_alg_c_round_reports_cooldown():
    g = make_tadpole(10, 3)
    decomp = validate_and_decompose(g)
    choices, cd = alg_c_round(g, decomp, 1, 0, g.n)
    assert [c.reason for c in choices] == ["break"]
    assert cd == 10
    # an active cool-down forces one greedy protection, then clears
    choices2, cd2 = alg_c_round(g, decomp, 1, 5, g.n)
    assert [c.reason for c in choices2] == ["greedy"]
    assert cd2 == 0


def test_break_without_eligible_vertex_falls_back_to_greedy(caplog):
    # a triangle's cycle outweighs the best pick squared, but cutting either
    # root edge leaves too little territory behind
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    with caplog.at_level(logging.WARNING, logger="firefight.algorithms"):
        r = run_algorithm(Instance(triangle, (1,)), AlgorithmKind.ALG_C)
    warnings = [m for m in caplog.messages if "cycle break found no eligible vertex" in m]
    assert len(warnings) == 1
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
            events = [
                (e.time, e.round, e.vertex, e.reason,
                 None if e.brk is None else astuple(e.brk),
                 decision_view(inst, r, k).to_orig)
                for k, e in enumerate(r.events)
            ]
            h.update(repr((seed, kind.value, r.profit, r.trace, events)).encode())
    assert h.hexdigest() == GOLDEN_TRACE_SHA256


def test_empty_round_only_ticks_cooldown():
    g = make_tadpole(10, 3)
    dec = validate_and_decompose(g)
    assert alg_c_round(g, dec, 0, 5, g.n) == ([], 4)


def test_root_cycle_ties_fall_to_decomposition_order():
    # two root 4-cycles of weight 3; (0, 5, 1, 6) holds the lower id 1 but
    # every root cycle holds the root, so the tie goes to decomp.cycles order
    g = Graph.from_edges(7, [(0, 5), (5, 1), (1, 6), (6, 0), (0, 2), (2, 3), (3, 4), (4, 0)])
    d = validate_and_decompose(g)
    assert d.cycles == ((0, 2, 3, 4), (0, 5, 1, 6))
    choices = alg_e_round(g, d, 2)
    assert [(c.vertex, c.reason) for c in choices] == [(2, "pair"), (4, "pair")]


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
    for i in decomp.root_cycle_indices:
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
        dom = dominator_tree(g, d)
        eta_sq = rng.randint(1, 2 * g.n)
        try:
            expected = _reference_improved_break(g, d, eta_sq)
        except (NoEligibleCycleError, NoEligibleBreakVertexError) as exc:
            with pytest.raises(type(exc)):
                improved_break(g, d, dom, eta_sq)
            continue
        assert improved_break(g, d, dom, eta_sq) == expected
        breaks += 1
    assert breaks >= 200


def _reference_tolerance_break(g, decomp):
    """alg-a's break on g's root cycle with weights from covered_set: the
    more tolerant root neighbor, ties to the lower one."""
    root = g.root
    (ci,) = decomp.root_cycle_indices
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
    """What a decision on view ``sub`` weighs, read off a fresh dominator
    tree, in original ids: each candidate's size, and the root cycles as
    (smaller end, weight) in rank order."""
    g, orig = sub.graph, sub.to_orig
    d = validate_and_decompose(g)
    dom = dominator_tree(g, d)
    cycles = [d.cycles[i] for i in d.root_cycle_indices]
    pool = set(g.adjacency[0]).union(*(c[1:] for c in cycles))
    ranked = sorted((-dom.cycle_weight(c), orig[c[1]]) for c in cycles)
    return {orig[v]: dom.size[v] for v in pool}, [(end, -w) for w, end in ranked]


def _residual_now(res):
    """The same two things as the residual game holds them."""
    sizes = {v: res.size[v] for v in range(len(res.cand)) if res.cand[v]}
    cycles = []
    for i, (start, length, w) in res.arcs.items():
        cyc = res.decomp.cycles[i]
        cycles.append((-w, min(cyc[start], cyc[(start + length - 1) % len(cyc)])))
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


def test_derived_views_equal_rebuilds(monkeypatch):
    """The residual game a game keeps across rounds equals, at every
    decision, a from-scratch rebuild of the live position: at a round's
    first decision (a view) and after earlier ones (a strip).  Every view a
    break builds equals a from-scratch rebuild too."""
    counts = {"views": 0, "strips": 0, "break views": 0}
    step, derived = algorithms._step, contract

    def checked_step(res, *args):
        state = res.state
        assert _residual_now(res) == _expected_residual(_live_view(state))
        counts["strips" if state.trace and state.trace[-1].round == state.round else "views"] += 1
        return step(res, *args)

    def checked_contract(g, decomp, index):
        sub, dec = derived(g, decomp, index)
        view = sub.graph
        contracted = {
            (min(index[u], index[v]), max(index[u], index[v]))
            for u, v in g.edges()
            if index[u] >= 0 and index[v] >= 0 and index[u] + index[v] > 0
        }
        assert set(view.edges()) == contracted
        assert sub.to_orig[0] == g.root
        assert all(sub.to_orig[i] == v for v, i in enumerate(index) if i > 0)
        assert Graph.from_edges(view.n, view.edges(), 0) == view
        assert dec == validate_and_decompose(view)
        counts["break views"] += 1
        return sub, dec

    monkeypatch.setattr(algorithms, "_step", checked_step)
    monkeypatch.setattr(algorithms, "contract", checked_contract)
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
    assert counts["views"] >= 700 and counts["strips"] >= 300, counts
    assert counts["break views"] >= 20, counts


def test_decision_view_is_the_decided_graph(monkeypatch):
    """decision_view rebuilds, from the trace alone, what each protection
    was decided on: the residual game's candidates with their sizes and its
    root cycles with their weights, and a break's view.  Covers round
    views, strips, pairs and breaks."""
    decided = []
    break_views = []
    step, view = algorithms._step, algorithms._Residual.view

    def spy(res, *args):
        before = _residual_now(res)
        out = step(res, *args)
        # a pair is one decision, two protections
        decided.extend((len(decided), before) for _ in out[0])
        return out

    def spy_view(res, end):
        bv = view(res, end)
        break_views.append(bv.sub)
        return bv

    monkeypatch.setattr(algorithms, "_step", spy)
    monkeypatch.setattr(algorithms._Residual, "view", spy_view)
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
        break_views.clear()
        r = run_algorithm(inst, kind)
        assert len(decided) == len(r.events)
        breaks = iter(break_views)
        for k, e in enumerate(r.events):
            sub = decision_view(inst, r, k)
            assert decided[k][1] == _expected_residual(sub)
            if e.reason == "break":
                assert next(breaks) == sub
                assert e.brk.vertex in range(1, sub.graph.n)
                assert sub.to_orig[e.brk.vertex] == e.vertex
            seen["pairs"] += e.reason == "pair"
            seen["breaks"] += e.reason == "break"
            # a later decision in the same round sees what the earlier ones left
            seen["strips"] += k > 0 and r.events[k - 1].round == e.round and (
                decided[k][0] != decided[k - 1][0]
            )
        seen["protections"] += len(r.events)
    assert seen["pairs"] >= 400 and seen["breaks"] >= 40 and seen["strips"] >= 200, seen


def test_game_builds_views_only_for_breaks(monkeypatch, caplog):
    """A game runs one dominator pass up front and builds a view, with its
    own dominator pass, only for a break policy that gets past its guard:
    never once per round, however many rounds have firefighters."""
    calls = {"contract": 0, "dominator_tree": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(algorithms, "contract", counted("contract", contract))
    monkeypatch.setattr(algorithms, "dominator_tree", counted("dominator_tree", dominator_tree))
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
    with caplog.at_level(logging.WARNING, logger="firefight.algorithms"):
        for inst in games:
            for kind in AlgorithmKind:
                calls.update(contract=0, dominator_tree=0)
                caplog.clear()
                try:
                    r = run_algorithm(inst, kind)
                except WrongGraphClassError:
                    continue
                # a consulted policy breaks, or logs that it found nothing to break
                consulted = sum(e.reason == "break" for e in r.events) + len(caplog.records)
                assert calls["contract"] <= consulted, (kind, calls, consulted)
                assert calls["dominator_tree"] <= 1 + consulted, (kind, calls, consulted)
                played["games"] += 1
                played["long games"] += len({t.round for t in r.trace}) >= 5
                played["consulted"] += consulted
    assert played["long games"] >= 60, played
    assert played["consulted"] >= 40, played
