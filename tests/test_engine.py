import random

import pytest
from hypothesis import given, strategies as st

import oracles
from firefight.engine import (
    GameNotFinishedError,
    GameState,
    Instance,
    InvalidScheduleError,
    NoFirefighterLeftError,
    Status,
    VertexUnavailableError,
    profit_of_protections,
    replay,
)
from firefight.graph import Graph, Subgraph
from firefight.instances import random_cactus, random_sequence


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(k):
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def _with(state, status):
    return {v for v, s in enumerate(state.status) if s is status}


def test_path_game_frozen():
    inst = Instance(path_graph(5), (1,))
    profit, state = replay(inst, [(1, 1)])
    assert profit == 4
    assert _with(state, Status.BURNED) == {0}
    assert _with(state, Status.PROTECTED) == {1}


def test_star_game_frozen():
    inst = Instance(star_graph(4), (1,))
    profit, state = replay(inst, [(1, 2)])
    assert profit == 1
    assert _with(state, Status.BURNED) == {0, 1, 3, 4}


def test_round_order_protect_then_spread():
    # with no firefighter in round 1 the fire takes vertex 1 first
    inst = Instance(path_graph(5), (0, 1))
    profit, state = replay(inst, [(2, 2)])
    assert profit == 3
    assert _with(state, Status.BURNED) == {0, 1}


def test_firefighters_indexing():
    inst = Instance(path_graph(3), (2, 0, 1))
    assert [inst.firefighters(r) for r in (1, 2, 3, 4, 9)] == [2, 0, 1, 0, 0]
    with pytest.raises(ValueError):
        inst.firefighters(0)


def test_instance_rejects_negative_counts():
    with pytest.raises(ValueError):
        Instance(path_graph(3), (1, -1))


def test_protect_guards():
    inst = Instance(star_graph(3), (1,))
    state = GameState(inst)
    with pytest.raises(VertexUnavailableError):
        state.protect(0)  # already burning
    with pytest.raises(VertexUnavailableError):
        state.protect(9)
    state.protect(1)
    with pytest.raises(VertexUnavailableError):
        state.protect(1)
    with pytest.raises(NoFirefighterLeftError):
        state.protect(2)
    state.spread()
    assert state.is_finished()
    assert state.profit() == 1


def test_protecting_cut_off_vertex_is_legal_but_worthless():
    # 2 is already saved once 1 is protected; burning it a firefighter is
    # allowed (its status is still available) and changes nothing
    inst = Instance(path_graph(3), (2,))
    state = GameState(inst)
    state.protect(1)
    assert 2 not in state.truly_available()
    state.protect(2)
    state.spread()
    assert state.profit() == 2


def test_profit_requires_finished_game():
    inst = Instance(path_graph(4), (0, 1))
    state = GameState(inst)
    with pytest.raises(GameNotFinishedError):
        state.profit()


def test_trace_numbering():
    # star with a two-edge tail hanging off leaf 4
    g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
    state = GameState(Instance(g, (2, 1)))
    state.protect(3)
    state.protect(1)
    state.spread()
    state.protect(5)
    state.spread()
    assert state.is_finished()
    assert [(t.time, t.round, t.vertex) for t in state.trace] == [
        (1, 1, 3),
        (2, 1, 1),
        (3, 2, 5),
    ]
    assert state.profit() == 3


@pytest.mark.parametrize(
    "schedule",
    [
        [(1, 1), (1, 2)],       # overspends round 1
        [(0, 1)],               # rounds start at 1
        [(1, 0)],               # protects the fire source
        [(1,)],                 # malformed entry
        [(1.5, 2)],             # a round must be an integer
        [(1, 2.0)],             # so must a vertex
        [("1", 1)],
    ],
)
def test_replay_rejects_bad_schedules(schedule):
    inst = Instance(path_graph(5), (1, 1))
    with pytest.raises(InvalidScheduleError):
        replay(inst, schedule)


def test_replay_entry_order_is_irrelevant():
    inst = Instance(path_graph(5), (1, 1))
    forward, _ = replay(inst, [(1, 4), (2, 2)])
    backward, _ = replay(inst, [(2, 2), (1, 4)])
    assert forward == backward == 3


def test_replay_allows_protection_after_sequence_end():
    # zero-budget rounds may pass silently; extra rounds get budget 0
    inst = Instance(path_graph(6), (1,))
    with pytest.raises(InvalidScheduleError):
        replay(inst, [(1, 4), (2, 5)])


def random_instance(seed, n_max=12):
    rng = random.Random(seed)
    n = rng.randint(3, n_max)
    g = random_cactus(n, rng.choice([0.0, 0.4, 0.8]), 6, seed)
    seq = random_sequence(rng.randint(1, 4), rng.randint(1, 5), False, seed + 1)
    return Instance(g, seq)


def random_schedule(inst, seed):
    """Random legal play, built against the engine's own availability set."""
    rng = random.Random(seed)
    state = GameState(inst)
    while not state.is_finished():
        f = inst.firefighters(state.round) if state.round <= len(inst.sequence) else 0
        for _ in range(f):
            options = sorted(state.truly_available())
            if not options:
                break
            state.protect(rng.choice(options))
        state.spread()
    return tuple((t.round, t.vertex) for t in state.trace), state.profit()


@given(st.integers(0, 2**20))
def test_replay_matches_live_play_and_oracles(seed):
    inst = random_instance(seed)
    schedule, live_profit = random_schedule(inst, seed ^ 0xABCD)
    profit, state = replay(inst, schedule)
    assert profit == live_profit
    assert profit == oracles.flood_replay(inst, schedule)
    assert profit == oracles.view_profit(inst, schedule)
    assert profit == profit_of_protections(inst.graph, _with(state, Status.PROTECTED))


@given(st.integers(0, 2**20))
def test_truly_available_is_reachable_and_unprotected(seed):
    inst = random_instance(seed)
    state = GameState(inst)
    state.spread()
    avail = state.truly_available()
    for v in avail:
        assert state.status[v] is Status.AVAILABLE
    # matches a fresh flood from the burned region
    h = oracles.to_nx(inst.graph)
    h.remove_nodes_from(_with(state, Status.PROTECTED))
    import networkx as nx

    comp = nx.node_connected_component(h, inst.graph.root)
    assert avail == comp - _with(state, Status.BURNED)


def _edge_set_view(state):
    """The reduced view built from its contracted edge set through from_edges."""
    g = state.instance.graph
    avail = sorted(state.truly_available())
    index = {o: i + 1 for i, o in enumerate(avail)}
    edges = set()
    for u in avail:
        for v in g.adjacency[u]:
            if v in index:
                if u < v:
                    edges.add((index[u], index[v]))
            elif state.status[v] is Status.BURNED:
                edges.add((0, index[u]))
    return Subgraph(Graph.from_edges(len(avail) + 1, sorted(edges), 0), (g.root, *avail))


@given(st.integers(0, 2**20))
def test_reduced_view_well_formed(seed):
    inst = random_instance(seed)
    rng = random.Random(seed)
    state = GameState(inst)
    state.spread()
    while not state.is_finished():
        view = state.reduced_view()
        assert view == _edge_set_view(state)
        assert view.to_orig[0] == inst.graph.root
        rest = list(view.to_orig[1:])
        assert rest == sorted(state.truly_available())
        # contracted root keeps at least one frontier edge while fire can spread
        assert view.graph.degree(0) >= 1
        if inst.firefighters(state.round):
            state.protect(rng.choice(rest))
        state.spread()


def _full_scan_spread(g, status):
    """Burned set after one step, from a one-hop flood of every burned vertex."""
    burned = {v for v, s in enumerate(status) if s is Status.BURNED}
    protected = {v for v, s in enumerate(status) if s is Status.PROTECTED}
    return burned | ({w for u in burned for w in g.adjacency[u]} - protected)


def _full_scan_finished(g, status):
    return not any(
        s is Status.AVAILABLE and any(status[u] is Status.BURNED for u in g.adjacency[v])
        for v, s in enumerate(status)
    )


@given(st.integers(0, 2**20))
def test_front_engine_matches_full_scan(seed):
    rng = random.Random(seed)
    inst = random_instance(seed)
    g = inst.graph
    state = GameState(inst)
    while True:
        for _ in range(inst.firefighters(state.round)):
            available = [v for v, s in enumerate(state.status) if s is Status.AVAILABLE]
            reached = _full_scan_spread(g, state.status)
            front_nbrs = [v for v in available if v in reached]
            pool = front_nbrs if front_nbrs and rng.random() < 0.6 else available
            if pool:
                state.protect(rng.choice(pool))
        # protecting the front's last neighbours can end the game right here
        finished = state.is_finished()
        assert finished == _full_scan_finished(g, state.status)
        if finished:
            break
        expected = _full_scan_spread(g, state.status)
        state.spread()
        assert _with(state, Status.BURNED) == expected
    schedule = tuple((t.round, t.vertex) for t in state.trace)
    profit, _ = replay(inst, schedule)
    assert profit == state.profit() == oracles.flood_replay(inst, schedule)
