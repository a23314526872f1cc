import math
from typing import Iterator

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from firefight.engine import GameState, Instance
from firefight.graph import (
    DisconnectedError,
    EdgeNotOnCycleError,
    Graph,
    GraphClass,
    GraphError,
    InvalidTargetError,
    NotCactusError,
    NotRootCycleError,
    RootInSetError,
    VertexNotOnCycleError,
    break_subgraph,
    break_subgraph_edge,
    _cycle_for_break,
    ceil_sqrt,
    count_safe,
    covered_set,
    fundamental_cycles,
    induced_subgraph,
    tolerance,
    tolerance_edge,
    validate_and_decompose,
    weight,
    _distances,
)
from firefight.instances import random_one_almost_tree
from strategies import cacti, connected_graphs, relabelled_cacti


@st.composite
def root_cycle_cacti(draw, max_parts=3, max_n=9):
    """Cacti and 1-almost trees glued at their roots, so the root often sits
    on several cycles, under a random relabelling."""
    edges, n = [], 1
    for _ in range(draw(st.integers(1, max_parts))):
        if draw(st.booleans()):
            n_part, seed = draw(st.integers(3, max_n)), draw(st.integers(0, 2**20))
            part = random_one_almost_tree(n_part, seed, through_root=True)
        else:
            part = draw(cacti(max_n))
        others = [v for v in range(part.n) if v != part.root]
        ids = {part.root: 0, **{v: n + i for i, v in enumerate(others)}}
        n += len(others)
        edges += [(ids[u], ids[v]) for u, v in part.edges()]
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges], perm[0])


@st.composite
def vertex_subsets(draw, g, forbid=()):
    pool = [v for v in range(g.n) if v != g.root and v not in forbid]
    return frozenset(draw(st.lists(st.sampled_from(pool), unique=True, max_size=4))) if pool else frozenset()


def test_ceil_sqrt_matches_brute():
    for x in range(1, 3000):
        k = ceil_sqrt(x)
        assert k * k >= x > (k - 1) * (k - 1)
    assert ceil_sqrt(49) == 7
    assert ceil_sqrt(50) == 8
    assert ceil_sqrt(10**12) == 10**6


def test_from_edges_sorts_adjacency():
    g = Graph.from_edges(4, [(3, 0), (0, 1), (2, 0)])
    assert g.adjacency[0] == (1, 2, 3)
    assert list(g.edges()) == [(0, 1), (0, 2), (0, 3)]
    assert g.edge_count() == 3


@pytest.mark.parametrize(
    "n, edges, root",
    [
        (3, [(0, 1), (1, 1)], 0),          # self loop
        (3, [(0, 1), (1, 0)], 0),          # duplicate edge
        (3, [(0, 1), (1, 5)], 0),          # endpoint out of range
        (3, [(0, 1), (0, 2)], 7),          # root out of range
        (0, [], 0),                        # no vertices
        (3, [(0, 1), (1, 2), (0, 2), (2, 1)], 0),  # duplicate edge off the BFS tree
    ],
)
def test_from_edges_rejects_malformed(n, edges, root):
    with pytest.raises(ValueError):
        Graph.from_edges(n, edges, root)


def test_from_edges_rejects_disconnected():
    with pytest.raises(DisconnectedError):
        Graph.from_edges(4, [(0, 1), (2, 3)])


@st.composite
def faulty_edge_lists(draw):
    """n, edges and a root: a spanning tree in random order and orientation,
    then edges put in at random places, each in range (at times with a
    copy, which the BFS meets as a repeated chord), out of range, a
    self-loop or a copy of an edge in either orientation; at times an edge
    is dropped, which disconnects the graph."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    tree = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in draw(st.permutations(tree))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["in range", "out of range", "self-loop", "copy"]))
        if kind == "in range":
            edge = (draw(vertex), draw(vertex))
            if draw(st.booleans()):
                edges.insert(draw(st.integers(0, len(edges))), edge[::-1])
        elif kind == "out of range":
            edge = draw(st.sampled_from([(n, draw(vertex)), (draw(vertex), n + 2), (-1, draw(vertex))]))
        elif kind == "self-loop":
            v = draw(vertex)
            edge = (v, v)
        elif edges:
            u, v = draw(st.sampled_from(edges))
            edge = draw(st.sampled_from([(u, v), (v, u)]))
        else:
            continue
        edges.insert(draw(st.integers(0, len(edges))), edge)
    if edges and draw(st.booleans()):
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    return n, edges, draw(st.integers(0, n))


@settings(max_examples=400)
@given(faulty_edge_lists(), st.booleans())
def test_from_edges_matches_the_per_edge_reference(case, one_shot):
    # the same adjacency, or the same exception type and message
    n, edges, root = case

    def outcome(build):
        try:
            return build(n, iter(edges) if one_shot else list(edges), root)
        except (ValueError, GraphError) as exc:
            return type(exc), str(exc)

    got = outcome(lambda *args: Graph.from_edges(*args).adjacency)
    assert got == outcome(oracles.from_edges_reference)


@given(connected_graphs(), st.data())
def test_covered_set_matches_reachability_oracle(g, data):
    s = data.draw(vertex_subsets(g))
    removed = data.draw(vertex_subsets(g, forbid=s))
    got = covered_set(g, removed, s)
    assert got == oracles.covered_by_reachability(g, removed, s)
    assert weight(g, removed, s) == len(got)
    assert s <= got
    assert g.root not in got


@given(cacti(max_n=8), st.data())
def test_covered_set_matches_path_enumeration(g, data):
    s = data.draw(vertex_subsets(g))
    assert covered_set(g, frozenset(), s) == oracles.covered_by_path_enumeration(
        g, frozenset(), s
    )


def test_covered_set_guards():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(RootInSetError):
        covered_set(g, (), (0,))
    with pytest.raises(ValueError):
        covered_set(g, (1,), (1,))
    with pytest.raises(ValueError):
        covered_set(g, (0,), (1,))


def test_pair_coverage_can_beat_union_of_singletons():
    # on a cycle, two vertices jointly trap what neither covers alone
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert covered_set(g, (), (1,)) == {1}
    assert covered_set(g, (), (3,)) == {3}
    assert covered_set(g, (), (1, 3)) == {1, 2, 3}


@given(connected_graphs(), st.data())
def test_count_safe_matches_oracle_and_is_monotone(g, data):
    removed = data.draw(vertex_subsets(g))
    values = [count_safe(g, removed, d) for d in range(g.n + 2)]
    for d, value in enumerate(values):
        assert value == oracles.count_safe_oracle(g, removed, d)
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[0] == g.n - len(removed)


@given(connected_graphs(), st.data())
def test_dist_matches_networkx(g, data):
    removed = data.draw(vertex_subsets(g))
    h = oracles.to_nx(g)
    h.remove_nodes_from(removed)
    lengths = nx.single_source_shortest_path_length(h, g.root)
    d = _distances(g, removed, g.root)
    for v in range(g.n):
        if v in removed:
            continue
        expected = lengths.get(v, math.inf)
        assert d.get(v, math.inf) == expected


def test_decompose_tags():
    tree = Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)])
    assert validate_and_decompose(tree).class_tag is GraphClass.TREE
    one = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert validate_and_decompose(one).class_tag is GraphClass.ONE_ALMOST_TREE
    two = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 3)]
    )
    assert validate_and_decompose(two).class_tag is GraphClass.CACTUS


def test_decompose_rejects_shared_edge_cycles():
    diamond = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    with pytest.raises(NotCactusError):
        validate_and_decompose(diamond)


def test_root_cycle_order_convention():
    # root cycle starts at the root and walks toward the smaller neighbor
    g = Graph.from_edges(5, [(0, 2), (2, 3), (3, 4), (4, 0), (0, 1)])
    d = validate_and_decompose(g)
    assert d.cycles == ((0, 2, 3, 4),)
    assert d.tops == (0,)
    assert (d.idom, d.size) == ((-1, 0, 0, 0, 0), (5, 1, 1, 1, 1))


def test_nonroot_cycle_starts_at_smallest_member():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
    d = validate_and_decompose(g)
    (cyc,) = d.cycles
    assert cyc[0] == min(cyc) == 1
    assert d.tops == (1,)


def test_cycles_in_canonical_order():
    # (5, 1, 2) hangs off the root through 5 and (1, 3, 4) off its vertex 1:
    # both start at their smallest member 1 and sort by the next one
    g = Graph.from_edges(6, [(0, 5), (5, 1), (1, 2), (2, 5), (1, 3), (3, 4), (4, 1)])
    d = validate_and_decompose(g)
    assert d.cycles == ((1, 2, 5), (1, 3, 4))
    assert d.tops == (5, 1)
    # root cycles all start at the root: ties go to the smaller root neighbor
    g = Graph.from_edges(7, [(0, 5), (5, 1), (1, 6), (6, 0), (0, 2), (2, 3), (3, 4), (4, 0)])
    d = validate_and_decompose(g)
    assert d.cycles == ((0, 2, 3, 4), (0, 5, 1, 6))
    assert d.tops == (0, 0)


def _tarjan_decompose(g):
    """The lowpoint-search decomposition validate_and_decompose replaced:
    the cycles sorted by (min(c), c), each cycle's top, its member of least
    BFS depth, and the class, the reference for the BFS."""
    disc = [0] * g.n
    low = [0] * g.n
    timer = 1
    comps = []
    estack = []
    stack: list[tuple[int, int, Iterator[int]]] = [(g.root, -1, iter(g.adjacency[g.root]))]
    disc[g.root] = low[g.root] = timer
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
                low[u] = min(low[u], disc[v])
        if advanced:
            continue
        stack.pop()
        if stack:
            pu = stack[-1][0]
            low[pu] = min(low[pu], low[u])
            if low[u] >= disc[pu]:
                comp = []
                while estack:
                    e = estack.pop()
                    comp.append(e)
                    if e == (pu, u):
                        break
                comps.append(comp)
    cycles = []
    for comp in comps:
        if len(comp) <= 1:
            continue
        cadj: dict[int, list[int]] = {}
        for u, v in comp:
            cadj.setdefault(u, []).append(v)
            cadj.setdefault(v, []).append(u)
        if len(comp) != len(cadj) or any(len(a) != 2 for a in cadj.values()):
            raise NotCactusError
        start = g.root if g.root in cadj else min(cadj)
        order = [start, min(cadj[start])]
        while True:
            a, b = cadj[order[-1]]
            nxt = b if a == order[-2] else a
            if nxt == start:
                break
            order.append(nxt)
        cycles.append(tuple(order))
    cycles.sort(key=lambda c: (min(c), c))
    if not cycles:
        tag = GraphClass.TREE
    elif len(cycles) == 1:
        tag = GraphClass.ONE_ALMOST_TREE
    else:
        tag = GraphClass.CACTUS
    return tuple(cycles), tuple(min(c, key=g.bfs.depth.__getitem__) for c in cycles), tag


def _assert_chords_are_non_tree_edges(g):
    """The BFS keeps every edge but the tree edges (parent[v], v), each once."""
    _, parent, _, chords = g.bfs
    tree = {(min(p, v), max(p, v)) for v, p in enumerate(parent) if p >= 0}
    assert all(u < v for u, v in chords)
    assert len(set(chords)) == len(chords)
    assert set(chords) == set(g.edges()) - tree


@given(relabelled_cacti(), st.integers(0, 3), st.data())
def test_decompose_matches_tarjan_oracle(g, chords, data):
    edges = set(g.edges())
    for _ in range(chords):
        u, v = data.draw(st.integers(0, g.n - 1)), data.draw(st.integers(0, g.n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = Graph.from_edges(g.n, edges, g.root)
    _assert_chords_are_non_tree_edges(g)
    if not oracles.is_cactus(oracles.to_nx(g)):
        # some biconnected component has more edges than vertices
        with pytest.raises(NotCactusError):
            validate_and_decompose(g)
        return
    d = validate_and_decompose(g)
    assert (d.cycles, d.tops, d.class_tag) == _tarjan_decompose(g)


@st.composite
def walk_inputs(draw):
    """A relabelled tree, 1-almost tree or cactus, cacti glued at their
    roots, or any connected graph, with up to two edges added and, when
    built as views are, without from_edges' connectivity check, up to two
    dropped: cacti, non-cacti and disconnected graphs."""
    g = draw(st.one_of(relabelled_cacti(), root_cycle_cacti(), connected_graphs()))
    edges = set(g.edges())
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        u, v = draw(st.integers(0, g.n - 1)), draw(st.integers(0, g.n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    if draw(st.booleans()):
        return Graph.from_edges(g.n, edges, g.root)
    edges -= draw(st.sets(st.sampled_from(sorted(edges)), max_size=2))
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(g.n, tuple(tuple(sorted(a)) for a in adj), g.root)


def _outcome(fn, g):
    """fn(g), or the type of the GraphError it raises."""
    try:
        return fn(g)
    except GraphError as exc:
        return type(exc)


def _rotations_and_reflections(cyc):
    turns = {cyc[i:] + cyc[:i] for i in range(len(cyc))}
    return turns | {c[::-1] for c in turns}


@settings(max_examples=300)
@given(walk_inputs())
def test_chord_walk_is_the_decomposition_up_to_order(g):
    """The chord walk raises what the canonical decomposition raises, has
    its class, and holds its cycles, each read from its top, with their
    tops; the dominator tree is the same in either."""
    walk = _outcome(fundamental_cycles, g)
    decomp = _outcome(validate_and_decompose, g)
    if isinstance(decomp, type):
        assert walk is decomp
        return
    assert walk.class_tag == decomp.class_tag
    matched = []
    for cyc, top in zip(walk.cycles, walk.tops, strict=True):
        assert cyc[0] == top
        forms = _rotations_and_reflections(cyc)
        (i,) = [i for i, c in enumerate(decomp.cycles) if c in forms]
        assert decomp.tops[i] == top
        matched.append(i)
    assert sorted(matched) == list(range(len(decomp.cycles)))
    assert (walk.idom, walk.size) == (decomp.idom, decomp.size)


@given(st.one_of(cacti(), root_cycle_cacti()))
def test_bfs_chords_of_cacti(g):
    _assert_chords_are_non_tree_edges(g)
    assert len(g.bfs.chords) == len(validate_and_decompose(g).cycles)


def test_tree_has_no_chords():
    tree = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (0, 4)], 1)
    assert tree.bfs.chords == ()
    assert validate_and_decompose(tree).cycles == ()


def test_decompose_rejects_disconnected_and_skips_unreached_chords():
    # built directly, as contract builds views: no connectivity check yet
    g = Graph(6, ((1,), (0,), (3, 4), (2, 4), (2, 3), ()), 0)
    assert g.bfs.order == (0, 1) and g.bfs.chords == ()
    with pytest.raises(DisconnectedError):
        validate_and_decompose(g)


@given(cacti())
def test_decompose_cycles_match_networkx(g):
    d = validate_and_decompose(g)
    h = oracles.to_nx(g)
    assert oracles.is_cactus(h)
    assert len(d.cycles) == oracles.cycle_count(h)
    basis = {frozenset(c) for c in nx.cycle_basis(h)}
    assert {frozenset(c) for c in d.cycles} == basis


def test_break_subgraph_is_a_tree_view():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5)])
    d = validate_and_decompose(g)
    sub = break_subgraph(g, d, 0, 2)
    # vertex 2 takes its pendant 5 with it
    assert set(sub.to_orig) == {0, 1, 3, 4}
    assert nx.is_tree(oracles.to_nx(sub.graph))
    assert sub.graph.root == sub.index_map()[0]


def test_break_subgraph_edge_keeps_all_cycle_vertices():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    d = validate_and_decompose(g)
    sub = break_subgraph_edge(g, d, 0, (0, 1))
    assert set(sub.to_orig) == {0, 1, 2, 3, 4}
    assert sub.graph.edge_count() == 4
    assert nx.is_tree(oracles.to_nx(sub.graph))


def test_break_guards():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5)])
    d = validate_and_decompose(g)
    with pytest.raises(RootInSetError):
        break_subgraph(g, d, 0, 0)
    with pytest.raises(VertexNotOnCycleError):
        break_subgraph(g, d, 0, 5)
    with pytest.raises(EdgeNotOnCycleError):
        break_subgraph_edge(g, d, 0, (2, 5))
    with pytest.raises(ValueError):
        break_subgraph(g, d, 3, 1)
    off_root = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
    d2 = validate_and_decompose(off_root)
    with pytest.raises(NotRootCycleError):
        break_subgraph(off_root, d2, 0, 2)
    # the tolerances check their break the same way
    with pytest.raises(RootInSetError):
        tolerance(g, d, 0, 0, 1)
    with pytest.raises(VertexNotOnCycleError):
        tolerance(g, d, 5, 0, 1)
    with pytest.raises(EdgeNotOnCycleError):
        tolerance_edge(g, d, (2, 5), 0, 1)
    with pytest.raises(ValueError):
        tolerance(g, d, 1, 3, 1)
    with pytest.raises(NotRootCycleError):
        tolerance_edge(off_root, d2, (1, 2), 0, 1)


def test_break_edge_must_join_consecutive_cycle_members():
    # root cycles (0, 1, 2, 3) and (0, 4, 5, 6), a bridge (2, 7)
    g = Graph.from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0), (2, 7)]
    )
    d = validate_and_decompose(g)
    cyc = d.cycles[0]
    assert cyc == (0, 1, 2, 3)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert _cycle_for_break(d, g, 0, (a, b)) == cyc
        assert _cycle_for_break(d, g, 0, (b, a)) == cyc
    # a bridge, an edge of the other root cycle, non-adjacent members
    for e in ((2, 7), (7, 2), (0, 4), (5, 4), (0, 2), (3, 1)):
        with pytest.raises(EdgeNotOnCycleError):
            _cycle_for_break(d, g, 0, e)


def test_tolerance_frozen_examples():
    # pentagon through the root with a two-vertex tail at vertex 2
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 6)])
    d = validate_and_decompose(g)
    table = {
        (1, 1): 5,
        (1, 2): 4,
        (1, 3): 3,
        (4, 1): 4,
        (4, 2): 3,
        (4, 3): 3,
    }
    for (u, m), expected in table.items():
        assert tolerance(g, d, u, 0, m) == expected
    assert tolerance_edge(g, d, (0, 1), 0, 2) == 4
    assert tolerance_edge(g, d, (0, 4), 0, 2) == 4
    assert tolerance(g, d, 1, 0, 7) is None
    with pytest.raises(InvalidTargetError):
        tolerance(g, d, 1, 0, 0)


def _assert_tolerances(g, sub, tol):
    """``tol(m)`` is the largest d at which ``sub`` keeps m vertices at
    distance >= d, or None, for every m from 1 to n + 1."""
    counts = [count_safe(sub.graph, (), dd) for dd in range(g.n + 2)]
    for m in range(1, g.n + 2):
        feasible = [dd for dd, k in enumerate(counts) if k >= m]
        assert tol(m) == (max(feasible) if feasible else None), m


def _root_cycles(g, walk):
    """The indices of ``walk``'s cycles through the root."""
    return [i for i, top in enumerate(walk.tops) if top == g.root]


@given(root_cycle_cacti())
def test_tolerance_matches_definition(g):
    d = validate_and_decompose(g)
    for c in _root_cycles(g, d):
        for u in d.cycles[c][1:]:
            sub = break_subgraph(g, d, c, u)
            _assert_tolerances(g, sub, lambda m: tolerance(g, d, u, c, m))


@given(root_cycle_cacti())
def test_tolerance_edge_matches_definition(g):
    d = validate_and_decompose(g)
    for c in _root_cycles(g, d):
        cyc = d.cycles[c]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            sub = break_subgraph_edge(g, d, c, (a, b))
            for e in ((a, b), (b, a)):
                _assert_tolerances(g, sub, lambda m: tolerance_edge(g, d, e, c, m))


def test_induced_subgraph_drop_edge_and_mapping():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    sub = induced_subgraph(g, [0, 1, 2, 3, 4], 0, drop_edge=(4, 0))
    assert sub.to_orig == (0, 1, 2, 3, 4)
    assert not sub.graph.has_edge(sub.index_map()[4], sub.index_map()[0])
    with pytest.raises(ValueError):
        induced_subgraph(g, [1, 2], 0)


@given(relabelled_cacti())
def test_dominator_tree_matches_covered_sets(g):
    _assert_dominators_match_networkx(g)


@given(st.one_of(relabelled_cacti(), root_cycle_cacti()), st.data())
def test_dominator_tree_of_views_matches_networkx(g, data):
    """Reduced views taken at random positions of random games: their BFS
    and chords are computed on first use."""
    seq = tuple(data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=5)))
    state = GameState(Instance(g, seq))
    while not state.is_finished():
        for _ in range(state.instance.firefighters(state.round)):
            live = sorted(state.truly_available())
            if live and data.draw(st.booleans()):
                state.protect(data.draw(st.sampled_from(live)))
        sub = state.reduced_view()
        assert sub.graph._bfs_tree is None
        _assert_chords_are_non_tree_edges(sub.graph)
        _assert_dominators_match_networkx(sub.graph)
        state.spread()


def _assert_dominators_match_networkx(g):
    """Both forms of g's chord walk hold networkx's immediate dominators, a
    vertex's covered set as its size, and a root cycle's as the sum of its
    members' sizes but the root's."""
    idoms = nx.immediate_dominators(oracles.to_nx(g).to_directed(), g.root)
    for walk in (fundamental_cycles(g), validate_and_decompose(g)):
        assert walk.idom[g.root] == -1
        assert walk.size[g.root] == g.n
        for v in range(g.n):
            if v != g.root:
                assert walk.idom[v] == idoms[v]
                assert walk.size[v] == len(covered_set(g, (), {v}))
        for i in _root_cycles(g, walk):
            c = walk.cycles[i]
            assert c[0] == g.root
            expected = len(covered_set(g, (), set(c) - {g.root}))
            assert sum(walk.size[v] for v in c[1:]) == expected
