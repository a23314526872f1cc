import hashlib
import math
import random
import sys

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from firefight.algorithms import AlgorithmKind, run_algorithm
from firefight.engine import Instance, Status, replay
from firefight.graph import Graph, fundamental_cycles, validate_and_decompose
from firefight.instances import (
    make_tadpole,
    random_cactus,
    random_one_almost_tree,
    random_sequence,
    random_tree,
    tadpole_adversary_run,
)
from firefight import optimum
from firefight.optimum import (
    MAX_MASK_BYTES,
    GraphTooLargeError,
    SearchBudgetExceededError,
    UnreachableValueError,
    check_mask_budget,
    normalize_nonredundant,
    opt_upper_bound,
    solve_opt,
)
from strategies import connected_graphs, relabelled_cacti


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_tadpole_optimum_frozen():
    g = make_tadpole(10, 3)
    one = solve_opt(Instance(g, (1,)))
    assert one.value == 3
    assert one.schedule == ((1, 11),)
    two = solve_opt(Instance(g, (1, 1)))
    assert two.value == 9
    assert two.schedule == ((1, 1), (2, 9))
    # the reported schedule really earns the reported value
    for inst, res in ((Instance(g, (1,)), one), (Instance(g, (1, 1)), two)):
        profit, _ = replay(inst, res.schedule)
        assert profit == res.value


def test_path_and_star_optima():
    inst = Instance(path_graph(6), (1,))
    assert solve_opt(inst).value == 5
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    assert solve_opt(Instance(star, (2,))).value == 2
    assert solve_opt(Instance(star, (4,))).value == 4


def test_zero_budget_rounds():
    inst = Instance(path_graph(5), (0, 0, 1))
    res = solve_opt(inst)
    assert res.value == 2
    assert res.schedule == ((3, 3),)


def test_empty_sequence():
    res = solve_opt(Instance(path_graph(4), ()))
    assert res.value == 0
    assert res.schedule == ()


def test_budget_and_size_guards():
    g = random_cactus(12, 0.5, 6, 3)
    with pytest.raises(SearchBudgetExceededError):
        solve_opt(Instance(g, (1, 1, 1)), node_budget=3)
    with pytest.raises(GraphTooLargeError):
        solve_opt(Instance(g, (1,)), max_n=11)


def test_negative_node_budget_is_a_bad_parameter():
    """A negative node budget is refused up front as a bad parameter, by the
    solver and by the adversary run that calls it; a budget of 0 is one
    that the search exhausts."""
    g = random_cactus(12, 0.5, 6, 3)
    runs = (
        lambda budget: solve_opt(Instance(g, (1, 1, 1)), node_budget=budget),
        lambda budget: tadpole_adversary_run(AlgorithmKind.ALG_E, 3, node_budget=budget),
    )
    for run in runs:
        with pytest.raises(ValueError, match=r"^node_budget must be at least 0, got -1$"):
            run(-1)
        with pytest.raises(SearchBudgetExceededError):
            run(0)


def test_mask_budget_is_checked_before_any_mask_is_built():
    n = math.isqrt(8 * MAX_MASK_BYTES)  # n masks of n bits fill the budget
    check_mask_budget(n)
    with pytest.raises(GraphTooLargeError):
        check_mask_budget(n + 1)
    path = Graph.from_edges(n + 1, [(i, i + 1) for i in range(n)])
    with pytest.raises(GraphTooLargeError):
        solve_opt(Instance(path, (1,)), max_n=path.n)


def _random_instance(seed, n_max=11):
    rng = random.Random(seed)
    n = rng.randint(3, n_max)
    g = (
        random_tree(n, seed)
        if rng.random() < 0.3
        else random_cactus(n, rng.choice([0.3, 0.7]), 5, seed)
    )
    seq = random_sequence(rng.randint(1, 4), rng.randint(1, 5), False, seed + 1)
    return Instance(g, seq)


@given(st.integers(0, 2**20))
@settings(max_examples=40)
def test_memo_matches_plain_search(seed):
    inst = _random_instance(seed, n_max=9)
    fast = solve_opt(inst, use_memo=True)
    slow = solve_opt(inst, use_memo=False)
    assert fast.value == slow.value
    assert fast.schedule == slow.schedule
    assert fast.nodes_explored <= slow.nodes_explored


@given(st.integers(0, 2**20))
def test_opt_schedule_is_valid_and_bounded(seed):
    inst = _random_instance(seed)
    res = solve_opt(inst)
    profit, _ = replay(inst, res.schedule)
    assert profit == res.value
    assert res.value <= opt_upper_bound(inst)
    assert len(res.schedule) <= sum(inst.sequence)


@given(st.integers(0, 2**20))
def test_solver_is_deterministic(seed):
    inst = _random_instance(seed, n_max=9)
    a = solve_opt(inst)
    b = solve_opt(inst)
    assert (a.value, a.schedule, a.nodes_explored) == (b.value, b.schedule, b.nodes_explored)


def test_upper_bound_counts_doomed_vertices():
    # a vertex burns for sure when the budget prefix at its depth is zero
    inst = Instance(path_graph(8), (1,))
    assert opt_upper_bound(inst) == 7
    assert opt_upper_bound(Instance(path_graph(3), (0, 1))) == 1
    star = Graph.from_edges(6, [(0, i) for i in range(1, 6)])
    assert opt_upper_bound(Instance(star, (0,))) == 0


def _overfull_schedule(seed):
    """A cactus and a valid schedule that protects, all in round 1, three
    or more vertices, often three or more members of one cycle, with the
    sequence that brings as many firefighters."""
    rng = random.Random(seed)
    g = random_cactus(rng.randint(4, 30), rng.uniform(0.5, 1.0), rng.randint(3, 10), seed)
    others = [v for v in range(g.n) if v != g.root]
    picked = set(rng.sample(others, rng.randint(0, 3)))
    full = [c for c in validate_and_decompose(g).cycles if len(set(c) - {g.root}) >= 3]
    if full:
        members = [v for v in rng.choice(full) if v != g.root]
        picked |= set(rng.sample(members, rng.randint(3, len(members))))
    if len(picked) < 3:
        picked |= set(rng.sample(others, 3))
    schedule = tuple((1, v) for v in rng.sample(sorted(picked), len(picked)))
    return Instance(g, (len(schedule),)), schedule


@given(st.integers(0, 2**20), st.booleans())
def test_normalize_nonredundant_preserves_profit(seed, overfull):
    """Normalizing keeps a schedule's profit, on the optimum's schedules and
    on over-full ones, which the optimum rarely gives."""
    if overfull:
        inst, schedule = _overfull_schedule(seed)
        value = replay(inst, schedule)[0]
    else:
        inst = _random_instance(seed)
        res = solve_opt(inst)
        schedule, value = res.schedule, res.value
    norm = normalize_nonredundant(inst, schedule)
    profit, state = replay(inst, norm)
    assert profit == value
    # at most two protections per cycle survive
    decomp = validate_and_decompose(inst.graph)
    protected = {v for v, s in enumerate(state.status) if s is Status.PROTECTED}
    for cyc in decomp.cycles:
        assert len(protected & set(cyc)) <= 2
    # normalizing twice changes nothing
    assert normalize_nonredundant(inst, norm) == norm


@st.composite
def relabelled_connected_graphs(draw, max_n=9):
    """Non-cactus graphs too, with the root anywhere."""
    g = draw(connected_graphs(max_n=max_n, max_extra=6))
    perm = draw(st.permutations(range(g.n)))
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], perm[g.root])


@given(
    st.one_of(relabelled_cacti(max_n=10), relabelled_connected_graphs()),
    st.lists(st.integers(0, 3), max_size=3),
    st.integers(0, 2),
)
def test_solver_matches_reference(g, head, last):
    # the last entry 0, 1 or 2 exercises the empty, one-pass and searched
    # last rounds
    inst = Instance(g, (*head, last))
    res = solve_opt(inst)
    assert (res.value, res.schedule) == oracles.solve_opt_reference(inst)
    assert replay(inst, res.schedule)[0] == res.value


def _flood(nbr, source, allowed):
    seen = front = source
    while front:
        grown = 0
        for u in range(len(nbr)):
            if (front >> u) & 1:
                grown |= nbr[u]
        front = grown & allowed & ~seen
        seen |= front
    return seen


def _two_round_value(nbr, front, region, v):
    """Protect v off the front, let the fire take the front, then protect
    the best w: the child's value by brute force over w."""
    n = len(nbr)
    rest = _flood(nbr, front, region & ~(1 << v))
    values = [
        n - _flood(nbr, front, rest & ~(1 << w)).bit_count()
        for w in range(n)
        if (rest & ~front) >> w & 1
    ]
    return max(values, default=n - rest.bit_count())


def _front_merged(nbr, front, avail):
    h = nx.Graph()
    h.add_node("s")
    for u in range(len(nbr)):
        if (avail >> u) & 1:
            h.add_edges_from((u, w) for w in range(len(nbr)) if (nbr[u] & avail) >> w & 1)
            if nbr[u] & front:
                h.add_edge(u, "s")
    return h


# (n, edges, root, value, schedule) of (1, 1) games whose two-round pass
# decides a corner case, with the optimum's value and schedule
PINNED_TWO_ROUND = [
    # two graphs with cycles sharing edges: the winner sits next to the
    # front's new ring and is worth exactly the bound below which no
    # off-front candidate is searched, n - |front| - |its neighbors| + 2
    # (on 200,000 random cacti one less never changed a schedule)
    (
        12,
        [(0, 4), (1, 6), (1, 8), (1, 10), (2, 4), (3, 11), (4, 5), (4, 6), (4, 7)]
        + [(4, 10), (5, 11), (6, 11), (7, 9)],
        4,
        4,
        ((1, 1), (2, 11)),
    ),
    (
        8,
        [(0, 1), (0, 5), (0, 6), (0, 7), (1, 7), (2, 5), (3, 6), (4, 5), (4, 6), (4, 7)],
        7,
        4,
        ((1, 5), (2, 6)),
    ),
    # no cactus once the front is merged: an off-front candidate wins
    # through the search of every child
    (7, [(0, 3), (0, 4), (1, 2), (1, 3), (1, 6), (2, 4), (3, 5), (4, 6), (5, 6)], 2, 3, ((1, 3), (2, 6))),
    # two 4-cycles at the root: off the front, 0 and 6 tie (and so does
    # the front vertex 1), and the lowest id wins
    (7, [(0, 3), (0, 5), (1, 4), (1, 6), (2, 4), (2, 6), (3, 4), (4, 5)], 4, 2, ((1, 0), (2, 6))),
    # the triangle 0-1-2 hangs off 2, neither its first member nor the
    # root: a cycle's arcs are summed from its top, and summed from its
    # first member they pick ((1, 3), (2, 2))
    (
        9,
        [(0, 1), (0, 2), (1, 2), (2, 4), (2, 5), (3, 6), (3, 8), (4, 6), (5, 6), (6, 7), (7, 8)],
        6,
        4,
        ((1, 2), (2, 8)),
    ),
]


def _with_pinned_examples(test):
    for n, edges, root, _, _ in PINNED_TWO_ROUND:
        g = Graph.from_edges(n, edges, root)
        test = example((oracles.is_cactus(oracles.to_nx(g)), g), [])(test)
    return test


@_with_pinned_examples
@given(
    st.one_of(
        st.tuples(st.just(True), relabelled_cacti(max_n=12)),
        st.tuples(st.just(False), relabelled_connected_graphs()),
    ),
    st.lists(st.integers(0, 2), max_size=2),
)
@settings(max_examples=150)
def test_two_round_pass_matches_the_child_search(cactus_graph, head):
    # a node one round before the end of a (..., 1, 1) sequence values its
    # off-front candidates in one pass; each value must be what the child
    # search finds, and a residual that is no cactus must fall back
    is_cactus_input, g = cactus_graph
    inst = Instance(g, (*head, 1, 1))
    calls = []

    def recording(graph, front, avail):
        gains = real(graph, front, avail)
        calls.append((front, avail, gains))
        return gains

    real = optimum.pair_gains
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimum, "pair_gains", recording)
        res = solve_opt(inst)
    assert (res.value, res.schedule) == oracles.solve_opt_reference(inst)
    nbr = [sum(1 << w for w in g.adjacency[u]) for u in range(g.n)]
    for front, avail, gains in calls:
        merged = _front_merged(nbr, front, avail)
        if gains is None:
            assert not is_cactus_input
            assert not oracles.is_cactus(merged)
            continue
        assert oracles.is_cactus(merged)
        region = front | avail
        for v in range(g.n):
            if (avail >> v) & 1:
                assert g.n - region.bit_count() + gains[v] == _two_round_value(nbr, front, region, v)


@pytest.mark.parametrize("n, edges, root, value, schedule", PINNED_TWO_ROUND)
def test_two_round_pass_on_pinned_graphs(n, edges, root, value, schedule):
    inst = Instance(Graph.from_edges(n, edges, root), (1, 1))
    res = solve_opt(inst)
    assert (res.value, res.schedule) == (value, schedule)
    assert (res.value, res.schedule) == oracles.solve_opt_reference(inst)


@pytest.mark.parametrize("beta", [20, 30])
def test_tadpole_adversary_solve_is_linear(beta):
    # the adversary's (1, 1) game on a cycle of beta^2 + 2 and a tail of
    # beta; valuing every candidate by its own child search took about n^2
    # nodes (175,792 and 863,537 here)
    g = make_tadpole(beta * beta + 1, beta)
    res = solve_opt(Instance(g, (1, 1)), max_n=g.n)
    assert res.value == beta * beta
    assert res.schedule == ((1, 1), (2, beta * beta))
    assert res.nodes_explored <= 6 * g.n


@pytest.mark.parametrize(
    "seq, value, schedule",
    [((1,), 2, ((1, 1),)), ((0, 1), 1, ((2, 3),))],
)
def test_last_round_tie_goes_to_lowest_id(seq, value, schedule):
    # path 3-1-0-2-4 rooted in the middle: both sides are worth the same
    g = Graph.from_edges(5, [(3, 1), (1, 0), (0, 2), (2, 4)])
    inst = Instance(g, seq)
    res = solve_opt(inst)
    assert (res.value, res.schedule) == (value, schedule)
    assert (res.value, res.schedule) == oracles.solve_opt_reference(inst)


def test_last_round_tie_skips_earlier_bfs_vertices():
    # root cycle 0-5-2-6 with 1 on 5, 3 on 2, and the path 0-4-7: 4, 5 and
    # 2 each save 2; 4 and 5 come first in BFS order, 2 has the lowest id
    g = Graph.from_edges(8, [(0, 5), (5, 2), (2, 6), (6, 0), (2, 3), (0, 4), (4, 7), (5, 1)])
    res = solve_opt(Instance(g, (1,)))
    assert (res.value, res.schedule) == (2, ((1, 2),))
    layer = sum(1 << v for v in g.adjacency[g.root])
    avail = sum(1 << v for v in range(g.n) if v != g.root)
    assert optimum.best_single(g, layer, avail) == (2, 2)


def test_unreachable_protections_share_a_memo_entry():
    # protecting {1, 2} or {1, 3} leaves the same fire in 0-4-{5, 6}: vertex
    # 2 or 3 sits behind 1, so the two states share one entry
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (4, 6)])
    inst = Instance(g, (2, 1))
    res = solve_opt(inst)
    assert res.memo_hits > 0
    assert (res.value, res.schedule) == (6, ((1, 1), (1, 4)))
    assert (res.value, res.schedule) == oracles.solve_opt_reference(inst)


def test_ratio_sized_instance_prunes_children():
    inst = Instance(random_cactus(20, 0.5, 6, 1), (2, 1, 1))
    res = solve_opt(inst)
    assert res.pruned > 0
    assert res.memo_entries > 0
    assert (res.value, res.schedule) == oracles.solve_opt_reference(inst)


def test_solves_from_wide_fires_match_reference():
    # a few rounds before a one-firefighter last round leave the fire's
    # newest ring spread over several branches; every flood and the
    # one-pass last round must start from all of it
    for seed in range(200):
        base = _random_instance(seed, n_max=12)
        inst = Instance(base.graph, (*base.sequence[:3], 1))
        res = solve_opt(inst)
        assert (res.value, res.schedule) == oracles.solve_opt_reference(inst), seed


@given(
    relabelled_cacti(max_n=12),
    st.lists(st.sampled_from((1, 1, 1, 2)), min_size=3, max_size=5),
)
@settings(max_examples=150)
def test_passed_down_bound_keeps_the_schedule(g, seq):
    # every round has a firefighter, so children search under a bound their
    # siblings and ancestors set, and fail-low results and entries occur
    # (the bound cuts nodes on about one draw in seven)
    inst = Instance(g, tuple(seq))
    fast = solve_opt(inst)
    slow = solve_opt(inst, use_memo=False)
    assert (fast.value, fast.schedule) == (slow.value, slow.schedule)
    assert (fast.value, fast.schedule) == oracles.solve_opt_reference(inst)
    assert fast.nodes_explored <= slow.nodes_explored


@pytest.mark.parametrize("seed, value", [(1, 25), (2, 35), (3, 36)])
def test_long_single_firefighter_runs_stay_small(seed, value):
    # without the bound passed down the search takes 187650, 1954129 and
    # 713689 nodes here; with it, 316, 56 and 232
    inst = Instance(random_cactus(40, 0.5, 8, seed), (1,) * 8)
    res = solve_opt(inst, max_n=40)
    assert res.value == value
    assert replay(inst, res.schedule)[0] == value
    assert res.nodes_explored <= 1000


def test_passed_down_bound_never_falls():
    # a memo entry that failed low is reused without its bound; that is
    # sound because every later call holds at least the bound of every
    # earlier one
    def alphas(inst):
        seen = []

        def tracer(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_name == "dfs" and code.co_filename == optimum.__file__:
                seen.append(frame.f_locals["alpha"])

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            solve_opt(inst, max_n=inst.graph.n)
        finally:
            sys.settrace(previous)
        return seen

    long_runs = [Instance(random_cactus(40, 0.5, 8, s), (1,) * 8) for s in (1, 2, 3)]
    for inst in [*_digest_corpus(), *long_runs]:
        seen = alphas(inst)
        assert seen == sorted(seen)


def _digest_corpus():
    """Instances whose exact (value, schedule) the solver digest pins."""
    # ratio trials as the opt-sweep benchmark draws them: n 18-22, five
    # rounds of 0-2 firefighters, 20 per graph class
    rng = random.Random("solver-digest")
    for i in range(60):
        n = rng.randint(18, 22)
        s = rng.randrange(2**30)
        if i % 3 == 0:
            g = random_tree(n, s)
        elif i % 3 == 1:
            g = random_one_almost_tree(n, s)
        else:
            g = random_cactus(n, rng.uniform(0.3, 0.9), rng.randint(3, n), s)
        yield Instance(g, tuple(rng.randint(0, 2) for _ in range(5)))
    for seed in range(300):
        yield _random_instance(seed, n_max=12)
    # the adversary's tadpoles, cycle weight beta^2 + 1
    for beta in range(2, 9):
        g = make_tadpole(beta * beta + 1, beta)
        yield Instance(g, (1,))
        yield Instance(g, (1, 1))


# sha256 over (value, schedule) of every corpus solve: a changed optimum or
# a different choice among equally good schedules changes it
SOLVER_SHA256 = "69903827798ea232d85469ab79b45ee30ca1c70941cbfe0d6b35a6c4dcbbd995"


def test_solver_digest():
    h = hashlib.sha256()
    for inst in _digest_corpus():
        res = solve_opt(inst, max_n=inst.graph.n)
        h.update(repr((res.value, res.schedule)).encode())
    assert h.hexdigest() == SOLVER_SHA256


def _non_cactus_corpus():
    """Connected graphs that are no cactus, with the root anywhere."""
    rng = random.Random("solver-counters")
    graphs = []
    while len(graphs) < 200:
        n = rng.randint(6, 14)
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        for _ in range(rng.randint(2, 6)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph.from_edges(n, sorted(edges), rng.randrange(n))
        if not oracles.is_cactus(oracles.to_nx(g)):
            head = tuple(rng.randint(0, 2) for _ in range(rng.randint(0, 2)))
            graphs.append((g, head))
    return graphs


# sha256 over (nodes_explored, memo_hits, memo_entries, pruned) of every
# corpus solve and of the no-cactus solves ending in one firefighter and in
# two single ones, memo on and off: the `opt` record prints the node count,
# so a change to how much the search explores changes it
SOLVER_COUNTERS_SHA256 = "5d6c53d9dffd0110d4c13de67c1397d565bd91f725a6a25b99bbf5843ced117c"


def test_solver_counters_digest():
    h = hashlib.sha256()

    def add(res):
        h.update(repr((res.nodes_explored, res.memo_hits, res.memo_entries, res.pruned)).encode())

    for inst in _digest_corpus():
        add(solve_opt(inst, max_n=inst.graph.n))
    for g, head in _non_cactus_corpus():
        for tail in ((1,), (1, 1)):
            for use_memo in (True, False):
                add(solve_opt(Instance(g, (*head, *tail)), use_memo=use_memo))
    assert h.hexdigest() == SOLVER_COUNTERS_SHA256


def _accepted_profits(inst):
    """The profit of every strategy that accepts the instance's class."""
    tag = fundamental_cycles(inst.graph).class_tag
    return [run_algorithm(inst, kind).profit for kind in AlgorithmKind if kind.accepts(tag)]


def _check_warm_starts(inst):
    cold = solve_opt(inst, max_n=inst.graph.n)
    for reached in {0, cold.value, *_accepted_profits(inst)}:
        warm = solve_opt(inst, max_n=inst.graph.n, reached=reached)
        assert (warm.value, warm.schedule) == (cold.value, cold.schedule), reached
        assert warm.nodes_explored <= cold.nodes_explored, reached
        assert replay(inst, warm.schedule)[0] == warm.value
    with pytest.raises(UnreachableValueError):
        solve_opt(inst, max_n=inst.graph.n, reached=cold.value + 1)


def test_warm_start_keeps_the_cold_solve_on_the_digest_corpus():
    """Starting from a value some schedule reaches (none, a strategy's
    profit or the optimum) finds the cold solve's value and first best
    schedule in at most as many nodes; a value above the optimum raises."""
    for inst in _digest_corpus():
        _check_warm_starts(inst)


@given(relabelled_cacti(max_n=14), st.lists(st.integers(0, 2), min_size=1, max_size=4))
@settings(max_examples=60)
def test_warm_start_keeps_the_cold_solve(g, seq):
    _check_warm_starts(Instance(g, tuple(seq)))


def _residual_states(g, rng, count):
    """g's neighbor masks with (burned, ring, region) of ``count`` random
    search positions on g: the region the fire can reach past a random
    protected set, the ball of a random radius around the root inside it,
    and that ball's outer ring, with some of the region still unburned."""
    nbr = [sum(1 << w for w in g.adjacency[u]) for u in range(g.n)]
    root = 1 << g.root
    for _ in range(count):
        protected = sum(1 << v for v in range(g.n) if v != g.root and rng.random() < 0.2)
        region = _flood(nbr, root, ~protected)
        burned = ring = root
        for _ in range(rng.randint(0, 3)):
            grown = 0
            for u in range(g.n):
                if (burned >> u) & 1:
                    grown |= nbr[u]
            new = grown & region & ~burned
            if not new or burned | new == region:
                break
            burned |= new
            ring = new
        if region != burned:
            yield nbr, burned, ring, region


def test_region_walk_matches_the_view():
    """The last-round passes walk the region in g's ids and choose as the
    contracted view's walk did: the same ``best_single`` (saved, v), the
    same ``pair_gains`` list, and None exactly when the view is no cactus,
    on random positions of random cacti and of graphs that are no cactus."""
    rng = random.Random("region-walk")
    seen = {"cactus": 0, "none": 0, "pairs": 0}
    for i in range(300):
        n = rng.randint(3, 20)
        if i % 2:
            g = random_cactus(n, rng.uniform(0.3, 1.0), rng.randint(3, 8), rng.randrange(2**30))
        else:
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            for _ in range(rng.randint(2, 8)):
                u, v = rng.sample(range(n), 2)
                edges.add((min(u, v), max(u, v)))
            g = Graph.from_edges(n, sorted(edges))
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()], perm[g.root])
        for nbr, burned, ring, region in _residual_states(g, rng, 4):
            avail = region & ~burned
            grown = 0
            for u in range(n):
                if (ring >> u) & 1:
                    grown |= nbr[u]
            front = burned | (grown & region)
            got = optimum.best_single(g, front & ~burned, avail)
            assert got == oracles.view_best_single(g, burned, avail)
            assert (got is None) == (oracles.region_view(g, burned, avail)[1] is None)
            seen["cactus" if got is not None else "none"] += 1
            off = region & ~front
            if off:
                gains = optimum.pair_gains(g, front, off)
                assert gains == oracles.view_pair_gains(g, front, off)
                seen["pairs"] += gains is not None
    assert min(seen.values()) >= 100, seen
