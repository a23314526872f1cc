import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from firefight.engine import Instance, Status, replay
from firefight.graph import Graph, validate_and_decompose
from firefight.instances import make_tadpole, random_cactus, random_sequence, random_tree
from firefight.optimum import (
    MAX_MASK_BYTES,
    GraphTooLargeError,
    SearchBudgetExceededError,
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


@given(st.integers(0, 2**20))
def test_normalize_nonredundant_preserves_profit(seed):
    inst = _random_instance(seed)
    res = solve_opt(inst)
    norm = normalize_nonredundant(inst, res.schedule)
    profit, state = replay(inst, norm)
    assert profit == res.value
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
