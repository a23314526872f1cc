import random

import pytest
from hypothesis import given, settings, strategies as st

from firefight.engine import Instance, Status, replay
from firefight.graph import Graph, validate_and_decompose
from firefight.instances import make_tadpole, random_cactus, random_sequence, random_tree
from firefight.optimum import (
    GraphTooLargeError,
    SearchBudgetExceededError,
    normalize_nonredundant,
    opt_upper_bound,
    solve_opt,
)


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
