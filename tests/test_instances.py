from fractions import Fraction

import networkx as nx
import pytest
from hypothesis import given, strategies as st

import oracles
from firefight.algorithms import AlgorithmKind
from firefight.engine import replay
from firefight.graph import GraphClass, validate_and_decompose
from firefight.instances import (
    BadParamsError,
    alge_tight_witness_schedule,
    make_alge_tight,
    make_tadpole,
    random_cactus,
    random_one_almost_tree,
    random_sequence,
    random_tree,
    tadpole_adversary_run,
)


def test_tadpole_shape():
    g = make_tadpole(10, 3)
    assert g.n == 14
    d = validate_and_decompose(g)
    assert d.class_tag is GraphClass.ONE_ALMOST_TREE
    assert len(d.cycles) == 1
    assert len(d.cycles[0]) == 11
    assert g.root in d.cycles[0]
    # the root joins cycle and tail: the unique degree-3 vertex
    degree3 = [v for v in range(g.n) if g.degree(v) == 3]
    assert degree3 == [g.root]
    tail = [v for v in range(g.n) if v not in d.cycles[0]]
    assert len(tail) == 3


@given(st.integers(2, 12), st.integers(1, 8))
def test_tadpole_parametrized_shape(alpha, beta):
    g = make_tadpole(alpha, beta)
    assert g.n == alpha + beta + 1
    d = validate_and_decompose(g)
    assert len(d.cycles) == 1 and len(d.cycles[0]) == alpha + 1
    assert oracles.is_cactus(oracles.to_nx(g))


def test_tadpole_rejects_bad_params():
    with pytest.raises(BadParamsError):
        make_tadpole(1, 3)
    with pytest.raises(BadParamsError):
        make_tadpole(5, 0)


def test_alge_tight_shape():
    for beta in (1, 4, 10):
        inst = make_alge_tight(beta)
        g = inst.graph
        assert g.n == 6 * beta + 27
        assert inst.sequence == (2, 0, 0, 0, 4)
        d = validate_and_decompose(g)
        assert d.class_tag is GraphClass.CACTUS
        assert len(d.cycles) == 2
        assert all(len(c) == 8 and g.root in c for c in d.cycles)
        assert d.tops == (g.root, g.root)
        # pendant load sits on the first two vertices of each cycle arm
        heavy = sorted(
            v for v in range(g.n) if v != g.root and g.degree(v) == beta + 2
        )
        assert heavy == [1, 2, 8, 9]
        # two cycle arms each side plus the two long escape paths
        assert g.degree(g.root) == 6


def test_alge_tight_witness_replays():
    for beta in (1, 4):
        inst = make_alge_tight(beta)
        profit, _ = replay(inst, alge_tight_witness_schedule(beta))
        assert profit == 6 * beta + 10


def test_alge_tight_rejects_bad_params():
    with pytest.raises(BadParamsError):
        make_alge_tight(0)


@pytest.mark.parametrize(
    "kind, beta, case, alg, opt",
    [
        ("alg-a", 2, 1, 1, 2),
        ("alg-a", 4, 1, 1, 4),
        ("alg-c", 3, 1, 1, 3),
        ("alg-e", 2, 2, 3, 4),
        ("alg-e", 3, 2, 4, 9),
        ("alg-e", 4, 2, 5, 16),
    ],
)
def test_adversary_frozen_outcomes(kind, beta, case, alg, opt):
    rep = tadpole_adversary_run(AlgorithmKind(kind), beta)
    assert rep.case == case
    assert rep.alg_profit == alg
    assert rep.opt_profit == opt
    assert rep.ratio == Fraction(opt, alg)
    assert rep.bound == min(Fraction(beta), Fraction(beta * beta, beta + 1))
    assert rep.ratio >= rep.bound
    assert rep.sequence == ((1,) if case == 1 else (1, 1))


def test_adversary_rejects_small_beta():
    with pytest.raises(BadParamsError):
        tadpole_adversary_run(AlgorithmKind.ALG_A, 1)


@given(st.integers(2, 14), st.integers(0, 2**20))
def test_random_tree_is_tree(n, seed):
    g = random_tree(n, seed)
    assert g.n == n
    assert nx.is_tree(oracles.to_nx(g))
    again = random_tree(n, seed)
    assert g.adjacency == again.adjacency


@given(st.integers(3, 16), st.sampled_from([0.0, 0.3, 0.7, 1.0]), st.integers(0, 2**20))
def test_random_cactus_is_cactus(n, frac, seed):
    g = random_cactus(n, frac, 6, seed)
    assert g.n == n
    assert oracles.is_cactus(oracles.to_nx(g))
    validate_and_decompose(g)
    assert random_cactus(n, frac, 6, seed).adjacency == g.adjacency


@given(st.integers(4, 16), st.integers(0, 2**20), st.sampled_from([None, True, False]))
def test_random_one_almost_tree_shape(n, seed, through_root):
    g = random_one_almost_tree(n, seed, through_root=through_root)
    assert g.n == n
    h = oracles.to_nx(g)
    assert oracles.cycle_count(h) == 1
    d = validate_and_decompose(g)
    assert d.class_tag is GraphClass.ONE_ALMOST_TREE
    if through_root is True:
        assert d.tops == (g.root,)
    if through_root is False:
        assert d.tops != (g.root,)


def test_random_one_almost_tree_of_three_is_the_triangle():
    # n = 3 leaves no room for a cycle off the root, whatever the seed draws
    for seed in range(50):
        g = random_one_almost_tree(3, seed)
        assert sorted(map(sorted, oracles.to_nx(g).edges())) == [[0, 1], [0, 2], [1, 2]]


@given(st.integers(1, 6), st.integers(0, 12), st.booleans(), st.integers(0, 2**20))
def test_random_sequence_properties(length, budget, even_only, seed):
    seq = random_sequence(length, budget, even_only, seed)
    assert len(seq) == length
    assert all(f >= 0 for f in seq)
    assert sum(seq) <= budget
    if even_only:
        assert all(f % 2 == 0 for f in seq)
    assert seq == random_sequence(length, budget, even_only, seed)
