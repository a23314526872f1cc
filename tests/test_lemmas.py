import hashlib
import random
from dataclasses import replace

import pytest

from firefight import lemmas
from firefight.algorithms import alg_c_round
from firefight.graph import (
    Graph,
    GraphError,
    NotRootCycleError,
    RootInSetError,
    VertexNotOnCycleError,
    break_subgraph,
    fundamental_cycles,
)
from firefight.instances import random_cactus
from firefight.lemmas import SUITES, SuiteResult, UnknownSuiteError, run_suite

EXPECTED_SUITES = {
    "algc-three-per-cycle",
    "alge-3competitive",
    "break-quality",
    "cooldown-quality",
    "count-monotone",
    "covered-oracle",
    "covered-superset",
    "cycle-respecting",
    "greedy-tree-2competitive",
    "improved-break-feasibility",
    "memo-consistency",
    "neighbors-best",
    "nonredundant-normalize",
    "opt-dominance",
    "reduction-equivalence",
    "secured-break",
}


def test_registry_names():
    assert set(SUITES) == EXPECTED_SUITES


@pytest.mark.parametrize("name", sorted(EXPECTED_SUITES))
def test_each_suite_passes_briefly(name):
    result = run_suite(name, trials=40, seed=0)
    assert isinstance(result, SuiteResult)
    assert result.passed
    assert result.failures == 0
    assert result.counterexample is None
    assert result.trials == 40
    assert 0 <= result.checked <= result.trials


def test_suites_are_deterministic():
    a = run_suite("neighbors-best", trials=30, seed=7)
    b = run_suite("neighbors-best", trials=30, seed=7)
    assert (a.trials, a.checked, a.failures) == (b.trials, b.checked, b.failures)


def test_unknown_suite_raises():
    with pytest.raises(UnknownSuiteError):
        run_suite("no-such-suite", trials=1, seed=0)


def test_nontrivial_suites_actually_check_something():
    # vacuous trials are allowed, all-vacuous runs are not
    for name in ("covered-oracle", "reduction-equivalence", "opt-dominance"):
        result = run_suite(name, trials=60, seed=1)
        assert result.checked > 0


def _cacti_with_root_cycles(rng, count):
    """Random cacti of 3-16 vertices, relabelled, with their chord walk and
    their root cycles' indices; all have one root cycle or more."""
    while count:
        n = rng.randint(3, 16)
        g = random_cactus(n, rng.uniform(0.5, 1.0), rng.randint(3, 8), rng.randrange(2**30))
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()], perm[g.root])
        walk = fundamental_cycles(g)
        roots = [c for c, top in enumerate(walk.tops) if top == g.root]
        if roots:
            count -= 1
            yield g, walk, roots


def test_break_counts_equal_the_break_view_depths():
    """Every member of every root cycle, cut: the counts equal those of the
    view break_subgraph builds, read off its BFS depths at every d."""
    rng = random.Random("break-counts")
    cuts = several = 0
    for g, walk, roots in _cacti_with_root_cycles(rng, 600):
        several += len(roots) > 1
        for c in roots:
            keep = lemmas._break_keep(g, walk, c)
            for v in walk.cycles[c][1:]:
                depth = break_subgraph(g, walk, c, v).graph.bfs.depth
                want = [sum(1 for x in depth if x >= d) for d in range(g.n + 2)]
                assert lemmas._break_counts(g, walk, c, keep, v) == want
                cuts += 1
    assert cuts >= 2000 and several >= 50, (cuts, several)


def test_break_counts_refuse_what_break_subgraph_refuses():
    rng = random.Random("break-refusals")
    seen = set()
    for g, walk, roots in _cacti_with_root_cycles(rng, 200):
        for c, cyc in enumerate(walk.cycles):
            keep = lemmas._break_keep(g, walk, c)
            if c in roots:
                bad = [g.root] + [v for v in range(g.n) if v not in cyc][:2]
            else:
                bad = list(cyc)
            for v in bad:
                with pytest.raises(GraphError) as ref:
                    break_subgraph(g, walk, c, v)
                with pytest.raises(type(ref.value)):
                    lemmas._break_counts(g, walk, c, keep, v)
                seen.add(type(ref.value))
    assert seen == {NotRootCycleError, RootInSetError, VertexNotOnCycleError}


def _digest(result):
    return hashlib.sha256(result.counterexample.encode()).hexdigest()


def test_neighbors_best_fails_when_the_neighbors_weigh_nothing(monkeypatch):
    monkeypatch.setattr(lemmas, "weight", lambda *args: 0)
    result = run_suite("neighbors-best", 1000, 0)
    assert (result.trials, result.checked, result.failures) == (27, 27, 1)
    assert _digest(result) == "33b6b6df7bc06d09535c2564f5b3c174cbd495376fb7999145a8c8142310ee52"


def test_improved_break_feasibility_fails_off_the_chosen_vertex(monkeypatch):
    def mid_cycle_break(*args):
        choices, cooldown = alg_c_round(*args)
        moved = [
            c if c.brk is None
            else replace(c, brk=replace(c.brk, vertex=c.brk.cycle[len(c.brk.cycle) // 2]))
            for c in choices
        ]
        return moved, cooldown

    monkeypatch.setattr(lemmas, "alg_c_round", mid_cycle_break)
    result = run_suite("improved-break-feasibility", 1000, 0)
    assert (result.trials, result.checked, result.failures) == (5, 1, 1)
    assert _digest(result) == "d1f59bc6bf58fb3fd626c6bf76a211b5b02ecdecf896ea8f9df16b0b83bd207e"
