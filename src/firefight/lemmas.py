"""Randomized property suites for the structural guarantees.

Each suite draws seeded random instances, evaluates one inequality or
identity, and stops at the first failure with a serialized counterexample.
Trials that do not reach the property's precondition count as vacuous and
are excluded from ``checked``.  All square-root bounds are verified in
exact integer arithmetic (both sides squared).

The break suites (neighbors-best, break-quality, improved-break-feasibility
and secured-break) compare the territories that breaking a root cycle at
its members leaves: the territory :func:`~firefight.graph.break_subgraph`
materializes, here never built.  Per cycle they take ``keep``, the root
and everything the cycle covers, once (:func:`_break_keep`); per member
one BFS from the root through ``keep``, never entering the member, finds
the territory's root distances, and :func:`_break_counts` turns their
histogram into the list of ``count(d)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional

from .algorithms import (
    AlgorithmKind,
    alg_a_round,
    alg_c_round,
    decision_view,
    run_algorithm,
)
from .engine import GameState, Instance, profit_of_protections, replay
from .fileformat import serialize_instance
from .graph import (
    CycleWalk,
    Graph,
    covered_set,
    count_safe,
    fundamental_cycles,
    weight,
    _cycle_for_break,
    _distances,
)
from .instances import (
    random_cactus,
    random_instance,
    random_one_almost_tree,
    random_sequence,
    random_tree,
    trial_seed,
)
from .optimum import normalize_nonredundant, opt_upper_bound, solve_opt


class UnknownSuiteError(ValueError):
    pass


@dataclass(frozen=True)
class SuiteResult:
    name: str
    trials: int
    checked: int
    failures: int
    counterexample: Optional[str] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0


TrialFn = Callable[[random.Random], Optional[tuple[bool, str]]]

SUITES: dict[str, Callable[[int, int], SuiteResult]] = {}


def _suite(name: str):
    def deco(trial: TrialFn):
        def runner(trials: int, seed: int) -> SuiteResult:
            checked = 0
            for i in range(trials):
                rng = random.Random(trial_seed(seed, i))
                outcome = trial(rng)
                if outcome is None:
                    continue
                checked += 1
                ok, message = outcome
                if not ok:
                    return SuiteResult(name, i + 1, checked, 1, message)
            return SuiteResult(name, trials, checked, 0, None)

        SUITES[name] = runner
        return trial

    return deco


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**30)


def _break_keep(g: Graph, walk: CycleWalk, c: int) -> frozenset[int]:
    """The root and every vertex cycle ``c`` covers: where each break of
    the cycle leaves its territory."""
    return covered_set(g, (), set(walk.cycles[c]) - {g.root}) | {g.root}


def _break_counts(
    g: Graph, walk: CycleWalk, c: int, keep: frozenset[int], v: int
) -> list[int]:
    """count(d) for d = 0..n+1 of the territory that breaking root cycle
    ``c`` at ``v`` leaves, ``keep`` being :func:`_break_keep` of the cycle.

    The territory is ``keep`` minus what v covers, the vertex set of
    :func:`~firefight.graph.break_subgraph`, which checks the same
    arguments.  On a cactus each vertex of keep that v does not cover
    reaches the root inside keep (to the cycle, then round it away from
    v), so one BFS from the root through keep, never entering v, finds
    the territory with its root distances.  count(d) is the number of
    those at distance >= d.
    """
    _cycle_for_break(walk, g, c, v)
    adj = g.adjacency
    unseen = set(keep) - {g.root, v}
    layer = [g.root]
    sizes = []
    while layer:
        sizes.append(len(layer))
        nxt = []
        for u in layer:
            for x in adj[u]:
                if x in unseen:
                    unseen.remove(x)
                    nxt.append(x)
        layer = nxt
    counts = list(accumulate(reversed(sizes)))[::-1]
    return counts + [0] * (g.n + 2 - len(counts))


def _cycle_index(walk, cycle: tuple[int, ...]) -> int:
    want = frozenset(cycle)
    for i, cyc in enumerate(walk.cycles):
        if frozenset(cyc) == want:
            return i
    raise LookupError("cycle not found in the chord walk")


def _describe(instance: Instance, detail: str) -> str:
    """An instance file of ``instance`` that opens with ``detail`` as comment
    lines, so the counterexample parses back as the failing instance."""
    return "".join(f"# {line}\n" for line in detail.splitlines()) + serialize_instance(instance)


@_suite("count-monotone")
def _trial_count_monotone(rng: random.Random):
    g = random_cactus(rng.randint(2, 14), rng.uniform(0, 1), rng.randint(3, 8), _seed(rng))
    removed = frozenset(v for v in range(1, g.n) if rng.random() < 0.2)
    counts = [count_safe(g, removed, d) for d in range(g.n + 2)]
    inst = Instance(g, ())
    if counts[0] != g.n - len(removed):
        return False, _describe(inst, f"count at d=0 is {counts[0]}, removed={sorted(removed)}")
    if any(a < b for a, b in zip(counts, counts[1:])):
        return False, _describe(inst, f"count not monotone: {counts}, removed={sorted(removed)}")
    unreachable = g.n - len(removed) - len(_distances(g, removed, g.root))
    if counts[-1] != unreachable:
        return False, _describe(inst, f"count tail {counts[-1]} != unreachable {unreachable}")
    return True, ""


@_suite("covered-superset")
def _trial_covered_superset(rng: random.Random):
    g = random_cactus(rng.randint(2, 14), rng.uniform(0, 1), rng.randint(3, 8), _seed(rng))
    s = frozenset(v for v in range(1, g.n) if rng.random() < 0.3)
    big = covered_set(g, frozenset(), s)
    inst = Instance(g, ())
    if not s <= big:
        return False, _describe(inst, f"set {sorted(s)} does not cover itself")
    for v in s:
        if not covered_set(g, frozenset(), frozenset([v])) <= big:
            return False, _describe(inst, f"covered({v}) escapes covered({sorted(s)})")
    t = s | frozenset(v for v in range(1, g.n) if rng.random() < 0.2)
    if not big <= covered_set(g, frozenset(), t):
        return False, _describe(inst, f"covered not monotone: {sorted(s)} vs {sorted(t)}")
    return True, ""


def _has_avoiding_path(g: Graph, s: frozenset[int], target: int) -> bool:
    """Backtracking simple-path search from the root, never entering s."""

    def walk(v: int, visited: set[int]) -> bool:
        if v == target:
            return True
        for u in g.adjacency[v]:
            if u not in visited and u not in s:
                visited.add(u)
                if walk(u, visited):
                    return True
                visited.remove(u)
        return False

    if g.root in s:
        raise ValueError("root in protected set")
    return walk(g.root, {g.root})


@_suite("covered-oracle")
def _trial_covered_oracle(rng: random.Random):
    g = random_cactus(rng.randint(2, 9), rng.uniform(0, 1), rng.randint(3, 7), _seed(rng))
    s = frozenset(v for v in range(1, g.n) if rng.random() < 0.3)
    fast = covered_set(g, frozenset(), s)
    slow = frozenset(
        v
        for v in range(g.n)
        if v != g.root and (v in s or not _has_avoiding_path(g, s, v))
    )
    if fast != slow:
        return False, _describe(
            Instance(g, ()),
            f"covered({sorted(s)}) = {sorted(fast)} but path enumeration says {sorted(slow)}",
        )
    return True, ""


@_suite("neighbors-best")
def _trial_neighbors_best(rng: random.Random):
    g = random_one_almost_tree(rng.randint(4, 12), _seed(rng), through_root=True)
    walk = fundamental_cycles(g)
    ci = walk.tops.index(g.root)
    cyc = walk.cycles[ci]
    u1, up = cyc[1], cyc[-1]
    w1 = weight(g, (), [u1])
    wp = weight(g, (), [up])
    keep = _break_keep(g, walk, ci)
    counts = [_break_counts(g, walk, ci, keep, u) for u in cyc[1:]]
    c1, cp = counts[0], counts[-1]
    for uh, ch in zip(cyc[1:], counts):
        for d in range(g.n + 2):
            if not (ch[d] <= c1[d] + w1 or ch[d] <= cp[d] + wp):
                return False, _describe(
                    Instance(g, ()),
                    f"break at {uh}, d={d}: count {ch[d]} beats both "
                    f"root neighbors ({c1[d]}+{w1}, {cp[d]}+{wp})",
                )
    return True, ""


@_suite("break-quality")
def _trial_break_quality(rng: random.Random):
    n = rng.randint(5, 12)
    g = random_one_almost_tree(
        n, _seed(rng), cycle_len=rng.randint(max(3, n // 2), n), through_root=True
    )
    walk = fundamental_cycles(g)
    choices = alg_a_round(g, walk, 1)
    if not choices or choices[0].reason != "break":
        return None
    brk = choices[0].brk
    assert brk is not None
    ci = _cycle_index(walk, brk.cycle)
    cyc = walk.cycles[ci]
    w_cyc = brk.cycle_weight
    keep = _break_keep(g, walk, ci)
    c_hat = _break_counts(g, walk, ci, keep, brk.vertex)
    for uh in cyc[1:]:
        ch = _break_counts(g, walk, ci, keep, uh)
        for d in range(g.n + 2):
            if ch[d] ** 2 > 4 * w_cyc * (c_hat[d] + 1) ** 2:
                return False, _describe(
                    Instance(g, ()),
                    f"break at {brk.vertex}: count({uh},{d})={ch[d]} exceeds "
                    f"2*sqrt({w_cyc})*(count({brk.vertex},{d})+1)={c_hat[d] + 1}",
                )
    return True, ""


def _algc_break_context(rng: random.Random):
    """A graph where the cactus strategy's one-firefighter branch breaks."""
    n = rng.randint(6, 13)
    g = random_cactus(n, rng.uniform(0.5, 1.0), rng.randint(4, max(4, n)), _seed(rng))
    walk = fundamental_cycles(g)
    (choice,), _ = alg_c_round(g, walk, 1, 0)
    if choice.brk is None:
        return None
    return g, walk, choice.brk


@_suite("improved-break-feasibility")
def _trial_improved_break_feasibility(rng: random.Random):
    ctx = _algc_break_context(rng)
    if ctx is None:
        return None
    g, walk, brk = ctx
    ci = _cycle_index(walk, brk.cycle)
    c = _break_counts(g, walk, ci, _break_keep(g, walk, ci), brk.vertex)[brk.depth]
    w_hat = weight(g, (), [brk.vertex])
    if (c + w_hat) ** 2 < brk.cycle_weight:
        return False, _describe(
            Instance(g, ()),
            f"break at {brk.vertex} depth {brk.depth}: count {c} + weight {w_hat} "
            f"falls below sqrt({brk.cycle_weight})",
        )
    return True, ""


@_suite("secured-break")
def _trial_secured_break(rng: random.Random):
    ctx = _algc_break_context(rng)
    if ctx is None:
        return None
    g, walk, brk = ctx
    n = g.n
    ci = _cycle_index(walk, brk.cycle)
    c_hat = _break_counts(g, walk, ci, _break_keep(g, walk, ci), brk.vertex)
    w_hat = weight(g, (), [brk.vertex])
    for cj, (cyc, top) in enumerate(zip(walk.cycles, walk.tops)):
        if top != g.root:
            continue
        keep = _break_keep(g, walk, cj)
        w_cyc = len(keep) - 1
        if w_cyc * w_cyc < n:
            continue
        for u in cyc[1:]:
            cu = _break_counts(g, walk, cj, keep, u)
            for d in range(1, g.n + 2):
                if cu[d] ** 2 > 4 * n * (c_hat[d] + w_hat) ** 2:
                    return False, _describe(
                        Instance(g, ()),
                        f"break at {brk.vertex}: count({u},{d})={cu[d]} exceeds "
                        f"2*sqrt(n)*(count+weight)={c_hat[d]}+{w_hat}",
                    )
    return True, ""


@_suite("cooldown-quality")
def _trial_cooldown_quality(rng: random.Random):
    n = rng.randint(8, 14)
    g = random_cactus(n, rng.uniform(0.6, 1.0), rng.randint(5, n), _seed(rng))
    seq = rng.choice(((1, 1), (1, 0, 1), (1, 1, 1), (1, 0, 0, 1)))
    inst = Instance(g, seq)
    result = run_algorithm(inst, AlgorithmKind.ALG_C)
    events = result.events
    k = next((k for k, e in enumerate(events) if e.reason == "break"), None)
    if k is None:
        return None
    j = next((j for j in range(k, len(events)) if events[j].round > events[k].round), None)
    if j is None:
        return None
    brk_ev, nxt = events[k], events[j]
    if nxt.round - brk_ev.round > brk_ev.brk.cooldown or nxt.reason != "greedy":
        return None
    view = decision_view(inst, result, k)
    bg, into = view.graph, view.index_map()
    if nxt.vertex not in into:
        return None
    u_hat = into[brk_ev.vertex]
    base = weight(bg, (), {u_hat, into[nxt.vertex]})
    avail_i = [v for v in range(bg.n) if v != bg.root]
    nxt_view = decision_view(inst, result, j)
    avail_i2 = [into[o] for o in nxt_view.to_orig if o in into and into[o] != bg.root]
    for x in avail_i:
        for x2 in avail_i2:
            wp = weight(bg, (), {x, x2})
            if wp * wp > g.n * base * base:
                return False, _describe(
                    inst,
                    f"cooldown pair ({x},{x2}) weighs {wp} in the break view, "
                    f"over sqrt(n) * {base}",
                )
    return True, ""


@_suite("nonredundant-normalize")
def _trial_nonredundant(rng: random.Random):
    inst = random_instance(rng, "cactus", 4, 12)
    opt = solve_opt(inst)
    norm = normalize_nonredundant(inst, opt.schedule)
    p_orig, _ = replay(inst, opt.schedule)
    p_norm, _ = replay(inst, norm)
    if not (p_orig == p_norm == opt.value):
        return False, _describe(
            inst,
            f"normalization changed profit: {opt.value} -> {p_norm} "
            f"(schedule {opt.schedule} -> {norm})",
        )
    walk = fundamental_cycles(inst.graph)
    protected = [v for _, v in norm]
    for cyc in walk.cycles:
        inside = [v for v in protected if v in set(cyc)]
        if len(inside) > 2:
            return False, _describe(
                inst, f"cycle {cyc} still holds {inside} after normalization"
            )
    return True, ""


@_suite("cycle-respecting")
def _trial_cycle_respecting(rng: random.Random):
    inst = random_instance(rng, "cactus", 4, 12)
    opt = solve_opt(inst)
    psi = sorted(v for _, v in opt.schedule)
    g = inst.graph
    on_cycles: list[set[int]] = [set() for _ in range(g.n)]
    for i, cyc in enumerate(fundamental_cycles(g).cycles):
        for v in cyc:
            on_cycles[v].add(i)
    # finest partition with whole cycles kept together: join on shared cycle
    parts: list[set[int]] = []
    for v in psi:
        mine = {v}
        joined = []
        for p in parts:
            if any(on_cycles[v] & on_cycles[u] for u in p):
                mine |= p
            else:
                joined.append(p)
        joined.append(mine)
        parts = joined
    whole = covered_set(g, frozenset(), frozenset(psi))
    union: set[int] = set()
    for p in parts:
        union |= covered_set(g, frozenset(), frozenset(p))
    if whole != union:
        return False, _describe(
            inst,
            f"covered({psi}) = {sorted(whole)} but part union gives {sorted(union)}",
        )
    return True, ""


def _kinds_for(g: Graph) -> list[AlgorithmKind]:
    tag = fundamental_cycles(g).class_tag
    return [kind for kind in AlgorithmKind if kind.accepts(tag)]


@_suite("opt-dominance")
def _trial_opt_dominance(rng: random.Random):
    inst = random_instance(rng, "cactus", 4, 12)
    opt = solve_opt(inst)
    if opt.value > opt_upper_bound(inst):
        return False, _describe(
            inst, f"opt {opt.value} beats the structural upper bound"
        )
    p_replay, _ = replay(inst, opt.schedule)
    if p_replay != opt.value:
        return False, _describe(
            inst, f"opt schedule replays to {p_replay}, claimed {opt.value}"
        )
    for kind in _kinds_for(inst.graph):
        profit = run_algorithm(inst, kind).profit
        if profit > opt.value:
            return False, _describe(
                inst, f"{kind.value} got {profit}, above opt {opt.value}"
            )
    return True, ""


@_suite("alge-3competitive")
def _trial_alge_3competitive(rng: random.Random):
    inst = random_instance(rng, "cactus", 4, 14, even=True)
    alg = run_algorithm(inst, AlgorithmKind.ALG_E).profit
    opt = solve_opt(inst).value
    if opt > 3 * alg:
        return False, _describe(inst, f"even-sequence ratio {opt}/{alg} exceeds 3")
    return True, ""


@_suite("greedy-tree-2competitive")
def _trial_greedy_tree(rng: random.Random):
    n = rng.randint(2, 14)
    g = random_tree(n, _seed(rng))
    seq = random_sequence(rng.randint(1, 4), rng.randint(1, 6), False, _seed(rng))
    inst = Instance(g, seq)
    alg = run_algorithm(inst, AlgorithmKind.GREEDY_TREE).profit
    opt = solve_opt(inst).value
    if opt > 2 * alg:
        return False, _describe(inst, f"tree ratio {opt}/{alg} exceeds 2")
    return True, ""


@_suite("reduction-equivalence")
def _trial_reduction_equivalence(rng: random.Random):
    inst = random_instance(rng, "cactus", 4, 12)
    for kind in _kinds_for(inst.graph):
        result = run_algorithm(inst, kind)
        # replay the trace, valuing each protection in the live reduced
        # view right before it lands; the weights must add up to the profit
        state = GameState(inst)
        total = 0
        idx = 0
        while not state.is_finished():
            while idx < len(result.trace) and result.trace[idx].round == state.round:
                v = result.trace[idx].vertex
                sub = state.reduced_view()
                total += weight(sub.graph, (), [sub.index_map()[v]])
                state.protect(v)
                idx += 1
            state.spread()
        protected = frozenset(t.vertex for t in result.trace)
        direct = profit_of_protections(inst.graph, protected)
        if not (result.profit == state.profit() == total == direct):
            return False, _describe(
                inst,
                f"{kind.value}: profit {result.profit}, view-weight sum {total}, "
                f"covered-set size {direct}, replayed {state.profit()}",
            )
    return True, ""


@_suite("memo-consistency")
def _trial_memo_consistency(rng: random.Random):
    inst = random_instance(rng, "cactus", 4, 10)
    fast = solve_opt(inst, use_memo=True)
    slow = solve_opt(inst, use_memo=False)
    if fast.value != slow.value:
        return False, _describe(
            inst, f"memoized opt {fast.value} != plain opt {slow.value}"
        )
    for res in (fast, slow):
        p, _ = replay(inst, res.schedule)
        if p != res.value:
            return False, _describe(
                inst, f"schedule {res.schedule} replays to {p}, not {res.value}"
            )
    return True, ""


@_suite("algc-three-per-cycle")
def _trial_algc_three_per_cycle(rng: random.Random):
    inst = random_instance(rng, "cactus", 4, 14)
    protected = [ev.vertex for ev in run_algorithm(inst, AlgorithmKind.ALG_C).events]
    walk = fundamental_cycles(inst.graph)
    for cyc in walk.cycles:
        inside = [v for v in protected if v in set(cyc)]
        if len(inside) > 3:
            return False, _describe(
                inst, f"cycle {cyc} received {len(inside)} protections: {inside}"
            )
    return True, ""


def run_suite(name: str, trials: int, seed: int) -> SuiteResult:
    try:
        runner = SUITES[name]
    except KeyError:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
        ) from None
    return runner(trials, seed)
