"""Instance constructions: hard families and random generators.

The tadpole family pits a cycle just too heavy to ignore against a path
just light enough to tempt; an adaptive opponent watches the first
protection and stops the firefighter supply at the worst moment.  The
two-cycle family drives the even-sequence strategy to its exact ratio.
All random generators are pure functions of their seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .algorithms import AlgorithmKind, run_algorithm
from .engine import Instance, ProtectionSchedule
from .graph import MAX_VERTICES, Graph
from .optimum import DEFAULT_NODE_BUDGET, solve_opt


class BadParamsError(ValueError):
    pass


def _check_size(n: int) -> None:
    if n > MAX_VERTICES:
        raise BadParamsError(f"{n} vertices exceed the limit of {MAX_VERTICES}")


def make_tadpole(alpha: int, beta: int) -> Graph:
    """A cycle of alpha+1 vertices and a path of beta+1 vertices sharing
    vertex 0, which is the root: vertices 1..alpha close the cycle and
    alpha+1..alpha+beta form the tail.
    """
    if alpha < 2 or beta < 1:
        raise BadParamsError("need alpha >= 2 and beta >= 1")
    n = alpha + beta + 1
    _check_size(n)
    edges = [(0, 1), (alpha, 0), (0, alpha + 1)]
    edges += [(i, i + 1) for i in range(1, alpha)]
    edges += [(i, i + 1) for i in range(alpha + 1, alpha + beta)]
    return Graph.from_edges(n, edges, root=0)


def make_alge_tight(beta: int) -> Instance:
    """Two 8-cycles at the root, pendant clusters of ``beta`` leaves on the
    first two vertices of each, and two root paths of beta+6 vertices;
    firefighter sequence (2, 0, 0, 0, 4).  6*beta + 27 vertices total.

    alg-e earns 2*beta + 12 and alge_tight_witness_schedule earns
    6*beta + 10, so the ratio (6*beta + 10)/(2*beta + 12) = 3 - 26/(2*beta + 12)
    rises toward 3 and first reaches 2.69 at beta = 36 (113/42).
    """
    if beta < 1:
        raise BadParamsError("need beta >= 1")
    _check_size(6 * beta + 27)
    edges = [(0, 1), (7, 0), (0, 8), (14, 0)]
    edges += [(i, i + 1) for i in range(1, 7)]
    edges += [(i, i + 1) for i in range(8, 14)]
    a1 = 15
    b1 = a1 + beta + 6
    edges.append((0, a1))
    edges += [(i, i + 1) for i in range(a1, a1 + beta + 5)]
    edges.append((0, b1))
    edges += [(i, i + 1) for i in range(b1, b1 + beta + 5)]
    nxt = b1 + beta + 6
    for host in (1, 2, 8, 9):
        for _ in range(beta):
            edges.append((host, nxt))
            nxt += 1
    g = Graph.from_edges(nxt, edges, root=0)
    return Instance(g, (2, 0, 0, 0, 4), name=f"two-cycle-tight-{beta}")


def alge_tight_witness_schedule(beta: int) -> ProtectionSchedule:
    """An offline schedule earning 6*beta + 10 on make_alge_tight(beta).

    Round 1 saves both pendant clusters behind the first cycle vertices;
    round 5 cuts both root paths at their fifth vertex and both cycles at
    their third, sheltering the remaining clusters.
    """
    if beta < 1:
        raise BadParamsError("need beta >= 1")
    a5 = 19
    b5 = a5 + beta + 6
    return ((1, 1), (1, 8), (5, a5), (5, b5), (5, 3), (5, 10))


@dataclass(frozen=True)
class AdversaryReport:
    kind: AlgorithmKind
    beta: int
    case: int
    sequence: tuple[int, ...]
    alg_profit: int
    opt_profit: int
    ratio: Fraction | float
    bound: Fraction


def tadpole_adversary_run(
    kind: AlgorithmKind,
    beta: int,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> AdversaryReport:
    """Adaptive lower-bound game on the tadpole with cycle weight beta^2+1.

    One firefighter arrives in round 1.  If the strategy spends it on the
    cycle, the supply stops (case 1) and the tail was worth more; if it
    spends it elsewhere, one more firefighter arrives (case 2), too few to
    stop both cycle fronts.  Either way the exact optimum on the realized
    sequence is at least min(beta, beta^2/(beta+1)) times the profit.
    """
    if beta < 2:
        raise BadParamsError("need beta >= 2")
    alpha = beta * beta + 1
    g = make_tadpole(alpha, beta)
    name = f"tadpole-{alpha}-{beta}"
    probe = run_algorithm(Instance(g, (1,), name=name), kind)
    first = probe.trace[0].vertex if probe.trace else None
    if first is None or 1 <= first <= alpha:
        case = 1
        sequence: tuple[int, ...] = (1,)
        alg_profit = probe.profit
    else:
        case = 2
        sequence = (1, 1)
        alg_profit = run_algorithm(Instance(g, sequence, name=name), kind).profit
    opt = solve_opt(
        Instance(g, sequence, name=name), node_budget=node_budget, max_n=g.n
    )
    ratio: Fraction | float
    if alg_profit > 0:
        ratio = Fraction(opt.value, alg_profit)
    else:
        ratio = math.inf
    bound = min(Fraction(beta), Fraction(beta * beta, beta + 1))
    return AdversaryReport(
        kind=kind,
        beta=beta,
        case=case,
        sequence=sequence,
        alg_profit=alg_profit,
        opt_profit=opt.value,
        ratio=ratio,
        bound=bound,
    )


def random_tree(n: int, seed: int) -> Graph:
    """Uniform attachment tree on n vertices rooted at 0."""
    if n < 1:
        raise BadParamsError("need n >= 1")
    _check_size(n)
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Graph.from_edges(n, edges, root=0)


def random_cactus(n: int, cycle_fraction: float, max_cycle_len: int, seed: int) -> Graph:
    """Grow a cactus from the root by gluing cycles or single edges onto
    random existing vertices.  cycle_fraction = 0 degenerates to a tree.
    """
    if n < 2:
        raise BadParamsError("need n >= 2")
    _check_size(n)
    if not 0 <= cycle_fraction <= 1:
        raise BadParamsError("cycle_fraction must lie in [0, 1]")
    if max_cycle_len < 3:
        raise BadParamsError("cycles need at least 3 vertices")
    rng = random.Random(seed)
    edges = []
    built = 1
    while built < n:
        host = rng.randrange(built)
        room = n - built
        if room >= 2 and rng.random() < cycle_fraction:
            # a cycle of k new vertices plus the host it is glued to
            k = rng.randint(2, min(max_cycle_len - 1, room))
            chain = [host] + list(range(built, built + k))
            edges += list(zip(chain, chain[1:]))
            edges.append((chain[-1], host))
            built += k
        else:
            edges.append((host, built))
            built += 1
    return Graph.from_edges(n, edges, root=0)


def random_one_almost_tree(
    n: int,
    seed: int,
    *,
    cycle_len: int | None = None,
    through_root: bool | None = None,
) -> Graph:
    """Connected graph with exactly one cycle, optionally pinned to the
    root, padded to n vertices with random tree edges.
    """
    if n < 3:
        raise BadParamsError("need n >= 3 to fit a cycle")
    _check_size(n)
    rng = random.Random(seed)
    if through_root is None:
        # three vertices leave no room for a cycle off the root
        through_root = rng.random() < 0.5 or n == 3
    max_len = n if through_root else n - 1
    if max_len < 3:
        raise BadParamsError("no room for a cycle off the root")
    if cycle_len is None:
        cycle_len = rng.randint(3, max_len)
    if not 3 <= cycle_len <= max_len:
        raise BadParamsError(f"cycle_len {cycle_len} out of range [3, {max_len}]")
    edges = []
    if through_root:
        anchor = 0
        built = 1
    else:
        edges.append((0, 1))
        anchor = 1
        built = 2
    chain = [anchor] + list(range(built, built + cycle_len - 1))
    edges += list(zip(chain, chain[1:]))
    edges.append((chain[-1], anchor))
    built += cycle_len - 1
    while built < n:
        edges.append((rng.randrange(built), built))
        built += 1
    return Graph.from_edges(n, edges, root=0)


def random_sequence(
    length: int, total_budget: int, even_only: bool, seed: int
) -> tuple[int, ...]:
    """Nonnegative firefighter counts summing to at most total_budget;
    with even_only every entry is even.
    """
    if length < 0 or total_budget < 0:
        raise BadParamsError("length and total_budget must be nonnegative")
    if length == 0:
        return ()
    rng = random.Random(seed)
    unit = 2 if even_only else 1
    seq = [0] * length
    for _ in range(total_budget // unit):
        # leave some budget unspent so empty rounds stay common
        if rng.random() < 0.7:
            seq[rng.randrange(length)] += unit
    return tuple(seq)


def random_instance(
    rng: random.Random, gen: str, n_min: int, n_max: int, even: bool = False
) -> Instance:
    """A random instance of class ``gen`` ("tree", "one-almost-tree" or
    "cactus") on n_min..max(n_min, n_max) vertices with a random sequence of
    1-4 rounds; with ``even`` every count is even.  Draws only from ``rng``.
    """
    n = rng.randint(n_min, max(n_min, n_max))
    if gen == "tree":
        g = random_tree(n, rng.randrange(2**30))
    elif gen == "one-almost-tree":
        g = random_one_almost_tree(n, rng.randrange(2**30))
    elif gen == "cactus":
        frac, max_len = rng.uniform(0.3, 0.9), rng.randint(3, max(3, n))
        g = random_cactus(n, frac, max_len, rng.randrange(2**30))
    else:
        raise BadParamsError(f"unknown generator {gen!r}")
    seq = random_sequence(rng.randint(1, 4), rng.randint(0, 6), even, rng.randrange(2**30))
    return Instance(g, seq)
