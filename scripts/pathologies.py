#!/usr/bin/env python3
"""Time the large slow cases listed on the roadmap.

The cases: `alg-e`, `alg-c` and `alg-a` on a 4001-vertex tadpole with 30
single firefighters, a replay of no protections on a 3000-vertex path,
`alg-c` on that path with 2000 empty rounds, the `alg-e` adversary run
at beta 12, whose exact (1,1) solve on a 157-vertex tadpole is the widest
the solver meets in the adversary sweep, and at beta 40 (n = 1642), which
is quick only while that solve values a round's candidates in one pass, and `greedy-tree` and `alg-c` on
``spider-160``, 160 legs of 160 vertices (n = 25601) with one firefighter
in each of 160 rounds, which takes time n * rounds unless a game keeps its
residual across rounds, and on ``spider-4x50000``, 4 legs of 50000
vertices (n = 200001) with one firefighter and then about 50000 rounds of
burning, which a game must play in one pass, and `alg-c` and `alg-e` on
``flower-80``, 80 root cycles of 320 vertices each (n = 25521) with one
firefighter in each of 25600 rounds, where `alg-c` breaks 40 cycles, and
before each break weighs both root neighbors of every heavy root cycle by
arithmetic on its arc positions, its members hanging nothing to walk,
`alg-c` and `alg-e` on ``chain-spider-4x12500``, 4
legs of 3- to 6-cycles chained to depth 12500 (n = 87487) with one or two
single firefighters, where three legs burn after the last decision, which
a game need not play, `parse_instance` on ``cactus-200k``, the instance
file of ``random_cactus(200000, 0.7, 50, 3)`` with firefighters
1,1,2,1,1,1,2,1, and `alg-c` on that instance once parsed, and the exact
optimum of ``random_cactus(40, 0.5, 8, s)`` with eight
single firefighters for s = 1, 2, 3, long runs of single firefighters
whose search passes the incumbent's value down to stay small, and of
``grid-5x6``, a 5 x 6 grid rooted at a corner, with four single
firefighters: no view of it is a cactus, so every one-firefighter last
round values each candidate by its own flood.
Each case is run ``--repeat`` times; the median wall time in seconds is
printed as one JSON object per case, with the instance size and the pinned
results (a profit, the strategy's and the optimum's profits of an
adversary run, an optimum's value, or a parsed graph's vertex and edge
counts).
The first case, ``cap-1m/parse+alg-c``, is the input boundary at the
vertex cap: a child process reads the instance file of
``random_cactus(1000000, 0.7, 50, 3)`` with firefighters 1,1,2,1, parses
it and plays `alg-c`; its record adds the child's parse time
(``parse_s``) and peak RSS (``maxrss_mb``, from ``ru_maxrss``) of the last
run.  It runs before any other case is built, because a child's
``ru_maxrss`` counts the memory of the process that started it.
The script exits 1 when a result differs from its pin.

    PYTHONPATH=src python3 scripts/pathologies.py --repeat 3
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

from firefight import (
    AlgorithmKind,
    Graph,
    Instance,
    make_tadpole,
    parse_instance,
    random_cactus,
    replay,
    run_algorithm,
    serialize_instance,
    solve_opt,
    tadpole_adversary_run,
)


def _play(inst, kind):
    return lambda: {"profit": run_algorithm(inst, kind).profit}


def _adversary(kind, beta):
    def play():
        report = tadpole_adversary_run(kind, beta)
        return {"alg": report.alg_profit, "opt": report.opt_profit}

    return play


def _optimum(inst):
    return lambda: {"value": solve_opt(inst, max_n=inst.graph.n).value}


def _parse(text):
    def parse():
        g = parse_instance(text).graph
        return {"n": g.n, "edges": g.edge_count()}

    return parse


# the cap case's two child programs: one writes the instance file, the
# other parses it and plays
_WRITE_CAP = """
import sys
from firefight import Instance, random_cactus, serialize_instance
inst = Instance(random_cactus(1000000, 0.7, 50, 3), (1, 1, 2, 1))
with open(sys.argv[1], "w", encoding="utf-8") as f:
    f.write(serialize_instance(inst))
"""
_PLAY_CAP = """
import json, resource, sys, time
from firefight import AlgorithmKind, parse_instance, run_algorithm
with open(sys.argv[1], encoding="utf-8") as f:
    text = f.read()
t0 = time.perf_counter()
inst = parse_instance(text)
parse_s = time.perf_counter() - t0
profit = run_algorithm(inst, AlgorithmKind.ALG_C).profit
maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
g = inst.graph
print(json.dumps({"n": g.n, "edges": g.edge_count(), "profit": profit,
                  "parse_s": round(parse_s, 2), "maxrss_mb": maxrss // 1024}))
"""


def _child(program, path):
    argv = [sys.executable, "-c", program, path]
    return subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout


def _cap(path):
    return lambda: json.loads(_child(_PLAY_CAP, path))


def _spider(legs, length):
    """``legs`` paths of ``length`` vertices joined at the root, vertex 0."""
    edges = [(0 if i % length == 0 else i, i + 1) for i in range(legs * length)]
    return Graph.from_edges(legs * length + 1, edges)


def _flower(petals, size):
    """``petals`` cycles of ``size`` vertices sharing only the root, vertex 0."""
    edges = []
    for p in range(petals):
        first, last = 1 + p * (size - 1), (p + 1) * (size - 1)
        edges += [(0, first), (last, 0)] + [(i, i + 1) for i in range(first, last)]
    return Graph.from_edges(1 + petals * (size - 1), edges)


def _chain_spider(legs, depth):
    """``legs`` chains of cycles of 3 to 6 vertices at the root, vertex 0.

    Each cycle is glued at the previous one's member halfway round, which
    lies ``size // 2`` deeper, until a leg reaches ``depth``; the sizes are
    drawn from one ``random.Random(7)``.
    """
    rng = random.Random(7)
    edges = []
    n = 1
    for _ in range(legs):
        at, reached = 0, 0
        while reached < depth:
            size = rng.randint(3, 6)
            cyc = [at, *range(n, n + size - 1)]
            n += size - 1
            edges += zip(cyc, cyc[1:] + cyc[:1])
            at = cyc[size // 2]
            reached += size // 2
    return Graph.from_edges(n, edges)


def _grid(rows, cols):
    """A ``rows`` x ``cols`` grid rooted at a corner, vertex 0."""
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def _cases():
    """(name, n, play, expected results) of every case; the cap case is
    yielded and played before the other cases are built."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cap-1m.ff")
        _child(_WRITE_CAP, path)
        pins = {"n": 10**6, "edges": 1038695, "profit": 999750}
        yield ("cap-1m/parse+alg-c", 10**6, _cap(path), pins)
    # a 3937-vertex cycle plus a 63-vertex tail at the root: n = 4001
    tadpole = Instance(make_tadpole(3937, 63), (1,) * 30)
    path = Graph.from_edges(3000, [(i, i + 1) for i in range(2999)])
    spider = Instance(_spider(160, 160), (1,) * 160)
    long_spider = Instance(_spider(4, 50000), (1,))
    flower = Instance(_flower(80, 320), (1,) * 25600)
    chain = _chain_spider(4, 12500)
    cactus = Instance(random_cactus(200000, 0.7, 50, 3), (1, 1, 2, 1, 1, 1, 2, 1))
    cactus_file = serialize_instance(cactus)
    yield from [
        ("tadpole-30x1/alg-e", 4001, _play(tadpole, AlgorithmKind.ALG_E), {"profit": 3997}),
        ("tadpole-30x1/alg-c", 4001, _play(tadpole, AlgorithmKind.ALG_C), {"profit": 3997}),
        ("tadpole-30x1/alg-a", 4001, _play(tadpole, AlgorithmKind.ALG_A), {"profit": 3997}),
        ("path-replay-none", 3000, lambda: {"profit": replay(Instance(path, ()), ())[0]}, {"profit": 0}),
        (
            "path-empty-rounds/alg-c",
            3000,
            _play(Instance(path, (0,) * 2000), AlgorithmKind.ALG_C),
            {"profit": 0},
        ),
        # a 145-vertex cycle plus a 12-vertex tail: n = 157
        ("adversary/alg-e/b12", 157, _adversary(AlgorithmKind.ALG_E, 12), {"alg": 13, "opt": 144}),
        # a 1601-vertex cycle plus a 40-vertex tail: n = 1642
        ("adversary/alg-e/b40", 1642, _adversary(AlgorithmKind.ALG_E, 40), {"alg": 41, "opt": 1600}),
        ("spider-160/greedy-tree", 25601, _play(spider, AlgorithmKind.GREEDY_TREE), {"profit": 12880}),
        ("spider-160/alg-c", 25601, _play(spider, AlgorithmKind.ALG_C), {"profit": 12880}),
        ("spider-4x50000/greedy-tree", 200001, _play(long_spider, AlgorithmKind.GREEDY_TREE), {"profit": 50000}),
        ("spider-4x50000/alg-c", 200001, _play(long_spider, AlgorithmKind.ALG_C), {"profit": 50000}),
        ("flower-80/alg-c", 25521, _play(flower, AlgorithmKind.ALG_C), {"profit": 12800}),
        ("flower-80/alg-e", 25521, _play(flower, AlgorithmKind.ALG_E), {"profit": 12800}),
    ] + [
        (f"chain-spider-4x12500/{name}/{kind.value}", 87487, _play(Instance(chain, seq), kind), {"profit": profit})
        for name, seq, profit in (("1", (1,), 21872), ("1,1", (1, 1), 43744))
        for kind in (AlgorithmKind.ALG_C, AlgorithmKind.ALG_E)
    ] + [
        ("cactus-200k/parse", 200000, _parse(cactus_file), {"n": 200000, "edges": 207756}),
        (
            "cactus-200k/alg-c",
            200000,
            _play(parse_instance(cactus_file), AlgorithmKind.ALG_C),
            {"profit": 199971},
        ),
    ] + [
        (f"opt/cactus40-1x8-s{s}", 40, _optimum(Instance(random_cactus(40, 0.5, 8, s), (1,) * 8)), {"value": value})
        for s, value in ((1, 25), (2, 35), (3, 36))
    ] + [
        ("opt/grid-5x6-1x4", 30, _optimum(Instance(_grid(5, 6), (1,) * 4)), {"value": 10}),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    wrong = 0
    for name, n, play, expected in _cases():
        times = []
        results = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            results.append(play())
            times.append(time.perf_counter() - t0)
        record = {
            "case": name,
            "n": n,
            **results[-1],
            "median_s": round(statistics.median(times), 4),
        }
        print(json.dumps(record), flush=True)
        if not all(expected.items() <= r.items() for r in results):
            print(f"error: {name} gave {results}, expected {expected}", file=sys.stderr)
            wrong += 1
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
