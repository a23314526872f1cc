#!/usr/bin/env python3
"""Time the large slow cases listed on the roadmap.

The cases: `alg-e`, `alg-c` and `alg-a` on a 4001-vertex tadpole with 30
single firefighters, a replay of no protections on a 3000-vertex path,
`alg-c` on that path with 2000 empty rounds, the `alg-e` adversary run
at beta 12, whose exact (1,1) solve on a 157-vertex tadpole is the widest
the solver meets in the adversary sweep, and `greedy-tree` and `alg-c` on
``spider-160``, 160 legs of 160 vertices (n = 25601) with one firefighter
in each of 160 rounds, which takes time n * rounds unless a game keeps its
residual across rounds.  Each case is run ``--repeat``
times; the median wall time in seconds is printed as one JSON object per
case, with the instance size and the pinned results (a profit, or the
strategy's and the optimum's profits of an adversary run).  The script
exits 1 when a result differs from its pin.

    PYTHONPATH=src python3 scripts/pathologies.py --repeat 3
"""

import argparse
import json
import statistics
import sys
import time

from firefight import (
    AlgorithmKind,
    Graph,
    Instance,
    make_tadpole,
    replay,
    run_algorithm,
    tadpole_adversary_run,
)


def _play(inst, kind):
    return lambda: {"profit": run_algorithm(inst, kind).profit}


def _adversary(kind, beta):
    def play():
        report = tadpole_adversary_run(kind, beta)
        return {"alg": report.alg_profit, "opt": report.opt_profit}

    return play


def _spider(legs, length):
    """``legs`` paths of ``length`` vertices joined at the root, vertex 0."""
    edges = [(0 if i % length == 0 else i, i + 1) for i in range(legs * length)]
    return Graph.from_edges(legs * length + 1, edges)


def _cases():
    """(name, n, play, expected results) of every case."""
    # a 3937-vertex cycle plus a 63-vertex tail at the root: n = 4001
    tadpole = Instance(make_tadpole(3937, 63), (1,) * 30)
    path = Graph.from_edges(3000, [(i, i + 1) for i in range(2999)])
    spider = Instance(_spider(160, 160), (1,) * 160)
    return [
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
        ("spider-160/greedy-tree", 25601, _play(spider, AlgorithmKind.GREEDY_TREE), {"profit": 12880}),
        ("spider-160/alg-c", 25601, _play(spider, AlgorithmKind.ALG_C), {"profit": 12880}),
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
        if any(r != expected for r in results):
            print(f"error: {name} gave {results}, expected {expected}", file=sys.stderr)
            wrong += 1
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
