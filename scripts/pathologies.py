#!/usr/bin/env python3
"""Time the large slow cases listed on the roadmap.

The cases: `alg-e`, `alg-c` and `alg-a` on a 4001-vertex tadpole with 30
single firefighters, a replay of no protections on a 3000-vertex path, and
`alg-c` on that path with 2000 empty rounds.  Each case is run
``--repeat`` times; the median wall time in seconds is printed as one JSON
object per case, with the instance size and profit.  Every case's profit
is pinned: the script exits 1 when one differs.

    PYTHONPATH=src python3 scripts/pathologies.py --repeat 3
"""

import argparse
import json
import statistics
import sys
import time

from firefight import AlgorithmKind, Graph, Instance, make_tadpole, replay, run_algorithm


def _cases():
    """(name, instance, play, expected profit) of every case."""
    # a 3937-vertex cycle plus a 63-vertex tail at the root: n = 4001
    tadpole = Instance(make_tadpole(3937, 63), (1,) * 30)
    path = Graph.from_edges(3000, [(i, i + 1) for i in range(2999)])
    return [
        ("tadpole-30x1/alg-e", tadpole, lambda i: run_algorithm(i, AlgorithmKind.ALG_E).profit, 3997),
        ("tadpole-30x1/alg-c", tadpole, lambda i: run_algorithm(i, AlgorithmKind.ALG_C).profit, 3997),
        ("tadpole-30x1/alg-a", tadpole, lambda i: run_algorithm(i, AlgorithmKind.ALG_A).profit, 3997),
        ("path-replay-none", Instance(path, ()), lambda i: replay(i, ())[0], 0),
        (
            "path-empty-rounds/alg-c",
            Instance(path, (0,) * 2000),
            lambda i: run_algorithm(i, AlgorithmKind.ALG_C).profit,
            0,
        ),
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args(argv)
    wrong = 0
    for name, inst, play, expected in _cases():
        times = []
        profits = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            profits.append(play(inst))
            times.append(time.perf_counter() - t0)
        record = {
            "case": name,
            "n": inst.graph.n,
            "profit": profits[-1],
            "median_s": round(statistics.median(times), 4),
        }
        print(json.dumps(record), flush=True)
        if any(p != expected for p in profits):
            print(f"error: {name} profit {profits}, expected {expected}", file=sys.stderr)
            wrong += 1
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
