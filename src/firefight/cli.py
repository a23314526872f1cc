"""Command line harness.

stdout carries one machine-readable JSON record per line and nothing else;
identical flags and seeds reproduce it byte for byte.  Human-oriented
tables, logs, and timings go to stderr (enable with --format table).

Exit codes: 0 success, 1 property failure, 2 usage error, 3 search budget
exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import random
import sys
import time
from fractions import Fraction

from .algorithms import AlgorithmError, AlgorithmKind, run_algorithm
from .engine import GameError, Instance
from .fileformat import ParseError, parse_instance, serialize_instance
from .graph import GraphClass, GraphError, validate_and_decompose
from .instances import (
    BadParamsError,
    make_alge_tight,
    make_tadpole,
    random_cactus,
    random_instance,
    random_one_almost_tree,
    random_tree,
    tadpole_adversary_run,
)
from .lemmas import SUITES, UnknownSuiteError, run_suite
from .optimum import (
    DEFAULT_NODE_BUDGET,
    GraphTooLargeError,
    SearchBudgetExceededError,
    solve_opt,
)

log = logging.getLogger("firefight")

BUDGET_ENV = "FIREFIGHT_NODE_BUDGET"


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")


def _table(rows: list[dict]) -> None:
    if not rows:
        return
    headers = list(rows[0].keys())
    widths = {h: max(len(h), *(len(str(r.get(h, ""))) for r in rows)) for h in headers}
    line = "  ".join(h.ljust(widths[h]) for h in headers)
    sys.stderr.write(line + "\n")
    sys.stderr.write("  ".join("-" * widths[h] for h in headers) + "\n")
    for r in rows:
        sys.stderr.write("  ".join(str(r.get(h, "")).ljust(widths[h]) for h in headers) + "\n")


def _node_budget() -> int:
    env = os.environ.get(BUDGET_ENV)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise BadParamsError(f"{BUDGET_ENV} must be an integer, got {env!r}")
    return DEFAULT_NODE_BUDGET


def _load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def _bound_for(kind: AlgorithmKind, sequence: tuple[int, ...]) -> tuple[int, int] | None:
    """The proven ratio bound c*sqrt(n) + k as (c, k), or None."""
    if kind is AlgorithmKind.GREEDY_TREE:
        return 0, 2
    if kind is AlgorithmKind.ALG_A:
        return 6, 1
    if kind is AlgorithmKind.ALG_C:
        return 15, 1
    if all(f % 2 == 0 for f in sequence):
        return 0, 3
    return None


def _within_bound(bound: tuple[int, int], n: int, opt: int, alg: int) -> bool:
    """opt <= (c*sqrt(n) + k) * alg, decided in integers."""
    c, k = bound
    excess = opt - k * alg
    return excess <= 0 or excess * excess <= c * c * alg * alg * n


def cmd_run(args) -> int:
    inst = _load_instance(args.instance)
    kind = AlgorithmKind(args.alg)
    t0 = time.perf_counter()
    result = run_algorithm(inst, kind)
    ms = (time.perf_counter() - t0) * 1000
    tag = validate_and_decompose(inst.graph).class_tag.value
    _emit(
        {
            "record": "run",
            "name": inst.name or "",
            "n": inst.graph.n,
            "class": tag,
            "alg": kind.value,
            "profit": result.profit,
            "trace": [[t.round, t.vertex] for t in result.trace],
        }
    )
    if args.format == "table":
        _table(
            [
                {
                    "alg": kind.value,
                    "profit": result.profit,
                    "protections": " ".join(f"r{t.round}:v{t.vertex}" for t in result.trace),
                    "runtime_ms": f"{ms:.1f}",
                }
            ]
        )
    return 0


def cmd_opt(args) -> int:
    inst = _load_instance(args.instance)
    t0 = time.perf_counter()
    result = solve_opt(inst, node_budget=_node_budget())
    ms = (time.perf_counter() - t0) * 1000
    _emit(
        {
            "record": "opt",
            "name": inst.name or "",
            "n": inst.graph.n,
            "value": result.value,
            "schedule": [[r, v] for r, v in result.schedule],
            "nodes": result.nodes_explored,
        }
    )
    if args.format == "table":
        _table(
            [
                {
                    "value": result.value,
                    "schedule": " ".join(f"r{r}:v{v}" for r, v in result.schedule),
                    "nodes": result.nodes_explored,
                    "runtime_ms": f"{ms:.1f}",
                }
            ]
        )
    return 0


def _ratio_row(inst: Instance, kind: AlgorithmKind, budget: int):
    t0 = time.perf_counter()
    alg_profit = run_algorithm(inst, kind).profit
    opt = solve_opt(inst, node_budget=budget)
    ms = (time.perf_counter() - t0) * 1000
    if alg_profit > 0:
        exact = Fraction(opt.value, alg_profit)
        ratio: object = float(exact)
    elif opt.value == 0:
        ratio = 1.0
    else:
        ratio = "inf"
    terms = _bound_for(kind, inst.sequence)
    bound = None if terms is None else terms[0] * math.sqrt(inst.graph.n) + terms[1]
    if opt.value == 0 or terms is None:
        satisfied = True
    else:
        satisfied = _within_bound(terms, inst.graph.n, opt.value, alg_profit)
    record = {
        "record": "ratio",
        "name": inst.name or "",
        "n": inst.graph.n,
        "class": validate_and_decompose(inst.graph).class_tag.value,
        "alg": kind.value,
        "alg_profit": alg_profit,
        "opt_profit": opt.value,
        "ratio": ratio,
        "bound": bound,
        "bound_satisfied": satisfied,
    }
    return record, ms


def _gen_trial_instance(gen: str, rng_seed: int, n_max: int, even: bool) -> Instance:
    inst = random_instance(random.Random(rng_seed), gen, 3, n_max, even)
    return dataclasses.replace(inst, name=f"{gen}-{rng_seed}")


def _check_trials(args) -> None:
    if args.trials < 1:
        raise BadParamsError(f"--trials must be at least 1, got {args.trials}")


def cmd_ratio(args) -> int:
    budget = _node_budget()
    kind = AlgorithmKind(args.alg)
    if args.instance is not None:
        instances = [_load_instance(args.instance)]
    elif args.gen is not None:
        _check_trials(args)
        # drawn one at a time, so memory does not grow with --trials
        instances = (
            _gen_trial_instance(args.gen, args.seed * 1_000_003 + i * 7919 + 1, args.n_max, args.even)
            for i in range(args.trials)
        )
    else:
        raise BadParamsError("ratio needs --instance or --gen")
    worst = 0.0
    trials = failures = 0
    shown = []
    for inst in instances:
        record, ms = _ratio_row(inst, kind, budget)
        _emit(record)
        trials += 1
        if isinstance(record["ratio"], float):
            worst = max(worst, record["ratio"])
        if not record["bound_satisfied"]:
            failures += 1
        if args.format == "table":
            shown.append({k: v for k, v in record.items() if k != "record"})
            shown[-1]["runtime_ms"] = f"{ms:.1f}"
    if trials > 1:
        _emit(
            {
                "record": "ratio-summary",
                "alg": kind.value,
                "trials": trials,
                "max_ratio": worst,
                "bound_failures": failures,
            }
        )
    if args.format == "table":
        _table(shown)
    return 1 if failures else 0


def cmd_adversary(args) -> int:
    kind = AlgorithmKind(args.alg)
    report = tadpole_adversary_run(kind, args.beta, node_budget=_node_budget())
    ratio = report.ratio
    if isinstance(ratio, Fraction):
        ratio_str = f"{ratio.numerator}/{ratio.denominator}"
        ratio_num: object = float(ratio)
        met = ratio >= report.bound
    else:
        ratio_str = "inf"
        ratio_num = "inf"
        met = True
    _emit(
        {
            "record": "adversary",
            "alg": report.kind.value,
            "beta": report.beta,
            "case": report.case,
            "sequence": list(report.sequence),
            "alg_profit": report.alg_profit,
            "opt_profit": report.opt_profit,
            "ratio": ratio_num,
            "ratio_exact": ratio_str,
            "bound": float(report.bound),
            "bound_met": met,
        }
    )
    if args.format == "table":
        _table(
            [
                {
                    "alg": report.kind.value,
                    "beta": report.beta,
                    "case": report.case,
                    "alg_profit": report.alg_profit,
                    "opt_profit": report.opt_profit,
                    "ratio": ratio_str,
                    "bound": f"{float(report.bound):.4f}",
                }
            ]
        )
    return 0 if met else 1


def _parse_seq(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    parts = text.replace(",", " ").split()
    try:
        seq = tuple(int(p) for p in parts)
    except ValueError:
        raise BadParamsError(f"bad sequence {text!r}")
    if any(f < 0 for f in seq):
        raise BadParamsError("firefighter counts must be nonnegative")
    return seq


def cmd_gen(args) -> int:
    seq = _parse_seq(args.seq)
    if args.generator == "tadpole":
        g = make_tadpole(args.alpha, args.beta)
        inst = Instance(g, seq, name=f"tadpole-{args.alpha}-{args.beta}")
    elif args.generator == "alge-tight":
        inst = make_alge_tight(args.beta)
    elif args.generator == "tree":
        inst = Instance(random_tree(args.n, args.seed), seq, name=f"tree-{args.n}-{args.seed}")
    elif args.generator == "one-almost-tree":
        inst = Instance(
            random_one_almost_tree(args.n, args.seed),
            seq,
            name=f"one-almost-tree-{args.n}-{args.seed}",
        )
    elif args.generator == "cactus":
        inst = Instance(
            random_cactus(args.n, args.cycle_fraction, args.max_cycle_len, args.seed),
            seq,
            name=f"cactus-{args.n}-{args.seed}",
        )
    else:
        raise BadParamsError(f"unknown generator {args.generator!r}")
    text = serialize_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stderr.write(text)
    _emit(
        {
            "record": "gen",
            "generator": args.generator,
            "name": inst.name or "",
            "n": inst.graph.n,
            "edges": inst.graph.edge_count(),
            "sequence": list(inst.sequence),
            "out": args.out or "",
        }
    )
    return 0


def cmd_check_lemmas(args) -> int:
    _check_trials(args)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise UnknownSuiteError(
                f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}"
            )
    failures = 0
    rows = []
    for name in names:
        t0 = time.perf_counter()
        result = run_suite(name, args.trials, args.seed)
        ms = (time.perf_counter() - t0) * 1000
        ce_path = ""
        if result.counterexample is not None:
            ce_path = args.out or f"counterexample-{name}.txt"
            with open(ce_path, "w", encoding="utf-8") as fh:
                fh.write(result.counterexample + "\n")
            failures += 1
        _emit(
            {
                "record": "lemma-suite",
                "suite": name,
                "trials": result.trials,
                "checked": result.checked,
                "failures": result.failures,
                "passed": result.passed,
                "counterexample": ce_path,
            }
        )
        rows.append(
            {
                "suite": name,
                "trials": result.trials,
                "checked": result.checked,
                "status": "pass" if result.passed else f"FAIL ({ce_path})",
                "runtime_ms": f"{ms:.0f}",
            }
        )
    if args.format == "table":
        _table(rows)
    return 1 if failures else 0


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="firefight",
        description="Online firefighting on trees, 1-almost trees, and cactus graphs.",
    )
    top.add_argument(
        "--format",
        choices=("json-lines", "table"),
        default="json-lines",
        help="json-lines prints records to stdout only; table also renders a human table on stderr",
    )
    sub = top.add_subparsers(dest="command", required=True)
    algs = [k.value for k in AlgorithmKind]

    p_run = sub.add_parser("run", help="play one instance with an online strategy")
    p_run.add_argument("--instance", required=True)
    p_run.add_argument("--alg", choices=algs, required=True)
    p_run.set_defaults(func=cmd_run)

    p_opt = sub.add_parser("opt", help="solve one instance exactly")
    p_opt.add_argument("--instance", required=True)
    p_opt.set_defaults(func=cmd_opt)

    p_ratio = sub.add_parser("ratio", help="competitive ratio against the exact optimum")
    p_ratio.add_argument("--instance")
    p_ratio.add_argument("--alg", choices=algs, required=True)
    p_ratio.add_argument("--gen", choices=("tree", "one-almost-tree", "cactus"))
    p_ratio.add_argument("--trials", type=int, default=200)
    p_ratio.add_argument("--seed", type=int, default=0)
    p_ratio.add_argument("--n-max", type=int, default=14)
    p_ratio.add_argument("--even", action="store_true", help="even-only firefighter sequences")
    p_ratio.set_defaults(func=cmd_ratio)

    p_adv = sub.add_parser("adversary", help="adaptive tadpole lower-bound run")
    p_adv.add_argument("--alg", choices=algs, required=True)
    p_adv.add_argument("--beta", type=int, required=True)
    p_adv.set_defaults(func=cmd_adversary)

    p_gen = sub.add_parser("gen", help="write an instance file")
    p_gen.add_argument(
        "generator", choices=("tadpole", "alge-tight", "tree", "one-almost-tree", "cactus")
    )
    p_gen.add_argument("--alpha", type=int, default=10)
    p_gen.add_argument("--beta", type=int, default=3)
    p_gen.add_argument("--n", type=int, default=12)
    p_gen.add_argument("--cycle-fraction", type=float, default=0.5)
    p_gen.add_argument("--max-cycle-len", type=int, default=6)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--seq", default="", help="firefighter sequence, e.g. '1,0,2'")
    p_gen.add_argument("--out", help="output path (default: print to stderr)")
    p_gen.set_defaults(func=cmd_gen)

    p_chk = sub.add_parser("check-lemmas", help="run randomized property suites")
    p_chk.add_argument("--suite", default="all", help="suite name or 'all'")
    p_chk.add_argument("--trials", type=int, default=1000)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--out", help="counterexample output path")
    p_chk.set_defaults(func=cmd_check_lemmas)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING, format="%(levelname)s %(message)s")
    try:
        return args.func(args)
    except SearchBudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (
        BadParamsError,
        ParseError,
        GraphTooLargeError,
        AlgorithmError,
        GameError,
        GraphError,
        OSError,
        ValueError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
