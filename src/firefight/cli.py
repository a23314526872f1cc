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
import functools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction

from .algorithms import AlgorithmError, AlgorithmKind, run_algorithm, within_bound
from .engine import GameError, Instance
from .fileformat import parse_instance, parse_int, serialize_instance
from .graph import GraphError
from .instances import (
    BadParamsError,
    make_alge_tight,
    make_tadpole,
    random_cactus,
    random_instance,
    random_one_almost_tree,
    random_tree,
    tadpole_adversary_run,
    trial_seed,
)
from .lemmas import SUITES, run_suite
from .optimum import (
    DEFAULT_MAX_N,
    DEFAULT_NODE_BUDGET,
    GraphTooLargeError,
    SearchBudgetExceededError,
    solve_opt,
)

BUDGET_ENV = "FIREFIGHT_NODE_BUDGET"


def _emit(args, record: dict) -> None:
    """Print ``record`` as one JSON line; in table mode also keep it as a
    row of its type's table, with the wall time since the previous record
    (or since the command started) as ``runtime_ms``."""
    sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
    if args.format == "table":
        now = time.perf_counter()
        row = {k: v for k, v in record.items() if k != "record"}
        row["runtime_ms"] = f"{(now - args.t_last) * 1000:.1f}"
        args.t_last = now
        args.tables.setdefault(record["record"], []).append(row)


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
            budget = parse_int(env)
        except ValueError:
            raise BadParamsError(f"{BUDGET_ENV} must be an integer, got {ascii(env)}")
        if budget < 0:
            raise BadParamsError(f"{BUDGET_ENV} must be at least 0, got {budget}")
        return budget
    return DEFAULT_NODE_BUDGET


def _load_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def cmd_run(args) -> int:
    inst = _load_instance(args.instance)
    kind = AlgorithmKind(args.alg)
    result = run_algorithm(inst, kind)
    _emit(
        args,
        {
            "record": "run",
            "name": inst.name or "",
            "n": inst.graph.n,
            "class": result.graph_class.value,
            "alg": kind.value,
            "profit": result.profit,
            "trace": [[t.round, t.vertex] for t in result.trace],
        },
    )
    return 0


def cmd_opt(args) -> int:
    inst = _load_instance(args.instance)
    result = solve_opt(inst, node_budget=_node_budget())
    _emit(
        args,
        {
            "record": "opt",
            "name": inst.name or "",
            "n": inst.graph.n,
            "value": result.value,
            "schedule": [[r, v] for r, v in result.schedule],
            "nodes": result.nodes_explored,
        },
    )
    return 0


def _ratio_row(inst: Instance, kind: AlgorithmKind, budget: int) -> dict:
    result = run_algorithm(inst, kind)
    alg_profit = result.profit
    opt = solve_opt(inst, node_budget=budget, reached=alg_profit)
    # every strategy protects while the fire can still spread, so ALG = 0
    # only when OPT = 0 too
    ratio = float(Fraction(opt.value, alg_profit)) if alg_profit else 1.0
    terms = kind.bound_for(inst.sequence)
    bound = None if terms is None else terms[0] * math.sqrt(inst.graph.n) + terms[1]
    return {
        "record": "ratio",
        "name": inst.name or "",
        "n": inst.graph.n,
        "class": result.graph_class.value,
        "alg": kind.value,
        "alg_profit": alg_profit,
        "opt_profit": opt.value,
        "ratio": ratio,
        "bound": bound,
        "bound_satisfied": (
            terms is None or within_bound(terms, inst.graph.n, opt.value, alg_profit)
        ),
    }


# the fewest vertices a generated trial instance has
_TRIAL_MIN_N = 3


def _gen_trial_instance(gen: str, rng_seed: int, n_max: int, even: bool) -> Instance:
    inst = random_instance(random.Random(rng_seed), gen, _TRIAL_MIN_N, n_max, even)
    return dataclasses.replace(inst, name=f"{gen}-{rng_seed}")


# The options each path of ratio and gen reads, with their defaults (None:
# none).  The parser leaves every option of both commands None, and
# _read_options fills in the chosen path's defaults and refuses any other
# option of its command that was given, even at another path's default.
_READS = {
    "ratio": {
        "--instance": {"instance": None, "alg": None},
        "--gen": {"gen": None, "alg": None, "trials": 200, "seed": 0, "n_max": 14, "even": False},
    },
    "gen": {
        "tadpole": {"alpha": 10, "beta": 3, "seq": "", "out": None},
        "alge-tight": {"beta": 3, "out": None},
        "tree": {"n": 12, "seed": 0, "seq": "", "out": None},
        "one-almost-tree": {"n": 12, "seed": 0, "seq": "", "out": None},
        "cactus": {"n": 12, "cycle_fraction": 0.5, "max_cycle_len": 6, "seed": 0, "seq": "", "out": None},
    },
}


def _read_options(args, command: str, path: str) -> None:
    reads = _READS[command][path]
    for options in _READS[command].values():
        for name in options:
            if name not in reads and getattr(args, name) is not None:
                raise BadParamsError(f"{command} {path} takes no --{name.replace('_', '-')}")
    for name, default in reads.items():
        if getattr(args, name) is None:
            setattr(args, name, default)


def _check_trials(args) -> None:
    if args.trials < 1:
        raise BadParamsError(f"--trials must be at least 1, got {args.trials}")


def _check_n_max(args) -> None:
    if args.n_max < _TRIAL_MIN_N:
        raise BadParamsError(
            f"--n-max {args.n_max} is below {_TRIAL_MIN_N},"
            " the fewest vertices a generated instance has"
        )
    if args.n_max > DEFAULT_MAX_N:
        raise BadParamsError(
            f"--n-max {args.n_max} is above the exact solver's limit of {DEFAULT_MAX_N} vertices"
        )


def cmd_ratio(args) -> int:
    budget = _node_budget()
    kind = AlgorithmKind(args.alg)
    if args.instance is not None and args.gen is not None:
        raise BadParamsError("ratio takes --instance or --gen, not both")
    if args.instance is not None:
        _read_options(args, "ratio", "--instance")
        instances = [_load_instance(args.instance)]
    elif args.gen is not None:
        _read_options(args, "ratio", "--gen")
        _check_trials(args)
        _check_n_max(args)
        # drawn one at a time, so memory does not grow with --trials
        instances = (
            _gen_trial_instance(args.gen, trial_seed(args.seed, i), args.n_max, args.even)
            for i in range(args.trials)
        )
    else:
        raise BadParamsError("ratio needs --instance or --gen")
    worst = 0.0
    trials = failures = 0
    for inst in instances:
        record = _ratio_row(inst, kind, budget)
        _emit(args, record)
        trials += 1
        worst = max(worst, record["ratio"])
        if not record["bound_satisfied"]:
            failures += 1
    if trials > 1:
        _emit(
            args,
            {
                "record": "ratio-summary",
                "alg": kind.value,
                "trials": trials,
                "max_ratio": worst,
                "bound_failures": failures,
            },
        )
    return 1 if failures else 0


def cmd_adversary(args) -> int:
    kind = AlgorithmKind(args.alg)
    report = tadpole_adversary_run(kind, args.beta, node_budget=_node_budget())
    ratio = report.ratio
    met = ratio >= report.bound
    _emit(
        args,
        {
            "record": "adversary",
            "alg": report.kind.value,
            "beta": report.beta,
            "case": report.case,
            "sequence": list(report.sequence),
            "alg_profit": report.alg_profit,
            "opt_profit": report.opt_profit,
            "ratio": float(ratio),
            "ratio_exact": f"{ratio.numerator}/{ratio.denominator}",
            "bound": float(report.bound),
            "bound_met": met,
        },
    )
    return 0 if met else 1


def _parse_seq(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    try:
        seq = tuple(parse_int(p) for p in parts)
    except ValueError:
        raise BadParamsError(f"bad sequence {ascii(text)}")
    if any(f < 0 for f in seq):
        raise BadParamsError("firefighter counts must be nonnegative")
    return seq


def cmd_gen(args) -> int:
    gen = args.generator
    _read_options(args, "gen", gen)
    seq = _parse_seq(args.seq or "")  # alge-tight writes its own
    if gen == "alge-tight":
        inst = make_alge_tight(args.beta)
    elif gen == "tadpole":
        g = make_tadpole(args.alpha, args.beta)
        inst = Instance(g, seq, name=f"tadpole-{args.alpha}-{args.beta}")
    else:
        if gen == "cactus":
            g = random_cactus(args.n, args.cycle_fraction, args.max_cycle_len, args.seed)
        else:
            g = {"tree": random_tree, "one-almost-tree": random_one_almost_tree}[gen](args.n, args.seed)
        inst = Instance(g, seq, name=f"{gen}-{args.n}-{args.seed}")
    text = serialize_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stderr.write(text)
    _emit(
        args,
        {
            "record": "gen",
            "generator": args.generator,
            "name": inst.name or "",
            "n": inst.graph.n,
            "edges": inst.graph.edge_count(),
            "sequence": list(inst.sequence),
            "out": args.out or "",
        },
    )
    return 0


def cmd_check_lemmas(args) -> int:
    _check_trials(args)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    failures = 0
    for name in names:
        result = run_suite(name, args.trials, args.seed)
        ce_path = ""
        if result.counterexample is not None:
            if not args.out:
                ce_path = f"counterexample-{name}.txt"
            elif len(names) > 1:  # one file per failing suite: ce.txt -> ce-<suite>.txt
                stem, ext = os.path.splitext(args.out)
                ce_path = f"{stem}-{name}{ext}"
            else:
                ce_path = args.out
            with open(ce_path, "w", encoding="utf-8") as fh:
                fh.write(result.counterexample)
            failures += 1
        _emit(
            args,
            {
                "record": "lemma-suite",
                "suite": name,
                "trials": result.trials,
                "checked": result.checked,
                "failures": result.failures,
                "passed": result.passed,
                "counterexample": ce_path,
            },
        )
    return 1 if failures else 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: argparse finds sys.stdout and sys.stderr when
    # it prints, not when it is built, so the tree is safe to reuse
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
    p_run.set_defaults(cmd=cmd_run.__name__)

    p_opt = sub.add_parser("opt", help="solve one instance exactly")
    p_opt.add_argument("--instance", required=True)
    p_opt.set_defaults(cmd=cmd_opt.__name__)

    p_ratio = sub.add_parser("ratio", help="competitive ratio against the exact optimum")
    p_ratio.add_argument("--instance")
    p_ratio.add_argument("--alg", choices=algs, required=True)
    p_ratio.add_argument("--gen", choices=("tree", "one-almost-tree", "cactus"))
    # the defaults of ratio's and gen's options are in _READS
    p_ratio.add_argument("--trials", type=int)
    p_ratio.add_argument("--seed", type=int)
    p_ratio.add_argument("--n-max", type=int)
    p_ratio.add_argument(
        "--even", action="store_true", default=None, help="even-only firefighter sequences"
    )
    p_ratio.set_defaults(cmd=cmd_ratio.__name__)

    p_adv = sub.add_parser("adversary", help="adaptive tadpole lower-bound run")
    p_adv.add_argument("--alg", choices=algs, required=True)
    p_adv.add_argument("--beta", type=int, required=True)
    p_adv.set_defaults(cmd=cmd_adversary.__name__)

    p_gen = sub.add_parser("gen", help="write an instance file")
    p_gen.add_argument("generator", choices=tuple(_READS["gen"]))
    p_gen.add_argument("--alpha", type=int)
    p_gen.add_argument("--beta", type=int)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--cycle-fraction", type=float)
    p_gen.add_argument("--max-cycle-len", type=int)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--seq", help="firefighter sequence, e.g. '1,0,2'")
    p_gen.add_argument("--out", help="output path (default: print to stderr)")
    p_gen.set_defaults(cmd=cmd_gen.__name__)

    p_chk = sub.add_parser("check-lemmas", help="run randomized property suites")
    p_chk.add_argument("--suite", default="all", help="suite name or 'all'")
    p_chk.add_argument("--trials", type=int, default=1000)
    p_chk.add_argument("--seed", type=int, default=0)
    p_chk.add_argument("--out", help="counterexample output path")
    p_chk.set_defaults(cmd=cmd_check_lemmas.__name__)

    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # table rows live on this call's args, so calls in one process share none
    args.tables, args.t_last = {}, time.perf_counter()
    try:
        # the parser keeps the command's name, not the function, and the
        # module is asked for it per call, so a replaced cmd_* is the one
        # that runs
        code = getattr(sys.modules[__name__], args.cmd)(args)
    except SearchBudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    # ValueError also covers BadParamsError, ParseError and UnknownSuiteError
    except (GraphTooLargeError, AlgorithmError, GameError, GraphError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    for rows in args.tables.values():  # one table per record type, first seen first
        _table(rows)
    return code


if __name__ == "__main__":
    sys.exit(main())
