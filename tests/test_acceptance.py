"""End-to-end acceptance gate.

One test per shipping criterion; each prints a single PASS/FAIL line with
the measured numbers and then asserts.  Run with ``pytest -s`` to see all
verdict lines, or check test outcomes directly.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction

from hypothesis import given, strategies as st  # noqa: F401  (kept for parity with suite style)

import oracles
from firefight.algorithms import AlgorithmKind, run_algorithm, within_bound
from firefight.engine import GameState, Instance, replay
from firefight.graph import covered_set
from firefight.instances import (
    alge_tight_witness_schedule,
    make_alge_tight,
    random_cactus,
    random_one_almost_tree,
    random_sequence,
    random_tree,
    tadpole_adversary_run,
)
from firefight.lemmas import run_suite
from firefight.optimum import solve_opt


def _verdict(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _exact_ratio(opt_value: int, alg_value: int) -> Fraction:
    if alg_value > 0:
        return Fraction(opt_value, alg_value)
    assert opt_value == 0, "algorithm saved nothing while the optimum saved something"
    return Fraction(1)


def test_criterion_1_adversary_forces_sqrt_n_ratio():
    t0 = time.perf_counter()
    bad = []
    for kind in (AlgorithmKind.ALG_A, AlgorithmKind.ALG_C, AlgorithmKind.ALG_E):
        for beta in range(2, 11):
            rep = tadpole_adversary_run(kind, beta)
            target = min(Fraction(beta), Fraction(beta * beta, beta + 1))
            if not (isinstance(rep.ratio, Fraction) and rep.ratio >= target):
                bad.append((kind.value, beta, str(rep.ratio)))
    elapsed = time.perf_counter() - t0
    _verdict(
        "adaptive tadpole adversary ratio >= min(beta, beta^2/(beta+1)) "
        "for all three strategies, beta 2..10",
        not bad and elapsed < 5.0,
        f"violations={bad or 'none'}, elapsed={elapsed:.2f}s (limit 5s)",
    )


def test_criterion_2_two_cycle_tightness():
    # (6b+10)/(2b+12) = 3 - 26/(2b+12) first reaches 2.69 at b = 36 (b = 35 gives 110/41)
    threshold = Fraction(269, 100)
    threshold_beta = 36
    rows = []
    ok = True
    previous = Fraction(0)
    for beta in (1, 4, 10, 20, threshold_beta):
        inst = make_alge_tight(beta)
        alg = run_algorithm(inst, AlgorithmKind.ALG_E).profit
        witness, _ = replay(inst, alge_tight_witness_schedule(beta))
        ratio = Fraction(witness, alg)
        good = (
            alg == 2 * beta + 12
            and witness == 6 * beta + 10
            and ratio == Fraction(6 * beta + 10, 2 * beta + 12)
            and previous < ratio < 3
        )
        row = f"beta={beta}: alg={alg}, witness={witness}, ratio={ratio}"
        if beta <= 4:
            # the witness is the exact optimum, so the ratio is OPT/ALG
            opt = solve_opt(inst, max_n=inst.graph.n).value
            good = good and opt == witness
            row += f", opt={opt}"
        if beta == threshold_beta:
            good = good and ratio >= threshold
        ok = ok and good
        previous = ratio
        rows.append(row)
    _verdict(
        "two-cycle family: strategy profit 2b+12, witness schedule 6b+10 "
        "(the optimum at b<=4), ratio (6b+10)/(2b+12) rising strictly below 3; "
        f"ratio >= {threshold} at b={threshold_beta}",
        ok,
        "; ".join(rows),
    )


def _random_even_cactus_instance(i: int) -> Instance:
    # biased toward dense cycles and quiet opening rounds; uniform draws
    # almost never separate the strategy from the optimum at this size
    rng = random.Random(1_000_003 * i + 17)
    n = rng.randint(10, 14)
    g = random_cactus(n, rng.uniform(0.5, 1.0), rng.randint(4, 6), rng.randrange(2**30))
    style = rng.randrange(4)
    if style == 0:
        seq = random_sequence(rng.randint(1, 3), rng.randint(2, 6), True, rng.randrange(2**30))
    elif style == 1:
        seq = (0,) + random_sequence(rng.randint(1, 2), rng.randint(2, 4), True, rng.randrange(2**30))
    elif style == 2:
        seq = (0, 2, 2)
    else:
        seq = (2, 0, 2)
    return Instance(g, seq)


def test_criterion_3_even_sequences_within_factor_three():
    t0 = time.perf_counter()
    worst = Fraction(0)
    bad = 0
    for i in range(200):
        inst = _random_even_cactus_instance(i)
        alg = run_algorithm(inst, AlgorithmKind.ALG_E).profit
        opt = solve_opt(inst).value
        ratio = _exact_ratio(opt, alg)
        worst = max(worst, ratio)
        if ratio > 3:
            bad += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        "even-only sequences on 200 random cacti (n<=14): exact optimum "
        "within factor 3 of the even-round strategy",
        bad == 0 and elapsed < 120.0,
        f"violations={bad}, max_ratio={float(worst):.3f}, elapsed={elapsed:.1f}s (limit 120s)",
    )


def test_criterion_4_sqrt_bounds_on_general_sequences():
    t0 = time.perf_counter()
    checks = []
    ok = True
    # the bounds are spelled out here, not read from the strategy table
    for kind, maker, label, bound in (
        (
            AlgorithmKind.ALG_A,
            lambda rng: random_one_almost_tree(rng.randint(4, 14), rng.randrange(2**30)),
            "one-almost trees vs 6*sqrt(n)+1",
            (6, 1),
        ),
        (
            AlgorithmKind.ALG_C,
            lambda rng: random_cactus(
                rng.randint(4, 14), rng.uniform(0.3, 0.9), 6, rng.randrange(2**30)
            ),
            "cacti vs 15*sqrt(n)+1",
            (15, 1),
        ),
    ):
        worst = 0.0
        bad = 0
        for i in range(200):
            rng = random.Random(7_368_787 * i + 29)
            g = maker(rng)
            seq = random_sequence(rng.randint(1, 4), rng.randint(0, 6), False, rng.randrange(2**30))
            inst = Instance(g, seq)
            alg = run_algorithm(inst, kind).profit
            opt = solve_opt(inst).value
            worst = max(worst, float(_exact_ratio(opt, alg)))
            if not within_bound(bound, g.n, opt, alg):
                bad += 1
        ok = ok and bad == 0
        checks.append(f"{label}: max_ratio={worst:.3f}, violations={bad}")
    elapsed = time.perf_counter() - t0
    _verdict(
        "square-root competitive bounds hold on 200+200 random instances "
        "(loose at this scale; empirical maxima recorded)",
        ok,
        "; ".join(checks) + f", elapsed={elapsed:.1f}s",
    )


def test_criterion_5_tree_greedy_two_competitive():
    worst = Fraction(0)
    bad = 0
    for i in range(200):
        rng = random.Random(9_176_141 * i + 3)
        g = random_tree(rng.randint(2, 14), rng.randrange(2**30))
        seq = random_sequence(rng.randint(1, 4), rng.randint(0, 6), False, rng.randrange(2**30))
        inst = Instance(g, seq)
        alg = run_algorithm(inst, AlgorithmKind.GREEDY_TREE).profit
        opt = solve_opt(inst).value
        ratio = _exact_ratio(opt, alg)
        worst = max(worst, ratio)
        if ratio > 2:
            bad += 1
    _verdict(
        "greedy baseline on 200 random trees: optimum within factor 2",
        bad == 0,
        f"violations={bad}, max_ratio={float(worst):.3f}",
    )


def test_criterion_6_structural_property_suites():
    named = (
        "neighbors-best",
        "break-quality",
        "improved-break-feasibility",
        "secured-break",
        "cooldown-quality",
        "nonredundant-normalize",
        "cycle-respecting",
    )
    t0 = time.perf_counter()
    failed = []
    for name in named:
        result = run_suite(name, trials=1000, seed=0)
        if not result.passed:
            failed.append(name)
    elapsed = time.perf_counter() - t0
    _verdict(
        "seven structural property suites at 1000 randomized trials each",
        not failed and elapsed < 180.0,
        f"failed={failed or 'none'}, elapsed={elapsed:.1f}s (limit 180s)",
    )


def test_criterion_7_oracle_equivalences():
    mismatches = {"covered": 0, "views": 0, "memo": 0}

    # covered sets against literal path enumeration on small cacti
    for i in range(500):
        rng = random.Random(4_001 * i + 1)
        n = rng.randint(3, 9)
        g = random_cactus(n, rng.uniform(0.2, 1.0), rng.randint(3, n), rng.randrange(2**30))
        pool = [v for v in range(n) if v != g.root]
        s = frozenset(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
        if covered_set(g, frozenset(), s) != oracles.covered_by_path_enumeration(
            g, frozenset(), s
        ):
            mismatches["covered"] += 1

    # random play scored twice: engine statuses vs contracted-view weights
    for i in range(500):
        rng = random.Random(6_007 * i + 5)
        n = rng.randint(3, 12)
        g = random_cactus(n, rng.uniform(0.2, 0.9), 6, rng.randrange(2**30))
        seq = random_sequence(rng.randint(1, 4), rng.randint(0, 5), False, rng.randrange(2**30))
        inst = Instance(g, seq)
        state = GameState(inst)
        while not state.is_finished():
            budget = inst.firefighters(state.round) if state.round <= len(seq) else 0
            for _ in range(budget):
                options = sorted(state.truly_available())
                if not options:
                    break
                state.protect(rng.choice(options))
            state.spread()
        schedule = tuple((t.round, t.vertex) for t in state.trace)
        if state.profit() != oracles.view_profit(inst, schedule):
            mismatches["views"] += 1

    # memoized search against the plain exponential walk
    for i in range(100):
        rng = random.Random(8_009 * i + 11)
        n = rng.randint(3, 10)
        g = random_cactus(n, rng.uniform(0.2, 0.9), 5, rng.randrange(2**30))
        seq = random_sequence(rng.randint(1, 3), rng.randint(1, 4), False, rng.randrange(2**30))
        inst = Instance(g, seq)
        fast = solve_opt(inst, use_memo=True)
        slow = solve_opt(inst, use_memo=False)
        if (fast.value, fast.schedule) != (slow.value, slow.schedule):
            mismatches["memo"] += 1

    total = sum(mismatches.values())
    _verdict(
        "oracle equivalences: covered-set path enumeration (500), "
        "view vs status scoring (500), memoized vs plain search (100)",
        total == 0,
        f"mismatches={mismatches}",
    )


def test_criterion_8_byte_identical_reruns():
    argv = [
        sys.executable,
        "-m",
        "firefight.cli",
        "ratio",
        "--alg",
        "alg-c",
        "--gen",
        "cactus",
        "--trials",
        "25",
        "--seed",
        "123",
        "--n-max",
        "12",
    ]
    first = subprocess.run(argv, capture_output=True, timeout=300)
    second = subprocess.run(argv, capture_output=True, timeout=300)
    ok = first.returncode == 0 and second.returncode == 0 and first.stdout == second.stdout
    _verdict(
        "two identical-seed harness runs emit byte-identical json-lines",
        ok,
        f"rc={first.returncode}/{second.returncode}, bytes={len(first.stdout)}",
    )
