"""Tests of the benchmark itself: tracing, wrapper removal, output checks.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every package module and class, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if mod is None or not name.startswith(tracing.PACKAGE):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type):
                for meth, raw in vars(value).items():
                    out[(name, attr, meth)] = raw
    return out


def _run_main(args, capsys) -> tuple[dict, dict]:
    assert run.main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_every_wrapper_is_removed_after_tracing():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = tracing.leftover_wrappers()
        # the defining module and the modules that imported the name
        for name in ("firefight.graph.covered_set", "firefight.algorithms.covered_set",
                     "firefight.lemmas.solve_opt", "firefight.cli.run_algorithm",
                     "firefight.graph.Graph.from_edges", "firefight.engine.GameState.spread"):
            assert name in wrapped
    finally:
        tracer.uninstall()
    assert tracing.leftover_wrappers() == []
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_traced_wall(tmp_path):
    wl = workloads.long_burn(0, workloads.InstanceStore(tmp_path))
    ops = wl.ops[:12]
    tracer = tracing.Tracer()
    loop = run.Loop()
    tracer.install()
    try:
        loop.replay(ops, lambda op, out: True)  # checks would call traced functions
    finally:
        tracer.uninstall()
    wall = loop.wall()
    self_sum = tracer.self_total_s()
    # every op is one traced call, so self times telescope to the op's span;
    # what is left is the wrapper and loop overhead outside the top span
    assert self_sum <= wall
    assert self_sum >= 0.97 * wall
    assert sum(tracer.calls) == len({sid for _, sid, _, _, _ in tracer.spans})
    tops = [s for s in tracer.spans if s[2] == -1]
    assert len(tops) == len(ops)


def test_traced_run_reports_every_per_layer_metric(capsys):
    detail, result = _run_main(
        ["--workload", "lemma-suites", "--seed", "3", "--seconds", "0.5", "--trace", "1"], capsys)
    assert result["correct"] and result["failed"] == 0
    want = {name for name, _ in tracing.metric_names()}
    assert set(result["metrics"]) == want
    traced = detail["traced"]
    assert traced["ops_self_s"] <= traced["traced_wall_s"]
    assert traced["ops_self_s"] >= 0.9 * traced["traced_wall_s"]
    assert tracing.leftover_wrappers() == []


def test_corrupted_digest_makes_failed_ops_frac_positive(tmp_path, monkeypatch, capsys):
    expected = json.loads(run.EXPECTED.read_text())
    wl = workloads.lemma_suites(run.DEFAULT_SEED, workloads.InstanceStore(tmp_path))
    victim = wl.ops[0].id  # the first op the run makes
    expected["lemma-suites"][victim] = "corrupted"
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    monkeypatch.setattr(run, "EXPECTED", corrupted)
    monkeypatch.setattr(run, "SETUP_CHILDREN", 0)
    detail, result = _run_main(
        ["--workload", "lemma-suites", "--seed", "0", "--seconds", "0.5", "--trace", "0"], capsys)
    assert detail["failed_ops_frac"] > 0
    assert result["failed"] > 0 and not result["correct"]
    assert result["metrics"]["ok_ops_frac"]["value"] < 1
    assert any(f["op"] == victim for f in detail["failures"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_default_seed_matches_stored_digests(workload, tmp_path):
    wl = workloads.BY_NAME[workload](run.DEFAULT_SEED, workloads.InstanceStore(tmp_path))
    verify = run.Verifier(run._load_expected(workload))
    loop = run.Loop()
    ops = wl.ops
    loop.replay(ops, verify)
    assert verify.failures == []
    assert verify.digests_compared == len(ops)


def test_speed_scale_of_each_op_is_that_of_the_samples_near_it():
    meter = speed.Meter()
    ref = speed.REF_KERNEL_S
    # the machine halves its speed after the sixth op; a median of five
    # nearby samples follows the switch and ignores a single outlier
    meter.samples.extend([ref] * 6 + [2 * ref] * 6)
    meter.samples[2] = 50 * ref
    meter.after_op.extend(range(1, 13))
    scales = meter.scales(14)
    assert scales == [1.0] * 6 + [0.5] * 8
    assert speed.Meter().scales(3) == [1.0] * 3


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "lemma-suites", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
