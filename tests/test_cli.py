import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import firefight
from firefight import algorithms, cli
from firefight.algorithms import within_bound
from firefight.cli import main
from firefight.graph import GraphClass


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def records(out):
    return [json.loads(line) for line in out.splitlines() if line]


@pytest.fixture
def tadpole_file(tmp_path, capsys):
    path = tmp_path / "tadpole.ff"
    code, out, _ = run_cli(
        capsys, "gen", "tadpole", "--alpha", "10", "--beta", "3",
        "--seq", "1,1", "--out", str(path),
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["record"] == "gen" and rec["n"] == 14
    return path


def test_run_command(capsys, tadpole_file):
    code, out, _ = run_cli(capsys, "run", "--instance", str(tadpole_file), "--alg", "alg-a")
    assert code == 0
    (rec,) = records(out)
    assert rec["record"] == "run"
    assert rec["profit"] == 9
    assert rec["trace"] == [[1, 1], [2, 9]]
    assert rec["class"] == "one-almost-tree"


def test_opt_command(capsys, tadpole_file):
    code, out, _ = run_cli(capsys, "opt", "--instance", str(tadpole_file))
    assert code == 0
    (rec,) = records(out)
    assert rec["record"] == "opt"
    assert rec["value"] == 9
    assert rec["schedule"] == [[1, 1], [2, 9]]


def test_ratio_single_instance(capsys, tadpole_file):
    code, out, _ = run_cli(capsys, "ratio", "--instance", str(tadpole_file), "--alg", "alg-e")
    assert code == 0
    (rec,) = records(out)
    assert rec["record"] == "ratio"
    assert rec["alg_profit"] == 4
    assert rec["opt_profit"] == 9
    assert rec["ratio"] == pytest.approx(2.25)
    assert rec["bound"] is None  # odd sequence: no proven constant for this one
    assert rec["bound_satisfied"] is True


def test_ratio_batch_summary_and_determinism(capsys):
    argv = ("ratio", "--alg", "alg-c", "--gen", "cactus", "--trials", "12",
            "--seed", "5", "--n-max", "10")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    recs = records(out1)
    assert len(recs) == 13
    summary = recs[-1]
    assert summary["record"] == "ratio-summary"
    assert summary["trials"] == 12
    assert summary["bound_failures"] == 0
    assert all(r["bound_satisfied"] for r in recs[:-1])


def test_adversary_frozen_record(capsys):
    code, out, _ = run_cli(capsys, "adversary", "--alg", "alg-e", "--beta", "4")
    assert code == 0
    (rec,) = records(out)
    assert rec == {
        "record": "adversary",
        "alg": "alg-e",
        "beta": 4,
        "case": 2,
        "sequence": [1, 1],
        "alg_profit": 5,
        "opt_profit": 16,
        "ratio": 3.2,
        "ratio_exact": "16/5",
        "bound": 3.2,
        "bound_met": True,
    }


def test_gen_file_round_trips(capsys, tmp_path):
    path = tmp_path / "c.ff"
    code, out, _ = run_cli(
        capsys, "gen", "cactus", "--n", "12", "--seed", "3", "--seq", "2 0 1",
        "--out", str(path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "run", "--instance", str(path), "--alg", "alg-c")
    assert code == 0
    (rec,) = records(out)
    assert rec["n"] == 12


def test_gen_without_out_prints_to_stderr(capsys):
    code, out, err = run_cli(capsys, "gen", "tree", "--n", "5", "--seed", "1")
    assert code == 0
    assert err.startswith("version 1\n")
    (rec,) = records(out)
    assert rec["out"] == ""


def test_check_lemmas_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "check-lemmas", "--suite", "count-monotone", "--trials", "10"
    )
    assert code == 0
    (rec,) = records(out)
    assert rec["record"] == "lemma-suite"
    assert rec["suite"] == "count-monotone"
    assert rec["passed"] is True
    assert rec["trials"] == 10
    assert rec["counterexample"] == ""


def test_check_lemmas_unknown_suite(capsys):
    code, out, err = run_cli(capsys, "check-lemmas", "--suite", "no-such-suite")
    assert code == 2
    assert out == ""
    assert "unknown suite" in err


def test_missing_instance_file(capsys):
    code, _, err = run_cli(capsys, "run", "--instance", "/no/such/file.ff", "--alg", "alg-a")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_instance_file(capsys, tmp_path):
    bad = tmp_path / "bad.ff"
    bad.write_text("version 1\nn 2\nroot 0\nedges 1\n0 0\nsequence\n")
    code, _, err = run_cli(capsys, "run", "--instance", str(bad), "--alg", "alg-a")
    assert code == 2
    assert "line 6" in err


def test_huge_vertex_count_is_refused_up_front(capsys, tmp_path):
    path = tmp_path / "huge.ff"
    path.write_text("version 1\nn 3000000\nroot 0\nedges 0\nsequence 1\n")
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "run", "--instance", str(path), "--alg", "alg-a")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("check-lemmas", "--suite", "count-monotone", "--trials", "-5"),
    ("check-lemmas", "--trials", "0"),
    ("ratio", "--alg", "alg-c", "--gen", "cactus", "--trials", "-3"),
    ("ratio", "--alg", "alg-a", "--gen", "tree", "--trials", "0"),
])
def test_trials_below_one_are_refused(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--trials" in err and err.count("\n") == 1


def test_ratio_gen_draws_one_instance_per_record(capsys, monkeypatch):
    log = []
    draw, row = cli._gen_trial_instance, cli._ratio_row
    monkeypatch.setattr(cli, "_gen_trial_instance", lambda *a: log.append("draw") or draw(*a))
    monkeypatch.setattr(cli, "_ratio_row", lambda *a: log.append("row") or row(*a))
    code, out, _ = run_cli(capsys, "ratio", "--alg", "alg-e", "--gen", "tree", "--trials", "4")
    assert code == 0 and len(records(out)) == 5
    assert log == ["draw", "row"] * 4


def test_wrong_class_is_reported(capsys, tmp_path):
    path = tmp_path / "two.ff"
    run_cli(capsys, "gen", "cactus", "--n", "14", "--seed", "11", "--seq", "1",
            "--out", str(path))
    code, _, err = run_cli(capsys, "run", "--instance", str(path), "--alg", "greedy-tree")
    assert code == 2
    assert "greedy-tree" in err


def test_node_budget_env(capsys, monkeypatch, tadpole_file):
    monkeypatch.setenv("FIREFIGHT_NODE_BUDGET", "3")
    code, _, err = run_cli(capsys, "opt", "--instance", str(tadpole_file))
    assert code == 3
    assert "budget" in err


def test_memo_cap_exits_3(capsys, monkeypatch, tadpole_file):
    monkeypatch.setattr("firefight.optimum.MAX_MEMO_ENTRIES", 2)
    code, out, err = run_cli(capsys, "opt", "--instance", str(tadpole_file))
    assert code == 3
    assert out == ""
    (line,) = err.splitlines()
    assert line.startswith("error:") and "memo" in line


def test_table_format_keeps_stdout_machine_readable(capsys, tadpole_file):
    code, out, err = run_cli(
        capsys, "--format", "table", "run", "--instance", str(tadpole_file),
        "--alg", "alg-a",
    )
    assert code == 0
    (rec,) = records(out)  # stdout stays pure json-lines
    assert rec["profit"] == 9
    assert "profit" in err  # the human table goes to stderr


@pytest.mark.parametrize("command", [("run", "--alg", "alg-a"), ("ratio", "--alg", "alg-e")])
def test_one_decomposition_per_command(capsys, monkeypatch, tadpole_file, command):
    calls = []
    decompose = algorithms.validate_and_decompose

    def spy(g):
        calls.append(g)
        return decompose(g)

    monkeypatch.setattr(algorithms, "validate_and_decompose", spy)
    if hasattr(cli, "validate_and_decompose"):
        monkeypatch.setattr(cli, "validate_and_decompose", spy)
    code, out, _ = run_cli(capsys, command[0], "--instance", str(tadpole_file), *command[1:])
    assert code == 0
    assert records(out)[0]["class"] == "one-almost-tree"
    assert len(calls) == 1


def _stderr_tables(err):
    """(header fields, row count) of every table on stderr, in order."""
    lines = err.splitlines()
    rules = [i for i, line in enumerate(lines) if line.startswith("-") and set(line) <= {"-", " "}]
    heads = [i - 1 for i in rules]
    ends = heads[1:] + [len(lines)]
    return [(lines[h].split(), e - h - 2) for h, e in zip(heads, ends)]


def test_table_lists_every_record_field(capsys):
    argv = ("ratio", "--gen", "tree", "--alg", "alg-a", "--trials", "3")
    plain = run_cli(capsys, *argv)
    table = run_cli(capsys, "--format", "table", *argv)
    again = run_cli(capsys, "--format", "table", *argv)
    assert table[:2] == plain[:2] == again[:2] and plain[2] == ""
    recs = records(plain[1])
    fields = [[k for k in rec if k != "record"] + ["runtime_ms"] for rec in recs]
    assert _stderr_tables(table[2]) == [(fields[0], 3), (fields[-1], 1)]
    assert _stderr_tables(again[2]) == _stderr_tables(table[2])  # no rows carried over


def test_ratio_gen_one_almost_tree_default_trials(capsys):
    # the generator draws n = 3 for some trials; those must not abort the run
    code, out, _ = run_cli(capsys, "ratio", "--gen", "one-almost-tree", "--alg", "alg-a")
    assert code == 0
    recs = records(out)
    assert len(recs) == 201
    assert recs[-1]["record"] == "ratio-summary"


def test_bound_check_is_exact():
    # 383120/40391 = 9.4852813746 lies just above 6*sqrt(2) + 1 = 9.4852813742,
    # inside the reach of a 1e-9 float tolerance
    assert not within_bound((6, 1), 2, 383120, 40391)
    assert within_bound((6, 1), 2, 383119, 40391)
    assert within_bound((0, 3), 5, 9, 3)
    assert not within_bound((0, 3), 5, 10, 3)
    assert not within_bound((15, 1), 9, 1, 0)


def test_generated_sizes_are_capped(capsys):
    # beta = 100000 asks for a tadpole of about 10^10 vertices
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "adversary", "--alg", "alg-c", "--beta", "100000")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    for argv in (
        ["tadpole", "--alpha", "1000000"],
        ["tadpole", "--beta", "1000000"],
        ["alge-tight", "--beta", "200000"],
        ["tree", "--n", "1000001"],
        ["one-almost-tree", "--n", "1000001"],
        ["cactus", "--n", "1000001"],
    ):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_ratio_n_max_beyond_the_solver_is_refused_before_any_draw(capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(cli, "_gen_trial_instance", lambda *a: drawn.append(a))
    code, out, err = run_cli(
        capsys, "ratio", "--gen", "tree", "--alg", "alg-c", "--n-max", "40", "--trials", "5"
    )
    assert (code, out, drawn) == (2, "", [])
    assert err.startswith("error: ") and "--n-max" in err and err.count("\n") == 1


def test_ratio_n_max_at_the_solver_limit_runs(capsys):
    code, out, _ = run_cli(
        capsys, "ratio", "--gen", "tree", "--alg", "alg-c", "--n-max", "30", "--trials", "2"
    )
    assert code == 0 and len(records(out)) == 3


def _session_commands(tmp_path):
    path = str(tmp_path / "t.ff")
    return [
        ["gen", "tadpole", "--alpha", "10", "--beta", "3", "--seq", "1,1", "--out", path],
        ["run", "--instance", path, "--alg", "alg-a"],
        ["opt", "--instance", path],
        ["ratio", "--instance", path, "--alg", "alg-e"],
        ["adversary", "--alg", "alg-c", "--beta", "5"],
        ["ratio", "--alg", "alg-a", "--gen", "tree", "--trials", "3", "--seed", "2"],
        ["run", "--instance", path, "--alg", "greedy-tree"],  # wrong class: exit 2
        ["gen", "tree", "--n", "6", "--seed", "4"],
    ]


def test_parser_is_built_once_per_process(capsys, monkeypatch, tmp_path):
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def spy(self, **kwargs):  # called once per build of the command tree
        builds.append(self)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", spy)
    cli._parser.cache_clear()
    try:
        for argv in _session_commands(tmp_path):
            run_cli(capsys, *argv)
    finally:
        cli._parser.cache_clear()
    assert len(builds) == 1


def test_repeated_calls_match_fresh_processes(capsys, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(firefight.__file__).resolve().parent.parent))
    in_process = [run_cli(capsys, *argv)[:2] for argv in _session_commands(tmp_path)]
    fresh = []
    for argv in _session_commands(tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "firefight", *argv], capture_output=True, text=True, env=env
        )
        fresh.append((proc.returncode, proc.stdout))
    assert in_process == fresh
    assert [code for code, _ in fresh] == [0, 0, 0, 0, 0, 0, 2, 0]


def test_usage_error_leaves_the_next_call_intact(capsys):
    argv = ("adversary", "--alg", "alg-e", "--beta", "4")
    first = run_cli(capsys, *argv)
    with pytest.raises(SystemExit) as exc:
        main(["adversary", "--alg", "alg-e", "--beta", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid int value" in captured.err
    assert run_cli(capsys, *argv) == first
    assert first[0] == 0 and first[2] == ""


def test_replaced_command_runs_after_a_first_call(capsys, monkeypatch, tadpole_file):
    argv = ("run", "--instance", str(tadpole_file), "--alg", "alg-a")
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli, "cmd_run", lambda args: 7)
    assert run_cli(capsys, *argv) == (7, "", "")


# sha256 over argv, exit code and stdout of the commands below: a changed
# byte of any record they print changes it
CLI_STDOUT_SHA256 = "633591f77c0c59a5cb4fbb206a754ae09927cb06d5884b7b8ab36e065461446c"


def test_cli_stdout_digest(capsys):
    common = ("--trials", "30", "--n-max", "12", "--seed", "1")
    commands = [
        ("ratio", "--gen", cls.value, "--alg", kind.value, *common)
        for cls in GraphClass
        for kind in algorithms.AlgorithmKind
        if kind.accepts(cls)
    ]
    commands.append(("ratio", "--gen", "cactus", "--alg", "alg-e", "--even", *common))
    commands += [
        ("adversary", "--alg", alg, "--beta", str(beta))
        for alg in ("alg-a", "alg-c", "alg-e")
        for beta in range(2, 7)
    ]
    commands.append(("check-lemmas", "--suite", "all", "--trials", "20"))
    assert len(commands) == 26
    h = hashlib.sha256()
    for argv in commands:
        code, out, _ = run_cli(capsys, *argv)
        h.update(repr((argv, code, out)).encode())
    assert h.hexdigest() == CLI_STDOUT_SHA256


# sha256 of ``check-lemmas --suite all --trials 300`` stdout: all 16 suites'
# records, pinned across changes to the strategies, the solver and the engine
CHECK_LEMMAS_SHA256 = "81398a001eb9445916040f620ddbd3e060532012abe3a09088ac4adae4384774"


def test_check_lemmas_stdout_digest(capsys):
    code, out, _ = run_cli(capsys, "check-lemmas", "--suite", "all", "--trials", "300")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_LEMMAS_SHA256
