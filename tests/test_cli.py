import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import firefight
from firefight import algorithms, cli, graph, lemmas
from firefight.algorithms import within_bound
from firefight.cli import main
from firefight.engine import Instance
from firefight.fileformat import parse_instance
from firefight.graph import GraphClass
from firefight.instances import make_tadpole
from firefight.lemmas import SUITES, SuiteResult


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


def test_counterexample_file_is_an_instance_file(capsys, monkeypatch, tmp_path):
    inst = Instance(make_tadpole(4, 2), (1, 0, 1))
    detail = "a failure made up for this test\nover two lines"

    def failing(trials, seed):
        return SuiteResult("count-monotone", 1, 1, 1, lemmas._describe(inst, detail))

    monkeypatch.setitem(SUITES, "count-monotone", failing)
    path = tmp_path / "counterexample.txt"
    code, out, _ = run_cli(
        capsys, "check-lemmas", "--suite", "count-monotone", "--out", str(path)
    )
    assert code == 1
    (rec,) = records(out)
    assert (rec["passed"], rec["counterexample"]) == (False, str(path))
    text = path.read_text()
    assert text.startswith("# a failure made up for this test\n# over two lines\nversion 1\n")
    assert parse_instance(text) == inst
    code, out, _ = run_cli(capsys, "run", "--instance", str(path), "--alg", "alg-c")
    assert code == 0
    assert records(out)[0]["n"] == inst.graph.n


def test_every_failing_suite_keeps_its_counterexample(capsys, monkeypatch, tmp_path):
    """With several suites, ``--out F`` writes each failing suite's
    counterexample beside F, the suite's name before its extension, and
    names that file in the suite's record."""
    made = {
        "count-monotone": Instance(make_tadpole(4, 2), (1, 0, 1)),
        "neighbors-best": Instance(make_tadpole(5, 3), (2,)),
    }
    for name, inst in made.items():
        result = SuiteResult(name, 1, 1, 1, lemmas._describe(inst, f"{name} made up"))
        monkeypatch.setitem(SUITES, name, lambda trials, seed, result=result: result)
    path = tmp_path / "ce.txt"
    code, out, _ = run_cli(capsys, "check-lemmas", "--trials", "2", "--out", str(path))
    assert code == 1
    failed = {rec["suite"]: rec["counterexample"] for rec in records(out) if not rec["passed"]}
    assert failed == {name: str(tmp_path / f"ce-{name}.txt") for name in made}
    for name, inst in made.items():
        assert parse_instance((tmp_path / f"ce-{name}.txt").read_text()) == inst
    assert not path.exists()
    assert len(records(out)) == len(SUITES) == 16


def test_failing_suite_without_out_writes_in_the_working_directory(capsys, monkeypatch, tmp_path):
    """Without ``--out`` a failing suite's counterexample goes to
    counterexample-<suite>.txt in the working directory."""
    inst = Instance(make_tadpole(4, 2), (1, 0, 1))
    result = SuiteResult("count-monotone", 1, 1, 1, lemmas._describe(inst, "made up"))
    monkeypatch.setitem(SUITES, "count-monotone", lambda trials, seed: result)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "check-lemmas", "--suite", "count-monotone")
    assert code == 1
    (rec,) = records(out)
    assert (rec["passed"], rec["counterexample"]) == (False, "counterexample-count-monotone.txt")
    assert parse_instance((tmp_path / rec["counterexample"]).read_text()) == inst


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


@pytest.mark.parametrize(
    "seq, message",
    [
        # quoted with ascii(), so the bytes do not hang on the Unicode database
        ("1,\u1dfa", "error: bad sequence '1,\\u1dfa'\n"),
        # int() alone reads these as 2 and 10
        ("1,\u0662", "error: bad sequence '1,\\u0662'\n"),
        ("1_0", "error: bad sequence '1_0'\n"),
        ("1,x", "error: bad sequence '1,x'\n"),
        # parsed, but a count is negative
        ("1,-1", "error: firefighter counts must be nonnegative\n"),
    ],
)
def test_bad_sequence_is_quoted_in_ascii(capsys, seq, message):
    code, out, err = run_cli(capsys, "gen", "tadpole", "--alpha", "3", "--beta", "2", "--seq", seq)
    assert (code, out, err) == (2, "", message)


def test_signed_sequence_entries_still_parse(capsys, tmp_path):
    path = tmp_path / "signed.ff"
    code, _, _ = run_cli(
        capsys, "gen", "tadpole", "--alpha", "3", "--beta", "2", "--seq", "+1,0", "--out", str(path)
    )
    assert code == 0
    assert path.read_text().splitlines()[-1] == "sequence 1 0"


@pytest.mark.parametrize(
    "env, quoted",
    [
        # quoted with ascii(), so the bytes do not hang on the Unicode database
        ("\u1dfa", "'\\u1dfa'"),
        # int() alone reads these as 10 and 3
        ("1_0", "'1_0'"),
        ("\u0663", "'\\u0663'"),
    ],
)
def test_bad_node_budget_is_quoted_in_ascii(capsys, monkeypatch, tadpole_file, env, quoted):
    monkeypatch.setenv("FIREFIGHT_NODE_BUDGET", env)
    code, out, err = run_cli(capsys, "opt", "--instance", str(tadpole_file))
    assert (code, out) == (2, "")
    assert err == f"error: FIREFIGHT_NODE_BUDGET must be an integer, got {quoted}\n"


@pytest.mark.parametrize(
    "env, code, message",
    [
        ("-1", 2, "FIREFIGHT_NODE_BUDGET must be at least 0, got -1"),
        # a budget of 0 is valid and runs out at the first node
        ("0", 3, "node budget 0 exhausted"),
    ],
)
def test_node_budget_below_one(capsys, monkeypatch, env, code, message):
    monkeypatch.setenv("FIREFIGHT_NODE_BUDGET", env)
    got = run_cli(capsys, "adversary", "--alg", "alg-e", "--beta", "3")
    assert got == (code, "", f"error: {message}\n")


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
def test_one_chord_walk_per_command(capsys, monkeypatch, tadpole_file, command):
    """The game walks the instance's chords once, which gives its dominator
    tree too, and nothing is canonicalized: the game plays on the chord
    walk, and its breaks decide on its residual game, not on a decomposed
    view."""
    walks, decompositions = [], []
    walk = graph.fundamental_cycles
    decompose = graph.validate_and_decompose

    def walk_spy(g):
        walks.append(g)
        return walk(g)

    def decompose_spy(g):
        decompositions.append(g)
        return decompose(g)

    monkeypatch.setattr(algorithms, "fundamental_cycles", walk_spy)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "firefight" and hasattr(module, "validate_and_decompose"):
            monkeypatch.setattr(module, "validate_and_decompose", decompose_spy)
    code, out, _ = run_cli(capsys, command[0], "--instance", str(tadpole_file), *command[1:])
    assert code == 0
    assert records(out)[0]["class"] == "one-almost-tree"
    assert len(walks) == 1 and walks[0].n == 14
    assert decompositions == []


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


def test_adversary_beyond_the_solver_bitmasks_is_refused_at_once(capsys):
    # beta = 600 asks for a tadpole of 360602 vertices, under MAX_VERTICES,
    # whose exact solve would need gigabytes of bitmasks
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "adversary", "--alg", "alg-c", "--beta", "600")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "bitmasks" in err and err.count("\n") == 1


def test_ratio_n_max_beyond_the_solver_is_refused_before_any_draw(capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(cli, "_gen_trial_instance", lambda *a: drawn.append(a))
    code, out, err = run_cli(
        capsys, "ratio", "--gen", "tree", "--alg", "alg-c", "--n-max", "40", "--trials", "5"
    )
    assert (code, out, drawn) == (2, "", [])
    assert err.startswith("error: ") and "--n-max" in err and err.count("\n") == 1


@pytest.mark.parametrize("n_max", ["2", "-5"])
def test_ratio_n_max_below_the_smallest_instance_is_refused(capsys, monkeypatch, n_max):
    # every generated instance has at least 3 vertices, so a lower --n-max
    # would rate 3-vertex instances without a word
    drawn = []
    monkeypatch.setattr(cli, "_gen_trial_instance", lambda *a: drawn.append(a))
    code, out, err = run_cli(
        capsys, "ratio", "--gen", "tree", "--alg", "alg-c", "--n-max", n_max, "--trials", "5"
    )
    assert (code, out, drawn) == (2, "", [])
    assert err.startswith("error: ") and f"--n-max {n_max} " in err and err.count("\n") == 1


def test_ratio_n_max_at_the_smallest_instance_runs(capsys):
    code, out, _ = run_cli(
        capsys, "ratio", "--gen", "tree", "--alg", "alg-c", "--n-max", "3", "--trials", "2"
    )
    assert code == 0 and [r["n"] for r in records(out)[:2]] == [3, 3]


def test_ratio_needs_an_instance_or_a_generator(capsys):
    code, out, err = run_cli(capsys, "ratio", "--alg", "alg-c")
    assert (code, out, err) == (2, "", "error: ratio needs --instance or --gen\n")


def test_ratio_refuses_an_instance_with_a_generator(capsys, tadpole_file):
    # --gen, --trials, --seed, --n-max and --even would be dropped in silence
    code, out, err = run_cli(
        capsys, "ratio", "--instance", str(tadpole_file), "--gen", "tree", "--alg", "alg-c"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "--instance" in err and "--gen" in err
    assert err.count("\n") == 1


def test_ratio_gen_options_at_their_defaults_change_nothing(capsys):
    base = ("ratio", "--gen", "tree", "--alg", "alg-a", "--trials", "3")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0 and len(records(out)) == 4
    again = run_cli(capsys, *base, "--seed", "0", "--n-max", "14")
    assert again == (code, out, "")


# the first argv of each path of ratio and gen; a test runs it in the
# directory of the tadpole_file fixture, where "tadpole.ff" is that file
_PATH_ARGV = {
    ("ratio", "--instance"): ["ratio", "--instance", "tadpole.ff", "--alg", "alg-c"],
    ("ratio", "--gen"): ["ratio", "--gen", "tree", "--alg", "alg-a"],
    **{("gen", g): ["gen", g] for g in cli._READS["gen"]},
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _given_at(name, default):
    return [_flag(name)] if isinstance(default, bool) else [_flag(name), str(default)]


def _refusal_cases():
    """(argv, flag): each option of ratio and gen given to each path that
    does not read it, at the default of a path that does (a sample value
    for one without default), then commands written out in full."""
    samples = {"instance": "tadpole.ff", "gen": "tree"}
    cases = []
    for command, paths in cli._READS.items():
        defaults = {}
        for reads in paths.values():
            for name, default in reads.items():
                defaults.setdefault(name, samples.get(name) if default is None else default)
        for path, reads in paths.items():
            argv = _PATH_ARGV[command, path] + (["--out", "o.ff"] if command == "gen" else [])
            cases += [
                (argv + _given_at(name, default), _flag(name))
                for name, default in defaults.items()
                if name not in reads
            ]
    written_out = [
        ("gen tadpole --alpha 5 --beta 2 --n 50 --seed 3 --cycle-fraction 0.9 --seq 1", "--n"),
        ("gen tree --n 6 --alpha 99 --beta 7", "--alpha"),
        ("ratio --instance tadpole.ff --alg alg-c --trials 0", "--trials"),
        ("ratio --instance tadpole.ff --alg alg-c --seed 4", "--seed"),
        ("ratio --instance tadpole.ff --alg alg-c --n-max 99", "--n-max"),
        ("gen alge-tight --beta 2 --seq 1,1 --out o.ff", "--seq"),
    ]
    cases += [(argv.split(), flag) for argv, flag in written_out]
    return [pytest.param(argv, flag, id=shlex.join(argv)) for argv, flag in cases]


@pytest.mark.parametrize("argv, flag", _refusal_cases())
def test_unread_option_is_refused(capsys, monkeypatch, tadpole_file, argv, flag):
    # a dropped option would leave a run that ignores what it was given
    monkeypatch.chdir(tadpole_file.parent)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert re.search(re.escape(flag) + r"(?![\w-])", err), err
    assert not Path("o.ff").exists()


def _default_cases():
    """(argv, option argv): each option of each path of ratio and gen given
    at its default; --even's default, off, cannot be given."""
    cases = []
    for (command, path), argv in _PATH_ARGV.items():
        for name, default in cli._READS[command][path].items():
            if default is not None and not isinstance(default, bool):
                given = _given_at(name, default)
                cases.append(pytest.param(argv, given, id=shlex.join(argv + given)))
    return cases


@pytest.mark.parametrize("argv, given", _default_cases())
def test_option_at_its_default_changes_nothing(capsys, monkeypatch, tadpole_file, argv, given):
    monkeypatch.chdir(tadpole_file.parent)
    left_out = run_cli(capsys, *argv)
    assert left_out[0] == 0 and left_out[1]
    assert run_cli(capsys, *argv, *given) == left_out


def test_gen_alge_tight_writes_its_own_sequence(capsys, tmp_path):
    path = tmp_path / "tight.ff"
    code, out, _ = run_cli(capsys, "gen", "alge-tight", "--beta", "2", "--out", str(path))
    assert code == 0 and records(out)[0]["sequence"] == [2, 0, 0, 0, 4]


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
