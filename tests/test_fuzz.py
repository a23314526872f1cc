"""Fuzzing the input boundary: instance text and the CLI that reads it.

Any text must parse to an Instance or raise ParseError, and every CLI run
on a fuzzed file must end in a documented exit code with only JSON lines
on stdout.  Mutations act on whole lines and tokens of valid files, so the
examples reach past the first line of the parser.
"""

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import event, given, settings, strategies as st

from firefight import cli
from firefight.engine import Instance
from firefight.fileformat import ParseError, parse_instance, serialize_instance
from firefight.instances import random_instance

# numbers a mutation may write: small ids and counts, edge cases and the size cap
_NUMBERS = st.one_of(
    st.integers(-3, 30), st.sampled_from([10**6, 10**6 + 1, 2**31, 2**64, -(2**63)])
)
_JUNK = st.text(alphabet=st.characters(codec="utf-8"), max_size=12)


@st.composite
def valid_texts(draw):
    rng = random.Random(draw(st.integers(0, 2**30)))
    gen = draw(st.sampled_from(["tree", "one-almost-tree", "cactus"]))
    inst = random_instance(rng, gen, 3, draw(st.integers(3, 12)))
    name = draw(st.sampled_from([None, "fuzz", "a b"]))
    return serialize_instance(Instance(inst.graph, inst.sequence, name=name))


@st.composite
def mutated_texts(draw):
    """A valid file with a few line-level edits."""
    lines = draw(valid_texts()).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["drop", "dup", "swap", "insert", "token", "append", "junk"]))
        if op == "insert" or not lines:
            lines.insert(i, draw(st.sampled_from(["", "# c", "name x", "n 3", "0 1", "sequence 1"])))
            continue
        i = min(i, len(lines) - 1)
        if op == "drop":
            del lines[i]
        elif op == "dup":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            tokens = lines[i].split() or [""]
            k = draw(st.integers(0, len(tokens) - 1))
            tokens[k] = str(draw(_NUMBERS))
            lines[i] = " ".join(tokens)
        elif op == "append":
            lines[i] += " " + draw(st.one_of(_NUMBERS.map(str), _JUNK))
        else:
            lines[i] = draw(_JUNK)
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\r\n"]))


def _parses_or_refuses(text):
    try:
        assert isinstance(parse_instance(text), Instance)
    except ParseError:
        pass


@settings(max_examples=300)
@given(st.text(max_size=200))
def test_parse_any_text(text):
    _parses_or_refuses(text)


@settings(max_examples=300)
@given(mutated_texts())
def test_parse_mutated_files(text):
    _parses_or_refuses(text)


@settings(max_examples=150)
@given(
    st.one_of(mutated_texts(), valid_texts()),
    st.sampled_from(["run", "opt", "ratio"]),
    st.sampled_from(["greedy-tree", "alg-a", "alg-c", "alg-e"]),
)
def test_cli_on_fuzzed_files(text, command, alg):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ff")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = [command, "--instance", path] + (["--alg", alg] if command != "opt" else [])
        out, err = io.StringIO(), io.StringIO()
        # a small solver budget keeps opt fast; exceeding it must exit 3
        with mock.patch.dict(os.environ, {cli.BUDGET_ENV: "10"}):
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3), (code, err.getvalue())
    for line in out.getvalue().splitlines():
        assert isinstance(json.loads(line), dict)
    if code in (2, 3):
        assert out.getvalue() == "" and err.getvalue().splitlines()[-1].startswith("error: ")
