import gc
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from firefight.engine import Instance
from firefight.fileformat import (
    FORMAT_VERSION,
    ParseError,
    UnknownVersionError,
    parse_instance,
    serialize_instance,
)
from firefight.graph import Graph
from firefight.instances import random_cactus, random_sequence


GOLDEN = """version 1
name tiny ring
n 4
root 0
edges 4
0 1
0 2
0 3
1 2
sequence 1 2
"""


def tiny_ring():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    return Instance(g, (1, 2), name="tiny ring")


def test_serialize_golden():
    assert serialize_instance(tiny_ring()) == GOLDEN
    assert FORMAT_VERSION == 1


def test_parse_golden():
    inst = parse_instance(GOLDEN)
    assert inst.name == "tiny ring"
    assert inst.sequence == (1, 2)
    assert inst.graph.adjacency == tiny_ring().graph.adjacency
    assert inst.graph.root == 0


def test_parse_ignores_comments_and_blank_lines():
    text = (
        "# instance file\n\nversion 1\n  # indented comment\nn 2\nroot 1\n"
        "edges 1\n0 1   # the only edge\n\nsequence 1\n"
    )
    inst = parse_instance(text)
    assert inst.graph.n == 2
    assert inst.graph.root == 1
    assert inst.name is None
    assert inst.sequence == (1,)


def test_parse_empty_sequence_allowed():
    inst = parse_instance("version 1\nn 2\nroot 0\nedges 1\n0 1\nsequence\n")
    assert inst.sequence == ()


@given(st.integers(3, 14), st.integers(0, 2**20))
def test_round_trip(n, seed):
    g = random_cactus(n, 0.5, 6, seed)
    inst = Instance(g, random_sequence(3, 5, False, seed), name=f"rt-{seed}")
    back = parse_instance(serialize_instance(inst))
    assert back.graph.n == g.n
    assert back.graph.root == g.root
    assert back.graph.adjacency == g.adjacency
    assert back.sequence == inst.sequence
    assert back.name == inst.name


_HEAD = "version 1\nn 2\nroot 0\nedges 1\n"
_HEAD3 = "version 1\nn 3\nroot 0\nedges 3\n"


@pytest.mark.parametrize(
    "text, line, column, message, error",
    [
        ("", 1, 1, "missing 'version' line", ParseError),
        ("version 1\nname x\n", 2, 1, "missing 'n' line", ParseError),
        (_HEAD + "0 1\n", 5, 1, "missing 'sequence' line", ParseError),
        (
            "n 2\nroot 0\nedges 1\n0 1\nsequence 1\n",  # version missing
            1,
            1,
            "expected 'version', got 'n'",
            ParseError,
        ),
        (
            "version 1\nn 2\nroot 0\nedges 0\nfoo 1\n",
            5,
            1,
            "expected 'sequence', got 'foo'",
            ParseError,
        ),
        ("version 1 2\n", 1, 11, "'version' takes 1 value(s), got 2", ParseError),
        ("version\n", 1, 1, "'version' takes 1 value(s), got 0", ParseError),
        ("version 1\nn x\n", 2, 3, "n must be an integer, got 'x'", ParseError),
        # quoted with ascii(), so the bytes do not hang on the Unicode database
        ("version 1\nn \u1dfa\n", 2, 3, "n must be an integer, got '\\u1dfa'", ParseError),
        # int() alone reads each of these four as a number; the format
        # writes ASCII digits only
        ("version 1\nn \u0662\n", 2, 3, "n must be an integer, got '\\u0662'", ParseError),
        ("version 1\nn 1_0\n", 2, 3, "n must be an integer, got '1_0'", ParseError),
        (
            _HEAD + "0 \uff11\nsequence\n",
            5,
            3,
            "edge endpoint must be an integer, got '\\uff11'",
            ParseError,
        ),
        (
            _HEAD + "0 1\nsequence 1 0_1\n",
            6,
            12,
            "firefighter count must be an integer, got '0_1'",
            ParseError,
        ),
        (
            "version 1\nn 2\nroot 0\nedges x\n",
            4,
            7,
            "edge count must be an integer, got 'x'",
            ParseError,
        ),
        ("version 1\nn 0\n", 2, 3, "n must be >= 1", ParseError),
        (_HEAD + "0 1\nsequence -1\n", 6, 10, "firefighter count must be >= 0", ParseError),
        (
            "version 1\nname big\nn 1000001\n",
            3,
            3,
            "n 1000001 exceeds the limit of 1000000",
            ParseError,
        ),
        (
            "version 1\nn 2\nroot 5\nedges 1\n0 1\nsequence\n",
            3,
            6,
            "root 5 out of range for n=2",
            ParseError,
        ),
        # the sequence row is read as the missing second edge
        (
            "version 1\nn 2\nroot 0\nedges 2\n0 1\nsequence\n",
            6,
            1,
            "edge line needs exactly two vertex ids",
            ParseError,
        ),
        (_HEAD + "0 1 7\nsequence\n", 5, 5, "edge line needs exactly two vertex ids", ParseError),
        # an edge count no text can meet, past sys.maxsize
        (
            "version 1\nn 2\nroot 0\nedges 99999999999999999999\n0 1\nsequence\n",
            6,
            1,
            "edge line needs exactly two vertex ids",
            ParseError,
        ),
        (_HEAD + "0 7\nsequence\n", 5, 3, "vertex 7 out of range for n=2", ParseError),
        ("version 1\nname  # no value\nn 2\n", 2, 5, "'name' needs a value", ParseError),
        ("version 2\nn 2\n", 1, 9, "unsupported version 2", UnknownVersionError),
        (_HEAD + "0 1\nsequence 1\ntrailing\n", 7, 1, "unexpected extra line", ParseError),
        (_HEAD + "0 1\nsequence 1\n  # c\n  trailing\n", 8, 3, "unexpected extra line", ParseError),
        # graph complaints (like this self-loop) surface where the graph is built
        (_HEAD + "0 0\nsequence\n", 6, 1, "invalid graph: self-loop at 0", ParseError),
        # an error on any line wins over a graph complaint
        (
            _HEAD3 + "0 1\n1 1\n1 2\nsequence x\n",
            8,
            10,
            "firefighter count must be an integer, got 'x'",
            ParseError,
        ),
        (_HEAD3 + "0 1\n1 2\n1 0\nsequence 1\nextra\n", 9, 1, "unexpected extra line", ParseError),
        (_HEAD3 + "1 1\n0 1\n0 9\nsequence 1\n", 7, 3, "vertex 9 out of range for n=3", ParseError),
        # the graph complaint names the first faulty edge in file order
        (_HEAD3 + "0 1\n1 0\n2 2\nsequence 1\n", 8, 1, "invalid graph: duplicate edge (0, 1)", ParseError),
        (_HEAD3 + "2 2\n0 1\n1 0\nsequence 1\n", 8, 1, "invalid graph: self-loop at 2", ParseError),
        (_HEAD3 + "0 1\n1 2\n2 1\nsequence 1\n", 8, 1, "invalid graph: duplicate edge (1, 2)", ParseError),
        (
            "version 1\nname x\nn 3\nroot 0\nedges 4\n0 1\n1 2\n0 2\n2 1\nsequence 1\n",
            10,
            1,
            "invalid graph: duplicate edge (1, 2)",
            ParseError,
        ),
    ],
)
def test_parse_errors_carry_position(text, line, column, message, error):
    with pytest.raises(ParseError) as exc:
        parse_instance(text)
    assert type(exc.value) is error
    assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)
    assert str(exc.value) == f"line {line}, column {column}: {message}"


def test_parse_keeps_signed_ascii_integers():
    inst = parse_instance("version 1\nn +2\nroot -0\nedges 1\n0 +1\nsequence +3 2\n")
    assert (inst.graph.n, inst.graph.root, inst.sequence) == (2, 0, (3, 2))
    # a name or comment may hold what a number may not
    text = "version 1\nname my_ring \u0662\nn 2 # \u0662_\nroot 0\nedges 1\n0 1\nsequence 1\n"
    inst = parse_instance(text)
    assert (inst.name, inst.graph.n, inst.sequence) == ("my_ring \u0662", 2, (1,))


def test_parse_caps_the_vertex_count():
    # rejected on the n line, before any graph of that size is allocated
    with pytest.raises(ParseError) as exc:
        parse_instance("version 1\nname big\nn 1000001\nroot 0\nedges 0\nsequence\n")
    assert (exc.value.line, exc.value.column) == (3, 3)
    assert "1000000" in exc.value.message


def test_unknown_version():
    with pytest.raises(UnknownVersionError):
        parse_instance("version 2\nn 2\nroot 0\nedges 1\n0 1\nsequence\n")


def test_parse_rejects_disconnected_graph_with_position():
    text = "version 1\nn 4\nroot 0\nedges 2\n0 1\n2 3\nsequence 1\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_holds_little_beyond_what_it_keeps():
    # the parse streams its lines into the adjacency lists: its traced peak
    # stays within 3x the parsed instance (a list of every line, a row per
    # line, the edge list and a set of edge keys, all alive at once, came
    # to about 5.8x)
    inst = Instance(random_cactus(20000, 0.7, 50, 3), (1, 1, 2, 1))
    text = serialize_instance(inst)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parsed = parse_instance(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert parsed == inst
    assert peak - base <= 3 * (kept - base)


def test_serialize_holds_one_block_of_lines():
    """serialize_instance joins its edge lines a block of vertices at a
    time, so besides the text it holds one block's lines: its traced peak
    stays within 3 times the text's length.  A list of every line costs
    about 8 times (20,000 vertices, 21,000 edges)."""
    inst = Instance(random_cactus(20000, 0.7, 50, 3), (1, 1, 2, 1))
    gc.collect()
    tracemalloc.start()
    try:
        text = serialize_instance(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert parse_instance(text) == inst
    assert peak <= 3 * len(text), (peak, len(text))


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_line_numbers_run_on_across_blocks(end):
    # a file many times longer than the block the parser splits at once
    n = 20000
    inst = Instance(Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]), (1,))
    lines = serialize_instance(inst).split("\n")
    assert parse_instance(end.join(lines)) == inst
    lines[-3] = "5 x"  # the last edge line
    with pytest.raises(ParseError) as exc:
        parse_instance(end.join(lines))
    assert (exc.value.line, exc.value.column) == (len(lines) - 2, 3)


# every character besides LF and CR that str.splitlines() breaks at
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("brk", _OTHER_BREAKS)
def test_only_lf_and_cr_end_a_line(brk):
    # a comment runs past the character, and a line holding only it is blank
    text = f"version 1\n# note{brk}n 99\n{brk}\nn 3\nroot 0\nedges 2\n0 1\n1 2\nsequence 1\n"
    assert parse_instance(text).graph.n == 3
    with pytest.raises(ParseError) as exc:
        parse_instance(text.replace("root 0", "root 7"))
    assert (exc.value.line, exc.value.column) == (5, 6)
    # inside a line it separates tokens like a space
    assert parse_instance(text.replace("n 3", f"n{brk}3")).graph.n == 3


def test_cr_and_crlf_end_a_line():
    inst = parse_instance("version 1\rn 2\r\nroot 0\redges 1\r\n0 1\rsequence 1\r")
    assert (inst.graph.n, inst.sequence) == (2, (1,))
    with pytest.raises(ParseError) as exc:
        parse_instance("version 1\r\nn 2\rroot 5\n")
    assert (exc.value.line, exc.value.column) == (3, 6)


@pytest.mark.parametrize("brk", _OTHER_BREAKS)
def test_parse_refuses_a_line_break_inside_a_name(brk):
    # serialize_instance could not write such a name back
    with pytest.raises(ParseError) as exc:
        parse_instance(f"version 1\nname  a{brk}b\nn 2\nroot 0\nedges 1\n0 1\nsequence\n")
    assert (exc.value.line, exc.value.column) == (2, 8)
    assert exc.value.message == f"name holds the line break {ascii(brk)}"
    # at either end it is whitespace, which the name drops
    text = f"version 1\nname {brk}a b{brk}\nn 2\nroot 0\nedges 1\n0 1\nsequence\n"
    assert parse_instance(text).name == "a b"


@settings(max_examples=300)
@given(
    st.integers(0, 2**20),
    st.lists(st.tuples(st.integers(0, 99), st.sampled_from(_OTHER_BREAKS + "\r\n #")), max_size=4),
)
def test_what_parses_round_trips(seed, inserts):
    # characters dropped into a valid file, each at a share of its length
    inst = Instance(random_cactus(4, 0.5, 4, seed), (1, 2), name="a b")
    text = serialize_instance(inst)
    for share, ch in inserts:
        pos = share * (len(text) + 1) // 100
        text = text[:pos] + ch + text[pos:]
    try:
        parsed = parse_instance(text)
    except ParseError:
        return
    again = serialize_instance(parsed)
    assert serialize_instance(parse_instance(again)) == again


@pytest.mark.parametrize(
    "name",
    ["", " padded ", "with # mark", "two\nlines", "a\rb", "a\x0bb", "a\x1cb", "a\x85b", "a\u2028b"],
)
def test_serialize_rejects_unserializable_names(name):
    g = Graph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        serialize_instance(Instance(g, (1,), name=name))


def test_serialize_without_name_omits_the_row():
    g = Graph.from_edges(2, [(0, 1)])
    text = serialize_instance(Instance(g, (1,)))
    assert "name" not in text
    assert parse_instance(text).name is None
