"""Plain-text instance files.

Grammar (one directive per line, fixed order, '#' starts a comment,
blank lines ignored):

    version 1
    name <free text>          # optional
    n <vertex count>
    root <vertex id>
    edges <edge count>
    <u> <v>                   # repeated exactly <edge count> times
    sequence <f1> <f2> ...    # possibly no numbers at all

Vertex ids are 0-based.  parse_instance(serialize_instance(x)) == x.
A line ends only at LF, CR LF or CR, the ends open() translates, so a
comment runs to one of them; a name may hold no other character that
str.splitlines() breaks at.

The parser reads the text in one pass, a line at a time, as
whitespace-separated tokens, and puts each edge straight onto the
adjacency lists: besides those lists it holds only the lines of one block
of text.  A self-loop or duplicate edge shows on the finished graph, and
only then are the edge lines read again, to name the first one.  Any
error on a line wins over an invalid graph.  The parser works out a
column only when it raises a ParseError.  Lines and columns count from 1,
and a column points at the token at fault: the first surplus token of a
line with too many, the keyword of a line with too few.  A missing line is
reported at column 1 of the last line read, a 'name' line without a value
just past its keyword, and an invalid graph at column 1 of the 'sequence'
line.
"""

from __future__ import annotations

import re
import sys
from itertools import islice
from typing import Iterator

from .engine import Instance
from .graph import MAX_VERTICES, Graph, GraphError

FORMAT_VERSION = 1

_TOKEN = re.compile(r"\S+")
# what str.splitlines() also breaks at besides '\n' and '\r': whitespace
# inside a line here, and refused inside a name, which could not round-trip
_OTHER_BREAK = re.compile(r"[\v\f\x1c-\x1e\x85\u2028\u2029]")


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class UnknownVersionError(ParseError):
    pass


# line number, text before '#', its tokens, and whether they hold a '_' or
# a non-ASCII character, which int() alone would read as part of a number
_Row = tuple[int, str, list[str], bool]

# characters of text split into lines at once: the parse holds the lines of
# one block, not of the whole text
_BLOCK = 1 << 16


def _rows(text: str) -> Iterator[_Row]:
    """The rows of ``text``'s lines that hold a token, one at a time."""
    # one check of the whole text spares the check of each token
    strict = not text.isascii() or "_" in text
    comments = "#" in text
    # a line ends at '\n', '\r\n' or '\r', the ends open() translates
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    no = start = 0
    while start >= 0:
        end = text.find("\n", start + _BLOCK)
        block = text[start:end] if end >= 0 else text[start:]
        start = end if end < 0 else end + 1
        for no, raw in enumerate(block.split("\n"), no + 1):
            body = raw.split("#", 1)[0] if comments else raw
            tokens = body.split()
            if tokens:
                yield no, body, tokens, strict and (not body.isascii() or "_" in body)


def _error(row: _Row, k: int, message: str, kind: type[ParseError] = ParseError) -> ParseError:
    """A ``kind`` error at the column where token ``k`` of ``row`` starts."""
    no, body = row[:2]
    return kind(no, list(_TOKEN.finditer(body))[k].start() + 1, message)


def parse_int(token: str) -> int:
    """``token`` as a decimal integer with an optional sign.  Raises
    ValueError for anything else, also for the '_' separators and non-ASCII
    digits that ``int`` alone accepts and ``serialize_instance`` never
    writes."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a decimal integer: {ascii(token)}")
    return int(token, 10)


def _int(row: _Row, k: int, what: str, minimum: int = 0) -> int:
    token = row[2][k]
    try:
        value = parse_int(token) if row[3] else int(token, 10)
    except ValueError:
        raise _error(row, k, f"{what} must be an integer, got {ascii(token)}") from None
    if value < minimum:
        raise _error(row, k, f"{what} must be >= {minimum}")
    return value


def _keyword(row: _Row | None, last: _Row | None, key: str) -> _Row:
    """``row``, which must start with ``key``; None when the text ended
    after row ``last``."""
    if row is None:
        raise ParseError(last[0] if last else 1, 1, f"missing '{key}' line")
    if row[2][0] != key:
        raise _error(row, 0, f"expected '{key}', got {ascii(row[2][0])}")
    return row


def _value(
    row: _Row | None, last: _Row | None, key: str, what: str, minimum: int = 0
) -> tuple[_Row, int]:
    """``row`` and its value, which must be ``key`` and one integer."""
    row = _keyword(row, last, key)
    if len(row[2]) != 2:
        k = 2 if len(row[2]) > 2 else 0
        raise _error(row, k, f"'{key}' takes 1 value(s), got {len(row[2]) - 1}")
    return row, _int(row, 1, what, minimum)


def _name(row: _Row) -> str:
    """The value of a 'name' row: the rest of its text, less the spaces at
    either end."""
    no, body, tokens, _ = row
    if len(tokens) < 2:
        raise ParseError(no, body.index("name") + len("name") + 1, "'name' needs a value")
    rest = body.split(None, 1)[1]
    name = rest.rstrip()
    brk = _OTHER_BREAK.search(name)
    if brk:
        column = len(body) - len(rest) + brk.start() + 1
        raise ParseError(no, column, f"name holds the line break {ascii(brk.group())}")
    return name


def _edge(row: _Row, n: int) -> tuple[int, int]:
    """The edge of ``row``, read with every check and in their order."""
    if len(row[2]) != 2:
        k = 2 if len(row[2]) > 2 else 0
        raise _error(row, k, "edge line needs exactly two vertex ids")
    u = _int(row, 0, "edge endpoint")
    v = _int(row, 1, "edge endpoint")
    if u >= n or v >= n:
        k = 0 if u >= n else 1
        raise _error(row, k, f"vertex {(u, v)[k]} out of range for n={n}")
    return u, v


def _edges(text: str, skip: int, m: int) -> Iterator[tuple[int, int]]:
    """The ``m`` edges after the first ``skip`` rows of ``text``, whose
    edge lines have been read once without fault."""
    for row in islice(_rows(text), skip, skip + m):
        yield int(row[2][0]), int(row[2][1])


def parse_instance(text: str) -> Instance:
    rows = _rows(text)
    row, version = _value(next(rows, None), None, "version", "version")
    if version != FORMAT_VERSION:
        raise _error(row, 1, f"unsupported version {version}", UnknownVersionError)
    name = None
    head = next(rows, None)
    if head is not None and head[2][0] == "name":
        row, name, head = head, _name(head), next(rows, None)
    row, n = _value(head, row, "n", "n", minimum=1)
    if n > MAX_VERTICES:
        raise _error(row, 1, f"n {n} exceeds the limit of {MAX_VERTICES}")
    row, root = _value(next(rows, None), row, "root", "root")
    if root >= n:
        raise _error(row, 1, f"root {root} out of range for n={n}")
    row, m = _value(next(rows, None), row, "edges", "edge count")
    # each edge goes straight onto the lists; self-loops and duplicates are
    # found on the finished graph, which reads the edge lines again to name one
    adj: list[list[int]] = [[] for _ in range(n)]
    read = 0
    # no text has sys.maxsize lines, and islice() refuses a larger count
    for read, row in enumerate(islice(rows, min(m, sys.maxsize)), 1):
        try:
            a, b = row[2]
            u, v = int(a), int(b)
        except ValueError:
            u = -1  # not two plain integers: _edge reads the row again
        if row[3] or not (0 <= u < n and 0 <= v < n):
            u, v = _edge(row, n)
        adj[u].append(v)
        adj[v].append(u)
    if read < m:
        raise ParseError(row[0], 1, "missing 'edge' line")
    row = _keyword(next(rows, None), row, "sequence")
    sequence = tuple(_int(row, k, "firefighter count") for k in range(1, len(row[2])))
    extra = next(rows, None)
    if extra is not None:
        raise _error(extra, 0, "unexpected extra line")
    try:
        graph = Graph.from_adjacency(adj, root, _edges(text, 4 if name is None else 5, m))
    except (ValueError, GraphError) as exc:
        raise ParseError(row[0], 1, f"invalid graph: {exc}") from exc
    return Instance(graph, sequence, name=name)


# vertices whose edge lines serialize_instance joins into one string: the
# lines of one block are all it holds besides the text
_LINES_BLOCK = 4096


def serialize_instance(instance: Instance) -> str:
    g = instance.graph
    out = [f"version {FORMAT_VERSION}"]
    if instance.name is not None:
        name = instance.name
        if "#" in name or name != name.strip() or name.splitlines() != [name]:
            raise ValueError(f"name {name!r} does not survive the text format")
        out.append(f"name {name}")
    out.append(f"n {g.n}")
    out.append(f"root {g.root}")
    out.append(f"edges {g.edge_count()}")
    adj = g.adjacency
    for lo in range(0, g.n, _LINES_BLOCK):
        # one block's edge lines at a time, each block joined into one string
        block = "\n".join(
            [f"{u} {v}" for u in range(lo, min(lo + _LINES_BLOCK, g.n)) for v in adj[u] if u < v]
        )
        if block:
            out.append(block)
    out.append("sequence" + "".join(f" {f}" for f in instance.sequence))
    out.append("")  # the closing line end, without a second copy of the text
    return "\n".join(out)
