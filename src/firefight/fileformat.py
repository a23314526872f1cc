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

The parser reads each line as whitespace-separated tokens and works out a
column only when it raises a ParseError.  Lines and columns count from 1,
and a column points at the token at fault: the first surplus token of a
line with too many, the keyword of a line with too few.  A missing line is
reported at column 1 of the last line read, a 'name' line without a value
just past its keyword, and an invalid graph at column 1 of the 'sequence'
line.
"""

from __future__ import annotations

import re

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


def _keyword(rows: list[_Row], i: int, key: str) -> _Row:
    """Row ``i``, which must start with ``key``."""
    if i >= len(rows):
        raise ParseError(rows[-1][0] if rows else 1, 1, f"missing '{key}' line")
    row = rows[i]
    if row[2][0] != key:
        raise _error(row, 0, f"expected '{key}', got {ascii(row[2][0])}")
    return row


def _value(rows: list[_Row], i: int, key: str, what: str, minimum: int = 0) -> tuple[_Row, int]:
    """Row ``i`` and its value, which must be ``key`` and one integer."""
    row = _keyword(rows, i, key)
    if len(row[2]) != 2:
        k = 2 if len(row[2]) > 2 else 0
        raise _error(row, k, f"'{key}' takes 1 value(s), got {len(row[2]) - 1}")
    return row, _int(row, 1, what, minimum)


def parse_instance(text: str) -> Instance:
    rows = []
    # one check of the whole text spares the check of each token
    strict = not text.isascii() or "_" in text
    # a line ends at '\n', '\r\n' or '\r', the ends open() translates
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for no, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        tokens = body.split()
        if tokens:
            rows.append((no, body, tokens, strict and (not body.isascii() or "_" in body)))
    row, version = _value(rows, 0, "version", "version")
    if version != FORMAT_VERSION:
        raise _error(row, 1, f"unsupported version {version}", UnknownVersionError)
    name = None
    pos = 1  # the next row to read
    if pos < len(rows) and rows[pos][2][0] == "name":
        no, body, tokens, _ = rows[pos]
        if len(tokens) < 2:
            raise ParseError(no, body.index("name") + len("name") + 1, "'name' needs a value")
        rest = body.split(None, 1)[1]
        name = rest.rstrip()
        brk = _OTHER_BREAK.search(name)
        if brk:
            column = len(body) - len(rest) + brk.start() + 1
            raise ParseError(no, column, f"name holds the line break {ascii(brk.group())}")
        pos += 1
    row, n = _value(rows, pos, "n", "n", minimum=1)
    if n > MAX_VERTICES:
        raise _error(row, 1, f"n {n} exceeds the limit of {MAX_VERTICES}")
    row, root = _value(rows, pos + 1, "root", "root")
    if root >= n:
        raise _error(row, 1, f"root {root} out of range for n={n}")
    _, m = _value(rows, pos + 2, "edges", "edge count")
    pos += 3
    edges = []
    for row in rows[pos : pos + m]:
        if len(row[2]) != 2:
            k = 2 if len(row[2]) > 2 else 0
            raise _error(row, k, "edge line needs exactly two vertex ids")
        u = _int(row, 0, "edge endpoint")
        v = _int(row, 1, "edge endpoint")
        if u >= n or v >= n:
            k = 0 if u >= n else 1
            raise _error(row, k, f"vertex {(u, v)[k]} out of range for n={n}")
        edges.append((u, v))
    if len(edges) < m:
        raise ParseError(rows[-1][0], 1, "missing 'edge' line")
    pos += m
    row = _keyword(rows, pos, "sequence")
    sequence = tuple(_int(row, k, "firefighter count") for k in range(1, len(row[2])))
    if pos + 1 < len(rows):
        raise _error(rows[pos + 1], 0, "unexpected extra line")
    try:
        graph = Graph.from_edges(n, edges, root=root)
    except (ValueError, GraphError) as exc:
        raise ParseError(row[0], 1, f"invalid graph: {exc}") from exc
    return Instance(graph, sequence, name=name)


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
    edges = list(g.edges())
    out.append(f"edges {len(edges)}")
    out += [f"{u} {v}" for u, v in edges]
    out.append("sequence" + "".join(f" {f}" for f in instance.sequence))
    return "\n".join(out) + "\n"
