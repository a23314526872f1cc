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
"""

from __future__ import annotations

import re

from .engine import Instance
from .graph import MAX_VERTICES, Graph, GraphError

FORMAT_VERSION = 1

_TOKEN = re.compile(r"\S+")


class ParseError(ValueError):
    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class UnknownVersionError(ParseError):
    pass


class _Lines:
    """Token-level cursor over the meaningful lines of the document."""

    def __init__(self, text: str):
        self.rows: list[tuple[int, str, list[re.Match]]] = []
        for no, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0]
            matches = list(_TOKEN.finditer(body))
            if matches:
                self.rows.append((no, body, matches))
        self.pos = 0
        self.last_line = 1

    def next_row(self, want: str) -> tuple[int, list[re.Match]]:
        if self.pos >= len(self.rows):
            raise ParseError(self.last_line, 1, f"missing '{want}' line")
        no, _, matches = self.rows[self.pos]
        self.pos += 1
        self.last_line = no
        return no, matches

    def done(self) -> None:
        if self.pos < len(self.rows):
            no, _, matches = self.rows[self.pos]
            raise ParseError(no, matches[0].start() + 1, "unexpected extra line")


def _int_token(line_no: int, m: re.Match, what: str, minimum: int = 0) -> int:
    try:
        value = int(m.group(), 10)
    except ValueError:
        raise ParseError(
            line_no, m.start() + 1, f"{what} must be an integer, got {m.group()!r}"
        ) from None
    if value < minimum:
        raise ParseError(line_no, m.start() + 1, f"{what} must be >= {minimum}")
    return value


def _keyword_row(
    lines: _Lines, key: str, arity: int | None
) -> tuple[int, list[re.Match]]:
    no, matches = lines.next_row(key)
    head = matches[0]
    if head.group() != key:
        raise ParseError(no, head.start() + 1, f"expected '{key}', got {head.group()!r}")
    rest = matches[1:]
    if arity is not None and len(rest) != arity:
        col = (rest[arity] if len(rest) > arity else head).start() + 1
        raise ParseError(no, col, f"'{key}' takes {arity} value(s), got {len(rest)}")
    return no, rest


def parse_instance(text: str) -> Instance:
    lines = _Lines(text)
    no, rest = _keyword_row(lines, "version", 1)
    version = _int_token(no, rest[0], "version")
    if version != FORMAT_VERSION:
        raise UnknownVersionError(
            no, rest[0].start() + 1, f"unsupported version {version}"
        )
    name = None
    if lines.pos < len(lines.rows) and lines.rows[lines.pos][2][0].group() == "name":
        no, body, matches = lines.rows[lines.pos]
        lines.pos += 1
        lines.last_line = no
        if len(matches) < 2:
            raise ParseError(no, matches[0].end() + 1, "'name' needs a value")
        name = body[matches[1].start() : matches[-1].end()]
    no, rest = _keyword_row(lines, "n", 1)
    n = _int_token(no, rest[0], "n", minimum=1)
    if n > MAX_VERTICES:
        raise ParseError(no, rest[0].start() + 1, f"n {n} exceeds the limit of {MAX_VERTICES}")
    no, rest = _keyword_row(lines, "root", 1)
    root = _int_token(no, rest[0], "root")
    if root >= n:
        raise ParseError(no, rest[0].start() + 1, f"root {root} out of range for n={n}")
    no, rest = _keyword_row(lines, "edges", 1)
    m = _int_token(no, rest[0], "edge count")
    edges = []
    for _ in range(m):
        no, matches = lines.next_row("edge")
        if len(matches) != 2:
            col = (matches[2] if len(matches) > 2 else matches[0]).start() + 1
            raise ParseError(no, col, "edge line needs exactly two vertex ids")
        u = _int_token(no, matches[0], "edge endpoint")
        v = _int_token(no, matches[1], "edge endpoint")
        for tok, x in ((matches[0], u), (matches[1], v)):
            if x >= n:
                raise ParseError(no, tok.start() + 1, f"vertex {x} out of range for n={n}")
        edges.append((u, v))
    no, matches = lines.next_row("sequence")
    head = matches[0]
    if head.group() != "sequence":
        raise ParseError(no, head.start() + 1, f"expected 'sequence', got {head.group()!r}")
    sequence = tuple(_int_token(no, t, "firefighter count") for t in matches[1:])
    lines.done()
    try:
        graph = Graph.from_edges(n, edges, root=root)
    except (ValueError, GraphError) as exc:
        raise ParseError(no, 1, f"invalid graph: {exc}") from exc
    return Instance(graph, sequence, name=name)


def serialize_instance(instance: Instance) -> str:
    g = instance.graph
    out = [f"version {FORMAT_VERSION}"]
    if instance.name is not None:
        name = instance.name
        if "#" in name or "\n" in name or name != name.strip() or not name:
            raise ValueError(f"name {name!r} does not survive the text format")
        out.append(f"name {name}")
    out.append(f"n {g.n}")
    out.append(f"root {g.root}")
    edges = list(g.edges())
    out.append(f"edges {len(edges)}")
    out += [f"{u} {v}" for u, v in edges]
    out.append("sequence" + "".join(f" {f}" for f in instance.sequence))
    return "\n".join(out) + "\n"
