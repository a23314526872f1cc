"""Per-layer call tracing from outside the package.

The tracer replaces each listed public function of ``firefight`` with a
timing wrapper, in the defining module and in every other ``firefight``
module that bound the same object with ``from .x import name``.  Methods
are replaced on their class.  Spans nest on one in-memory stack, so each
function's self time is its span's duration minus the time covered by its
traced children.  :meth:`Tracer.uninstall` puts every original back.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

PACKAGE = "firefight"

# (module, qualified name) of every traced function, grouped by layer
TARGETS: tuple[tuple[str, str], ...] = (
    ("graph", "covered_set"),
    ("graph", "validate_and_decompose"),
    ("graph", "induced_subgraph"),
    ("graph", "Graph.from_edges"),
    ("graph", "tolerance"),
    ("graph", "tolerance_edge"),
    ("graph", "break_subgraph"),
    ("graph", "count_safe"),
    ("engine", "GameState.spread"),
    ("engine", "GameState.is_finished"),
    ("engine", "GameState.reduced_view"),
    ("engine", "GameState.truly_available"),
    ("engine", "GameState.protect"),
    ("engine", "replay"),
    ("algorithms", "run_algorithm"),
    ("algorithms", "alg_a_round"),
    ("algorithms", "alg_c_round"),
    ("algorithms", "alg_e_round"),
    ("algorithms", "greedy_tree_round"),
    ("algorithms", "improved_break"),
    ("optimum", "solve_opt"),
    ("optimum", "normalize_nonredundant"),
    ("instances", "make_tadpole"),
    ("instances", "random_tree"),
    ("instances", "random_cactus"),
    ("instances", "random_one_almost_tree"),
    ("instances", "random_sequence"),
    ("instances", "tadpole_adversary_run"),
    ("fileformat", "parse_instance"),
    ("fileformat", "serialize_instance"),
    ("lemmas", "run_suite"),
    ("cli", "main"),
)

NAMES: tuple[str, ...] = tuple(f"{mod}.{qual}" for mod, qual in TARGETS)
_INDEX = {name: i for i, name in enumerate(NAMES)}

# ratios derived from the counters, with their units; see Tracer.metrics
DERIVED: tuple[tuple[str, str], ...] = (
    ("algorithms.covered_set_per_protection", "ratio"),
    ("engine.views_per_active_round", "ratio"),
    ("optimum.nodes", "count"),
    ("optimum.nodes_per_s", "1/s"),
    ("trace.overhead", "ratio"),
)

# raw spans kept for the span file; the counters keep counting past the cap
SPAN_CAP = 20_000


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in NAMES:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    return out + list(DERIVED)


class Tracer:
    """Counters and spans of one traced run: install, run, uninstall."""

    def __init__(self) -> None:
        self.calls = [0] * len(TARGETS)
        self.self_ns = [0] * len(TARGETS)
        self.nodes = 0  # sum of OptResult.nodes_explored
        self.active_rounds = 0  # finished game rounds that had firefighters
        self.spans: list[tuple[int, int, int, int, int]] = []  # name, id, parent, t0, t1
        self.dropped_spans = 0
        self._child_ns: list[int] = []  # child time of each open span
        self._ids: list[int] = [-1]  # id of each open span; -1 is "no parent"
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn, hook=None):
        calls, self_ns, child_ns, ids = self.calls, self.self_ns, self._child_ns, self._ids
        spans, clock = self.spans, time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = ids[-1]
            ids.append(sid)
            child_ns.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                calls[idx] += 1
                self_ns[idx] += dur - child_ns.pop()
                ids.pop()
                if child_ns:
                    child_ns[-1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((idx, sid, parent, t0, t1))
                else:
                    self.dropped_spans += 1
            if hook is not None:
                hook(args, result)
            return result

        traced.bench_traced = True
        return traced

    def _hook_for(self, qual: str):
        if qual == "solve_opt":

            def count_nodes(args, result):
                self.nodes += result.nodes_explored

            return count_nodes
        if qual == "GameState.spread":

            def count_round(args, result):
                state = args[0]
                if state.instance.firefighters(state.round - 1) > 0:
                    self.active_rounds += 1

            return count_round
        return None

    def install(self) -> None:
        """Replace every target with its wrapper wherever it is bound."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for idx, (mod_name, qual) in enumerate(TARGETS):
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            hook = self._hook_for(qual)
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(idx, raw.__func__, hook))
                else:
                    new = self._wrap(idx, raw, hook)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(mod, qual)
            wrapper = self._wrap(idx, original, hook)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, original))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        """Put back every original this tracer replaced."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_total_s(self) -> float:
        """Sum of every traced function's self time so far."""
        return sum(self.self_ns) / 1e9

    def metrics(self, overhead: float) -> dict[str, dict]:
        """Every per-layer metric of :func:`metric_names`, name -> value/unit."""
        out: dict[str, dict] = {}
        for i, name in enumerate(NAMES):
            out[f"{name}.calls"] = {"value": self.calls[i], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self.self_ns[i] / 1e9, "unit": "s"}
        protects = self.calls[_INDEX["engine.GameState.protect"]]
        covered = self.calls[_INDEX["graph.covered_set"]]
        views = self.calls[_INDEX["engine.GameState.reduced_view"]]
        opt_s = self.self_ns[_INDEX["optimum.solve_opt"]] / 1e9
        values = {
            "algorithms.covered_set_per_protection": covered / protects if protects else 0.0,
            "engine.views_per_active_round": views / self.active_rounds if self.active_rounds else 0.0,
            "optimum.nodes": self.nodes,
            "optimum.nodes_per_s": self.nodes / opt_s if opt_s else 0.0,
            "trace.overhead": overhead,
        }
        for name, unit in DERIVED:
            out[name] = {"value": values[name], "unit": unit}
        return out

    def write_spans(self, path, meta: dict) -> None:
        """Write the kept spans as JSON lines: a header, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            header = dict(meta, names=list(NAMES), dropped_spans=self.dropped_spans)
            fh.write(json.dumps(header) + "\n")
            for idx, sid, parent, t0, t1 in self.spans:
                fh.write(f'{{"name":"{NAMES[idx]}","id":{sid},"parent":{parent},'
                         f'"start_ns":{t0},"end_ns":{t1}}}\n')


def leftover_wrappers() -> list[str]:
    """Names in the package still bound to a tracing wrapper (should be none)."""
    found = []
    for name, m in sorted(sys.modules.items()):
        if m is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(m).items():
            if getattr(value, "bench_traced", False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                for meth, raw in vars(value).items():
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if getattr(fn, "bench_traced", False):
                        found.append(f"{name}.{attr}.{meth}")
    return found
