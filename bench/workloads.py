"""The benchmark's four workloads: seeded inputs, ops and output checks.

A workload is one pass of ops; a run repeats the pass, one op at a time.  Every op is one call into the package through a module attribute
(``algorithms.run_algorithm``, ``cli.main``, ...), so the tracer's
wrappers see it.  Inputs are pure functions of the workload seed.  Every
instance is serialized to a file in the run's work directory and parsed
back, so the ops play on what the file format delivers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from firefight import algorithms, cli, engine, fileformat, graph, instances, lemmas

Kind = algorithms.AlgorithmKind
_ACCEPTS = {
    graph.GraphClass.TREE: (Kind.GREEDY_TREE, Kind.ALG_A, Kind.ALG_C, Kind.ALG_E),
    graph.GraphClass.ONE_ALMOST_TREE: (Kind.ALG_A, Kind.ALG_C, Kind.ALG_E),
    graph.GraphClass.CACTUS: (Kind.ALG_C, Kind.ALG_E),
}


@dataclass(frozen=True)
class Op:
    """One timed call and how to check what it returned.

    ``encode`` gives the canonical bytes of an output (digested and compared
    with the stored digest); ``check`` returns why an output breaks an
    invariant that holds for every seed, or None.
    """

    id: str
    family: str
    call: Callable[[], object]
    encode: Callable[[object], bytes]
    check: Callable[[object], str | None]

    def digest(self, out: object) -> str:
        return hashlib.sha256(self.encode(out)).hexdigest()[:12]


@dataclass
class Workload:
    name: str
    ops: list[Op]  # one pass, in run order
    reference: dict[str, int] = field(default_factory=dict)  # named reference op -> n
    skipped: dict[str, str] = field(default_factory=dict)  # op -> why it is not run


class InstanceStore:
    """Writes each instance to a file and returns what parsing it gives."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def path(self, name: str) -> Path:
        return self.workdir / f"{name}.ff"

    def put(self, g: graph.Graph, sequence: tuple[int, ...], name: str) -> engine.Instance:
        text = fileformat.serialize_instance(engine.Instance(g, sequence, name=name))
        p = self.path(name)
        p.write_text(text, encoding="utf-8")
        return fileformat.parse_instance(p.read_text(encoding="utf-8"))


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash with SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


# -- games -----------------------------------------------------------------


def _game_output(out) -> tuple[int, tuple]:
    if isinstance(out, tuple):  # engine.replay returns (profit, final state)
        profit, state = out
        return profit, tuple(state.trace)
    return out.profit, out.trace


def _encode_game(out) -> bytes:
    profit, trace = _game_output(out)
    return (f"{profit};" + " ".join(f"{t.round}:{t.vertex}" for t in trace)).encode()


def _game_checker(inst: engine.Instance, replayed: bool):
    def check(out) -> str | None:
        profit, trace = _game_output(out)
        if not replayed:
            again, _ = engine.replay(inst, [(t.round, t.vertex) for t in trace])
            if again != profit:
                return f"replaying the trace gives {again}, the game reported {profit}"
        direct = engine.profit_of_protections(inst.graph, {t.vertex for t in trace})
        if direct != profit:
            return f"profit {profit} != profit_of_protections {direct}"
        return None

    return check


def game_op(op_id: str, family: str, inst: engine.Instance, kind: Kind) -> Op:
    return Op(
        op_id,
        family,
        lambda: algorithms.run_algorithm(inst, kind),
        _encode_game,
        _game_checker(inst, replayed=False),
    )


def replay_op(op_id: str, family: str, inst: engine.Instance, schedule) -> Op:
    schedule = tuple(schedule)
    return Op(
        op_id,
        family,
        lambda: engine.replay(inst, schedule),
        _encode_game,
        _game_checker(inst, replayed=True),
    )


def _accepted(g: graph.Graph) -> tuple[Kind, ...]:
    return _ACCEPTS[graph.validate_and_decompose(g).class_tag]


def _all_games(wl: Workload, prefix: str, family: str, inst: engine.Instance, kinds=None) -> list[Op]:
    ok = _accepted(inst.graph)
    ops = []
    for kind in kinds or tuple(Kind):
        op_id = f"{prefix}/{kind.value}"
        if kind in ok:
            ops.append(game_op(op_id, f"{family}/{kind.value}", inst, kind))
        else:
            wl.skipped[op_id] = f"{kind.value} does not accept this graph class"
    return ops


# -- graph families ----------------------------------------------------------


def shallow_tree(n: int, root_degree: int, rng: random.Random) -> graph.Graph:
    """Root with ``root_degree`` children; the rest hang off random non-root vertices."""
    edges = [(0, v) for v in range(1, root_degree + 1)]
    edges += [(rng.randrange(1, v), v) for v in range(root_degree + 1, n)]
    return graph.Graph.from_edges(n, edges, 0)


def spider(legs: int, length: int) -> graph.Graph:
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return graph.Graph.from_edges(nxt, edges, 0)


def path(n: int, root: int = 0) -> graph.Graph:
    return graph.Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], root)


def cycle_chain(path_len: int, rng: random.Random) -> graph.Graph:
    """A root path of ``path_len`` edges beside a chain of 3..6-cycles of about
    the same depth; each cycle is glued to the far vertex of the previous one."""
    edges = [(i, i + 1) for i in range(path_len)]
    nxt = path_len + 1
    anchor, depth = 0, 0
    while depth < path_len:
        size = rng.randint(3, 6)
        cyc = [anchor] + list(range(nxt, nxt + size - 1))
        nxt += size - 1
        edges += list(zip(cyc, cyc[1:])) + [(cyc[-1], anchor)]
        anchor = cyc[size // 2]
        depth += size // 2
    return graph.Graph.from_edges(nxt, edges, 0)


def relabel(g: graph.Graph, rng: random.Random) -> tuple[graph.Graph, list[int]]:
    """The same graph under a random permutation of its vertex ids.

    Costs stay those of the shape; which vertex wins a tie, and so the
    trace, depends on the seed.  Returns the graph and the permutation.
    """
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return graph.Graph.from_edges(g.n, edges, perm[g.root]), perm


def _distance_schedule(g: graph.Graph, sequence):
    """Protect the f_r lowest-id vertices at distance r in round r.

    Each is still unburned in its round, so the schedule is valid.
    """
    depth = {g.root: 0}
    frontier = [g.root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.adjacency[v]:
                if u not in depth:
                    depth[u] = depth[v] + 1
                    nxt.append(u)
        frontier = nxt
    schedule = []
    for r, f in enumerate(sequence, start=1):
        layer = sorted(v for v, d in depth.items() if d == r)
        schedule += [(r, v) for v in layer[:f]]
    return schedule


# -- workloads ---------------------------------------------------------------
#
# Each pass has a fixed grid of shapes, sizes and firefighter sequences, so
# its cost barely moves with the seed; the seed draws the random graphs and
# relabels the fixed ones, which changes ties and traces.

# 1-3 firefighters in each of the first rounds
FRONT_LOADED = ((2, 1), (1, 1, 1), (1, 3), (3, 2, 1))
TADPOLE_BETAS = (16, 20, 24)  # n = 274, 422, 602
TADPOLE_REF_BETA = 24  # the 30x1-firefighter tadpole pathology, scaled to n = 602
PATH_REPLAY_REF_N = 400  # replay with no protections: O(n^2) spread/is_finished
PATH_ALGC_REF_N = 300  # alg-c with only empty rounds: a view per round


def cycle_weighting(seed: int, store: InstanceStore) -> Workload:
    """Few rounds on large cacti with long root cycles: candidate weighting."""
    rng = _rng("cycle-weighting", seed)
    wl = Workload("cycle-weighting", [])
    cycle_kinds = (Kind.ALG_A, Kind.ALG_C, Kind.ALG_E)
    ops: list[Op] = []
    for i, beta in enumerate(TADPOLE_BETAS):
        for seq in FRONT_LOADED[i % 2 :: 2]:
            label = f"tadpole-b{beta}-{''.join(map(str, seq))}"
            g, _ = relabel(instances.make_tadpole(beta * beta + 1, beta), rng)
            inst = store.put(g, seq, f"s{seed}-{label}")
            ops += _all_games(wl, f"s{seed}/{label}", "tadpole", inst, cycle_kinds)
    for i in range(6):
        g = instances.random_cactus(250, rng.uniform(0.9, 1.0), rng.randint(120, 240), rng.randrange(2**30))
        inst = store.put(g, FRONT_LOADED[i % 4], f"s{seed}-cactus{i}")
        ops += _all_games(wl, f"s{seed}/cactus{i}", "cactus", inst, cycle_kinds)
    for i in range(3):
        g = shallow_tree(300, rng.randint(50, 80), rng)
        inst = store.put(g, FRONT_LOADED[i], f"s{seed}-shallow-tree{i}")
        ops += _all_games(wl, f"s{seed}/shallow-tree{i}", "shallow-tree", inst)
    beta = TADPOLE_REF_BETA
    inst = store.put(instances.make_tadpole(beta * beta + 1, beta), (1,) * 30, "ref-tadpole-30x1")
    for kind in (Kind.ALG_E, Kind.ALG_C):
        op_id = f"ref/tadpole-30x1/{kind.value}"
        ops.append(game_op(op_id, f"ref-tadpole-30x1/{kind.value}", inst, kind))
        wl.reference[op_id] = inst.graph.n
    rng.shuffle(ops)
    wl.ops = ops
    return wl


def long_burn(seed: int, store: InstanceStore) -> Workload:
    """Deep sparse graphs the fire cannot be kept off: many empty rounds."""
    rng = _rng("long-burn", seed)
    wl = Workload("long-burn", [])
    ops: list[Op] = []
    # (label, graph, sequence): 1-2 firefighters in total, then empty rounds
    cells = [
        ("spider3", spider(3, 110), (1,)),
        ("spider5", spider(5, 85), (2,)),
        ("spider8", spider(8, 60), (1, 1)),
        # rooted off-centre, so one firefighter saves one side and the other burns
        ("path400", path(400, 100), (1,)),
        ("path300", path(300, 100), (0, 1)),
        ("cycle-chain0", cycle_chain(150, rng), (2,)),
        ("cycle-chain1", cycle_chain(150, rng), (1, 1)),
    ]
    for label, shape, seq in cells:
        # the schedule is picked on the unrelabelled shape, so its cost is
        # the same on every seed (on a path, which side burns decides it)
        schedule = _distance_schedule(shape, seq)
        g, perm = relabel(shape, rng)
        family = label.rstrip("0123456789")
        inst = store.put(g, seq, f"s{seed}-{label}")
        prefix = f"s{seed}/{label}"
        ops.append(replay_op(f"{prefix}/replay", f"{family}/replay", inst, [(r, perm[v]) for r, v in schedule]))
        ops += _all_games(wl, prefix, family, inst, (Kind.GREEDY_TREE, Kind.ALG_E, Kind.ALG_C))
    inst = store.put(path(PATH_REPLAY_REF_N), (), "ref-path-replay")
    ops.append(replay_op("ref/path-replay-none", "ref-path-replay-none", inst, ()))
    wl.reference["ref/path-replay-none"] = inst.graph.n
    inst = store.put(path(PATH_ALGC_REF_N), (), "ref-path-algc")
    ops.append(game_op("ref/path-empty-rounds/alg-c", "ref-path-empty-rounds/alg-c", inst, Kind.ALG_C))
    wl.reference["ref/path-empty-rounds/alg-c"] = inst.graph.n
    rng.shuffle(ops)
    wl.ops = ops
    return wl


def _encode_cli(out) -> bytes:
    code, stdout = out
    return f"exit {code}\n{stdout}".encode()


def _check_cli(out) -> str | None:
    code, stdout = out
    if code != 0:
        return f"exit code {code}"
    records = [json.loads(line) for line in stdout.splitlines()]
    if not records:
        return "no output record"
    for rec in records:
        if rec["opt_profit"] < rec["alg_profit"]:
            return f"opt {rec['opt_profit']} below alg {rec['alg_profit']}"
        if rec["record"] == "adversary" and not rec["bound_met"]:
            return "adversary bound not met"
    return None


def cli_op(op_id: str, family: str, argv: list[str]) -> Op:
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                code = exc.code
        return code, buf.getvalue()

    return Op(op_id, family, call, _encode_cli, _check_cli)


ADVERSARY_BETAS = {Kind.ALG_A: range(2, 13), Kind.ALG_C: range(2, 13), Kind.ALG_E: range(2, 11)}
RATIO_CLASSES = ("tree", "one-almost-tree", "cactus")
RATIO_PER_CLASS = 20


def _ratio_structures() -> list[tuple[str, graph.Graph, tuple[int, ...]]]:
    """The ratio trials' graphs and sequences, drawn once from a fixed seed.

    Solver nodes are heavy-tailed (median ~1k, max ~70k) and hang on the
    vertex order, so fresh draws, or even relabellings, per seed would move
    ops_per_s and the median op by a quarter to a third between seeds.  Each
    instance is rated against every strategy its class accepts, so the op
    times lie dense enough around the median that it does not jump between
    far-apart ops; the workload seed orders the ops.
    """
    rng = _rng("opt-sweep", "structures")
    out = []
    for i in range(RATIO_PER_CLASS * len(RATIO_CLASSES)):
        cls = RATIO_CLASSES[i % len(RATIO_CLASSES)]
        n = rng.randint(18, 22)
        s = rng.randrange(2**30)
        if cls == "tree":
            g = instances.random_tree(n, s)
        elif cls == "one-almost-tree":
            g = instances.random_one_almost_tree(n, s)
        else:
            g = instances.random_cactus(n, rng.uniform(0.3, 0.9), rng.randint(3, n), s)
        out.append((cls, g, tuple(rng.randint(0, 2) for _ in range(5))))
    return out


def opt_sweep(seed: int, store: InstanceStore) -> Workload:
    """The CLI's exact-optimum commands: `ratio` trials and adversary runs."""
    rng = _rng("opt-sweep", seed)
    wl = Workload("opt-sweep", [])
    ops = []
    for kind, betas in ADVERSARY_BETAS.items():
        for beta in betas:
            argv = ["adversary", "--alg", kind.value, "--beta", str(beta)]
            ops.append(cli_op(f"adversary/{kind.value}/b{beta}", f"adversary/{kind.value}", argv))
    wl.skipped["adversary/alg-e/b11-12"] = "alg-e's case-2 solve takes 0.7-1.5 s, too long for one op"
    for i, (cls, g, seq) in enumerate(_ratio_structures()):
        name = f"ratio{i}"
        inst = store.put(g, seq, name)
        for kind in _accepted(inst.graph):
            argv = ["ratio", "--instance", str(store.path(name)), "--alg", kind.value]
            # seed-free id: the output depends only on the instance and the strategy
            ops.append(cli_op(f"{name}/{kind.value}", f"ratio/{cls}", argv))
    rng.shuffle(ops)
    wl.ops = ops
    return wl


def _encode_suite(out) -> bytes:
    return f"{out.trials},{out.checked},{out.failures}".encode()


def _check_suite(out) -> str | None:
    if out.trials != 1 or out.failures:
        first = (out.counterexample or "").splitlines()[:1]
        return f"suite {out.name} failed: {first}"
    return None


CORE_SUITE_SEEDS = 100  # the same for every workload seed
SEEDED_SUITE_SEEDS = 25


def lemma_suites(seed: int, store: InstanceStore) -> Workload:
    """All 16 property suites, one trial per op, on graphs of <= 14 vertices.

    Per-trial cost is heavy-tailed where a suite calls the exact solver, so
    most suite seeds are a fixed core and a fifth come from the workload
    seed; that keeps the mix, and ops_per_s, steady from seed to seed.
    """
    rng = _rng("lemma-suites", seed)
    wl = Workload("lemma-suites", [])
    ops = []
    for name in sorted(lemmas.SUITES):
        trials = [("core", s) for s in range(CORE_SUITE_SEEDS)]
        base = 1_000_000 + seed * SEEDED_SUITE_SEEDS
        trials += [(f"s{seed}", base + j) for j in range(SEEDED_SUITE_SEEDS)]
        for prefix, s in trials:
            ops.append(Op(f"{prefix}/{name}/{s}", name,
                          lambda name=name, s=s: lemmas.run_suite(name, 1, s),
                          _encode_suite, _check_suite))
    rng.shuffle(ops)
    wl.ops = ops
    return wl


BY_NAME: dict[str, Callable[[int, InstanceStore], Workload]] = {
    "cycle-weighting": cycle_weighting,
    "long-burn": long_burn,
    "opt-sweep": opt_sweep,
    "lemma-suites": lemma_suites,
}
