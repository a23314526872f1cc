"""Benchmark of the firefight package: four workloads, checked outputs.

Usage, from the repository root:

    python3 bench/run.py --workload cycle-weighting --seed 1 --seconds 25 --trace 0

One process runs one workload as a single closed-loop caller: one op at a
time, no threads.  ``--trace 0`` reports the end-to-end metrics, every
time scaled to the reference machine speed of speed.py; ``--trace 1`` the
per-layer metrics of a traced run (see tracing.py).  The last line
of stdout is the result object; the line before it holds provenance and
per-metric sample counts.  ``--record`` stores the digests of every op's
output for the default seed in expected.json instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import speed
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
WORK = BENCH / ".work"
OUT = BENCH / "out"

WORKLOAD_NAMES = ("cycle-weighting", "long-burn", "opt-sweep", "lemma-suites")
DEFAULT_SEED = 0
MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile
SETUP_CHILDREN = 4  # extra fresh processes that only set up, for setup_s
SETUP_KERNEL_SAMPLES = 25  # kernel runs that give a set-up's speed scale
CHILD_TIMEOUT_S = 60
TRACE_CHUNK_S = 0.5  # a traced run alternates untraced and traced chunks this long


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--record", action="store_true",
                   help="write the default seed's output digests to expected.json")
    return p.parse_args(argv)


class Verifier:
    """Checks each op's output; every attempt with a bad output is a failure.

    The first output of an op is checked against the invariants that hold
    for any seed and against the stored digest, if there is one; later
    outputs of the same op must repeat the first one byte for byte.
    """

    def __init__(self, expected: dict[str, str]):
        self.expected = expected
        self.verdicts: dict[str, tuple[str, str | None]] = {}  # op id -> digest, failure
        self.attempted = 0
        self.failed = 0
        self.digests_compared = 0
        self.failures: list[dict] = []

    def _fail(self, op, reason: str) -> bool:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append({"op": op.id, "reason": reason})
        return False

    def __call__(self, op, out) -> bool:
        self.attempted += 1
        if isinstance(out, BaseException):
            return self._fail(op, f"{type(out).__name__}: {out}")
        digest = op.digest(out)
        known = self.verdicts.get(op.id)
        if known is None:
            reason = op.check(out)
            want = self.expected.get(op.id)
            if want is not None:
                self.digests_compared += 1
                if reason is None and want != digest:
                    reason = f"output digest {digest}, expected {want}"
            known = self.verdicts[op.id] = (digest, reason)
        elif known[0] != digest:
            return self._fail(op, "output differs from this op's first output")
        if known[1] is not None:
            return self._fail(op, known[1])
        return True


class Loop:
    """Times ops one at a time: per-op wall times and complete passes.

    With a speed meter, the reference kernel runs between ops (untimed).
    Per-op records are packed arrays, so the process's memory does not grow
    with the number of ops a run gets through.
    """

    def __init__(self, meter: speed.Meter | None = None):
        self.times = array("d")
        self.done = array("l")  # index into self.ops of each op, in run order
        self.ops: list = []  # the distinct ops, in first-run order
        self._index: dict[str, int] = {}
        self.passes: list[tuple[int, int]] = []  # [start, end) of each complete pass
        self.meter = meter

    def run_op(self, op, verify) -> float:
        clock = time.perf_counter
        t0 = clock()
        try:
            out = op.call()
        except Exception as exc:  # a raising op is a failed op, not a crash
            out = exc
        dt = clock() - t0
        self.times.append(dt)
        i = self._index.get(op.id)
        if i is None:
            i = self._index[op.id] = len(self.ops)
            self.ops.append(op)
        self.done.append(i)
        verify(op, out)
        if self.meter:
            self.meter.tick(dt, len(self.times))
        return dt

    def closed_loop(self, ops, seconds: float, verify) -> None:
        """Repeat the pass of ops until ``seconds`` have gone by and the
        complete passes hold MIN_OPS ops; a pass cut short is not counted."""
        start = time.perf_counter()
        hard_stop = start + max(3 * seconds, seconds + 30)

        def enough() -> bool:
            now = time.perf_counter()
            return now >= hard_stop or (now - start >= seconds and self.pass_ops() >= MIN_OPS)

        while not enough():
            first = len(self.times)
            for i, op in enumerate(ops):
                self.run_op(op, verify)
                if i + 1 < len(ops) and enough():
                    return
            self.passes.append((first, len(self.times)))

    def pass_ops(self) -> int:
        return sum(hi - lo for lo, hi in self.passes)

    def replay(self, ops, verify) -> None:
        for op in ops:
            self.run_op(op, verify)

    def wall(self) -> float:
        return sum(self.times)


def _setup_samples(args, own: dict) -> list[dict]:
    """Set-up of this process plus that of fresh processes that only set up.

    Each sample holds the raw ``setup_s`` and the median ``kernel_s``
    measured right after it.
    """
    samples = [own]
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


def _git_commit() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _provenance(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _families(loop: Loop) -> dict:
    by: dict[str, list[float]] = {}
    for i, dt in zip(loop.done, loop.times):
        by.setdefault(loop.ops[i].family, []).append(dt)
    total = loop.wall()
    return {
        fam: {"ops": len(ts), "median_ms": statistics.median(ts) * 1000, "time_share": sum(ts) / total}
        for fam, ts in sorted(by.items())
    }


def _load_expected(workload: str) -> dict[str, str]:
    if not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8")).get(workload, {})


def _record(wl) -> dict:
    """Run every op once and store its digest (default seed only)."""
    verify = Verifier({})
    loop = Loop()
    loop.replay(wl.ops, verify)
    if verify.failed:
        raise SystemExit(f"not recording: {verify.failures}")
    data = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}
    data[wl.name] = {op_id: d for op_id, (d, _) in sorted(verify.verdicts.items())}
    EXPECTED.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return {"recorded": len(data[wl.name])}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "firefight" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        print(f"error: --record stores the default seed {DEFAULT_SEED} only", file=sys.stderr)
        return 2

    t_setup = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if tracer:
            tracer.install()
        try:
            wl = workloads.BY_NAME[args.workload](args.seed, workloads.InstanceStore(workdir))
        finally:
            if tracer:
                tracer.uninstall()
        setup_s = time.perf_counter() - t_setup
        own_setup = {"setup_s": setup_s, "kernel_s": speed.median_kernel(SETUP_KERNEL_SAMPLES)}
        if args.setup_only:
            print(json.dumps(own_setup))
            return 0
        if args.record:
            print(json.dumps(_record(wl)))
            return 0
        setups = [] if tracer else _setup_samples(args, own_setup)
        verify = Verifier(_load_expected(args.workload))
        # one untimed pass: the full output checks, and first-run costs
        # (allocator arenas, caches) stay out of the timed loop
        Loop().replay(wl.ops, verify)
        detail = {
            "provenance": _provenance(args),
            "reference_ops_n": wl.reference,
            "skipped": wl.skipped,
        }
        if tracer:
            loop, metrics = _traced(tracer, wl.ops, verify, detail, args)
        else:
            loop = Loop(speed.Meter())
            loop.closed_loop(wl.ops, args.seconds, verify)
            detail["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = _end_to_end(loop, verify, setups, detail)
        detail["families"] = _families(loop)
        detail["digests_compared"] = verify.digests_compared
        detail["failed_ops_frac"] = verify.failed / verify.attempted
        detail["failures"] = verify.failures
        print(json.dumps(detail))
        print(json.dumps({
            "correct": verify.failed == 0,
            "attempted": verify.attempted,
            "failed": verify.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timings(times: list[float], passes: list[tuple[int, int]]) -> tuple[float, float, float]:
    """ops_per_s (median over passes), op_ms_p50 and op_ms_p90 of the ops
    in complete passes."""
    rates = [(hi - lo) / sum(times[lo:hi]) for lo, hi in passes]
    ops = [t for lo, hi in passes for t in times[lo:hi]]
    return (statistics.median(rates), statistics.median(ops) * 1000,
            statistics.quantiles(ops, n=10, method="inclusive")[8] * 1000)


def _end_to_end(loop: Loop, verify: Verifier, setups: list[dict], detail: dict) -> dict:
    passes = loop.passes or [(0, len(loop.times))]
    scales = loop.meter.scales(len(loop.times))
    scaled = array("d", (t * s for t, s in zip(loop.times, scales)))
    ops_per_s, p50, p90 = _timings(scaled, passes)
    n = sum(hi - lo for lo, hi in passes)
    setup_scaled = [s["setup_s"] * speed.REF_KERNEL_S / s["kernel_s"] for s in setups]
    detail["samples"] = {
        "ops_per_s": {"passes": len(passes), "ops": n},
        "op_ms_p50": n,
        "op_ms_p90": {"ops": n, "beyond": n - -(-9 * n // 10)},
        "setup_s": len(setups),
        "peak_rss_mb": 1,
        "ok_ops_frac": verify.attempted,
        "kernel": len(loop.meter.samples),
    }
    detail["unscaled"] = dict(zip(("ops_per_s", "op_ms_p50", "op_ms_p90"), _timings(loop.times, passes)))
    detail["speed"] = {
        "kernel_ms_median": statistics.median(loop.meter.samples) * 1000 if loop.meter.samples else None,
        "scale_min": min(scales, default=1.0),
        "scale_max": max(scales, default=1.0),
    }
    detail["setup_samples"] = setups
    return {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_ms_p50": {"value": p50, "unit": "ms"},
        "op_ms_p90": {"value": p90, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "peak_rss_mb": {"value": detail["peak_rss_mb"], "unit": "MB"},
        "ok_ops_frac": {"value": (verify.attempted - verify.failed) / verify.attempted, "unit": "frac"},
    }


def _traced(tracer, ops, verify: Verifier, detail: dict, args) -> tuple[Loop, dict]:
    """Alternate short untraced chunks of the pass with the same ops traced.

    Both sides of every chunk run within a second of each other, so drift
    in machine speed does not leak into ``trace.overhead``.
    """
    untraced, traced = Loop(), Loop()
    setup_self_s = tracer.self_total_s()
    start = time.perf_counter()
    i = 0
    hard_stop = start + max(3 * args.seconds, args.seconds + 30)
    while time.perf_counter() < hard_stop and (
        time.perf_counter() - start < args.seconds or len(traced.times) < MIN_OPS
    ):
        chunk = []
        t_chunk = time.perf_counter()
        while time.perf_counter() - t_chunk < TRACE_CHUNK_S:
            chunk.append(ops[i % len(ops)])
            i += 1
            untraced.run_op(chunk[-1], verify)
        tracer.install()
        try:
            traced.replay(chunk, verify)
        finally:
            tracer.uninstall()
    leftover = tracing.leftover_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers left behind: {leftover}")
    detail["traced"] = {
        "ops": len(traced.times),
        "untraced_wall_s": untraced.wall(),
        "traced_wall_s": traced.wall(),
        "ops_self_s": tracer.self_total_s() - setup_self_s,
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped_spans,
    }
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}.jsonl", {"workload": args.workload, "seed": args.seed})
    return untraced, tracer.metrics(traced.wall() / untraced.wall())


if __name__ == "__main__":
    sys.exit(main())
