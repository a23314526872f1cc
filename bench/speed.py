"""Machine speed, measured with a fixed reference kernel between ops.

On a shared host the speed of one vCPU drifts by up to 1.6x, in phases of
fractions of a second to minutes (other tenants' load on the same cores,
not descheduling: CPU time drifts as much as wall time).  A run that falls
in a slow phase would read as a slower program.  So the timed loop runs
:func:`kernel` after every ``EVERY_S`` of op time, and each op's wall time
is scaled by ``REF_KERNEL_S / median`` of the ``2 * HALF_WINDOW + 1``
kernel samples nearest to it.  The kernel is the benchmark's own code,
never the package's, so a change to the package moves the scaled times
exactly as it moves the raw ones.

The kernel mimics the package's hot loops on a graph of the same size:
a BFS that avoids a blocked frozenset (``covered_set``), a comprehension
over all vertices, and an enum-status neighbour scan (``spread``).
"""

from __future__ import annotations

import enum
import gc
import random
import statistics
import time
from array import array

REF_KERNEL_S = 0.0006  # the kernel's time at reference speed
EVERY_S = 0.01  # op time between two kernel samples
HALF_WINDOW = 2  # an op's scale is the median of the 5 samples nearest to it

_N = 500
_EXTRA_EDGES = 60


class _Status(enum.Enum):
    AVAILABLE = 0
    BURNED = 1


def _graph() -> tuple[tuple[int, ...], ...]:
    rng = random.Random("speed-kernel")
    adj: list[list[int]] = [[] for _ in range(_N)]
    for v in range(1, _N):
        u = rng.randrange(v)
        adj[u].append(v)
        adj[v].append(u)
    for _ in range(_EXTRA_EDGES):
        u, v = rng.randrange(_N), rng.randrange(_N)
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(a) for a in adj)


_ADJ = _graph()


def _work() -> int:
    adj, n, total = _ADJ, _N, 0
    for k in (1, 2):
        blocked = frozenset(range(k, n, 37))
        seen, frontier = {0}, [0]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in seen and u not in blocked:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        covered = frozenset(v for v in range(n) if v not in seen)
        status = [_Status.BURNED if v in seen else _Status.AVAILABLE for v in range(n)]
        newly = [
            v for v in range(n)
            if status[v] is _Status.AVAILABLE and any(status[u] is _Status.BURNED for u in adj[v])
        ]
        total += len(covered) + len(newly)
    return total


def kernel() -> float:
    """Wall time of one run of the reference kernel, collector off."""
    enabled = gc.isenabled()
    gc.disable()  # a collection the package's garbage owes stays the package's
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def median_kernel(samples: int) -> float:
    return statistics.median(kernel() for _ in range(samples))


class Meter:
    """Kernel samples taken between ops, and the scale factor of each op."""

    def __init__(self):
        self.samples = array("d")
        self.after_op = array("l")  # ops done when each sample was taken
        self._owed = 0.0

    def tick(self, dt: float, ops_done: int) -> None:
        self._owed += dt
        if self._owed >= EVERY_S:
            self._owed = 0.0
            self.samples.append(kernel())
            self.after_op.append(ops_done)

    def scales(self, n_ops: int) -> list[float]:
        """Each op's ``REF_KERNEL_S / median`` of the samples nearest to it.

        An op's own sample is the first one taken after it (the last one
        for ops after it); the window is that sample and HALF_WINDOW on
        either side.  Without samples every scale is 1.
        """
        samples = self.samples
        if not samples:
            return [1.0] * n_ops
        w = HALF_WINDOW
        near = [REF_KERNEL_S / statistics.median(samples[max(0, k - w) : k + w + 1])
                for k in range(len(samples))]
        out: list[float] = []
        for k, done in enumerate(self.after_op):
            out += [near[k]] * (done - len(out))
        out += [near[-1]] * (n_ops - len(out))
        return out
