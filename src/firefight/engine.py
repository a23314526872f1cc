"""Round-based firefighting game state.

A game runs on an instance (graph + firefighter sequence).  The fire starts
at the root.  Each round the player protects up to f_i still-available
vertices, then the fire spreads one step to every unprotected neighbor of a
burning vertex.  Unused firefighters are lost; the game ends when the fire
cannot spread any more, and the profit is the number of unburned vertices.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple

from .graph import Graph, Subgraph, contract, covered_set


class GameError(Exception):
    pass


class VertexUnavailableError(GameError):
    pass


class NoFirefighterLeftError(GameError):
    pass


class GameNotFinishedError(GameError):
    pass


class InvalidScheduleError(GameError):
    pass


class Status(Enum):
    AVAILABLE = "available"
    PROTECTED = "protected"
    BURNED = "burned"


# the members as plain module names: loading Status.X looks the member up
# each time, so the per-vertex loops here and in the strategies use these
AVAILABLE, PROTECTED, BURNED = Status.AVAILABLE, Status.PROTECTED, Status.BURNED


class TraceEntry(NamedTuple):
    time: int
    round: int
    vertex: int


# a schedule is a collection of (round, vertex) protection orders
ProtectionSchedule = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Instance:
    """A firefighting problem: a rooted graph and the firefighter sequence.

    ``sequence[i]`` firefighters arrive in round i+1; rounds past the end of
    the sequence get none.  ``name`` is a label for reports only.
    """

    graph: Graph
    sequence: tuple[int, ...]
    name: str | None = None

    def __post_init__(self):
        if any(isinstance(f, bool) or not isinstance(f, int) or f < 0 for f in self.sequence):
            raise ValueError("firefighter counts must be nonnegative integers")

    def firefighters(self, round_no: int) -> int:
        if round_no < 1:
            raise ValueError("rounds are numbered from 1")
        if round_no <= len(self.sequence):
            return self.sequence[round_no - 1]
        return 0


class GameState:
    """Mutable game position: statuses, current round, protection trace.

    A status only ever leaves ``AVAILABLE``, never returns to it.  So a
    vertex that burned before the last spread has no available neighbor
    left, and the fire's next step starts from ``_front``, the vertices
    that caught fire last (initially the root).  Spreading, the finished
    test and the search for reachable vertices look at the front only,
    which makes a round cost time proportional to the burning front.
    Once no firefighter is left to place, :meth:`burn_out` plays the
    remaining rounds in one pass, so the fire costs O(n + m) over a whole
    :func:`replay`.  The state counts its burned vertices, so
    :meth:`profit` needs no scan of the statuses.  A strategy game
    (:func:`~firefight.algorithms.run_algorithm`) stops at its last
    decision instead and counts its profit from the residual game's weights.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        root = instance.graph.root
        self.status: list[Status] = [AVAILABLE] * instance.graph.n
        self.status[root] = BURNED
        self.round = 1
        self.trace: list[TraceEntry] = []
        self._placed_this_round = 0
        self._front: list[int] = [root]
        self._burned = 1

    def protect(self, v: int) -> None:
        """Place one firefighter on v during the current round."""
        if not 0 <= v < self.instance.graph.n:
            raise VertexUnavailableError(f"vertex {v} does not exist")
        if self.status[v] is not AVAILABLE:
            raise VertexUnavailableError(f"vertex {v} is {self.status[v].value}")
        if self._placed_this_round >= self.instance.firefighters(self.round):
            raise NoFirefighterLeftError(f"round {self.round} budget exhausted")
        self.status[v] = PROTECTED
        self._placed_this_round += 1
        self.trace.append(TraceEntry(len(self.trace) + 1, self.round, v))

    def spread(self) -> list[int]:
        """Advance the fire one step and start the next round; returns the
        vertices that caught fire, the new front."""
        adj = self.instance.graph.adjacency
        status = self.status
        newly = []
        for u in self._front:
            for v in adj[u]:
                if status[v] is AVAILABLE:
                    status[v] = BURNED
                    newly.append(v)
        self._front = newly
        self._burned += len(newly)
        self.round += 1
        self._placed_this_round = 0
        return newly

    def burn_out(self) -> None:
        """Spread until the fire stops, with no firefighter placed meanwhile.

        One loop over local names, ring by ring; the state's counters are
        written once at the end.  Leaves the statuses, the round, the front
        and the burned count as calling :meth:`spread` until
        :meth:`is_finished` would: a round passes for every ring that
        catches fire, none for the empty last one, so a finished state is
        left as it was.
        """
        adj = self.instance.graph.adjacency
        status = self.status
        front = self._front
        burned = rounds = 0
        while True:
            newly = []
            for u in front:
                for v in adj[u]:
                    if status[v] is AVAILABLE:
                        status[v] = BURNED
                        newly.append(v)
            if not newly:
                break
            front = newly
            burned += len(newly)
            rounds += 1
        if rounds:
            self._front = front
            self._burned += burned
            self.round += rounds
            self._placed_this_round = 0

    def is_finished(self) -> bool:
        adj = self.instance.graph.adjacency
        status = self.status
        for u in self._front:
            for v in adj[u]:
                if status[v] is AVAILABLE:
                    return False
        return True

    def profit(self) -> int:
        if not self.is_finished():
            raise GameNotFinishedError("fire can still spread")
        return self.instance.graph.n - self._burned

    def truly_available(self) -> frozenset[int]:
        """Vertices the fire can still reach: unburned, unprotected, and
        connected to the burning region by a protected-free path."""
        return frozenset(self._live())

    def _live(self) -> list[int]:
        """The truly available vertices, in BFS order from the front."""
        adj = self.instance.graph.adjacency
        status = self.status
        seen = bytearray(len(status))
        queue = list(self._front)
        for u in queue:  # the list grows behind the loop: a FIFO queue
            for v in adj[u]:
                if not seen[v] and status[v] is AVAILABLE:
                    seen[v] = 1
                    queue.append(v)
        return queue[len(self._front):]

    def view_index(self) -> list[int]:
        """Each vertex's id in :meth:`reduced_view`: 0 when burned, -1 when
        protected or cut off from the fire, 1..k for the truly available
        vertices in increasing order.  The index :func:`contract` takes."""
        index = [0 if s is BURNED else -1 for s in self.status]
        for i, v in enumerate(sorted(self._live()), 1):
            index[v] = i
        return index

    def reduced_view(self) -> Subgraph:
        """Shrink the position to its live part.

        The burning region contracts into a single root, everything already
        protected or cut off from the fire disappears, and parallel edges
        from the contraction collapse.  View id 0 is the contracted root and
        maps back to the fire source; other ids keep the original order.
        """
        return contract(self.instance.graph, self.view_index())


def replay(instance: Instance, schedule: Iterable[tuple[int, int]]) -> tuple[int, GameState]:
    """Run a fixed protection schedule to completion and return its profit.

    Raises :class:`InvalidScheduleError` when the schedule protects a burned
    or already-protected vertex, overspends a round's budget, or is malformed.
    Plays only the rounds in which the fire still spreads or the schedule
    protects: once the fire has stopped, a round changes nothing but the
    round number, so the game jumps to the next scheduled round.
    """
    by_round: dict[int, list[int]] = {}
    for entry in schedule:
        try:
            r, v = map(operator.index, entry)
        except (TypeError, ValueError) as exc:
            raise InvalidScheduleError(f"malformed entry {entry!r}") from exc
        if r < 1:
            raise InvalidScheduleError(f"round {r} out of range")
        by_round.setdefault(r, []).append(v)
    state = GameState(instance)
    for r in sorted(by_round):
        while state.round < r:
            if not state.spread():  # the fire has stopped
                state.round = r
        for v in by_round[r]:
            try:
                state.protect(v)
            except GameError as exc:
                raise InvalidScheduleError(f"round {r}, vertex {v}: {exc}") from exc
        state.spread()
    state.burn_out()
    return state.profit(), state


def profit_of_protections(g: Graph, protected: Iterable[int]) -> int:
    """Profit a finished game must show: the weight of its protected set."""
    return len(covered_set(g, frozenset(), frozenset(protected)))
