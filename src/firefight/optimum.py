"""Exact offline optimum by exhaustive search over protection schedules.

A search state is the burned set, the region R the fire can still reach
(everything a flood from the burned set touches without crossing a
protected vertex) and the round, all as bitmasks, so the search only fits
small instances; the solver refuses anything larger than ``max_n``, or
whose bitmasks would pass ``MAX_MASK_BYTES``, up front.  A vertex that
burned before the last spread has no unburned neighbor left in R, so each
spread and each flood starts from the ring that caught fire last.  Four
prunings keep it exact:

* **Canonical states.**  Only R's unburned vertices are candidates:
  protecting a vertex the fire can no longer reach never helps.  For the
  same reason a protection outside R never matters again, since every
  vertex on R's boundary is already protected.  Nothing in R was ever
  protected, so the burned set is the ball of radius round - 1 around the
  root inside R: R and the round fix it.  Two states with the same R and
  the same round therefore have the same future, and the same best suffix
  found in the same ascending order, so ``(R, round)`` is the memo key and
  the memoized search returns the plain search's schedule.
* **Full rounds.**  Every branch uses exactly ``min(f, available)``
  firefighters: protecting more never hurts, so smaller subsets are
  dominated.
* **Strict improvement against the incumbent passed down.**  Every call
  gets alpha, the best value its ancestors and earlier siblings already
  hold.  A child whose burned set already leaves at most alpha or the
  node's own incumbent unburned cannot strictly beat it, so it is skipped
  without a search.  A node none of whose children beats alpha fails low:
  it returns alpha, which its caller never adopts, and its memo entry says
  only that the state cannot beat alpha.  Alpha never falls during a
  search, so every later caller of that state holds at least as much and
  can reuse the entry as it stands.  A value above alpha is exact and comes
  with the child's own first best suffix, so the first strictly best
  schedule is unchanged.  A branch stops once it saves everything not yet
  burned.
* **Front cut.**  Of the fire's front (the burned set and its neighbors in
  R), k protections keep at most k vertices from burning this round, so a
  node is worth at most ``n - |front| + k``.  When that is at most alpha
  the node fails low before it enumerates anything or runs the one-pass
  last round below, and stores no memo entry.  The parent takes the same
  cut for each child before it floods the child's region: the child's
  front is its burned set plus the next ring of the vertices that just
  caught fire, all inside that region, and the child's round brings at
  most its f firefighters.  A child cut so is counted as a node but gets
  no flood, no memo lookup and no call; it could only have returned a
  value its parent never adopts.  A child that survives has its region
  flooded from that ring on.

A caller that already holds a schedule worth ``reached`` (a strategy's
profit) passes it in, and the root search starts with alpha
``reached - 1``: branch and bound from a feasible incumbent.  Since the
optimum is at least ``reached``, the root's value is still exact and its
schedule the same first strictly best one, found in at most as many
nodes.  A root that fails low shows no schedule reaches ``reached``, and
raises :class:`UnreachableValueError`.

Once the sequence is exhausted no further protection is possible, so the
remaining spread collapses into R.  A last round with one firefighter
needs no search: protecting v saves v's subtree in the dominator tree of
R with the burned set merged into its root, so on a cactus the chord walk
of that region values every candidate at once.  The walk reads R's
bitmasks in g's own ids (:func:`_region_walk`): g's root stands for the
merged set, whose neighbors in R are the BFS's first layer, and no view is
built.  A region that is no cactus values each candidate by one flood.

One round before such a last round, with one firefighter too, a candidate
off the fire's front lets the fire take the whole front, so its child is
worth what it and one more protection cut off from the front.  On a
cactus (a tree, 1-almost tree or cactus input always leaves one) the
same walk of the residual with the front merged into its root, its cycles
and its dominator tree value every such candidate at once
(``pair_gains``).  Only the first best of them can win, so only its child
is searched, and only if it beats the incumbent; the front's own
candidates are searched as before.  A residual that is no cactus falls
back to one child per candidate.  The pass runs only when some off-front
child could still beat the incumbent by the front bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .engine import Instance, ProtectionSchedule
from .graph import (
    BfsTree,
    CycleWalk,
    Graph,
    NotCactusError,
    _chord_walk,
    validate_and_decompose,
)

DEFAULT_NODE_BUDGET = 50_000_000
DEFAULT_MAX_N = 30
# an entry costs about 170 bytes where most entries fail low (a 61-vertex
# spider, 92,087 entries) and up to about 260 bytes with long schedules, so
# the memo stays under about 0.25 GB; past it the search ends like the node
# budget
MAX_MEMO_ENTRIES = 1_000_000
# the search keeps one n-bit neighbour mask per vertex, up to n*n/8 bytes;
# a graph whose masks would pass this budget is refused up front
MAX_MASK_BYTES = 1 << 28


class OptError(Exception):
    pass


class SearchBudgetExceededError(OptError):
    pass


class GraphTooLargeError(OptError):
    pass


class UnreachableValueError(OptError):
    """A warm start's ``reached`` that no schedule attains."""


def check_mask_budget(n: int) -> None:
    """Refuse a graph of n vertices whose n-bit masks pass ``MAX_MASK_BYTES``."""
    if n * n // 8 > MAX_MASK_BYTES:
        raise GraphTooLargeError(
            f"instance has {n} vertices, too many for the exact solver's bitmasks "
            f"({n * n // 8} bytes, limit {MAX_MASK_BYTES})"
        )


def check_node_budget(node_budget: int) -> None:
    """Refuse a negative search-node budget as a bad parameter; 0 is a
    budget, which the first node searched exhausts."""
    if node_budget < 0:
        raise ValueError(f"node_budget must be at least 0, got {node_budget}")


@dataclass(frozen=True)
class OptResult:
    value: int
    schedule: ProtectionSchedule
    nodes_explored: int
    memo_hits: int
    memo_entries: int
    pruned: int  # children skipped because they cannot strictly beat alpha or the incumbent


def _region_walk(g: Graph, layer: int, kept: int) -> tuple[list[int], CycleWalk] | None:
    """The BFS order and the chord walk of the region ``kept`` with a
    connected set beside it merged into g's root, in g's ids, or None when
    that is no cactus.  ``layer``, a part of ``kept``, is the set's
    neighbors in ``kept``: the BFS's first layer, in ascending id order,
    each one root edge however many edges it has into the set.  The rest
    of g plays no part.  This is the walk of the view that
    :func:`~firefight.graph.contract` would build, g's root standing for
    the view's root, but no view is built.  O(n + m).
    """
    adj = g.adjacency
    root = g.root
    parent = [-1] * g.n
    depth = [-1] * g.n
    depth[root] = 0
    queue = []
    while layer:
        b = layer & -layer
        v = b.bit_length() - 1
        parent[v] = root
        depth[v] = 1
        queue.append(v)
        layer ^= b
    chords = []
    for u in queue:  # the list grows behind the loop: a FIFO queue
        d = depth[u] + 1
        p = parent[u]
        for v in adj[u]:
            if (kept >> v) & 1:
                if depth[v] < 0:
                    depth[v] = d
                    parent[v] = u
                    queue.append(v)
                elif v != p and u < v:  # met from both ends: kept from the smaller
                    chords.append((u, v))
    order = [root, *queue]
    try:
        return order, _chord_walk(BfsTree(order, parent, depth, chords), g.n)
    except NotCactusError:
        return None


def best_single(g: Graph, layer: int, avail: int) -> tuple[int, int] | None:
    """(saved, v) of the best lone protection v in ``avail``, the region
    the fire can still reach less the burned set, whose neighbors of the
    burned set are ``layer``; None when the region with the burned set
    merged into its root is no cactus.

    Protecting v saves v's subtree in that region's dominator tree, the
    walk's ``size`` (:func:`_region_walk`): O(n + m) for all candidates
    together.  Ties go to the lowest id, as in the ascending search.
    """
    found = _region_walk(g, layer, avail)
    if found is None:
        return None
    order, walk = found
    size = walk.size
    v = max(sorted(order[1:]), key=size.__getitem__)  # max keeps the first of equals
    return size[v], v


def pair_gains(g: Graph, front: int, avail: int) -> list[int] | None:
    """For every v in ``avail``, indexed by g's ids, the most vertices that
    protecting v now and one more vertex next round cut off from ``front``,
    the fire's front.  None when ``front | avail`` with the front merged
    into its root is not a cactus.

    With h(u) the size of u's subtree in the dominator tree of ``avail``
    with the front merged into its root (the vertices u alone cuts off, the
    walk's ``size``), the best partner w of v is:

    * the highest dominator of v below the root, worth h of it;
    * any vertex neither above nor below v in the dominator tree, worth
      h(v) + h(w);
    * when v sits on a cycle a, c_1 ... c_L (a its top, v = c_i), c_1 or
      c_L, worth h(c_1) + ... + h(c_i) or h(c_i) + ... + h(c_L).

    The cycles and the dominator tree are the region's chord walk
    (:func:`_region_walk`), each cycle read from its top in whichever
    direction the walk ran; the larger of the two chain sums makes that
    direction immaterial.  No canonical decomposition is built.  O(n + m).
    """
    adj = g.adjacency
    layer = 0
    m = avail
    while m:
        b = m & -m
        if any((front >> w) & 1 for w in adj[b.bit_length() - 1]):
            layer |= b
        m ^= b
    found = _region_walk(g, layer, avail)
    if found is None:
        return None
    order, walk = found
    root = g.root
    idom, saved = walk.idom, walk.size
    arc = [0] * g.n
    for cyc in walk.cycles:
        path = cyc[1:]  # c_1 ... c_L: the walk reads each cycle from its top
        total = sum(saved[c] for c in path)
        prefix = 0
        for c in path:
            prefix += saved[c]
            arc[c] = max(prefix, total - prefix + saved[c])
    # the best and second best h among each vertex's dominator-tree children
    first = [0] * g.n
    second = [0] * g.n
    for u in order[1:]:
        p = idom[u]
        h = saved[u]
        if h > first[p]:
            first[p], second[p] = h, first[p]
        elif h > second[p]:
            second[p] = h
    top_h = [0] * g.n  # h of u's highest dominator below the root
    unrelated = [0] * g.n  # the best h neither above nor below u
    gains = [0] * g.n
    for u in order[1:]:
        p = idom[u]
        h = saved[u]
        best = top_h[u] = h if p == root else top_h[p]
        f = first[p]
        other = second[p] if h == f else f
        if other < unrelated[p]:
            other = unrelated[p]
        unrelated[u] = other
        if h + other > best:
            best = h + other
        gains[u] = arc[u] if arc[u] > best else best
    return gains


def solve_opt(
    instance: Instance,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_n: int = DEFAULT_MAX_N,
    use_memo: bool = True,
    reached: int = 0,
) -> OptResult:
    """Best achievable profit and one schedule attaining it.

    Deterministic: candidate subsets are enumerated in ascending vertex
    order and only strict improvements replace the incumbent, so the
    returned schedule is reproducible.  A negative ``node_budget`` raises
    ValueError before any work.

    ``reached`` is the value of a schedule the caller already holds, such
    as a strategy's profit: the search starts with the incumbent
    ``reached - 1``, so it skips every branch that cannot reach
    ``reached`` and returns the same value and schedule in at most as many
    nodes.  A ``reached`` above the optimum raises
    :class:`UnreachableValueError`.
    """
    check_node_budget(node_budget)
    g = instance.graph
    n = g.n
    if n > max_n:
        raise GraphTooLargeError(f"instance has {n} vertices, limit is {max_n}")
    check_mask_budget(n)
    seq = instance.sequence
    rounds = len(seq)
    nbr = [0] * n
    for u in range(n):
        m = 0
        for v in g.adjacency[u]:
            m |= 1 << v
        nbr[u] = m

    def grow(mask: int) -> int:
        out = mask
        mm = mask
        while mm:
            b = mm & -mm
            out |= nbr[b.bit_length() - 1]
            mm ^= b
        return out

    def flood(front: int, seen: int, allowed: int) -> int:
        # seen plus everything reachable inside allowed from front, a part
        # of seen: one ring at a time, each vertex expanded once
        while front:
            touched = 0
            while front:
                b = front & -front
                touched |= nbr[b.bit_length() - 1]
                front ^= b
            front = touched & allowed & ~seen
            seen |= front
        return seen

    def last_round(burned: int, ring: int, region: int, layer: int) -> tuple[int, int]:
        """(saved, v) of the best lone protection in ``region``, whose
        unburned neighbors of the burned set are ``layer``: one pass on a
        cactus (:func:`best_single`), otherwise one flood per candidate,
        each avoiding it."""
        avail = region & ~burned
        found = best_single(g, layer, avail)
        if found is not None:
            return found
        size = region.bit_count()
        saved = {
            u: size - flood(ring, burned, region & ~(1 << u)).bit_count()
            for u in range(n)
            if (avail >> u) & 1
        }
        v = max(saved, key=saved.__getitem__)
        return saved[v], v

    nodes = 0
    hits = 0
    pruned = 0
    memo: dict[int, tuple[int, ProtectionSchedule]] = {}

    def off_front_search(burned: int, front: int, region: int, best_val: int) -> tuple[int, int]:
        """(keep, bound) for the candidates in ``region`` off the fire's
        front, one round before a last round and both rounds with one
        firefighter: a candidate's child is searched only if it is in the
        mask ``keep`` and ``bound`` beats the incumbent.

        Protecting v off the front lets the fire take the front.  Its child
        then leaves the front and the front's neighbors (v aside) burning
        but for the one it protects, so while that cannot beat
        ``best_val`` no candidate, or only a neighbor of the front, needs a
        search.  Otherwise v's child is worth n - |region| plus what v and
        the next protection cut off from the front together:
        ``pair_gains`` values every candidate so, one node each, and only
        the first best is kept.  A residual that is no cactus keeps all.
        """
        nonlocal nodes
        off = region & ~front
        roots = grow(front & ~burned) & off
        base = n - front.bit_count() - roots.bit_count()
        if base + 2 <= best_val:
            return 0, n
        if base + 1 <= best_val:
            return roots, n
        gains = pair_gains(g, front, off)
        if gains is None:
            return off, n
        nodes += off.bit_count()
        if nodes > node_budget:
            raise SearchBudgetExceededError(f"node budget {node_budget} exhausted")
        v = max((u for u in range(n) if (off >> u) & 1), key=gains.__getitem__)
        return 1 << v, n - region.bit_count() + gains[v]

    def dfs(
        burned: int, ring: int, region: int, rnd: int, alpha: int
    ) -> tuple[int, ProtectionSchedule]:
        # region = what the fire can still reach; its boundary is protected.
        # ring = the vertices that caught fire last; the rest of burned has
        # no unburned neighbor in region.  alpha = the value the caller
        # already holds: a result above it is exact, one at most alpha only
        # says the state cannot beat it
        nonlocal nodes, hits, pruned
        nodes += 1
        if nodes > node_budget:
            raise SearchBudgetExceededError(f"node budget {node_budget} exhausted")
        if rnd > rounds or region == burned:
            return n - region.bit_count(), ()
        # (region, rnd) packed into one int; region and rnd fix burned
        key = (rnd << n) | region
        if use_memo:
            # a fail-low entry is reused as it stands: the alpha passed down
            # never falls during a search, so its caller holds at least the
            # alpha it was searched under
            hit = memo.get(key)
            if hit is not None:
                hits += 1
                return hit
        avail_mask = region & ~burned
        k = min(seq[rnd - 1], avail_mask.bit_count())
        front = burned | (grow(ring) & region)
        if n - front.bit_count() + k <= alpha:
            # k protections leave at least |front| - k vertices burned; a cut
            # this cheap is not worth a memo entry
            return alpha, ()
        if k == 0:
            result = dfs(front, front & ~burned, region, rnd + 1, alpha)
        elif k == 1 and rnd == rounds:
            nodes += avail_mask.bit_count()
            if nodes > node_budget:
                raise SearchBudgetExceededError(f"node budget {node_budget} exhausted")
            saved, v = last_round(burned, ring, region, front & ~burned)
            result = (n - region.bit_count() + saved, ((rnd, v),))
        else:
            avail = [v for v in range(n) if (avail_mask >> v) & 1]
            ub = n - burned.bit_count()
            # one round before a last round, both with one firefighter: the
            # off-front candidates are sorted out at once, when the first of
            # them survives the cut below
            paired = k == 1 and rnd == rounds - 1 and seq[-1] == 1
            off_keep = None
            # the firefighters of the children's round, if they have one
            k_next = seq[rnd] if rnd < rounds else 0
            best_val = alpha
            best_suf: ProtectionSchedule = ()
            for combo in itertools.combinations(avail, k):
                cm = 0
                for v in combo:
                    cm |= 1 << v
                nb = front & ~cm
                if n - nb.bit_count() <= best_val:
                    pruned += 1
                    continue
                if paired and nb == front:
                    if off_keep is None:
                        off_keep, off_bound = off_front_search(burned, front, region, best_val)
                    if not cm & off_keep or off_bound <= best_val:
                        pruned += 1
                        continue
                # a burned vertex's neighbors in region are in front, so only
                # the newly burned vertices can reach anything new; their
                # next ring lies in the child's region, so the child's front
                # is nb | nxt and its cut is taken here, before any flood
                new = nb & ~burned
                allowed = region & ~cm
                nxt = grow(new) & allowed & ~nb
                if n - nb.bit_count() - nxt.bit_count() + k_next <= best_val:
                    # the child could only return a value not above best_val
                    nodes += 1
                    if nodes > node_budget:
                        raise SearchBudgetExceededError(f"node budget {node_budget} exhausted")
                    continue
                val, suf = dfs(nb, new, flood(nxt, nb | nxt, allowed), rnd + 1, best_val)
                if val > best_val:
                    best_val = val
                    best_suf = tuple((rnd, v) for v in combo) + suf
                    if best_val >= ub:
                        break
            result = (best_val, best_suf)
        if use_memo:
            if len(memo) >= MAX_MEMO_ENTRIES:
                raise SearchBudgetExceededError(
                    f"memo cap of {MAX_MEMO_ENTRIES} entries reached"
                )
            memo[key] = result
        return result

    root = 1 << g.root
    value, sched = dfs(root, root, flood(root, root, (1 << n) - 1), 1, reached - 1)
    if value < reached:
        # the root failed low: its value is only the incumbent passed in
        raise UnreachableValueError(f"no schedule reaches {reached}; the optimum is below it")
    return OptResult(
        value=value,
        schedule=sched,
        nodes_explored=nodes,
        memo_hits=hits,
        memo_entries=len(memo),
        pruned=pruned,
    )


def opt_upper_bound(instance: Instance) -> int:
    """Cheap bound: a vertex burns for sure when no firefighter arrives
    before the fire can, i.e. the budget prefix up to its depth is zero.
    """
    g = instance.graph
    dd = g.bfs.depth
    prefix = list(itertools.accumulate(instance.sequence))

    def cum(d: int) -> int:
        if d < 1 or not prefix:
            return 0
        return prefix[min(d, len(prefix)) - 1]

    doomed = sum(1 for v in range(g.n) if v != g.root and cum(dd[v]) == 0)
    return g.n - 1 - doomed


def normalize_nonredundant(
    instance: Instance, schedule: ProtectionSchedule
) -> ProtectionSchedule:
    """Drop provably redundant cycle protections from a valid schedule.

    Whenever three or more protected vertices sit on one cycle, any vertex
    strictly between the two outermost (in cyclic order from the cycle's
    closest-to-root vertex) is shielded by them no matter the timing, so
    removing it changes neither validity nor profit.  Keeps dropping until
    every cycle carries at most two protections.

    The cycles are read in canonical form (:func:`validate_and_decompose`),
    not as the chord walk found them: which protection a cycle loses
    depends on the direction the cycle is read in and on the order the
    cycles are visited, and on random cacti about half of the over-full
    schedules come out differently in the walk's order.
    """
    g = instance.graph
    decomp = validate_and_decompose(g)
    entries = list(schedule)
    if not decomp.cycles:
        return tuple(entries)
    changed = True
    while changed:
        changed = False
        for cyc, top in zip(decomp.cycles, decomp.tops):
            k = cyc.index(top)
            pos = {v: i for i, v in enumerate(cyc[k:] + cyc[:k])}
            on_cycle = sorted(
                (e for e in entries if e[1] in pos), key=lambda e: pos[e[1]]
            )
            if len(on_cycle) >= 3:
                entries.remove(on_cycle[1])
                changed = True
    return tuple(entries)
