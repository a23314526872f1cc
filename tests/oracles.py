"""Independent reference implementations used to cross-check the package.

Everything here leans on networkx or literal definitions instead of the
library's own BFS and decomposition code, so a bug in firefight.graph or
firefight.engine cannot hide by agreeing with itself.  The exception is
:func:`region_view` and the two valuations read off it: the contracted
views the solver's last rounds once built, kept as the reference for the
walk that replaced them.
"""

import itertools
from collections import defaultdict

import networkx as nx

from firefight.graph import DisconnectedError, NotCactusError, contract, fundamental_cycles


def to_nx(g) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_edges_reference(n, edges, root=0):
    """``Graph.from_edges`` as one loop that checks each edge as it comes:
    the sorted adjacency of a simple connected graph, or the error the
    first faulty argument or edge raises."""
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    seen = set()
    adj = [[] for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range")
        if u == v:
            raise ValueError(f"self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ValueError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(seen)
    if not nx.is_connected(h):
        raise DisconnectedError("graph is not connected")
    return tuple(tuple(sorted(nb)) for nb in adj)


def covered_by_reachability(g, removed, s):
    """Complement of the root's component once ``s`` is deleted."""
    removed = frozenset(removed)
    s = frozenset(s)
    h = to_nx(g)
    h.remove_nodes_from(removed | s)
    reach = nx.node_connected_component(h, g.root)
    return frozenset(v for v in range(g.n) if v not in removed and v not in reach)


def covered_by_path_enumeration(g, removed, s):
    """Literal reading: every simple root path to v meets s.

    Exponential; only call on small graphs.
    """
    removed = frozenset(removed)
    s = frozenset(s)
    h = to_nx(g)
    h.remove_nodes_from(removed)
    out = set()
    for v in range(g.n):
        if v in removed or v == g.root:
            continue
        if not nx.has_path(h, g.root, v):
            out.add(v)  # no root path at all: vacuously covered
            continue
        if all(set(p) & s for p in nx.all_simple_paths(h, g.root, v)):
            out.add(v)
    return frozenset(out)


def nx_distances(g, removed=()):
    h = to_nx(g)
    h.remove_nodes_from(set(removed))
    return nx.single_source_shortest_path_length(h, g.root)


def count_safe_oracle(g, removed, d):
    dd = nx_distances(g, removed)
    alive = g.n - len(set(removed))
    return alive - sum(1 for x in dd.values() if x < d)


def is_cactus(h: nx.Graph) -> bool:
    """Every edge on at most one simple cycle: each nontrivial biconnected
    component must itself be a cycle (#edges == #nodes)."""
    if h.number_of_nodes() == 0 or not nx.is_connected(h):
        return False
    for comp in nx.biconnected_component_edges(h):
        edges = list(comp)
        nodes = {u for e in edges for u in e}
        if len(edges) > 1 and len(edges) != len(nodes):
            return False
    return True


def cycle_count(h: nx.Graph) -> int:
    # connected graphs only
    return h.number_of_edges() - h.number_of_nodes() + 1


def _rounds_of(instance, schedule):
    by_round = defaultdict(list)
    for r, v in schedule:
        by_round[r].append(v)
    horizon = max([len(instance.sequence), *by_round.keys()] or [0])
    return by_round, horizon


def flood_replay(instance, schedule) -> int:
    """Status-free replay: plain sets and one-hop floods, no engine objects."""
    g = instance.graph
    by_round, horizon = _rounds_of(instance, schedule)
    burned, protected = {g.root}, set()
    for r in range(1, horizon + 1):
        protected.update(by_round.get(r, ()))
        burned |= {w for u in burned for w in g.adjacency[u]} - protected
    while True:
        nxt = {w for u in burned for w in g.adjacency[u]} - protected - burned
        if not nxt:
            break
        burned |= nxt
    return g.n - len(burned)


def _view_weight(g, burned, protected, v) -> int:
    """Worth of protecting v in the current contracted position.

    The burning region fuses into one source node, protected vertices and
    everything they already cut off vanish; v is worth its own covered set
    in what remains.
    """
    h = to_nx(g)
    h.remove_nodes_from(protected)
    comp = nx.node_connected_component(h, g.root)
    avail = comp - burned
    assert v in avail, f"schedule protects unavailable vertex {v}"
    view = nx.Graph()
    view.add_node("R")
    view.add_nodes_from(avail)
    for u in avail:
        for w in g.adjacency[u]:
            if w in avail:
                view.add_edge(u, w)
            elif w in burned:
                view.add_edge("R", u)
    view.remove_node(v)
    reach = nx.node_connected_component(view, "R")
    return 1 + sum(1 for u in avail if u != v and u not in reach)


def view_profit(instance, schedule) -> int:
    """Profit accounted one protection at a time in contracted views.

    The position is rebuilt from scratch around every protection, so each
    firefighter is valued with all earlier coverage already stripped.  The
    per-protection weights must add up to the final saved count.
    """
    g = instance.graph
    by_round, horizon = _rounds_of(instance, schedule)
    burned, protected = {g.root}, set()
    total = 0
    for r in range(1, horizon + 1):
        for v in by_round.get(r, ()):
            total += _view_weight(g, burned, protected, v)
            protected.add(v)
        burned |= {w for u in burned for w in g.adjacency[u]} - protected
    return total


def region_view(g, merged, kept):
    """The view of g with the vertices of ``merged`` merged into its root,
    those of ``kept`` kept and the rest dropped, with its chord walk, or
    with None when the view is no cactus: what the solver's one-pass last
    rounds read before they walked the region in g's own ids.  Built with
    the package's ``contract`` and ``fundamental_cycles``, on a view graph
    of its own, so it shares only the chord walk with the solver."""
    index = [-1] * g.n
    k = 0
    for v in range(g.n):
        if (merged >> v) & 1:
            index[v] = 0
        elif (kept >> v) & 1:
            k += 1
            index[v] = k
    sub = contract(g, index)
    try:
        return sub, fundamental_cycles(sub.graph)
    except NotCactusError:
        return sub, None


def view_best_single(g, burned, avail):
    """``optimum.best_single`` read off :func:`region_view`: the view id of
    largest size, the lowest of equals, mapped back to g's ids."""
    sub, walk = region_view(g, burned, avail)
    if walk is None:
        return None
    i = max(range(1, sub.graph.n), key=walk.size.__getitem__)
    return walk.size[i], sub.to_orig[i]


def view_pair_gains(g, front, avail):
    """``optimum.pair_gains`` read off :func:`region_view`, in view ids and
    mapped back to g's ids."""
    sub, walk = region_view(g, front, avail)
    if walk is None:
        return None
    view = sub.graph
    idom, saved, order = walk.idom, walk.size, view.bfs.order
    arc = [0] * view.n
    for cyc in walk.cycles:
        path = cyc[1:]
        total = sum(saved[c] for c in path)
        prefix = 0
        for c in path:
            prefix += saved[c]
            arc[c] = max(prefix, total - prefix + saved[c])
    first = [0] * view.n
    second = [0] * view.n
    for u in order[1:]:
        p = idom[u]
        h = saved[u]
        if h > first[p]:
            first[p], second[p] = h, first[p]
        elif h > second[p]:
            second[p] = h
    top_h = [0] * view.n
    unrelated = [0] * view.n
    gains = [0] * g.n
    for u in order[1:]:
        p = idom[u]
        h = saved[u]
        best = top_h[u] = h if p == 0 else top_h[p]
        f = first[p]
        other = second[p] if h == f else f
        if other < unrelated[p]:
            other = unrelated[p]
        unrelated[u] = other
        if h + other > best:
            best = h + other
        gains[sub.to_orig[u]] = arc[u] if arc[u] > best else best
    return gains


def solve_opt_reference(instance):
    """Exact optimum as ``(value, schedule)``: the solver's plain search.

    A frozen copy of the exhaustive solver as it was before its canonical
    memo key, child cut and one-pass last round: memo on (burned,
    protected, round), every child searched.  Candidate subsets go in
    ascending vertex order and only strict improvements replace the
    incumbent, so its schedule is the one the package must return too.
    Exponential; small graphs only.
    """
    g = instance.graph
    n = g.n
    seq = instance.sequence
    rounds = len(seq)
    full = (1 << n) - 1
    nbr = [0] * n
    for u in range(n):
        m = 0
        for v in g.adjacency[u]:
            m |= 1 << v
        nbr[u] = m

    def grow(mask):
        out = mask
        mm = mask
        while mm:
            b = mm & -mm
            out |= nbr[b.bit_length() - 1]
            mm ^= b
        return out

    def spread_once(burned, protected):
        return grow(burned) & ~protected & full

    def reach(burned, protected):
        seen = burned
        stack = []
        mm = burned
        while mm:
            b = mm & -mm
            stack.append(b.bit_length() - 1)
            mm ^= b
        while stack:
            u = stack.pop()
            mm = nbr[u] & ~seen & ~protected
            while mm:
                b = mm & -mm
                seen |= b
                stack.append(b.bit_length() - 1)
                mm ^= b
        return seen

    memo = {}

    def dfs(burned, protected, rnd):
        if rnd > rounds:
            final = reach(burned, protected)
            return n - bin(final).count("1"), ()
        key = (burned, protected, rnd)
        if key in memo:
            return memo[key]
        avail_mask = reach(burned, protected) & ~burned
        avail = [v for v in range(n) if (avail_mask >> v) & 1]
        k = min(seq[rnd - 1], len(avail))
        if k == 0:
            if not avail:
                result = (n - bin(burned).count("1"), ())
            else:
                result = dfs(spread_once(burned, protected), protected, rnd + 1)
        else:
            ub = n - bin(burned).count("1")
            best_val = -1
            best_suf = ()
            for combo in itertools.combinations(avail, k):
                pm = protected
                for v in combo:
                    pm |= 1 << v
                val, suf = dfs(spread_once(burned, pm), pm, rnd + 1)
                if val > best_val:
                    best_val = val
                    best_suf = tuple((rnd, v) for v in combo) + suf
                    if best_val >= ub:
                        break
            result = (best_val, best_suf)
        memo[key] = result
        return result

    return dfs(1 << g.root, 0, 1)
