"""Hypothesis strategies for graphs, shared by the test modules."""

from hypothesis import strategies as st

from firefight.graph import Graph
from firefight.instances import random_cactus, random_one_almost_tree, random_tree


@st.composite
def connected_graphs(draw, max_n=10, max_extra=5):
    """Random connected graph: spanning tree by parent choice plus extras."""
    n = draw(st.integers(2, max_n))
    edges = set()
    for i in range(1, n):
        p = draw(st.integers(0, i - 1))
        edges.add((p, i))
    for _ in range(draw(st.integers(0, max_extra))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


@st.composite
def cacti(draw, max_n=12):
    n = draw(st.integers(3, max_n))
    seed = draw(st.integers(0, 2**20))
    frac = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0]))
    return random_cactus(n, frac, 6, seed)


@st.composite
def relabelled_cacti(draw, max_n=12):
    """A tree, 1-almost tree or cactus under a random relabelling, so the
    root is not always vertex 0."""
    kind = draw(st.sampled_from(["tree", "one-almost-tree", "cactus"]))
    seed = draw(st.integers(0, 2**20))
    if kind == "tree":
        g = random_tree(draw(st.integers(2, max_n)), seed)
    elif kind == "one-almost-tree":
        g = random_one_almost_tree(draw(st.integers(3, max_n)), seed)
    else:
        g = draw(cacti(max_n))
    perm = draw(st.permutations(range(g.n)))
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()], perm[g.root])
