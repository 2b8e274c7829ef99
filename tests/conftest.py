"""Shared fixtures: small-graph sources and independent brute-force oracles.

The oracles here deliberately avoid the library's own machinery: forest
checks go through networkx cycle bases, independence checks through pairwise
edge tests, components through networkx, so agreement is meaningful.  The
graph operations the library does not need (components as vertex tuples,
induced subgraphs, disjoint unions) live here as well.
"""

from __future__ import annotations

import sys
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import strategies as st
from networkx.generators.atlas import graph_atlas_g

from wfcover import Graph, VertexSubset

ATLAS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}


def clear_wfcover_caches() -> None:
    """Empty every ``lru_cache`` bound in a wfcover module, found the way the
    benchmark finds them, so that a count taken next starts cold whatever
    the tests before it left warm."""
    for name, mod in list(sys.modules.items()):
        if name == "wfcover" or name.startswith("wfcover."):
            for value in vars(mod).values():
                if hasattr(value, "cache_info") and callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.order))
    G.add_edges_from(g.edges())
    return G


def atlas_graphs(max_order: int, connected: bool | None = None) -> list[Graph]:
    """One labeled representative per isomorphism class, orders 1..max_order."""
    out = []
    counts: dict[int, int] = {}
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if not 1 <= n <= max_order:
            continue
        counts[n] = counts.get(n, 0) + 1
        if connected is not None and nx.is_connected(G) != connected:
            continue
        out.append(Graph.from_edges(n, list(G.edges())))
    for n in range(1, max_order + 1):
        assert counts[n] == ATLAS_COUNTS[n], f"atlas miscount at order {n}"
    return out


def graph_from_mask(n: int, mask: int) -> Graph:
    """Labeled graph from an upper-triangle edge mask (column-major bit order)."""
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if (mask >> idx) & 1:
                edges.append((i, j))
            idx += 1
    return Graph.from_edges(n, edges)


@st.composite
def graphs(draw, min_order: int = 1, max_order: int = 8):
    n = draw(st.integers(min_order, max_order))
    bits = n * (n - 1) // 2
    mask = draw(st.integers(0, (1 << bits) - 1))
    return graph_from_mask(n, mask)


@st.composite
def twin_rich_graphs(draw, max_order: int = 12):
    """A small random graph with each vertex replaced by a class of false
    twins (nK1) or true twins (Kn), joined wherever the graph has an edge,
    then randomly relabelled so that twins are not numbered together."""
    base = draw(graphs(max_order=6))
    blocks = []
    n = 0
    for v in range(base.order):
        size = draw(st.integers(1, min(4, max_order - n - (base.order - 1 - v))))
        blocks.append(range(n, n + size))
        n += size
    edges = [(a, b) for u, v in base.edges() for a in blocks[u] for b in blocks[v]]
    for block in blocks:
        if draw(st.booleans()):
            edges += combinations(block, 2)
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[a], perm[b]) for a, b in edges])


def all_labeled_graphs(n: int):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield graph_from_mask(n, mask)


def nx_is_forest(G: nx.Graph, vertices) -> bool:
    """Independent acyclicity test: empty cycle basis of the induced subgraph."""
    return not nx.cycle_basis(G.subgraph(vertices))


def naive_maximal_forests(g: Graph) -> set[frozenset[int]]:
    """Subset-filter oracle: all subsets, keep induced forests with no forest
    extension.  Each subset's cycle basis is taken once, so the extensions
    are looked up among the forests found."""
    G = to_nx(g)
    universe = range(g.order)
    found = {
        frozenset(combo)
        for r in range(g.order + 1)
        for combo in combinations(universe, r)
        if nx_is_forest(G, combo)
    }
    return {s for s in found if not any(s | {v} in found for v in universe if v not in s)}


def naive_maximal_independent(g: Graph) -> set[frozenset[int]]:
    """Subset-filter oracle for maximal independent sets."""
    G = to_nx(g)
    out = set()
    universe = range(g.order)
    for r in range(g.order + 1):
        for combo in combinations(universe, r):
            s = set(combo)
            if any(G.has_edge(u, v) for u, v in combinations(s, 2)):
                continue
            if any(all(not G.has_edge(v, u) for u in s) for v in universe if v not in s):
                continue
            out.add(frozenset(s))
    return out


def dfs_has_cycle(g: Graph) -> bool:
    """Independent DFS cycle finder (back-edge detection with parent tracking)."""
    color = [0] * g.order
    for start in range(g.order):
        if color[start]:
            continue
        stack = [(start, -1, iter(range(g.order)))]
        color[start] = 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for u in it:
                if not g.has_edge(v, u):
                    continue
                if color[u] and u != parent:
                    return True
                if not color[u]:
                    color[u] = 1
                    stack.append((u, v, iter(range(g.order))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
    return False


def edgewise_symmetry_error(adj: tuple[int, ...]) -> str | None:
    """The edge-by-edge symmetry rule: the message naming the first edge
    u-v (v ascending, then u ascending in row v) whose reverse is missing,
    or None when every row matches its column."""
    for v, row in enumerate(adj):
        for u in range(len(adj)):
            if (row >> u) & 1 and not (adj[u] >> v) & 1:
                return f"adjacency not symmetric between {u} and {v}"
    return None


def connected_components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Vertex partition into connected components (networkx), ordered by
    smallest member."""
    comps = (tuple(sorted(c)) for c in nx.connected_components(to_nx(g)))
    return tuple(sorted(comps))


def induced_subgraph(g: Graph, s: VertexSubset) -> Graph:
    """The subgraph induced by ``s``, vertices renumbered in ascending order."""
    if s.order != g.order:
        raise ValueError("subset belongs to a graph of different order")
    if not len(s):
        raise ValueError("an induced subgraph needs at least one vertex")
    verts = sorted(s)
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return Graph.from_edges(len(verts), edges)


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """The disjoint union, with g2's vertices offset by g1.order."""
    edges = g1.edges() + [(u + g1.order, v + g1.order) for u, v in g2.edges()]
    return Graph.from_edges(g1.order + g2.order, edges)


@pytest.fixture(scope="session")
def atlas_le4() -> list[Graph]:
    return atlas_graphs(4)


@pytest.fixture(scope="session")
def atlas_le5() -> list[Graph]:
    return atlas_graphs(5)


@pytest.fixture(scope="session")
def atlas_le6() -> list[Graph]:
    return atlas_graphs(6)
