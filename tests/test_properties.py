"""Property-based checks over randomly drawn graphs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import wfcover.forests as forests
import wfcover.independence as independence
from wfcover import (
    Graph,
    VertexSubset,
    enumerate_maximal_independent_sets,
    enumerate_maximal_induced_forests,
    forest_number,
    forest_stats,
    from_graph6,
    generate,
    independence_number,
    is_induced_forest,
    is_maximal_independent_set,
    is_maximal_induced_forest,
    lexicographic,
    parse_family,
    to_graph6,
)

from conftest import (
    connected_components,
    dfs_has_cycle,
    disjoint_union,
    graphs,
    induced_subgraph,
    twin_rich_graphs,
)


@given(graphs(max_order=20))
def test_graph6_roundtrip(g):
    record = to_graph6(g)
    assert from_graph6(record) == g
    assert to_graph6(from_graph6(record)) == record


@given(graphs(max_order=5), graphs(max_order=5))
def test_product_order_and_edge_identity(g, h):
    product, _ = lexicographic(g, h)
    assert product.order == g.order * h.order
    assert product.edge_count == g.edge_count * h.order**2 + g.order * h.edge_count


@given(graphs(max_order=5), graphs(max_order=5))
def test_product_adjacency_rule(g, h):
    product, index_map = lexicographic(g, h)
    for v in range(product.order):
        g1, h1 = index_map.decode(v)
        for w in range(v + 1, product.order):
            g2, h2 = index_map.decode(w)
            expected = g.has_edge(g1, g2) or (g1 == g2 and h.has_edge(h1, h2))
            assert product.has_edge(v, w) == expected


@settings(max_examples=60)
@given(graphs(max_order=7))
def test_forest_stats_sum_identity(g):
    for forest in enumerate_maximal_induced_forests(g):
        stats = forest_stats(g, forest)
        assert stats.total == len(forest)
        assert is_induced_forest(g, forest)


@settings(max_examples=60)
@given(graphs(max_order=6))
def test_alpha_le_forest_number_le_order(g):
    assert independence_number(g) <= forest_number(g) <= g.order


@settings(max_examples=40)
@given(graphs(max_order=4), graphs(max_order=4))
def test_forest_number_additive_over_union(g, h):
    assert forest_number(disjoint_union(g, h)) == forest_number(g) + forest_number(h)


@settings(max_examples=40)
@given(graphs(max_order=7))
def test_enumeration_deterministic(g):
    assert enumerate_maximal_induced_forests(g) == enumerate_maximal_induced_forests(g)


# Each kernel against the polynomial maximality predicate applied to all 2^n
# vertex subsets.
KERNELS = (
    (enumerate_maximal_induced_forests, is_maximal_induced_forest),
    (enumerate_maximal_independent_sets, is_maximal_independent_set),
)


def all_subsets_oracle(g: Graph, is_maximal) -> list[VertexSubset]:
    subsets = (VertexSubset(g.order, mask) for mask in range(1 << g.order))
    return [s for s in subsets if is_maximal(g, s)]


def star_hub_last(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(v, leaves) for v in range(leaves)])


def wheel_hub_last(rim: int) -> Graph:
    edges = [(v, (v + 1) % rim) for v in range(rim)] + [(v, rim) for v in range(rim)]
    return Graph.from_edges(rim + 1, edges)


# Hubs numbered last, alone and with every vertex blown up into a fibre, so
# the hub fibre is the last one.
HUB_LAST = {
    "K1,4": star_hub_last(4),
    "K1,4 o 2K1": lexicographic(star_hub_last(4), generate(parse_family("empty:2")))[0],
    "K1,3 o 3K1": lexicographic(star_hub_last(3), generate(parse_family("empty:3")))[0],
    "K1,3 o P3": lexicographic(star_hub_last(3), generate(parse_family("path:3")))[0],
    "W6": wheel_hub_last(6),
    "W5 o 2K1": lexicographic(wheel_hub_last(5), generate(parse_family("empty:2")))[0],
}


@pytest.mark.parametrize("name", HUB_LAST)
def test_kernels_match_all_subsets_oracle_hub_last(name):
    g = HUB_LAST[name]
    for enumerate_sets, is_maximal in KERNELS:
        assert enumerate_sets(g) == all_subsets_oracle(g, is_maximal)


@settings(max_examples=60, deadline=None)
@given(graphs(max_order=10))
def test_kernels_match_all_subsets_oracle(g):
    for enumerate_sets, is_maximal in KERNELS:
        assert enumerate_sets(g) == all_subsets_oracle(g, is_maximal)


def assert_forest_tests_match_dfs_oracle(g: Graph) -> None:
    """``is_induced_forest`` and ``is_maximal_induced_forest`` on every subset
    against the DFS cycle finder: a maximal forest is a forest to which each
    outside vertex adds a cycle."""
    acyclic = [
        not mask or not dfs_has_cycle(induced_subgraph(g, VertexSubset(g.order, mask)))
        for mask in range(1 << g.order)
    ]
    for mask in range(1 << g.order):
        s = VertexSubset(g.order, mask)
        grows = any(acyclic[mask | 1 << v] for v in range(g.order) if not mask >> v & 1)
        assert is_induced_forest(g, s) == acyclic[mask]
        assert is_maximal_induced_forest(g, s) == (acyclic[mask] and not grows)


@pytest.mark.parametrize("name", HUB_LAST)
def test_forest_tests_match_dfs_oracle_hub_last(name):
    assert_forest_tests_match_dfs_oracle(HUB_LAST[name])


@settings(max_examples=60, deadline=None)
@given(graphs(max_order=10))
def test_forest_tests_match_dfs_oracle(g):
    assert_forest_tests_match_dfs_oracle(g)


# Both catalogues with every query against the same oracle, on graphs full of
# twins, where each catalogue walks one representative per orbit.
CATALOGUES = (
    (forests._forest_catalogue, is_maximal_induced_forest),
    (independence._independent_catalogue, is_maximal_independent_set),
)


@settings(max_examples=40, deadline=None)
@given(twin_rich_graphs())
def test_catalogues_match_all_subsets_oracle_with_twins(g):
    for catalogue, is_maximal in CATALOGUES:
        expected = all_subsets_oracle(g, is_maximal)
        cat = catalogue(g)
        assert cat.sets() == expected
        sizes = [len(s) for s in expected]
        assert cat.aggregates.histogram() == {k: sizes.count(k) for k in sorted(set(sizes))}
        assert cat.aggregates.number() == max(sizes)
        # per component, the smallest-mask set of least and of greatest size
        lo = hi = 0
        for comp in connected_components(g):
            parts = {s.mask & sum(1 << v for v in comp) for s in expected}
            lo |= min(parts, key=lambda m: (m.bit_count(), m))
            hi |= max(parts, key=lambda m: (m.bit_count(), -m))
        pair = (VertexSubset(g.order, lo), VertexSubset(g.order, hi))
        assert cat.aggregates.uniform() == ((True, None) if min(sizes) == max(sizes) else (False, pair))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_catalogues_commute_with_relabelling(data):
    g = data.draw(graphs(max_order=10) | twin_rich_graphs())
    perm = data.draw(st.permutations(range(g.order)))
    relabelled = Graph.from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
    for enumerate_sets, _ in KERNELS:
        mapped = sorted(sum(1 << perm[v] for v in s) for s in enumerate_sets(g))
        assert [s.mask for s in enumerate_sets(relabelled)] == mapped
