"""The product profile against the forest kernel run on the product itself.

``product_profile(G, H)`` derives the histogram, the forest number and the
witness pair of G∘H from the factors.  The reference is the catalogue of a
factor-less copy ``Graph(p.order, p.adj)``, which the aggregate queries
send through the kernel.  Both must agree mask for mask.
"""

from __future__ import annotations

import sys
import itertools

import networkx as nx
import pytest
from hypothesis import given, settings

import wfcover.forests as forests
from wfcover import (
    Graph,
    forest_number,
    generate,
    is_well_f_covered,
    lexicographic,
    maximal_forest_order_histogram,
    parse_family,
)

from conftest import (
    clear_wfcover_caches,
    graphs,
    naive_maximal_forests,
    nx_is_forest,
    to_nx,
    twin_rich_graphs,
)


def fam(text: str) -> Graph:
    return generate(parse_family(text))


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, v) for v in range(1, leaves + 1)])


def assert_parity(g: Graph, h: Graph) -> None:
    product, _ = lexicographic(g, h)
    expected = forests._forest_catalogue(Graph(product.order, product.adj)).aggregates
    # the whole record: order, counts and both witness masks, even where
    # uniform() does not expose them
    assert tuple(forests.product_profile(g, h)) == tuple(expected), (g.edges(), h.edges())
    # the public queries on the product read the profile
    assert maximal_forest_order_histogram(product) == expected.histogram()
    assert forest_number(product) == expected.number()
    assert is_well_f_covered(product) == expected.uniform()


def test_every_atlas_pair_le5_by_le4(atlas_le5, atlas_le4):
    forests._role_patterns.cache_clear()
    for g in atlas_le5:
        for h in atlas_le4:
            assert_parity(g, h)
    # each G's table serves every H of the same signature
    assert forests._role_patterns.cache_info().hits > 0


# The signatures (has_edge, has_univ, has_big) of an H of two or more
# vertices: edgeless, complete, and with an edge and an MIS of two or more
# vertices, with or without a universal vertex.
SIGNATURES = ((False, False, True), (True, True, False), (True, True, True), (True, False, True))


def oracle_role_patterns(g: Graph, has_edge: bool, has_univ: bool, has_big: bool) -> dict:
    """The admissible role patterns of G by brute force, as a set per count
    key: every vertex subset P that induces a forest (by networkx), every
    role choice the rules of ``product_profile`` allow on G[P], and a direct
    test that each vertex outside P is dominated, with no cut."""
    iso_, one_, univ_, big_ = range(4)
    G = to_nx(g)
    table: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for pmask in range(1 << g.order):
        p = [v for v in range(g.order) if pmask >> v & 1]
        if not nx_is_forest(G, p):
            continue
        sub = G.subgraph(p)
        comps = [sorted(c) for c in nx.connected_components(sub)]
        options = []  # per component: its role choices as {vertex: role}
        for c in comps:
            if len(c) == 1:
                options.append([{c[0]: iso_}])
            elif len(c) == 2:
                a, b = c
                options.append(
                    [{a: big_, b: one_}, {a: one_, b: big_}] * has_big
                    + [{a: univ_, b: univ_}] * has_univ
                )
            else:
                leaf_roles = [big_] * has_big + [univ_] * has_univ
                per_vertex = [[one_] if sub.degree(v) >= 2 else leaf_roles for v in c]
                options.append([dict(zip(c, roles)) for roles in itertools.product(*per_vertex)])
        for choice in itertools.product(*options):
            role = {v: r for part in choice for v, r in part.items()}

            def dominated(w: int) -> bool:
                nbrs = set(G[w])
                return (
                    has_edge and any(role.get(u) == iso_ for u in nbrs)
                    or any(len(nbrs & set(c)) >= 2 for c in comps)
                    or any(role.get(u) == big_ for u in nbrs)
                )

            if not all(dominated(w) for w in G if w not in role):
                continue
            masks = tuple(sum(1 << v for v in role if role[v] == r) for r in range(4))
            counts = tuple(m.bit_count() for m in masks)
            table.setdefault(counts, set()).add(masks)
    return table


def test_role_table_matches_all_subsets_oracle(atlas_le5):
    for g in atlas_le5:
        for signature in SIGNATURES:
            table = forests._role_patterns(g, *signature)
            assert all(len(set(pats)) == len(pats) for _, pats in table), (g.edges(), signature)
            got = {counts: set(pats) for counts, pats in table}
            assert got == oracle_role_patterns(g, *signature), (g.edges(), signature)


def oracle_record(sets) -> tuple:
    """(counts, lo, hi) of a family of vertex sets, counted one by one: the
    number of sets per size, and the smallest mask of least and of greatest
    size, 0 when there is no set."""
    masks = [sum(1 << v for v in s) for s in sets]
    if not masks:
        return (), 0, 0
    sizes = sorted({m.bit_count() for m in masks})
    counts = tuple((k, sum(m.bit_count() == k for m in masks)) for k in sizes)
    return (
        counts,
        min(m for m in masks if m.bit_count() == sizes[0]),
        min(m for m in masks if m.bit_count() == sizes[-1]),
    )


def test_role_records_match_oracles(atlas_le5):
    # per role (ISO, ONE, UNIV, BIG) the fibres H allows: its maximal forests,
    # its vertices, its universal vertices, and its maximal independent sets
    # of two or more vertices, the maximal cliques of its complement; then
    # H's maximal independent sets, ascending, and what the checks read off
    # the record: "H has a size-1 MIS" off UNIV, and wc(H) as "UNIV and BIG
    # hold one size between them"
    clear_wfcover_caches()  # so that _fibres and the catalogue start cold together
    empty_roles = set()
    hs = [fam("empty:1"), fam("empty:6"), fam("complete:6"), fam("path:3"), fam("cycle:4"), *atlas_le5]
    for h in hs:
        H = to_nx(h)
        cliques = list(nx.find_cliques(nx.complement(H)))
        expected = (
            naive_maximal_forests(h),
            [{v} for v in H],
            [{v} for v in H if H.degree(v) == h.order - 1],
            [c for c in cliques if len(c) >= 2],
        )
        roles, mis = forests._fibres(h)
        assert roles[0] is forests._forest_catalogue(h).aggregates
        for r, (record, sets) in enumerate(zip(roles, expected)):
            assert record.order == h.order
            assert (record.counts, record.lo, record.hi) == oracle_record(sets), (h.edges(), r)
            if not sets:
                empty_roles.add(r)
        assert [(m.order, m.mask) for m in mis] == sorted((h.order, sum(1 << v for v in c)) for c in cliques)
        _, _, univ, big = roles
        mis_sizes = {len(c) for c in cliques}
        assert bool(univ.counts) == (1 in mis_sizes), h.edges()
        assert (len(univ.counts) + len(big.counts) == 1) == (len(mis_sizes) == 1), h.edges()
    # complete graphs have no BIG fibre, P4 no UNIV fibre
    assert empty_roles == {2, 3}


BENCH_PRODUCTS = (
    ("path:12", "empty:2"),
    ("path:8", "empty:3"),
    ("cycle:6", "empty:4"),
    ("cycle:8", "empty:3"),
    ("cycle:8", "path:3"),
    ("cycle:6", "cycle:4"),
    ("cycle:5", "cycle:4"),
    ("complete:4", "cycle:5"),
    ("complete:5", "cycle:4"),
    ("complete:6", "cycle:4"),
    ("complete:8", "path:3"),
    ("complete:6", "path:4"),
    ("complete:5", "path:4"),
    ("complete:4", "path:6"),
    ("cycle:6", "path:4"),
    ("path:6", "path:4"),
    ("complete:2", "cycle:12"),
)


@pytest.mark.parametrize("g,h", BENCH_PRODUCTS)
def test_bench_products(g, h):
    assert_parity(fam(g), fam(h))


def test_star_with_two_copies():
    # the walk's domination cut: without it, every subset of the leaves is walked
    assert_parity(star(11), fam("empty:2"))


# Pairs that reach each role and each domination rule of the derivation.
ROLE_CASES = {
    # a K2 component whose fibres are two universal vertices of H
    "K2oK2": (fam("complete:2"), fam("complete:2")),
    "P3oK3": (fam("path:3"), fam("complete:3")),
    # H = P3 has a size-1 MIS (its centre) and one of size 2
    "P3oP3": (fam("path:3"), fam("path:3")),
    "C5oP3": (fam("cycle:5"), fam("path:3")),
    "K1,3oP3": (star(3), fam("path:3")),
    # an edgeless G: every vertex of P is isolated
    "3K1oC4": (fam("empty:3"), fam("cycle:4")),
    # a disconnected H, with and without an edge
    "P4oK2+K1": (fam("path:4"), Graph.from_edges(3, [(0, 1)])),
    "C4o2K1": (fam("cycle:4"), fam("empty:2")),
    "P5oK1+P3": (fam("path:5"), Graph.from_edges(4, [(1, 2), (2, 3)])),
    # |H| = 1 reads the catalogue of G itself
    "fig1oK1": (fam("fig1"), fam("complete:1")),
}


def walk_counters(g: Graph, h: Graph) -> tuple[int, int]:
    """Nodes and leaves walked by one profile of G∘H: calls of the closures
    ``walk`` and ``patterns`` (one per complete induced forest of G) of the
    role-pattern table, counted by a profile hook on a run that bypasses
    the profile's own cache.  A table already cached for G and H's
    signature walks nothing."""
    counts = {"walk": 0, "patterns": 0}
    profile_file = forests.product_profile.__wrapped__.__code__.co_filename

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in counts and code.co_filename == profile_file:
            counts[code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        forests.product_profile.__wrapped__(g, h)
    finally:
        sys.setprofile(previous)
    return counts["walk"], counts["patterns"]


def profile_counters(g: Graph, h: Graph) -> tuple[int, int]:
    """Nodes and leaves of one uncached profile walk of G∘H."""
    clear_wfcover_caches()
    return walk_counters(g, h)


class TestProfileCounters:
    """Exact work counts of the profile walk, free of timing noise: a
    change to its cuts shows up as a counter diff.  P12∘2K1 and C8∘P3 are
    the largest walks of the bench products; in C5∘K3 and C8∘P3, H has an
    edge, so only the no-potential-neighbour cut applies.  In P12∘2K1,
    C8∘3K1 and P3∘2K1, H has no edge, so the walk also cuts an excluded
    vertex whose potential neighbours have no potential neighbour."""

    @pytest.mark.parametrize(
        "g,h,expected",
        [
            ("path:12", "empty:2", (1_023, 335)),
            ("cycle:8", "path:3", (306, 130)),
            ("cycle:5", "complete:3", (47, 20)),
            ("cycle:8", "empty:3", (184, 64)),
            ("path:3", "empty:2", (7, 3)),
        ],
    )
    def test_walk_nodes_and_leaves(self, g, h, expected):
        assert profile_counters(fam(g), fam(h)) == expected

    def test_table_is_shared_by_second_factors_of_one_signature(self):
        # 2K1 and 3K1: no edge, no universal vertex, an MIS of two or more
        g = fam("path:12")
        assert profile_counters(g, fam("empty:2")) == (1_023, 335)
        assert walk_counters(g, fam("empty:3")) == (0, 0)
        # P3 and K1,3 have an edge and a universal vertex: another table
        assert walk_counters(g, fam("path:3"))[1] > 0
        assert walk_counters(g, star(3)) == (0, 0)


@pytest.mark.parametrize("name", ROLE_CASES)
def test_role_cases(name):
    assert_parity(*ROLE_CASES[name])


@settings(max_examples=40, deadline=None)
@given(graphs(max_order=6), graphs(max_order=4))
def test_random_pairs(g, h):
    assert_parity(g, h)


@settings(max_examples=25, deadline=None)
@given(twin_rich_graphs(max_order=6), graphs(max_order=4))
def test_twin_rich_first_factors(g, h):
    assert_parity(g, h)


def test_factor_less_copy_goes_through_the_kernel(monkeypatch):
    product, _ = lexicographic(fam("cycle:5"), fam("cycle:4"))
    plain = Graph(product.order, product.adj)
    assert plain == product and plain.factors is None
    seen = []
    kernel = forests._maximal_forest_masks

    def counting(comp, adj, sequence, prev):
        seen.append(comp.bit_count())
        return kernel(comp, adj, sequence, prev)

    monkeypatch.setattr(forests, "_maximal_forest_masks", counting)
    forests._forest_catalogue.cache_clear()
    forest_number(plain)
    assert seen == [20]


def test_profile_cache_is_an_lru_cache():
    # the benchmark empties every lru_cache of the wfcover modules between commands
    assert callable(forests.product_profile.cache_clear)
