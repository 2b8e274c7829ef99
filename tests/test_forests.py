"""Forest predicates, enumeration, forest number, stats, and the partition."""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from contextlib import contextmanager

import pytest

import wfcover.forests as forests
import wfcover.independence as independence
from wfcover import (
    ForestStats,
    Graph,
    VertexSubset,
    check_thm31,
    enumerate_maximal_independent_sets,
    enumerate_maximal_induced_forests,
    forest_number,
    forest_partition,
    forest_stats,
    generate,
    independence_number,
    is_induced_forest,
    is_maximal_induced_forest,
    is_well_covered,
    is_well_f_covered,
    lexicographic,
    maximal_forest_order_histogram,
    parse_family,
)

from conftest import (
    clear_wfcover_caches,
    disjoint_union,
    induced_subgraph,
    naive_maximal_forests,
    naive_maximal_independent,
)


def fam(text: str) -> Graph:
    return generate(parse_family(text))


def subset(g: Graph, vertices) -> VertexSubset:
    return VertexSubset.from_vertices(g.order, vertices)


class TestForestPredicates:
    def test_cycle_minus_any_vertex(self):
        c4 = fam("cycle:4")
        for v in range(4):
            assert is_induced_forest(c4, subset(c4, set(range(4)) - {v}))
        assert not is_induced_forest(c4, subset(c4, range(4)))

    def test_empty_subset_is_forest(self):
        assert is_induced_forest(fam("complete:3"), VertexSubset(3, 0))

    def test_example_product_subset_is_forest(self):
        product, index_map = lexicographic(fam("cycle:5"), fam("cycle:4"))
        first = index_map.subset_from_pairs(
            [(0, 0), (0, 2), (1, 0), (2, 0), (3, 0), (3, 2)]
        )
        assert is_induced_forest(product, first)
        assert is_maximal_induced_forest(product, first)

    def test_acyclic_graph_maximal_forest_is_everything(self):
        p4 = fam("path:4")
        assert is_maximal_induced_forest(p4, subset(p4, range(4)))

    def test_fig1_abc_is_not_maximal(self):
        fig1 = fam("fig1")
        abc = subset(fig1, [0, 1, 2])
        assert is_induced_forest(fig1, abc)
        assert not is_maximal_induced_forest(fig1, abc)
        # vertex e = 4 extends it to the induced path e-a-b-c
        assert is_induced_forest(fig1, subset(fig1, [0, 1, 2, 4]))

    def test_fig1_eabc_is_maximal(self):
        fig1 = fam("fig1")
        assert is_maximal_induced_forest(fig1, subset(fig1, [0, 1, 2, 4]))

    def test_empty_subset_never_maximal(self):
        assert not is_maximal_induced_forest(fam("complete:3"), VertexSubset(3, 0))

    def test_maximality_matches_cycle_basis_oracle_le6(self, atlas_le6):
        # the kernel shares its extension rule with is_maximal_induced_forest,
        # so this oracle shares nothing with either
        for g in atlas_le6:
            maximal = naive_maximal_forests(g)
            for mask in range(1 << g.order):
                expected = frozenset(v for v in range(g.order) if mask >> v & 1) in maximal
                assert is_maximal_induced_forest(g, VertexSubset(g.order, mask)) == expected


class TestEnumeration:
    def test_path4_single_maximal_forest(self):
        forests = enumerate_maximal_induced_forests(fam("path:4"))
        assert [f.vertices() for f in forests] == [(0, 1, 2, 3)]

    def test_c4_has_four_of_size_three(self):
        forests = enumerate_maximal_induced_forests(fam("cycle:4"))
        assert len(forests) == 4
        assert all(len(f) == 3 for f in forests)

    def test_fig1_contains_expected_forests(self):
        forests = {f.vertices() for f in enumerate_maximal_induced_forests(fam("fig1"))}
        assert (0, 1, 3) in forests  # {a, b, d}
        assert (0, 1, 2, 4) in forests  # {e, a, b, c}

    def test_ascending_bitmask_order_and_determinism(self):
        g = fam("fig1")
        first = enumerate_maximal_induced_forests(g)
        second = enumerate_maximal_induced_forests(g)
        assert first == second
        masks = [f.mask for f in first]
        assert masks == sorted(masks)

    def test_mutating_a_returned_list_leaves_the_next_call_unchanged(self):
        g = fam("fig1")
        for catalogue in (forests._forest_catalogue(g), independence._independent_catalogue(g)):
            first = catalogue.sets()
            want = list(first)
            first.reverse()
            first.pop()
            assert catalogue.sets() == want

    def test_matches_naive_oracle_le4(self, atlas_le4):
        for g in atlas_le4:
            ours = {frozenset(f.vertices()) for f in enumerate_maximal_induced_forests(g)}
            assert ours == naive_maximal_forests(g), g.edges()

    @pytest.mark.parametrize(
        "family,f,alpha,forests_found,sets_found,wc",
        [
            ("empty:25", 25, 25, 1, 1, True),
            ("complete:25", 2, 1, 300, 25, True),
            ("path:25", 25, 13, 1, 1081, False),
        ],
    )
    def test_queries_take_no_bound(self, family, f, alpha, forests_found, sets_found, wc):
        # past DEFAULT_MAX_ORDER: only the CLI and a scan test a bound
        g = fam(family)
        assert len(enumerate_maximal_induced_forests(g)) == forests_found
        assert maximal_forest_order_histogram(g) == {f: forests_found}
        assert forest_number(g) == f
        assert is_well_f_covered(g) == (True, None)
        assert len(enumerate_maximal_independent_sets(g)) == sets_found
        assert independence_number(g) == alpha
        assert is_well_covered(g)[0] is wc


@contextmanager
def kernel_calls():
    """Count, by a profile hook, the calls of each kernel's closure
    ``decide`` and of the maximality rule ``_blocks_all``, keyed by (module,
    name) with module "forests" or "independence"."""
    counts: Counter[tuple[str, str]] = Counter()
    files = {forests.__file__: "forests", independence.__file__: "independence"}

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in files and code.co_name in ("decide", "_blocks_all"):
            counts[files[code.co_filename], code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


def kernel_counters(
    g: Graph, kernel=forests._maximal_forest_masks
) -> tuple[tuple[int, int, int], int]:
    """Nodes, leaves and representatives of one catalogue build by
    ``kernel``: calls of its closure ``decide`` and of the maximality rule
    ``_blocks_all`` it applies to each leaf (none for the MIS kernel, whose
    leaf test is one comparison), and the number of orbit representatives
    returned; then the number of maximal sets they stand for."""
    module = kernel.__module__.rsplit(".", 1)[1]
    with kernel_calls() as counts:
        catalogue = forests.Catalogue.build(g, kernel)
    reps = sum(len(reps) for reps, _ in catalogue.components)
    nodes = counts[module, "decide"], counts[module, "_blocks_all"], reps
    return nodes, sum(catalogue.aggregates.histogram().values())


class TestKernelCounters:
    """Exact work counts of the forest kernel: a perf gate free of timing noise.

    C5∘C4 and P12∘2K1 have twin classes (the fibres of 2K1, and the two
    false-twin pairs of every C4 fibre), so the kernel walks one
    representative per orbit.  K4∘P6 is twin-free, so the twin gate must add
    no work there: its counts are those of the kernel before the gate."""

    @pytest.mark.parametrize(
        "g,h,expected",
        [
            ("cycle:5", "cycle:4", ((3_222, 360, 220), 800)),
            ("path:12", "empty:2", ((11_127, 1_695, 328), 13_052)),
            ("complete:4", "path:6", ((7_339, 392, 364), 364)),
        ],
    )
    def test_nodes_leaves_kept(self, g, h, expected):
        product, _ = lexicographic(fam(g), fam(h))
        assert kernel_counters(product) == expected


def cut_graphs() -> list[tuple[str, Graph]]:
    """Sparse graphs, where the kernels' exclusion cuts fire: paths and
    cycles of up to 14 vertices, the 3×4 grid, and seeded G(n, p) with
    n in 11..14 and p in 0.15..0.5."""
    out = [(f"path:{n}", fam(f"path:{n}")) for n in range(2, 15)]
    out += [(f"cycle:{n}", fam(f"cycle:{n}")) for n in range(3, 15)]
    grid = [(4 * r + c, 4 * r + c + 1) for r in range(3) for c in range(3)]
    grid += [(4 * r + c, 4 * r + c + 4) for r in range(2) for c in range(4)]
    out.append(("grid:3x4", Graph.from_edges(12, grid)))
    for seed in range(10):
        n, p = 11 + seed % 4, (0.15, 0.2, 0.3, 0.4, 0.5)[seed % 5]
        rng = random.Random(seed)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        out.append((f"gnp:{n},{p},{seed}", Graph.from_edges(n, edges)))
    return out


# (forest, MIS) kernel nodes on ``cut_graphs()`` before either kernel cut
# an exclusion that strands a vertex it could still extend or dominate
NODES_BEFORE_CUTS = {
    "path:2": (3, 4),
    "path:3": (7, 7),
    "path:4": (12, 12),
    "path:5": (21, 21),
    "path:6": (35, 35),
    "path:7": (58, 58),
    "path:8": (95, 95),
    "path:9": (155, 155),
    "path:10": (252, 252),
    "path:11": (409, 409),
    "path:12": (663, 663),
    "path:13": (1074, 1074),
    "path:14": (1739, 1739),
    "cycle:3": (6, 6),
    "cycle:4": (14, 12),
    "cycle:5": (29, 27),
    "cycle:6": (49, 45),
    "cycle:7": (81, 74),
    "cycle:8": (133, 121),
    "cycle:9": (217, 197),
    "cycle:10": (353, 320),
    "cycle:11": (573, 519),
    "cycle:12": (929, 841),
    "cycle:13": (1505, 1362),
    "cycle:14": (2437, 2205),
    "grid:3x4": (1019, 346),
    "gnp:11,0.15,0": (24, 24),
    "gnp:12,0.2,1": (189, 105),
    "gnp:13,0.3,2": (864, 354),
    "gnp:14,0.4,3": (1474, 287),
    "gnp:11,0.5,4": (443, 136),
    "gnp:12,0.15,5": (149, 71),
    "gnp:13,0.2,6": (467, 209),
    "gnp:14,0.3,7": (1643, 332),
    "gnp:11,0.4,8": (385, 122),
    "gnp:12,0.5,9": (705, 183),
}


class TestKernelCuts:
    """The exclusion cuts of both kernels: a branch ends once an excluded
    vertex would extend every completion (forest kernel: it could join and
    its only two potential neighbours are not joined in G[potential]) or
    can never be dominated (MIS kernel: no undecided vertex that nothing
    covers is left next to it).  Both only prune, so the sets equal the
    oracles' and the node counts can only fall."""

    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in cut_graphs()])
    def test_both_kernels_match_the_oracles(self, g):
        found = {frozenset(f.vertices()) for f in enumerate_maximal_induced_forests(g)}
        assert found == naive_maximal_forests(g)
        found = {frozenset(s.vertices()) for s in enumerate_maximal_independent_sets(g)}
        assert found == naive_maximal_independent(g)

    def test_nodes_never_exceed_those_before_the_cuts(self):
        for name, g in cut_graphs():
            nodes = (
                kernel_counters(g)[0][0],
                kernel_counters(g, independence._maximal_independent_masks)[0][0],
            )
            before = NODES_BEFORE_CUTS[name]
            assert nodes[0] <= before[0] and nodes[1] <= before[1], (name, nodes, before)

    @pytest.mark.parametrize(
        "text,bound,forests_found", [("path:22", 100, 1), ("cycle:26", 1_000, 26)]
    )
    def test_forest_kernel_nodes(self, text, bound, forests_found):
        (nodes, _, _), total = kernel_counters(fam(text))
        assert nodes < bound and total == forests_found

    @pytest.mark.parametrize("text,sets", [("path:30", 4_410), ("cycle:30", 4_610)])
    def test_mis_kernel_nodes(self, text, sets):
        (nodes, _, _), total = kernel_counters(fam(text), independence._maximal_independent_masks)
        assert nodes < 60_000 and total == sets

    @pytest.mark.parametrize("text,f_product", [("path:30", 30), ("cycle:30", 29)])
    def test_thm31_on_a_long_path_or_cycle(self, text, f_product):
        clear_wfcover_caches()
        with kernel_calls() as counts:
            report = check_thm31(fam("complete:1"), fam(text))
        assert report.verdict == "consistent"
        assert report.ground_truth["f_product"] == f_product
        assert counts["forests", "decide"] < 1_000
        assert counts["independence", "decide"] < 60_000


class TestBenchProducts:
    """The forest catalogue of every check-theorem product of the bench's
    ladder and dense workloads (20-24 vertices, beyond the oracle tests),
    pinned mask for mask by a sha256 of ``repr(components)``: a kernel that
    replaces this one must reproduce every mask, not only the verdicts."""

    @pytest.mark.parametrize(
        "g,h,digest",
        [
            ("path:12", "empty:2", "dab2aef7e78f78747ef4f2f800d2bbf6fe4d8fb190881335502c2f388eddcf5f"),
            ("path:8", "empty:3", "2d9ffeaac9c1785a908e1ce615cab3ebceedfacfb348b25e601a1467d11af34a"),
            ("cycle:6", "empty:4", "7ddf7497217fb7e170fb6b2cd4845b5aaa167a60536c428987647c3c7198e060"),
            ("cycle:8", "empty:3", "282113e638dab541ade5d3c097b1bbaa863f10a6c8aed86be9eb0e064617fd12"),
            ("cycle:8", "path:3", "b6bcc60df45b746b9d43520733fb3a15d011d8729543014a8f09c94e3827fbab"),
            ("cycle:6", "cycle:4", "c82b3d0c3c32ac148b360c7576b59fb42f483aefae9a7576087d629f38c59847"),
            ("cycle:5", "cycle:4", "f20abe1b1ee035ea55e257ad0a83581abccb813726f20298ed95a40fcbad6633"),
            ("complete:4", "cycle:5", "28e741bb56b47946d589a5ebf8ef10585f3ee48c26cbabf8fd3fdb2523fc7a9c"),
            ("complete:5", "cycle:4", "1ad855c8438b1c0cf5f8b80e092a8986a0aa11fcfd3a467356b36df652577ccc"),
            ("complete:6", "cycle:4", "ad4e1715b655c9ff31d92064078730ee0335ae9a05755b08867e91ee5caca83e"),
            ("complete:8", "path:3", "dc45f4f40e9fade9cd9c6f304080bfa259c4159c97e38f06badae3c0ee58161b"),
            ("complete:6", "path:4", "057259e2c444905a276b57648cfa93b880b884eb2054f9d24a9b04aed8ffdfb1"),
            ("complete:5", "path:4", "44ef658953659f4c3f1471ae4b2d021062b696421944ee8fded660ca900b814f"),
            ("complete:4", "path:6", "42c64272b4473a8ad500f8f54b3c6d66c3fa3f47612ad50fc253331b26037389"),
        ],
    )
    def test_catalogue_digest(self, g, h, digest):
        product, _ = lexicographic(fam(g), fam(h))
        components = forests.Catalogue.build(product, forests._maximal_forest_masks).components
        assert hashlib.sha256(repr(components).encode()).hexdigest() == digest


class TestTwinOrbits:
    def test_fibres_of_a_product_with_nk1_are_the_classes(self):
        product, index_map = lexicographic(fam("path:4"), fam("empty:3"))
        ((_, classes),) = forests._forest_catalogue(product).components
        fibres = [index_map.subset_from_pairs([(g, h) for h in range(3)]).mask for g in range(4)]
        assert sorted(classes) == sorted(fibres)

    def test_clique_is_one_class_of_true_twins(self):
        k5 = fam("complete:5")
        forest_catalogue = forests._forest_catalogue(k5)
        assert forest_catalogue.components == (((0b11,), (0b11111,)),)
        assert forest_catalogue.aggregates.histogram() == {2: 10}
        mis_catalogue = independence._independent_catalogue(k5)
        assert mis_catalogue.components == (((0b1,), (0b11111,)),)
        assert mis_catalogue.aggregates.histogram() == {1: 5}


class TestForestNumber:
    def test_cycles_paths_cliques(self):
        for n in range(3, 11):
            assert forest_number(fam(f"cycle:{n}")) == n - 1
        for n in range(1, 11):
            assert forest_number(fam(f"path:{n}")) == n
        for n in range(2, 8):
            assert forest_number(fam(f"complete:{n}")) == 2

    def test_known_products(self):
        p, _ = lexicographic(fam("path:4"), fam("empty:2"))
        assert forest_number(p) == 6
        p, _ = lexicographic(fam("cycle:5"), fam("cycle:4"))
        assert forest_number(p) == 6

    def test_additive_over_disjoint_union(self, atlas_le4):
        for g1 in atlas_le4:
            for g2 in atlas_le4:
                u = disjoint_union(g1, g2)
                assert forest_number(u) == forest_number(g1) + forest_number(g2)

    def test_alpha_le_f_le_order(self, atlas_le5):
        for g in atlas_le5:
            assert independence_number(g) <= forest_number(g) <= g.order


class TestWellFCovered:
    def test_c4_is_wfc(self):
        assert is_well_f_covered(fam("cycle:4")) == (True, None)

    def test_p4_product_witness_orders(self):
        p, _ = lexicographic(fam("path:4"), fam("empty:2"))
        wfc, witness = is_well_f_covered(p)
        assert not wfc
        assert sorted((len(witness[0]), len(witness[1]))) == [5, 6]
        assert is_maximal_induced_forest(p, witness[0])
        assert is_maximal_induced_forest(p, witness[1])

    def test_c5_product_witness_orders(self):
        p, _ = lexicographic(fam("cycle:5"), fam("cycle:4"))
        wfc, witness = is_well_f_covered(p)
        assert not wfc
        assert sorted((len(witness[0]), len(witness[1]))) == [5, 6]

    def test_union_wfc_iff_both_factors(self, atlas_le4):
        for g1 in atlas_le4:
            for g2 in atlas_le4:
                u = disjoint_union(g1, g2)
                expected = is_well_f_covered(g1)[0] and is_well_f_covered(g2)[0]
                assert is_well_f_covered(u)[0] == expected

    def test_histogram_matches_enumeration(self, atlas_le5):
        for g in atlas_le5:
            forests = enumerate_maximal_induced_forests(g)
            expected: dict[int, int] = {}
            for f in forests:
                expected[len(f)] = expected.get(len(f), 0) + 1
            assert maximal_forest_order_histogram(g) == expected


class TestForestStats:
    def test_p3_stats(self):
        g = fam("path:3")
        assert forest_stats(g, subset(g, range(3))) == ForestStats(0, 0, 2, 1)

    def test_single_edge_stats(self):
        g = fam("complete:4")
        assert forest_stats(g, subset(g, [0, 1])) == ForestStats(0, 1, 0, 0)

    def test_fig1_eabc_stats(self):
        g = fam("fig1")
        assert forest_stats(g, subset(g, [0, 1, 2, 4])) == ForestStats(0, 0, 2, 2)

    def test_rejects_non_forest(self):
        g = fam("cycle:3")
        with pytest.raises(ValueError):
            forest_stats(g, subset(g, range(3)))

    def test_sum_identity_all_maximal_forests_le6(self, atlas_le6):
        for g in atlas_le6:
            for f in enumerate_maximal_induced_forests(g):
                stats = forest_stats(g, f)
                assert stats.total == len(f)

    def test_maximal_forests_of_nonempty_graphs_have_an_edge(self, atlas_le6):
        for g in atlas_le6:
            if g.edge_count == 0:
                continue
            for f in enumerate_maximal_induced_forests(g):
                assert induced_subgraph(g, f).edge_count >= 1


class TestForestPartition:
    def test_single_edge(self):
        g = fam("complete:3")
        part = forest_partition(g, subset(g, [0, 2]))
        assert part.z.vertices() == (0,)
        assert part.t.vertices() == (2,)
        assert part.x.mask == 0 and part.y.mask == 0

    def test_z_tiebreak_choices(self):
        g = fam("complete:3")
        part_max = forest_partition(g, subset(g, [0, 2]), z_choice="max")
        assert part_max.z.vertices() == (2,)
        assert part_max.t.vertices() == (0,)
        with pytest.raises(ValueError):
            forest_partition(g, subset(g, [0, 2]), z_choice="middle")

    def test_p3_partition(self):
        g = fam("path:3")
        part = forest_partition(g, subset(g, range(3)))
        assert part.x.vertices() == (0, 2)
        assert part.x1.mask == 0
        assert part.x2.vertices() == (0, 2)
        assert part.y.vertices() == (1,)
        assert part.z.mask == 0 and part.t.mask == 0

    def test_isolated_plus_edge(self):
        g = disjoint_union(fam("complete:3"), fam("complete:1"))
        f = subset(g, [0, 1, 3])
        assert is_maximal_induced_forest(g, f)
        part = forest_partition(g, f)
        assert part.x1.vertices() == (3,)
        assert part.z.vertices() == (0,)
        assert part.t.vertices() == (1,)

    def test_rejects_non_maximal(self):
        g = fam("fig1")
        with pytest.raises(ValueError):
            forest_partition(g, subset(g, [0, 1, 2]))

    def test_partition_classes_disjoint_and_cover(self, atlas_le5):
        for g in atlas_le5:
            for f in enumerate_maximal_induced_forests(g):
                for z_choice in ("min", "max"):
                    part = forest_partition(g, f, z_choice=z_choice)
                    masks = [part.x1.mask, part.x2.mask, part.y.mask, part.z.mask, part.t.mask]
                    assert sum(m.bit_count() for m in masks) == len(f)
                    union = 0
                    for m in masks:
                        union |= m
                    assert union == f.mask
                    assert part.x.mask == (part.x1.mask | part.x2.mask)
                    stats = forest_stats(g, f)
                    assert part.z.mask.bit_count() == stats.k2_components
                    assert part.t.mask.bit_count() == stats.k2_components
