"""Forest predicates, enumeration, forest number, stats, and the partition."""

from __future__ import annotations

import hashlib
import sys

import pytest

import wfcover.forests as forests
import wfcover.independence as independence
from wfcover import (
    EnumerationBoundError,
    ForestStats,
    Graph,
    VertexSubset,
    enumerate_maximal_induced_forests,
    forest_number,
    forest_partition,
    forest_stats,
    generate,
    independence_number,
    is_induced_forest,
    is_maximal_induced_forest,
    is_well_f_covered,
    lexicographic,
    maximal_forest_order_histogram,
    parse_family,
)

from conftest import disjoint_union, induced_subgraph, naive_maximal_forests


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

    def test_bound_error_names_bound(self):
        g = fam("empty:25")
        with pytest.raises(EnumerationBoundError, match="24"):
            enumerate_maximal_induced_forests(g)
        with pytest.raises(EnumerationBoundError, match="10"):
            enumerate_maximal_induced_forests(fam("empty:11"), max_order=10)


def kernel_counters(g: Graph) -> tuple[tuple[int, int, int], int]:
    """Nodes, leaves and representatives of one forest catalogue build: calls
    of the kernel's closure ``decide`` and of the maximality rule
    ``_blocks_all`` it applies to each leaf, counted by a profile
    hook, and the number of orbit representatives returned; then the number
    of maximal forests they stand for."""
    counts = {"decide": 0, "_blocks_all": 0}
    kernel_file = forests._maximal_forest_masks.__code__.co_filename

    def hook(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in counts and code.co_filename == kernel_file:
            counts[code.co_name] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        catalogue = forests.Catalogue.build(g, forests._maximal_forest_masks)
    finally:
        sys.setprofile(previous)
    reps = sum(len(reps) for reps, _ in catalogue.components)
    return (counts["decide"], counts["_blocks_all"], reps), sum(catalogue.aggregates.histogram().values())


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
