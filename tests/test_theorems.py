"""Condition checks, witness constructions, and verdict logic."""

from __future__ import annotations

import pytest

import dataclasses

import wfcover.examples as examples
import wfcover.theorems as theorems
from conftest import atlas_graphs
from wfcover import (
    ForestStats,
    Graph,
    HypothesisError,
    VertexSubset,
    check,
    check_thm31,
    check_thm32,
    check_thm35,
    construct_vm,
    construct_vstar_empty_second,
    construct_vstar_nonempty_second,
    enumerate_maximal_induced_forests,
    enumerate_maximal_independent_sets,
    forest_number,
    forest_stats,
    generate,
    hypothesis_filter,
    induced_subgraph,
    is_induced_forest,
    is_maximal_induced_forest,
    is_well_f_covered,
    lexicographic,
    make_witness_spec,
    parse_family,
    thm32_lhs,
    thm35_lhs,
)


def fam(text: str) -> Graph:
    return generate(parse_family(text))


def subset(g: Graph, vertices) -> VertexSubset:
    return VertexSubset.from_vertices(g.order, vertices)


def bowtie() -> Graph:
    return Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], name="bowtie")


class TestThm32Lhs:
    def test_arithmetic(self):
        assert thm32_lhs(ForestStats(0, 0, 2, 1), 1) == 3
        assert thm32_lhs(ForestStats(0, 1, 0, 0), 3) == 4
        assert thm32_lhs(ForestStats(0, 0, 2, 2), 2) == 6

    def test_n1_collapses_to_order(self, atlas_le4):
        for g in atlas_le4:
            for f in enumerate_maximal_induced_forests(g):
                assert thm32_lhs(forest_stats(g, f), 1) == len(f)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            thm32_lhs(ForestStats(0, 0, 0, 0), 0)


class TestCheckThm31:
    def test_three_copies_of_c4(self):
        report = check_thm31(fam("empty:3"), fam("cycle:4"))
        assert report.verdict == "consistent"
        assert report.ground_truth["f_product"] == 9
        assert report.ground_truth["well_f_covered_product"]
        assert report.conditions == {
            "well_f_covered_iff": True,
            "forest_number_formula": True,
        }

    def test_single_copy_reduces_to_h(self):
        for h in (fam("cycle:4"), fam("path:3"), bowtie()):
            report = check_thm31(fam("empty:1"), h)
            assert report.verdict == "consistent"
            assert report.ground_truth["f_product"] == forest_number(h)
            assert report.ground_truth["well_f_covered_product"] == is_well_f_covered(h)[0]

    def test_bowtie_factor_not_wfc(self):
        # the bowtie has maximal forests of orders 3 and 4
        orders = {len(f) for f in enumerate_maximal_induced_forests(bowtie())}
        assert orders == {3, 4}
        report = check_thm31(fam("empty:2"), bowtie())
        assert report.verdict == "consistent"
        assert not report.ground_truth["well_f_covered_h"]
        assert not report.ground_truth["well_f_covered_product"]

    def test_formula_for_all_small_h(self, atlas_le5):
        for m in (1, 2, 3):
            g = fam(f"empty:{m}")
            for h in atlas_le5:
                report = check_thm31(g, h)
                assert report.verdict == "consistent", (m, h.edges())
                assert report.ground_truth["f_product"] == m * forest_number(h)

    def test_rejects_nonempty_first_factor(self):
        with pytest.raises(HypothesisError):
            check_thm31(fam("path:2"), fam("cycle:4"))


class TestCheckThm32:
    def test_p4_with_two_copies_is_non_sufficiency_witness(self):
        report = check_thm32(fam("path:4"), 2)
        assert report.verdict == "non_sufficiency_witness"
        assert len(report.condition_values) == 1
        rec = report.condition_values[0]
        assert rec.lhs == 6 and rec.rhs == 6 and rec.holds
        assert report.ground_truth["f_product"] == 6
        assert not report.ground_truth["well_f_covered_product"]
        assert report.ground_truth["maximal_forest_orders"] == [5, 6]
        assert all(w.verified for w in report.witnesses)

    def test_c4_with_two_copies_identical_values(self):
        report = check_thm32(fam("cycle:4"), 2)
        assert len(report.condition_values) == 4
        assert len({rec.lhs for rec in report.condition_values}) == 1

    def test_n1_condition_iff_wfc(self, atlas_le5):
        for g in atlas_le5:
            report = check_thm32(g, 1)
            assert report.conditions["per_forest_formula"] == is_well_f_covered(g)[0]
            assert report.verdict != "theorem_violation"

    def test_rejects_nonpositive_n(self):
        with pytest.raises(HypothesisError):
            check_thm32(fam("path:3"), 0)


class TestConstructVstarEmptySecond:
    def test_k2_gives_path_in_c4(self):
        g = fam("complete:2")
        spec = make_witness_spec(g, subset(g, [0, 1]))
        vstar = construct_vstar_empty_second(g, spec, 2)
        # (0,0), (0,1), (1,0) in the 4-vertex product
        assert vstar.vertices() == (0, 1, 2)
        product, _ = lexicographic(g, fam("empty:2"))
        assert is_maximal_induced_forest(product, vstar)

    def test_p3_gives_star(self):
        g = fam("path:3")
        spec = make_witness_spec(g, subset(g, range(3)))
        vstar = construct_vstar_empty_second(g, spec, 2)
        assert len(vstar) == 5
        product, _ = lexicographic(g, fam("empty:2"))
        sub = induced_subgraph(product, vstar)
        degrees = sorted(sub.degree(v) for v in range(sub.order))
        assert degrees == [1, 1, 1, 1, 4]  # a star with centre (1, anchor)

    def test_size_equals_formula(self, atlas_le4):
        for g in atlas_le4:
            for f in enumerate_maximal_induced_forests(g):
                stats = forest_stats(g, f)
                for n in (1, 2, 3):
                    for z_choice in ("min", "max"):
                        for anchor in range(n):
                            spec = make_witness_spec(g, f, z_choice=z_choice, anchor=anchor)
                            vstar = construct_vstar_empty_second(g, spec, n)
                            assert len(vstar) == thm32_lhs(stats, n)

    def test_rejects_non_maximal_forest(self):
        g = fam("fig1")
        f = subset(g, [0, 1, 2])
        with pytest.raises(ValueError):
            spec = make_witness_spec(g, f)

    def test_rejects_bad_anchor(self):
        g = fam("complete:2")
        spec = make_witness_spec(g, subset(g, [0, 1]), anchor=5)
        with pytest.raises(ValueError):
            construct_vstar_empty_second(g, spec, 2)

    def test_rejects_partition_not_covering_forest(self):
        g = fam("path:3")
        spec = make_witness_spec(g, subset(g, range(3)))
        spec = dataclasses.replace(
            spec, partition=dataclasses.replace(spec.partition, y=subset(g, []))
        )
        with pytest.raises(ValueError, match="does not partition the forest's vertex set"):
            construct_vstar_empty_second(g, spec, 2)


class TestCheckThm35:
    def test_c5_c4_non_sufficiency(self):
        report = check_thm35(fam("cycle:5"), fam("cycle:4"))
        assert report.verdict == "non_sufficiency_witness"
        assert all(report.conditions.values())
        assert report.ground_truth["f_product"] == 6
        assert report.ground_truth["alpha_g"] == 2
        assert report.ground_truth["f_h"] == 3
        assert {rec.lhs for rec in report.condition_values} == {6}
        assert all(w.verified for w in report.witnesses)

    def test_fig1_c4_condition4_fails(self):
        report = check_thm35(fam("fig1"), fam("cycle:4"))
        assert report.verdict == "consistent"
        assert report.conditions["condition_1"]
        assert report.conditions["condition_2"]
        assert report.conditions["condition_3"]
        assert not report.conditions["condition_4"]
        assert {rec.lhs for rec in report.condition_values} == {5, 6}
        assert not report.ground_truth["well_f_covered_product"]

    def test_k2_k2_all_conditions_and_wfc(self):
        report = check_thm35(fam("complete:2"), fam("complete:2"))
        assert report.verdict == "consistent"
        assert all(report.conditions.values())
        assert report.ground_truth["f_product"] == 2
        assert report.ground_truth["well_f_covered_product"]
        assert {rec.lhs for rec in report.condition_values} == {2}

    def test_rejects_empty_factors(self):
        with pytest.raises(HypothesisError):
            check_thm35(fam("empty:2"), fam("cycle:4"))
        with pytest.raises(HypothesisError):
            check_thm35(fam("cycle:4"), fam("empty:2"))

    def test_anchor_override_must_lie_in_every_mh(self):
        with pytest.raises(ValueError):
            check_thm35(fam("cycle:5"), fam("cycle:4"), anchor=1)


class TestConstructVm:
    def test_c5_c4_two_path_copies(self):
        g, h = fam("cycle:5"), fam("cycle:4")
        vm = construct_vm(g, subset(g, [0, 2]), h, subset(h, [0, 1, 2]))
        assert len(vm) == 6
        product, _ = lexicographic(g, h)
        assert is_maximal_induced_forest(product, vm)
        sub = induced_subgraph(product, vm)
        assert sub.edge_count == 4  # two disjoint induced P3 copies
        assert len(vm) == forest_number(product)

    def test_k2_k2_single_edge(self):
        g = fam("complete:2")
        vm = construct_vm(g, subset(g, [0]), g, subset(g, [0, 1]))
        assert len(vm) == 2
        product, _ = lexicographic(g, g)
        assert is_maximal_induced_forest(product, vm)

    def test_always_an_induced_forest_small(self, atlas_le4):
        nonempty = [g for g in atlas_le4 if g.edge_count > 0]
        for g in nonempty:
            for h in nonempty[:6]:
                product, _ = lexicographic(g, h)
                forests_h = enumerate_maximal_induced_forests(h)
                for m in enumerate_maximal_independent_sets(g):
                    for f_h in forests_h:
                        vm = construct_vm(g, m, h, f_h)
                        assert is_induced_forest(product, vm)
                        assert len(vm) == len(m) * len(f_h)

    def test_rejects_non_maximal_inputs(self):
        g, h = fam("cycle:5"), fam("cycle:4")
        with pytest.raises(ValueError):
            construct_vm(g, subset(g, [0]), h, subset(h, [0, 1, 2]))
        with pytest.raises(ValueError):
            construct_vm(g, subset(g, [0, 2]), h, subset(h, [0, 1]))
        with pytest.raises(ValueError):
            construct_vm(g, subset(g, [0, 2]), fam("empty:2"), VertexSubset.from_vertices(2, [0, 1]))


class TestConstructVstarNonemptySecond:
    def test_k2_c4_example(self):
        g, h = fam("complete:2"), fam("cycle:4")
        spec = make_witness_spec(
            g,
            subset(g, [0, 1]),
            h_forest=subset(h, [0, 1, 2]),
            h_independent=subset(h, [0, 2]),
            anchor=0,
        )
        vstar = construct_vstar_nonempty_second(g, spec, h)
        # {(0,0), (0,2), (1,0)} encoded with h_order 4
        assert vstar.vertices() == (0, 2, 4)
        product, _ = lexicographic(g, h)
        assert is_maximal_induced_forest(product, vstar)
        assert len(vstar) == thm35_lhs(forest_stats(g, subset(g, [0, 1])), 3, 2)

    def test_fig1_eabc_gives_size_six(self):
        g, h = fam("fig1"), fam("cycle:4")
        spec = make_witness_spec(
            g,
            subset(g, [0, 1, 2, 4]),
            h_forest=subset(h, [0, 1, 2]),
            h_independent=subset(h, [0, 2]),
        )
        vstar = construct_vstar_nonempty_second(g, spec, h)
        assert len(vstar) == 6
        product, _ = lexicographic(g, h)
        assert is_maximal_induced_forest(product, vstar)

    def test_size_equals_condition4_lhs(self, atlas_le4):
        nonempty = [g for g in atlas_le4 if g.edge_count > 0]
        for g in nonempty[:8]:
            forests_g = enumerate_maximal_induced_forests(g)
            for h in nonempty[:8]:
                f_h_order = forest_number(h)
                fh = next(
                    s for s in enumerate_maximal_induced_forests(h) if len(s) == f_h_order
                )
                for f in forests_g:
                    stats = forest_stats(g, f)
                    for m_h in enumerate_maximal_independent_sets(h):
                        spec = make_witness_spec(
                            g, f, h_forest=fh, h_independent=m_h
                        )
                        vstar = construct_vstar_nonempty_second(g, spec, h)
                        assert len(vstar) == thm35_lhs(stats, f_h_order, len(m_h))

    def test_rejects_anchor_outside_mh(self):
        g, h = fam("complete:2"), fam("cycle:4")
        spec = make_witness_spec(
            g,
            subset(g, [0, 1]),
            h_forest=subset(h, [0, 1, 2]),
            h_independent=subset(h, [0, 2]),
            anchor=1,
        )
        with pytest.raises(ValueError):
            construct_vstar_nonempty_second(g, spec, h)

    def test_rejects_missing_h_parts(self):
        g, h = fam("complete:2"), fam("cycle:4")
        spec = make_witness_spec(g, subset(g, [0, 1]))
        with pytest.raises(ValueError):
            construct_vstar_nonempty_second(g, spec, h)

    def test_rejects_partition_not_covering_forest(self):
        g, h = fam("path:3"), fam("cycle:4")
        spec = make_witness_spec(
            g, subset(g, range(3)), h_forest=subset(h, [0, 1, 2]), h_independent=subset(h, [0, 2])
        )
        spec = dataclasses.replace(
            spec, partition=dataclasses.replace(spec.partition, y=subset(g, []))
        )
        with pytest.raises(ValueError, match="does not partition the forest's vertex set"):
            construct_vstar_nonempty_second(g, spec, h)


class TestCheck:
    DIRECT = {
        "thm31": lambda g, h: check_thm31(g, h),
        "thm32": lambda g, h: check_thm32(g, h.order),
        "thm35": lambda g, h: check_thm35(g, h),
    }

    @pytest.mark.parametrize("theorem", ["thm31", "thm32", "thm35"])
    def test_filter_and_direct_check_agree(self, theorem):
        graphs = atlas_graphs(3)
        for g in graphs:
            for h in graphs:
                if hypothesis_filter(theorem, g, h):
                    assert check(theorem, g, h) == self.DIRECT[theorem](g, h)
                else:
                    with pytest.raises(HypothesisError):
                        check(theorem, g, h)

    def test_rejects_unknown_theorem(self):
        with pytest.raises(ValueError, match="unknown theorem id 'thm99'"):
            check("thm99", fam("path:2"), fam("path:2"))

    @pytest.mark.parametrize(
        "options", [{"anchor": 0}, {"anchor": 99}, {"z_choice": "min"}, {"z_choice": "max"}]
    )
    def test_thm31_rejects_witness_options(self, options):
        with pytest.raises(ValueError, match="--anchor and --z-tiebreak"):
            check("thm31", fam("empty:2"), fam("cycle:4"), **options)


class TestCheckPath:
    CHECKS = {
        "thm31": lambda: check_thm31(fam("empty:3"), fam("cycle:4")),
        "thm32": lambda: check_thm32(fam("path:4"), 2),
        "thm35": lambda: check_thm35(fam("cycle:5"), fam("cycle:4")),
    }

    @pytest.fixture
    def builds(self, monkeypatch):
        """The (G, H) pair of every product built, whichever module builds it."""
        calls = []
        build = lexicographic

        def counting(g, h):
            calls.append((g, h))
            return build(g, h)

        for mod in (theorems, examples):
            if getattr(mod, "lexicographic", None) is build:
                monkeypatch.setattr(mod, "lexicographic", counting)
        theorems._product.cache_clear()
        return calls

    @pytest.mark.parametrize("theorem", ["thm31", "thm32", "thm35"])
    def test_one_product_build_per_check(self, builds, theorem):
        self.CHECKS[theorem]()
        assert len(builds) == 1

    def test_verify_paper_builds_c5_c4_once(self, builds):
        examples.verify_paper_examples()
        assert builds.count((fam("cycle:5"), fam("cycle:4"))) == 1

    @pytest.mark.parametrize("theorem", ["thm32", "thm35"])
    def test_failed_witness_verification_is_recorded(self, monkeypatch, theorem):
        expected = self.CHECKS[theorem]()
        product_order = expected.ground_truth["product_order"]
        real = theorems.is_maximal_induced_forest

        def reject_product_sets(g, s):
            return False if s.order == product_order else real(g, s)

        monkeypatch.setattr(theorems, "is_maximal_induced_forest", reject_product_sets)
        report = self.CHECKS[theorem]()
        assert report.verdict == "theorem_violation"
        assert len(report.witnesses) == len(expected.witnesses) > 0
        for got, want in zip(report.witnesses, expected.witnesses):
            assert not got.verified
            assert (got.kind, got.subset, got.size) == (want.kind, want.subset, want.size)
            assert "not a maximal induced forest" in got.detail["error"]
