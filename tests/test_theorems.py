"""Condition checks, witness constructions, and verdict logic."""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

import wfcover.cli as cli
import wfcover.examples as examples
import wfcover.forests as forests
import wfcover.independence as independence
import wfcover.search as search
import wfcover.theorems as theorems
from conftest import atlas_graphs, clear_wfcover_caches, induced_subgraph
from wfcover import (
    ForestStats,
    Graph,
    HypothesisError,
    ProductIndexMap,
    VertexSubset,
    WitnessVerificationError,
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
    forest_partition,
    forest_stats,
    from_graph6,
    generate,
    hypothesis_filter,
    is_induced_forest,
    is_maximal_induced_forest,
    is_well_covered,
    is_well_f_covered,
    lexicographic,
    parse_family,
    thm32_lhs,
    thm35_lhs,
)
from wfcover.cli import run


def fam(text: str) -> Graph:
    return generate(parse_family(text))


def subset(g: Graph, vertices) -> VertexSubset:
    return VertexSubset.from_vertices(g.order, vertices)


def invoke(argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of one CLI command."""
    out, err = io.StringIO(), io.StringIO()
    return run(argv, out, err), out.getvalue(), err.getvalue()


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
        vstar = construct_vstar_empty_second(g, subset(g, [0, 1]), 2)
        # (0,0), (0,1), (1,0) in the 4-vertex product
        assert vstar.vertices() == (0, 1, 2)
        product, _ = lexicographic(g, fam("empty:2"))
        assert is_maximal_induced_forest(product, vstar)

    def test_p3_gives_star(self):
        g = fam("path:3")
        vstar = construct_vstar_empty_second(g, subset(g, range(3)), 2)
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
                            vstar = construct_vstar_empty_second(
                                g, f, n, z_choice=z_choice, anchor=anchor
                            )
                            assert len(vstar) == thm32_lhs(stats, n)

    def test_rejects_non_maximal_forest(self):
        g = fam("fig1")
        f = subset(g, [0, 1, 2])
        with pytest.raises(ValueError):
            construct_vstar_empty_second(g, f, 2)

    def test_rejects_nonpositive_order(self):
        g = fam("complete:2")
        with pytest.raises(ValueError) as err:
            construct_vstar_empty_second(g, subset(g, [0, 1]), 0)
        assert str(err.value) == "second-factor order must be positive"

    def test_rejects_bad_anchor(self):
        g = fam("complete:2")
        with pytest.raises(ValueError):
            construct_vstar_empty_second(g, subset(g, [0, 1]), 2, anchor=5)


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

    # the smallest G, all of order 8, whose G∘K_m is not well-f-covered
    # while thm35's four conditions hold: none of order 7 or less does so
    # for K2 or K3
    COMPLETE_H_WITNESSES = ["GhoGL_", "Ggogdg", "GIc`MG", "GhNGCc", "GxU?Kw"]

    @pytest.mark.parametrize("g6", COMPLETE_H_WITNESSES)
    @pytest.mark.parametrize("m", [2, 3])
    def test_complete_h_non_sufficiency(self, g6, m):
        g, h = from_graph6(g6), fam(f"complete:{m}")
        report = check_thm35(g, h)
        assert report.verdict == "non_sufficiency_witness"
        assert all(report.conditions.values())
        assert report.ground_truth["maximal_forest_orders"] == [5, 6]
        assert all(w.verified for w in report.witnesses)
        fh = next(s for s in enumerate_maximal_induced_forests(h) if len(s) == 2)
        vstar = [w for w in report.witnesses if w.kind == "vstar_nonempty_second"]
        assert len(vstar) == len(report.condition_values) > 0
        for rec, w in zip(report.condition_values, vstar):
            assert w.subset == construct_vstar_nonempty_second(g, rec.forest, h, fh, rec.m_h)

    def test_complete_h_non_sufficiency_exits_1(self):
        out, err = io.StringIO(), io.StringIO()
        assert run(["check-theorem", "thm35", "--g", "g6:GhoGL_", "--h", "complete:2"], out, err) == 1
        assert json.loads(out.getvalue())["verdict"] == "non_sufficiency_witness"

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

    def test_facts_of_h_match_the_public_queries(self, atlas_le5):
        # thm35 reads f(H), wc(H), wfc(H) and "H has a size-1 MIS" off H's
        # record; with G = K2, whose one maximal forest has no isolated
        # vertex, condition (1) holds iff H has no size-1 MIS or f(G∘H) = 2
        k2 = fam("complete:2")
        for h in atlas_le5:
            if h.edge_count == 0:
                continue
            report = check_thm35(k2, h)
            truth = report.ground_truth
            assert truth["f_h"] == forest_number(h)
            assert truth["well_covered_h"] == is_well_covered(h)[0], h.edges()
            assert truth["well_f_covered_h"] == is_well_f_covered(h)[0]
            size_1 = any(len(m) == 1 for m in enumerate_maximal_independent_sets(h))
            assert report.conditions["condition_1"] == (not size_1 or truth["f_product"] == 2), h.edges()

    def test_rejects_empty_factors(self):
        with pytest.raises(HypothesisError):
            check_thm35(fam("empty:2"), fam("cycle:4"))
        with pytest.raises(HypothesisError):
            check_thm35(fam("cycle:4"), fam("empty:2"))

    def test_anchor_override_must_lie_in_every_mh(self):
        with pytest.raises(ValueError):
            check_thm35(fam("cycle:5"), fam("cycle:4"), anchor=1)

    def test_anchor_out_of_range_is_rejected_before_any_work(self, monkeypatch):
        def no_product(g, h):
            raise AssertionError("product built before the anchor was checked")

        monkeypatch.setattr(theorems, "_product", no_product)
        with pytest.raises(ValueError, match="anchor 5 out of range for second factor of order 4"):
            check_thm35(fam("cycle:5"), fam("cycle:4"), anchor=5)

    def test_anchor_outside_an_mh_is_rejected_before_any_work(self, monkeypatch):
        def no_product(g, h):
            raise AssertionError("product built before the anchor was checked")

        monkeypatch.setattr(theorems, "_product", no_product)
        with pytest.raises(ValueError, match=r"anchor 1 does not belong to .* set \[0, 2\]"):
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
        vstar = construct_vstar_nonempty_second(
            g, subset(g, [0, 1]), h, subset(h, [0, 1, 2]), subset(h, [0, 2]), anchor=0
        )
        # {(0,0), (0,2), (1,0)} encoded with h_order 4
        assert vstar.vertices() == (0, 2, 4)
        product, _ = lexicographic(g, h)
        assert is_maximal_induced_forest(product, vstar)
        assert len(vstar) == thm35_lhs(forest_stats(g, subset(g, [0, 1])), 3, 2)

    def test_fig1_eabc_gives_size_six(self):
        g, h = fam("fig1"), fam("cycle:4")
        vstar = construct_vstar_nonempty_second(
            g, subset(g, [0, 1, 2, 4]), h, subset(h, [0, 1, 2]), subset(h, [0, 2])
        )
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
                        vstar = construct_vstar_nonempty_second(g, f, h, fh, m_h)
                        assert len(vstar) == thm35_lhs(stats, f_h_order, len(m_h))

    def test_rejects_anchor_outside_mh(self):
        g, h = fam("complete:2"), fam("cycle:4")
        with pytest.raises(ValueError):
            construct_vstar_nonempty_second(
                g, subset(g, [0, 1]), h, subset(h, [0, 1, 2]), subset(h, [0, 2]), anchor=1
            )

    def test_rejects_missing_h_parts(self):
        g, h = fam("complete:2"), fam("cycle:4")
        with pytest.raises(ValueError):
            construct_vstar_nonempty_second(g, subset(g, [0, 1]), h, None, None)

    @pytest.mark.parametrize(
        "g,h,h_forest,h_independent,message",
        [
            ("empty:2", "cycle:4", [0, 1, 2], [0, 2], "both factors must contain an edge"),
            ("complete:2", "empty:2", [0, 1], [0, 1], "both factors must contain an edge"),
            ("complete:2", "cycle:4", [0, 1], [0, 2], "h_forest must be a maximal induced forest of H"),
            ("complete:2", "cycle:4", [0, 1, 2], [0], "h_independent must be a maximal independent set of H"),
        ],
    )
    def test_rejects_each_bad_input_by_name(self, g, h, h_forest, h_independent, message):
        g, h = fam(g), fam(h)
        with pytest.raises(ValueError) as err:
            construct_vstar_nonempty_second(
                g, subset(g, [0, 1]), h, subset(h, h_forest), subset(h, h_independent)
            )
        assert str(err.value) == message

    @pytest.mark.parametrize("anchor", [9, -1])
    def test_rejects_anchor_out_of_range_before_the_mh_test(self, anchor):
        g, h = fam("complete:2"), fam("cycle:4")
        with pytest.raises(ValueError, match=rf"^anchor {anchor} out of range for second factor of order 4$"):
            construct_vstar_nonempty_second(
                g, subset(g, [0, 1]), h, subset(h, [0, 1, 2]), subset(h, [0, 2]), anchor=anchor
            )


def test_public_vstar_is_sized_by_its_condition_value(monkeypatch):
    # a V* is checked against condition (4)'s value, not against its own
    # block sizes, so an off-by-one in thm35_lhs fails both public V*
    g, h = fam("cycle:5"), fam("cycle:4")
    forest = enumerate_maximal_induced_forests(g)[0]
    m = enumerate_maximal_independent_sets(g)[0]
    fh, mh = subset(h, [0, 1, 2]), subset(h, [0, 2])
    real = theorems.thm35_lhs
    monkeypatch.setattr(theorems, "thm35_lhs", lambda *args: real(*args) + 1)
    for build in (
        lambda: construct_vstar_empty_second(g, forest, 2),
        lambda: construct_vstar_nonempty_second(g, forest, h, fh, mh),
    ):
        with pytest.raises(WitnessVerificationError) as exc:
            build()
        size = len(exc.value.subset)
        assert str(exc.value) == f"witness size {size} differs from formula value {size + 1}"
    assert len(construct_vm(g, m, h, fh)) == len(m) * len(fh)


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
        with pytest.raises(ValueError) as err:
            hypothesis_filter("thm99", fam("path:2"), fam("path:2"))
        assert str(err.value) == "unknown theorem id 'thm99'"

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

    @pytest.mark.parametrize("theorem,g,h", [("thm35", "cycle:5", "cycle:4"), ("thm32", "path:12", "empty:2")])
    def test_kernel_runs_on_factors_only(self, monkeypatch, theorem, g, h):
        g, h = fam(g), fam(h)
        seen = []
        kernel = forests._maximal_forest_masks

        def counting(comp, adj, sequence, prev):
            seen.append(comp.bit_count())
            return kernel(comp, adj, sequence, prev)

        monkeypatch.setattr(forests, "_maximal_forest_masks", counting)
        clear_wfcover_caches()
        check(theorem, g, h)
        assert seen and max(seen) <= max(g.order, h.order)
        assert forests._forest_catalogue.cache_info().currsize == 2  # G and H, no product

    @pytest.mark.parametrize(
        "theorem,g,h", [("thm31", "empty:3", "cycle:4"), ("thm32", "path:4", "empty:2"),
                        ("thm35", "cycle:5", "cycle:4")]
    )
    def test_bound_is_checked_on_the_product(self, theorem, g, h):
        # check-theorem, given a bound that admits both factors but not their product
        order = fam(g).order * fam(h).order
        bound = max(fam(g).order, fam(h).order) + 1
        argv = ["check-theorem", theorem, "--g", g, "--h", h, "--max-order", str(bound)]
        assert invoke(argv) == (2, "", f"error: graph order {order} exceeds the enumeration bound {bound}\n")

    @pytest.mark.parametrize(
        "run,facts,witnesses",
        [
            (lambda: check_thm35(fam("complete:2"), fam("path:25")), {"f_product": 25, "f_h": 25}, 1083),
            (lambda: check_thm31(fam("empty:1"), fam("cycle:25")), {"f_product": 24, "f_h": 24}, 0),
            # H's summary, here of 30K1
            (lambda: check_thm32(fam("complete:1"), 30), {"f_product": 30}, 1),
            # G's facts: 25 V_M and 300 * 2 V*
            (lambda: check_thm35(fam("complete:25"), fam("complete:2")),
             {"f_product": 2, "alpha_g": 1, "f_g": 2}, 625),
            # a product of 49 vertices, with its 56 witnesses verified
            (lambda: check_thm35(fam("cycle:7"), fam("cycle:7")), {"product_order": 49, "f_product": 18}, 56),
        ],
        ids=["thm35-K2-P25", "thm31-K1-C25", "thm32-K1-30K1", "thm35-K25-K2", "thm35-C7-C7"],
    )
    def test_factor_queries_use_the_callers_bound(self, run, facts, witnesses):
        # a check takes no bound: each pair is past the CLI's default bound
        # of 24, and the factor queries take none either; a consistent
        # verdict means every witness was verified
        report = run()
        assert report.verdict == "consistent"
        assert {key: report.ground_truth[key] for key in facts} == facts
        assert len(report.witnesses) == witnesses

    @pytest.mark.parametrize(
        "theorem,g,h",
        [("thm31", "empty:3", "cycle:4"), ("thm32", "path:4", "empty:2"),
         ("thm35", "cycle:5", "cycle:4"), ("thm35", "complete:4", "path:3")],
    )
    def test_callers_bound_is_read_once_at_the_pair(self, monkeypatch, theorem, g, h):
        # a check tests no bound; check-theorem tests the caller's once, on
        # |G|·|H|, and no read of G, H or G∘H tests one after it
        calls = []
        real = cli._within_bound

        def recording(order, bound):
            calls.append((order, bound))
            real(order, bound)

        monkeypatch.setattr(cli, "_within_bound", recording)
        assert not [m for m in (forests, theorems, examples, search) if hasattr(m, "_within_bound")]
        clear_wfcover_caches()
        check(theorem, fam(g), fam(h))
        assert calls == []
        clear_wfcover_caches()
        assert invoke(["check-theorem", theorem, "--g", g, "--h", h, "--max-order", "23"])[0] in (0, 1)
        assert calls == [(fam(g).order * fam(h).order, 23)]

    @pytest.mark.parametrize("theorem", ["thm32", "thm35"])
    def test_z_choice_is_checked_before_any_work(self, builds, theorem):
        clear_wfcover_caches()
        with pytest.raises(ValueError, match=r"^z_choice must be one of \('min', 'max'\), got 'mid'$"):
            {"thm32": lambda: check_thm32(fam("path:4"), 2, z_choice="mid"),
             "thm35": lambda: check_thm35(fam("cycle:5"), fam("cycle:4"), z_choice="mid")}[theorem]()
        assert builds == []
        assert forests._forest_catalogue.cache_info().currsize == 0

    @pytest.mark.parametrize("anchor", [True, False, 1.0, "1"])
    @pytest.mark.parametrize("entry", ["check", "check_thm32", "check_thm35", "vstar_empty", "vstar_nonempty"])
    def test_anchor_that_is_not_an_int_is_rejected_by_name(self, entry, anchor):
        k2, c4 = fam("complete:2"), fam("cycle:4")
        call = {
            "check": lambda: check("thm32", fam("path:4"), fam("empty:2"), anchor=anchor),
            "check_thm32": lambda: check_thm32(fam("path:4"), 2, anchor=anchor),
            "check_thm35": lambda: check_thm35(fam("cycle:5"), c4, anchor=anchor),
            "vstar_empty": lambda: construct_vstar_empty_second(k2, subset(k2, [0, 1]), 2, anchor=anchor),
            "vstar_nonempty": lambda: construct_vstar_nonempty_second(
                k2, subset(k2, [0, 1]), c4, subset(c4, [0, 1, 2]), subset(c4, [0, 2]), anchor=anchor
            ),
        }[entry]
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"anchor is not an int: {anchor!r}"

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
            assert "not a maximal induced forest" in got.detail.error
            assert dataclasses.replace(got.detail, error=None) == want.detail
        # every row is failed, so each template writes its error branch; thm32's
        # V* has no m_h
        from test_cli import reference_report_dict

        expected_text = json.dumps(reference_report_dict(report), sort_keys=True, indent=2)
        assert cli._report_text(report) == expected_text

    @pytest.mark.parametrize(
        "theorem,g,h,partitions,h_forest_checks,h_independent_checks",
        [
            # construct_vm checks F_H once per maximal independent set of G (5 for C5)
            ("thm35", "cycle:5", "cycle:4", 5, 5, 2),
            # P4 is its own and only maximal forest; nK1's one M_H, V(nK1), is
            # checked once per H like every H's
            ("thm32", "path:4", "empty:2", 1, 0, 1),
        ],
    )
    def test_factor_inputs_are_checked_once_per_check(
        self, monkeypatch, theorem, g, h, partitions, h_forest_checks, h_independent_checks
    ):
        g, h = fam(g), fam(h)
        calls = []
        names = ("forest_partition", "is_maximal_induced_forest", "is_maximal_independent_set",
                 "enumerate_maximal_induced_forests")
        # H's record, forests._fibres, checks each M_H through the independence binding
        bindings = [(theorems, name) for name in names] + [(independence, "is_maximal_independent_set")]
        for mod, name in bindings:

            def counting(graph, *args, _name=name, _real=getattr(mod, name), **kwargs):
                calls.append((_name, graph))
                return _real(graph, *args, **kwargs)

            monkeypatch.setattr(mod, name, counting)
        clear_wfcover_caches()
        report = check(theorem, g, h)

        def count(name, matches):
            return sum(1 for called, graph in calls if called == name and matches(graph))

        assert count("forest_partition", lambda graph: graph == g) == partitions
        assert count("is_maximal_induced_forest", lambda graph: graph == h) == h_forest_checks
        assert count("is_maximal_independent_set", lambda graph: graph == h) == h_independent_checks
        # F_H is read off H's catalogue record: H's maximal forests are never listed
        assert count("enumerate_maximal_induced_forests", lambda graph: graph == h) == 0
        product_order = g.order * h.order
        product_checks = count("is_maximal_induced_forest", lambda graph: graph.order == product_order)
        assert product_checks == len(report.witnesses) > 0

    @pytest.fixture
    def mis_checks(self, monkeypatch):
        """The graph of every maximal independent set check, through either
        binding: H's record checks its M_H through the independence one."""
        checked = []
        real = independence.is_maximal_independent_set

        def counting(graph, s):
            checked.append(graph)
            return real(graph, s)

        for mod in (theorems, independence):
            monkeypatch.setattr(mod, "is_maximal_independent_set", counting)
        clear_wfcover_caches()
        return checked

    def test_second_check_with_the_same_h_makes_no_mis_check(self, mis_checks):
        # the M_H of C4 are checked with P4, the first G; C5 reuses them, and
        # each check still tests its own anchor against every M_H
        h = fam("cycle:4")
        check("thm35", fam("path:4"), h)
        assert mis_checks.count(h) == 2
        mis_checks.clear()
        report = check("thm35", fam("cycle:5"), h)
        assert all(w.verified for w in report.witnesses)
        with pytest.raises(ValueError, match=r"^anchor 1 does not belong to the maximal independent set \[0, 2\]$"):
            check("thm35", fam("cycle:5"), h, anchor=1)
        assert mis_checks.count(h) == 0

    @pytest.mark.parametrize("g,h", [("cycle:5", "cycle:4"), ("path:4", "path:3"), ("complete:3", "cycle:5")])
    def test_the_fold_and_the_check_share_one_checked_record_of_h(self, mis_checks, g, h):
        # the profile of G∘H reads H's record, so the fold alone checks each
        # M_H once, and the check that follows reads the same record
        g, h = fam(g), fam(h)
        forest_number(lexicographic(g, h)[0])
        assert mis_checks.count(h) == len(enumerate_maximal_independent_sets(h))
        mis_checks.clear()
        report = check_thm35(g, h)
        assert all(w.verified for w in report.witnesses)
        assert mis_checks.count(h) == 0

    # the bench's thm35 pairs, next to the order-4 atlas
    BENCH_THM35_PAIRS = (
        ("cycle:8", "path:3"), ("cycle:6", "cycle:4"), ("complete:8", "path:3"), ("complete:4", "path:6"),
    )

    @pytest.mark.parametrize("theorem", ["thm32", "thm35"])
    def test_witnesses_match_the_public_constructors(self, atlas_le4, theorem):
        # each V*, the check's and the public constructor's, equals the union
        # of its five blocks built here pair by pair
        pairs = [(g, h) for g in atlas_le4 for h in atlas_le4]
        if theorem == "thm35":
            pairs += [(fam(g), fam(h)) for g, h in self.BENCH_THM35_PAIRS]
        for g, h in pairs:
            if not hypothesis_filter(theorem, g, h):
                continue
            mis_h = enumerate_maximal_independent_sets(h)
            if theorem == "thm32":
                anchors = [None, *range(h.order)]
                fh = VertexSubset(h.order, h.vertices_mask)
            else:
                f_h = forest_number(h)
                fh = next(s for s in enumerate_maximal_induced_forests(h) if len(s) == f_h)
                anchors = [None] + [a for a in range(h.order) if all(a in m for m in mis_h)]
            index = ProductIndexMap(g.order, h.order)
            for z_choice in ("min", "max"):
                for anchor in anchors:
                    report = check(theorem, g, h, z_choice=z_choice, anchor=anchor)
                    vstar = [w for w in report.witnesses if w.kind.startswith("vstar")]
                    assert len(vstar) == len(report.condition_values) > 0
                    for rec, w in zip(report.condition_values, vstar):
                        assert rec.stats == forest_stats(g, rec.forest)
                        if theorem == "thm32":
                            m_h = fh
                            want = construct_vstar_empty_second(
                                g, rec.forest, h.order, z_choice=z_choice, anchor=anchor
                            )
                        else:
                            m_h = rec.m_h
                            want = construct_vstar_nonempty_second(
                                g, rec.forest, h, fh, m_h, z_choice=z_choice, anchor=anchor
                            )
                        p = forest_partition(g, rec.forest, z_choice=z_choice)
                        point = (w.detail.anchor,)
                        blocks = (
                            (p.x1, fh.vertices()), (p.x2, m_h.vertices()), (p.z, m_h.vertices()),
                            (p.y, point), (p.t, point),
                        )
                        union = index.subset_from_pairs(
                            (gv, hv) for part, hs in blocks for gv in part.vertices() for hv in hs
                        )
                        assert w.verified and w.subset == want == union
                        assert w.size == rec.lhs
