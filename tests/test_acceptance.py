"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from pathlib import Path

import networkx as nx

from wfcover import (
    Graph,
    ScanConfig,
    VertexSubset,
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
    from_graph6,
    generate,
    independence_number,
    is_maximal_induced_forest,
    is_well_covered,
    is_well_f_covered,
    lexicographic,
    parse_family,
    scan,
    thm35_lhs,
    to_graph6,
    verify_paper_examples,
)
from wfcover.cli import run as cli_run

from conftest import (
    ATLAS_COUNTS,
    atlas_graphs,
    graph_from_mask,
    naive_maximal_forests,
    naive_maximal_independent,
)

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num: int, desc: str, limit: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {desc}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {num}: {desc} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s, over its {limit}s budget"


def fam(text: str) -> Graph:
    return generate(parse_family(text))


def test_criterion_1_p4_with_two_copies():
    with criterion(1, "P4 o 2K1: f=6, not wfc with orders {5,6}, non-sufficiency", 1.0):
        product, _ = lexicographic(fam("path:4"), fam("empty:2"))
        assert forest_number(product) == 6
        wfc, witness = is_well_f_covered(product)
        assert not wfc
        assert sorted((len(witness[0]), len(witness[1]))) == [5, 6]
        report = check_thm32(fam("path:4"), 2)
        assert all(rec.holds for rec in report.condition_values)
        assert report.verdict == "non_sufficiency_witness"


def test_criterion_2_c5_c4():
    with criterion(2, "C5 o C4: f=6=alpha*f, listed set maximal, non-sufficiency", 10.0):
        g, h = fam("cycle:5"), fam("cycle:4")
        product, index_map = lexicographic(g, h)
        f_p = forest_number(product)
        assert f_p == 6
        assert f_p == independence_number(g) * forest_number(h)
        first = index_map.subset_from_pairs(
            [(0, 0), (0, 2), (1, 0), (2, 0), (3, 0), (3, 2)]
        )
        assert len(first) == 6
        assert is_maximal_induced_forest(product, first)
        report = check_thm35(g, h)
        assert report.verdict == "non_sufficiency_witness"


def test_criterion_3_fig1_c4():
    with criterion(3, "fig1: wc with alpha=2, condition-(4) values {5,6}, product not wfc", 10.0):
        g, h = fam("fig1"), fam("cycle:4")
        assert is_well_covered(g) == (True, None)
        assert independence_number(g) == 2
        abd = VertexSubset.from_vertices(5, [0, 1, 3])
        eabc = VertexSubset.from_vertices(5, [0, 1, 2, 4])
        assert is_maximal_induced_forest(g, abd)
        assert is_maximal_induced_forest(g, eabc)
        f_h = forest_number(h)
        m_h_size = len(enumerate_maximal_independent_sets(h)[0])
        assert thm35_lhs(forest_stats(g, abd), f_h, m_h_size) == 5
        assert thm35_lhs(forest_stats(g, eabc), f_h, m_h_size) == 6
        product, _ = lexicographic(g, h)
        assert not is_well_f_covered(product)[0]
        report = verify_paper_examples()
        abc_claim = next(
            c for c in report.claims if c.example == "fig1_c4" and c.claim == "abc_maximal_forest"
        )
        assert abc_claim.text == "G[{a,b,c}] is a maximal forest in G"
        assert abc_claim.status == "refuted"


def test_criterion_4_empty_first_factor_suite():
    with criterion(4, "wfc(G o H) iff wfc(H) and f = m*f(H): m<=3, connected H<=5", 120.0):
        connected = atlas_graphs(5, connected=True)
        assert len(connected) == 31
        checks = 0
        for m in (1, 2, 3):
            g = fam(f"empty:{m}")
            for h in connected:
                product, _ = lexicographic(g, h)
                assert is_well_f_covered(product)[0] == is_well_f_covered(h)[0]
                assert forest_number(product) == m * forest_number(h)
                report = check_thm31(g, h)
                assert report.verdict == "consistent"
                checks += 1
        assert checks == 93


def test_criterion_5_necessary_condition_soundness():
    with criterion(5, "exhaustive <=4 scan: zero theorem_violation findings", 300.0):
        reps = atlas_graphs(4)
        assert len(reps) == 18
        pairs = [(g, h) for g in reps for h in reps]
        totals = {}
        for theorem in ("thm31", "thm32", "thm35"):
            findings = list(scan(pairs, ScanConfig(theorem=theorem)))
            assert findings, theorem
            violations = [f for f in findings if f.verdict == "theorem_violation"]
            assert violations == [], (theorem, violations)
            totals[theorem] = len(findings)
        # every hypothesis-eligible pair was checked
        assert totals["thm31"] == 4 * 18
        assert totals["thm32"] == 18 * 4
        assert totals["thm35"] == 14 * 14


def test_criterion_6_witness_soundness():
    with criterion(6, "all V_M and V* over the <=4 scan verify (both tie-breaks, all anchors)", 300.0):
        reps = atlas_graphs(4)
        built_empty = built_vm = built_vstar = 0
        # second factor edgeless: V* for every forest, tie-break, anchor
        for g in reps:
            forests = enumerate_maximal_induced_forests(g)
            for n in (1, 2, 3, 4):
                for forest in forests:
                    for z_choice in ("min", "max"):
                        for anchor in range(n):
                            vstar = construct_vstar_empty_second(
                                g, forest, n, z_choice=z_choice, anchor=anchor
                            )
                            assert len(vstar) > 0
                            built_empty += 1
        # both factors nonempty: V_M for every (M, F_H); V* for every
        # (forest, tie-break, M_H, anchor in M_H)
        nonempty = [g for g in reps if g.edge_count > 0]
        for g in nonempty:
            forests_g = enumerate_maximal_induced_forests(g)
            mis_g = enumerate_maximal_independent_sets(g)
            for h in nonempty:
                forests_h = enumerate_maximal_induced_forests(h)
                mis_h = enumerate_maximal_independent_sets(h)
                f_h_order = forest_number(h)
                fh_canon = next(s for s in forests_h if len(s) == f_h_order)
                for m in mis_g:
                    for f_h in forests_h:
                        construct_vm(g, m, h, f_h)
                        built_vm += 1
                for forest in forests_g:
                    for z_choice in ("min", "max"):
                        for m_h in mis_h:
                            for anchor in m_h.vertices():
                                construct_vstar_nonempty_second(
                                    g, forest, h, fh_canon, m_h, z_choice=z_choice, anchor=anchor
                                )
                                built_vstar += 1
        print(
            f"  witnesses verified: {built_empty} empty-second V*, "
            f"{built_vm} V_M, {built_vstar} nonempty-second V*"
        )
        assert built_empty >= 680
        assert built_vm >= 1000
        assert built_vstar >= 3000


def test_criterion_7_oracle_equivalence():
    with criterion(7, "enumerations match the naive subset-filter oracle on all graphs <=6", 300.0):
        reps = atlas_graphs(6)
        assert sum(1 for g in reps if g.order == 6) == ATLAS_COUNTS[6] == 156
        for g in reps:
            forests = {frozenset(f.vertices()) for f in enumerate_maximal_induced_forests(g)}
            assert forests == naive_maximal_forests(g), g.edges()
            independents = {
                frozenset(s.vertices()) for s in enumerate_maximal_independent_sets(g)
            }
            assert independents == naive_maximal_independent(g), g.edges()


def test_criterion_8_format_exactness(tmp_path):
    with criterion(8, "graph6 round-trips (<=6 exhaustive, 1000 random <=20) and CLI goldens", 300.0):
        for n in range(1, 7):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = graph_from_mask(n, mask)
                record = to_graph6(g)
                assert from_graph6(record) == g
        rng = random.Random(20260808)
        for _ in range(1000):
            n = rng.randint(1, 20)
            mask = rng.getrandbits(n * (n - 1) // 2)
            g = graph_from_mask(n, mask)
            record = to_graph6(g)
            assert from_graph6(record) == g
            # spot-check byte agreement with the independent codec
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(g.edges())
            assert record == nx.to_graph6_bytes(nxg, header=False).strip()
        import io

        for argv, golden in (
            (["analyze", "--family", "cycle:4"], "analyze_cycle4.json"),
            (
                ["check-theorem", "thm31", "--g", "empty:3", "--h", "cycle:4"],
                "check_thm31_empty3_cycle4.json",
            ),
            (["verify-paper"], "verify_paper.json"),
        ):
            out, err = io.StringIO(), io.StringIO()
            cli_run(argv, stdout=out, stderr=err)
            assert out.getvalue().encode() == (GOLDEN / golden).read_bytes(), argv
