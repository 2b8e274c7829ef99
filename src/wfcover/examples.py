"""End-to-end audit of the three bundled product case studies.

Each case study is a list of checkable sentences about a specific product
(P4 with two edgeless copies, the fig1 graph with C4, and C5 with C4).
The audit recomputes every sentence by exhaustive enumeration and
classifies it:

confirmed   the sentence holds as printed
refuted     the sentence is false as printed
corrected   the sentence is false as printed, but a minimal repair of the
            referenced set keeps its point standing

``expected`` pins the adjudication the package ships with, so a divergent
recomputation is loud (verify-paper exits nonzero, verdict flips to
theorem_violation).
"""

from __future__ import annotations

from .graphs import FamilySpec, Graph, VertexSubset, generate
from .products import ProductIndexMap
from .forests import (
    ForestStats,
    enumerate_maximal_induced_forests,
    forest_stats,
    is_induced_forest,
    is_maximal_induced_forest,
)
from .independence import enumerate_maximal_independent_sets, independence_number
from .theorems import (
    ClaimRecord,
    TheoremReport,
    VERDICT_CONSISTENT,
    VERDICT_NON_SUFFICIENCY,
    VERDICT_VIOLATION,
    _product,
    check_thm32,
    check_thm35,
    thm32_lhs,
    thm35_lhs,
)

# fig1 vertex dictionary: a=0, b=1, c=2, d=3, e=4
_FIG1_ABC = (0, 1, 2)        # G[{a,b,c}]
_FIG1_EBCD = (1, 2, 3, 4)    # G[{e,b,c,d}]
_FIG1_ABD = (0, 1, 3)        # genuinely maximal, condition-(4) value 5
_FIG1_EABC = (0, 1, 2, 4)    # genuinely maximal, condition-(4) value 6

# product subsets listed for C5 o C4, as (x, y) pairs with x_i -> i-1, y_j -> j-1
_C5C4_FIRST = ((0, 0), (0, 2), (1, 0), (2, 0), (3, 0), (3, 2))
_C5C4_SECOND_PRINTED = ((0, 0), (0, 2), (1, 0), (2, 0), (2, 1))
_C5C4_SECOND_FIXED = ((0, 0), (0, 2), (1, 0), (2, 0), (2, 2))


def _subset(g: Graph, vertices) -> VertexSubset:
    return VertexSubset.from_vertices(g.order, vertices)


def _extenders(g: Graph, s: VertexSubset) -> list[int]:
    """Vertices outside ``s`` whose addition keeps the induced graph a forest."""
    out = []
    for v in range(g.order):
        if v in s:
            continue
        if is_induced_forest(g, VertexSubset(g.order, s.mask | (1 << v))):
            out.append(v)
    return out


def _find_triangle(g: Graph, vertices: tuple[int, ...]) -> list[int] | None:
    """The first triangle inside ``vertices``, or None."""
    for i, a in enumerate(vertices):
        for b in vertices[i + 1 :]:
            if not g.has_edge(a, b):
                continue
            for c in vertices:
                if c > b and g.has_edge(a, c) and g.has_edge(b, c):
                    return [a, b, c]
    return None


def _is_induced_path(g: Graph, s: VertexSubset) -> bool:
    stats = forest_stats(g, s)
    return (
        stats.isolated == 0
        and stats.k2_components == 0
        and stats.outer_leaves == 2
        and stats.total == len(s)
    )


def _audit_p4_with_two_copies(max_order: int | None) -> tuple[list[ClaimRecord], dict]:
    g = generate(FamilySpec("path", 4))
    report = check_thm32(g, 2, max_order=max_order)
    truth = report.ground_truth
    forests = enumerate_maximal_induced_forests(g)
    forests_json = [list(f.vertices()) for f in forests]
    all_are_p3 = all(len(f) == 3 and _is_induced_path(g, f) for f in forests)
    p3_value = thm32_lhs(ForestStats(0, 0, 2, 1), 2)
    actual_values = [r.lhs for r in report.condition_values]
    claims = [
        ClaimRecord(
            example="p4_2k1",
            claim="forest_number",
            text="f(P4 o 2K1) = 6",
            status="confirmed" if truth["f_product"] == 6 else "refuted",
            expected="confirmed",
            facts={"f_product": truth["f_product"]},
        ),
        ClaimRecord(
            example="p4_2k1",
            claim="not_well_f_covered",
            text="P4 o 2K1 is not well-f-covered",
            status="confirmed" if not truth["well_f_covered_product"] else "refuted",
            expected="confirmed",
            facts={"maximal_forest_orders": truth["maximal_forest_orders"]},
        ),
        ClaimRecord(
            example="p4_2k1",
            claim="maximal_forests_are_p3",
            text="every maximal forest of P4 is an induced P3",
            status="confirmed" if all_are_p3 else "refuted",
            expected="refuted",
            facts={
                "actual_maximal_forests": forests_json,
                "p3_reading_value": p3_value,
                "actual_values": actual_values,
            },
        ),
        ClaimRecord(
            example="p4_2k1",
            claim="per_forest_total",
            text="the per-forest condition value is 6 = f(P4 o 2K1)",
            status=(
                "confirmed"
                if truth["f_product"] == 6 and all(r.holds for r in report.condition_values)
                else "refuted"
            ),
            expected="confirmed",
            facts={"values": actual_values, "f_product": truth["f_product"]},
        ),
        ClaimRecord(
            example="p4_2k1",
            claim="non_sufficiency",
            text="the condition holds for every maximal forest yet the product is not well-f-covered",
            status="confirmed" if report.verdict == VERDICT_NON_SUFFICIENCY else "refuted",
            expected="confirmed",
            facts={"verdict": report.verdict},
        ),
    ]
    facts = {
        "f_product": truth["f_product"],
        "well_f_covered_product": truth["well_f_covered_product"],
        "maximal_forest_orders": truth["maximal_forest_orders"],
        "verdict": report.verdict,
    }
    return claims, facts


def _audit_fig1_with_c4(max_order: int | None) -> tuple[list[ClaimRecord], dict]:
    g = generate(FamilySpec("fig1"))
    h = generate(FamilySpec("cycle", 4))
    report = check_thm35(g, h, max_order=max_order)
    truth = report.ground_truth
    alpha = independence_number(g)
    mis_h = enumerate_maximal_independent_sets(h)

    abc = _subset(g, _FIG1_ABC)
    abc_maximal = is_maximal_induced_forest(g, abc)
    ebcd = _subset(g, _FIG1_EBCD)
    abd = _subset(g, _FIG1_ABD)
    eabc = _subset(g, _FIG1_EABC)
    f_h = truth["f_h"]
    m_h_size = len(mis_h[0])
    value_abd = thm35_lhs(forest_stats(g, abd), f_h, m_h_size)
    value_eabc = thm35_lhs(forest_stats(g, eabc), f_h, m_h_size)
    printed_pair_ok = abc_maximal and is_maximal_induced_forest(g, ebcd)
    repaired_pair_ok = (
        is_maximal_induced_forest(g, abd)
        and is_maximal_induced_forest(g, eabc)
        and value_abd != value_eabc
    )
    if printed_pair_ok:
        values_status = "confirmed"
    elif repaired_pair_ok:
        values_status = "corrected"
    else:
        values_status = "refuted"

    claims = [
        ClaimRecord(
            example="fig1_c4",
            claim="g_well_covered",
            text="fig1 is well-covered with independence number 2",
            status="confirmed" if truth["well_covered_g"] and alpha == 2 else "refuted",
            expected="confirmed",
            facts={"well_covered_g": truth["well_covered_g"], "alpha_g": alpha},
        ),
        ClaimRecord(
            example="fig1_c4",
            claim="abc_maximal_forest",
            text="G[{a,b,c}] is a maximal forest in G",
            status="confirmed" if abc_maximal else "refuted",
            expected="refuted",
            facts={
                "set": list(abc.vertices()),
                "is_induced_forest": is_induced_forest(g, abc),
                "extends_with": _extenders(g, abc),
            },
        ),
        ClaimRecord(
            example="fig1_c4",
            claim="h_conditions",
            text="C4 is well-f-covered and well-covered with no size-1 maximal independent set",
            status=(
                "confirmed"
                if truth["well_f_covered_h"]
                and truth["well_covered_h"]
                and all(len(m) > 1 for m in mis_h)
                else "refuted"
            ),
            expected="confirmed",
            facts={
                "well_f_covered_h": truth["well_f_covered_h"],
                "well_covered_h": truth["well_covered_h"],
                "maximal_independent_sizes": sorted({len(m) for m in mis_h}),
            },
        ),
        ClaimRecord(
            example="fig1_c4",
            claim="product_forest_number",
            text="f(G o C4) = 6 = alpha(G) * f(C4)",
            status=(
                "confirmed"
                if truth["f_product"] == 6 and truth["f_product"] == alpha * f_h
                else "refuted"
            ),
            expected="confirmed",
            facts={"f_product": truth["f_product"], "alpha_g": alpha, "f_h": f_h},
        ),
        ClaimRecord(
            example="fig1_c4",
            claim="condition4_values",
            text="condition (4) evaluates to 5 and 6 on two maximal forests of G",
            status=values_status,
            expected="corrected",
            facts={
                "printed_forests": [list(abc.vertices()), list(ebcd.vertices())],
                "printed_first_is_maximal": abc_maximal,
                "maximal_forests": [list(abd.vertices()), list(eabc.vertices())],
                "values": [value_abd, value_eabc],
            },
        ),
        ClaimRecord(
            example="fig1_c4",
            claim="not_well_f_covered",
            text="G o C4 is not well-f-covered",
            status="confirmed" if not truth["well_f_covered_product"] else "refuted",
            expected="confirmed",
            facts={"maximal_forest_orders": truth["maximal_forest_orders"]},
        ),
    ]
    facts = {
        "f_product": truth["f_product"],
        "well_f_covered_product": truth["well_f_covered_product"],
        "conditions": dict(report.conditions),
        "verdict": report.verdict,
    }
    return claims, facts


def _audit_c5_with_c4(max_order: int | None) -> tuple[list[ClaimRecord], dict]:
    g = generate(FamilySpec("cycle", 5))
    h = generate(FamilySpec("cycle", 4))
    report = check_thm35(g, h, max_order=max_order)
    truth = report.ground_truth
    alpha = truth["alpha_g"]
    f_h = truth["f_h"]
    # the product check_thm35 just built, from its one-entry memo
    product = _product(g, h)
    index_map = ProductIndexMap(g.order, h.order)

    forests_g = enumerate_maximal_induced_forests(g)
    all_p4 = all(len(f) == 4 and _is_induced_path(g, f) for f in forests_g)
    values = sorted({r.lhs for r in report.condition_values})

    first = index_map.subset_from_pairs(_C5C4_FIRST)
    second_printed = index_map.subset_from_pairs(_C5C4_SECOND_PRINTED)
    second_fixed = index_map.subset_from_pairs(_C5C4_SECOND_FIXED)
    printed_triangle = _find_triangle(product, second_printed.vertices())
    first_ok = is_maximal_induced_forest(product, first) and len(first) == 6
    printed_ok = is_maximal_induced_forest(product, second_printed) and len(second_printed) == 5
    fixed_ok = is_maximal_induced_forest(product, second_fixed) and len(second_fixed) == 5
    if printed_ok:
        second_status = "confirmed"
    elif fixed_ok:
        second_status = "corrected"
    else:
        second_status = "refuted"

    claims = [
        ClaimRecord(
            example="c5_c4",
            claim="premises",
            text="C5 is well-covered with a leafy maximal forest; C4 is well-f-covered and well-covered",
            status=(
                "confirmed"
                if truth["well_covered_g"] and truth["well_f_covered_h"] and truth["well_covered_h"]
                else "refuted"
            ),
            expected="confirmed",
            facts={
                "well_covered_g": truth["well_covered_g"],
                "well_f_covered_h": truth["well_f_covered_h"],
                "well_covered_h": truth["well_covered_h"],
            },
        ),
        ClaimRecord(
            example="c5_c4",
            claim="product_forest_number",
            text="f(C5 o C4) = 6 = alpha(C5) * f(C4)",
            status=(
                "confirmed"
                if truth["f_product"] == 6 and truth["f_product"] == alpha * f_h
                else "refuted"
            ),
            expected="confirmed",
            facts={"f_product": truth["f_product"], "alpha_g": alpha, "f_h": f_h},
        ),
        ClaimRecord(
            example="c5_c4",
            claim="maximal_forests_p4",
            text="every maximal forest of C5 is an induced P4 with condition-(4) value 6",
            status="confirmed" if all_p4 and values == [6] else "refuted",
            expected="confirmed",
            facts={"forest_orders": sorted({len(f) for f in forests_g}), "values": values},
        ),
        ClaimRecord(
            example="c5_c4",
            claim="first_listed_set",
            text="the first listed subset is a maximal forest of C5 o C4 of order 6",
            status="confirmed" if first_ok else "refuted",
            expected="confirmed",
            facts={"pairs": [list(p) for p in _C5C4_FIRST], "order": len(first)},
        ),
        ClaimRecord(
            example="c5_c4",
            claim="second_listed_set",
            text="the second listed subset is a maximal forest of C5 o C4 of order 5",
            status=second_status,
            expected="corrected",
            facts={
                "pairs_printed": [list(p) for p in _C5C4_SECOND_PRINTED],
                "printed_is_forest": is_induced_forest(product, second_printed),
                "triangle": None
                if printed_triangle is None
                else [list(index_map.decode(v)) for v in printed_triangle],
                "pairs_fixed": [list(p) for p in _C5C4_SECOND_FIXED],
                "fixed_is_maximal": fixed_ok,
            },
        ),
        ClaimRecord(
            example="c5_c4",
            claim="not_well_f_covered",
            text="C5 o C4 is not well-f-covered",
            status="confirmed" if not truth["well_f_covered_product"] else "refuted",
            expected="confirmed",
            facts={"maximal_forest_orders": truth["maximal_forest_orders"]},
        ),
        ClaimRecord(
            example="c5_c4",
            claim="non_sufficiency",
            text="conditions (1)-(4) hold yet the product is not well-f-covered",
            status="confirmed" if report.verdict == VERDICT_NON_SUFFICIENCY else "refuted",
            expected="confirmed",
            facts={"conditions": dict(report.conditions), "verdict": report.verdict},
        ),
    ]
    facts = {
        "f_product": truth["f_product"],
        "well_f_covered_product": truth["well_f_covered_product"],
        "conditions": dict(report.conditions),
        "verdict": report.verdict,
    }
    return claims, facts


def verify_paper_examples(max_order: int | None = None) -> TheoremReport:
    """Re-run the three case studies and adjudicate every audited sentence."""
    claims: list[ClaimRecord] = []
    ground_truth: dict = {}
    for key, audit in (
        ("p4_2k1", _audit_p4_with_two_copies),
        ("fig1_c4", _audit_fig1_with_c4),
        ("c5_c4", _audit_c5_with_c4),
    ):
        example_claims, facts = audit(max_order)
        claims.extend(example_claims)
        ground_truth[key] = facts
    as_pinned = all(c.status == c.expected for c in claims)
    return TheoremReport(
        theorem_id="examples",
        hypotheses={},
        conditions={"all_claims_as_pinned": as_pinned},
        condition_values=(),
        ground_truth=ground_truth,
        witnesses=(),
        verdict=VERDICT_CONSISTENT if as_pinned else VERDICT_VIOLATION,
        claims=tuple(claims),
    )
