"""End-to-end audit of the three bundled product case studies.

Each case study is a list of checkable sentences about a specific product,
of fixed order, so the audit takes no enumeration bound: P4 with two edgeless
copies (8 vertices), the fig1 graph with C4 and C5 with C4 (20 each).
Facts about a checked pair come from its check report, printed sets are
tested directly, and each sentence is classified by one rule, ``_claim``:

confirmed   the sentence holds as printed
corrected   the sentence is false as printed, but a minimal repair of the
            referenced set keeps its point standing
refuted     otherwise

``expected`` pins the adjudication the package ships with, so a divergent
recomputation is loud (verify-paper exits nonzero, verdict flips to
theorem_violation).
"""

from __future__ import annotations

from .graphs import FamilySpec, Graph, VertexSubset, generate
from .products import ProductIndexMap
from .forests import ForestStats, is_induced_forest, is_maximal_induced_forest
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

# the stats of an induced P3 and P4: two leaves and one or two inner vertices
_P3_STATS = ForestStats(0, 0, 2, 1)
_P4_STATS = ForestStats(0, 0, 2, 2)


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


def _claim(
    example: str,
    claim: str,
    text: str,
    holds: bool,
    expected: str,
    facts: dict,
    repaired: bool = False,
) -> ClaimRecord:
    """Adjudicate one sentence by the rule of this module: confirmed if it
    holds as printed (``holds``), corrected if only its minimal repair holds
    (``repaired``), refuted otherwise."""
    if holds:
        status = "confirmed"
    elif repaired:
        status = "corrected"
    else:
        status = "refuted"
    return ClaimRecord(example, claim, text, status, expected, facts)


def _not_well_f_covered(example: str, product: str, truth: dict) -> ClaimRecord:
    """The sentence that the product named ``product`` is not well-f-covered."""
    return _claim(
        example=example,
        claim="not_well_f_covered",
        text=f"{product} is not well-f-covered",
        holds=not truth["well_f_covered_product"],
        expected="confirmed",
        facts={"maximal_forest_orders": truth["maximal_forest_orders"]},
    )


def _product_forest_number(example: str, g: str, h: str, truth: dict) -> ClaimRecord:
    """The sentence f(G o H) = 6 = alpha(G) * f(H), for the factors named
    ``g`` and ``h``, from the ground truth of their thm35 check."""
    f_product, alpha, f_h = truth["f_product"], truth["alpha_g"], truth["f_h"]
    return _claim(
        example=example,
        claim="product_forest_number",
        text=f"f({g} o {h}) = 6 = alpha({g}) * f({h})",
        holds=f_product == 6 and f_product == alpha * f_h,
        expected="confirmed",
        facts={"f_product": f_product, "alpha_g": alpha, "f_h": f_h},
    )


def _summary(report: TheoremReport, **facts) -> dict:
    """An example's ground truth: the product's forest number, whether it is
    well-f-covered, the check's verdict, and ``facts``."""
    truth = report.ground_truth
    return {
        "f_product": truth["f_product"],
        "well_f_covered_product": truth["well_f_covered_product"],
        **facts,
        "verdict": report.verdict,
    }


def _audit_p4_with_two_copies() -> tuple[list[ClaimRecord], dict]:
    g = generate(FamilySpec("path", 4))
    report = check_thm32(g, 2)
    truth = report.ground_truth
    forests_json = [list(r.forest.vertices()) for r in report.condition_values]
    all_are_p3 = all(r.stats == _P3_STATS for r in report.condition_values)
    p3_value = thm32_lhs(_P3_STATS, 2)
    actual_values = [r.lhs for r in report.condition_values]
    claims = [
        _claim(
            example="p4_2k1",
            claim="forest_number",
            text="f(P4 o 2K1) = 6",
            holds=truth["f_product"] == 6,
            expected="confirmed",
            facts={"f_product": truth["f_product"]},
        ),
        _not_well_f_covered("p4_2k1", "P4 o 2K1", truth),
        _claim(
            example="p4_2k1",
            claim="maximal_forests_are_p3",
            text="every maximal forest of P4 is an induced P3",
            holds=all_are_p3,
            expected="refuted",
            facts={
                "actual_maximal_forests": forests_json,
                "p3_reading_value": p3_value,
                "actual_values": actual_values,
            },
        ),
        _claim(
            example="p4_2k1",
            claim="per_forest_total",
            text="the per-forest condition value is 6 = f(P4 o 2K1)",
            holds=truth["f_product"] == 6 and all(r.holds for r in report.condition_values),
            expected="confirmed",
            facts={"values": actual_values, "f_product": truth["f_product"]},
        ),
        _claim(
            example="p4_2k1",
            claim="non_sufficiency",
            text="the condition holds for every maximal forest yet the product is not well-f-covered",
            holds=report.verdict == VERDICT_NON_SUFFICIENCY,
            expected="confirmed",
            facts={"verdict": report.verdict},
        ),
    ]
    return claims, _summary(report, maximal_forest_orders=truth["maximal_forest_orders"])


def _audit_fig1_with_c4() -> tuple[list[ClaimRecord], dict]:
    g = generate(FamilySpec("fig1"))
    h = generate(FamilySpec("cycle", 4))
    report = check_thm35(g, h)
    truth = report.ground_truth
    # one record per (maximal forest of G, M_H), so every M_H appears
    mis_h_sizes = sorted({len(r.m_h) for r in report.condition_values})

    abc = _subset(g, _FIG1_ABC)
    abc_maximal = is_maximal_induced_forest(g, abc)
    ebcd = _subset(g, _FIG1_EBCD)
    abd = _subset(g, _FIG1_ABD)
    eabc = _subset(g, _FIG1_EABC)
    # the value at the first M_H; None for a printed set that is not maximal
    value_abd, value_eabc = (
        next((r.lhs for r in report.condition_values if r.forest == s), None)
        for s in (abd, eabc)
    )

    claims = [
        _claim(
            example="fig1_c4",
            claim="g_well_covered",
            text="fig1 is well-covered with independence number 2",
            holds=truth["well_covered_g"] and truth["alpha_g"] == 2,
            expected="confirmed",
            facts={"well_covered_g": truth["well_covered_g"], "alpha_g": truth["alpha_g"]},
        ),
        _claim(
            example="fig1_c4",
            claim="abc_maximal_forest",
            text="G[{a,b,c}] is a maximal forest in G",
            holds=abc_maximal,
            expected="refuted",
            facts={
                "set": list(abc.vertices()),
                "is_induced_forest": is_induced_forest(g, abc),
                "extends_with": _extenders(g, abc),
            },
        ),
        _claim(
            example="fig1_c4",
            claim="h_conditions",
            text="C4 is well-f-covered and well-covered with no size-1 maximal independent set",
            holds=(
                truth["well_f_covered_h"]
                and truth["well_covered_h"]
                and mis_h_sizes[0] > 1
            ),
            expected="confirmed",
            facts={
                "well_f_covered_h": truth["well_f_covered_h"],
                "well_covered_h": truth["well_covered_h"],
                "maximal_independent_sizes": mis_h_sizes,
            },
        ),
        _product_forest_number("fig1_c4", "G", "C4", truth),
        _claim(
            example="fig1_c4",
            claim="condition4_values",
            text="condition (4) evaluates to 5 and 6 on two maximal forests of G",
            holds=abc_maximal and is_maximal_induced_forest(g, ebcd),
            repaired=(
                is_maximal_induced_forest(g, abd)
                and is_maximal_induced_forest(g, eabc)
                and value_abd != value_eabc
            ),
            expected="corrected",
            facts={
                "printed_forests": [list(abc.vertices()), list(ebcd.vertices())],
                "printed_first_is_maximal": abc_maximal,
                "maximal_forests": [list(abd.vertices()), list(eabc.vertices())],
                "values": [value_abd, value_eabc],
            },
        ),
        _not_well_f_covered("fig1_c4", "G o C4", truth),
    ]
    return claims, _summary(report, conditions=dict(report.conditions))


def _audit_c5_with_c4() -> tuple[list[ClaimRecord], dict]:
    g = generate(FamilySpec("cycle", 5))
    h = generate(FamilySpec("cycle", 4))
    report = check_thm35(g, h)
    truth = report.ground_truth
    # the product check_thm35 just built, from its one-entry memo
    product = _product(g, h)
    index_map = ProductIndexMap(g.order, h.order)

    all_p4 = all(r.stats == _P4_STATS for r in report.condition_values)
    orders = sorted({len(r.forest) for r in report.condition_values})
    values = sorted({r.lhs for r in report.condition_values})

    first = index_map.subset_from_pairs(_C5C4_FIRST)
    second_printed = index_map.subset_from_pairs(_C5C4_SECOND_PRINTED)
    second_fixed = index_map.subset_from_pairs(_C5C4_SECOND_FIXED)
    printed_triangle = _find_triangle(product, second_printed.vertices())
    fixed_ok = is_maximal_induced_forest(product, second_fixed) and len(second_fixed) == 5

    claims = [
        _claim(
            example="c5_c4",
            claim="premises",
            text="C5 is well-covered with a leafy maximal forest; C4 is well-f-covered and well-covered",
            holds=truth["well_covered_g"] and truth["well_f_covered_h"] and truth["well_covered_h"],
            expected="confirmed",
            facts={
                "well_covered_g": truth["well_covered_g"],
                "well_f_covered_h": truth["well_f_covered_h"],
                "well_covered_h": truth["well_covered_h"],
            },
        ),
        _product_forest_number("c5_c4", "C5", "C4", truth),
        _claim(
            example="c5_c4",
            claim="maximal_forests_p4",
            text="every maximal forest of C5 is an induced P4 with condition-(4) value 6",
            holds=all_p4 and values == [6],
            expected="confirmed",
            facts={"forest_orders": orders, "values": values},
        ),
        _claim(
            example="c5_c4",
            claim="first_listed_set",
            text="the first listed subset is a maximal forest of C5 o C4 of order 6",
            holds=is_maximal_induced_forest(product, first) and len(first) == 6,
            expected="confirmed",
            facts={"pairs": [list(p) for p in _C5C4_FIRST], "order": len(first)},
        ),
        _claim(
            example="c5_c4",
            claim="second_listed_set",
            text="the second listed subset is a maximal forest of C5 o C4 of order 5",
            holds=(
                is_maximal_induced_forest(product, second_printed) and len(second_printed) == 5
            ),
            repaired=fixed_ok,
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
        _not_well_f_covered("c5_c4", "C5 o C4", truth),
        _claim(
            example="c5_c4",
            claim="non_sufficiency",
            text="conditions (1)-(4) hold yet the product is not well-f-covered",
            holds=report.verdict == VERDICT_NON_SUFFICIENCY,
            expected="confirmed",
            facts={"conditions": dict(report.conditions), "verdict": report.verdict},
        ),
    ]
    return claims, _summary(report, conditions=dict(report.conditions))


def verify_paper_examples() -> TheoremReport:
    """Re-run the three case studies and adjudicate every audited sentence."""
    claims: list[ClaimRecord] = []
    ground_truth: dict = {}
    for key, audit in (
        ("p4_2k1", _audit_p4_with_two_copies),
        ("fig1_c4", _audit_fig1_with_c4),
        ("c5_c4", _audit_c5_with_c4),
    ):
        example_claims, facts = audit()
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
