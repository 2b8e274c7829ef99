"""Necessary-condition checks for well-f-covered lexicographic products.

Three condition sets are implemented, named by their report ids:

thm31  first factor edgeless on m vertices: the product is well-f-covered
       iff the second factor is, and f(G∘H) = m*f(H).  A characterization,
       so any failure against brute force is a theorem_violation.
thm32  second factor edgeless on n vertices: if G∘H is well-f-covered then
       every maximal forest F of G satisfies
           n*(I(F) + K2(F) + L(F)) + K2(F) + L'(F) = f(G∘H).
thm35  both factors have an edge: if G∘H is well-f-covered then
       (1) G is well-covered, and, when no maximal forest of G has an
           isolated vertex and H has a size-1 maximal independent set,
           G is also well-f-covered with f(G) = f(G∘H);
       (2) H is well-f-covered, and, when some maximal forest of G has a
           leaf, H is also well-covered;
       (3) f(G∘H) = alpha(G) * f(H);
       (4) every maximal forest F of G and maximal independent set M_H of H
           satisfy f(H)*I(F) + |M_H|*(K2(F)+L(F)) + K2(F) + L'(F) = f(G∘H).

The necessary conditions come with explicit witness forests inside the
product: V_M = M × F_H, and V* = (X1 × F_H) ∪ ((X2 ∪ Z) × M_H) ∪
((Y ∪ T) × {anchor}) from the partition of a maximal forest of G.  Each is a
union of blocks gmask × hmask, lifted into the product by ``products.lift``;
thm32's V* is thm35's with F_H = M_H = V(nK1).  Each constructed witness is
re-verified by brute force and a failure is never silently ignored.  The
public ``construct_*`` check their inputs on every call.  A check reads the
maximal forests of G with their partitions from one record per
(G, z_choice), ``_forest_partitions``, so each forest is partitioned and
checked once for every second factor checked against G; each M_H and
anchor are checked once per check.

Ground truth is exact.  The product's forest number, maximal forest orders
and witness pair come from ``forests.product_profile``, which derives them
from the factors' exhaustive catalogues and equals the exhaustive
enumeration of the product histogram for histogram and mask for mask.  A
report's verdict is ``theorem_violation`` iff the product is well-f-covered
while a necessary condition fails (or a constructed witness fails
verification), ``non_sufficiency_witness`` iff every condition holds yet the
product is not well-f-covered, and ``consistent`` otherwise.

The enumeration bound is checked on |G|·|H|, the order of the product,
which no factor outgrows, right after the range checks of a check's
arguments: an oversized pair is rejected before either factor is enumerated
or the product built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .graphs import FamilySpec, Graph, VertexSubset, generate
from .products import lexicographic, lift
from .forests import (
    ForestPartition,
    ForestStats,
    _within_bound,
    enumerate_maximal_induced_forests,
    forest_number,
    forest_partition,
    is_maximal_induced_forest,
    is_well_f_covered,
    maximal_forest_order_histogram,
)
from .independence import (
    enumerate_maximal_independent_sets,
    independence_number,
    is_maximal_independent_set,
    is_well_covered,
)

# The paper's case split of G∘H: per theorem, each factor hypothesis as
# (factor index, 0 = G and 1 = H; whether that factor must have an edge;
# the reason given when it does not hold).
_HYPOTHESES = {
    "thm31": ((0, False, "thm31 requires an edgeless first factor"),),
    "thm32": ((1, False, "thm32 requires an edgeless second factor"),),
    "thm35": (
        (0, True, "thm35 requires a first factor with at least one edge"),
        (1, True, "thm35 requires a second factor with at least one edge"),
    ),
}

THEOREM_IDS = tuple(_HYPOTHESES)

VERDICT_CONSISTENT = "consistent"
VERDICT_NON_SUFFICIENCY = "non_sufficiency_witness"
VERDICT_VIOLATION = "theorem_violation"


class HypothesisError(ValueError):
    """The inputs do not satisfy the hypotheses of the requested check."""


class WitnessVerificationError(Exception):
    """A constructed witness failed its brute-force verification."""

    def __init__(self, message: str, subset: VertexSubset | None = None) -> None:
        super().__init__(message)
        self.subset = subset


@dataclass(frozen=True)
class ConditionRecord:
    """One evaluated per-forest equality (lhs vs the product forest number)."""

    forest: VertexSubset
    stats: ForestStats
    lhs: int
    rhs: int
    holds: bool
    m_h: VertexSubset | None = None


@dataclass(frozen=True)
class WitnessRecord:
    """One constructed witness set and the outcome of its verification."""

    kind: str
    subset: VertexSubset | None
    size: int | None
    verified: bool
    detail: dict


@dataclass(frozen=True)
class ClaimRecord:
    """One audited example sentence with its computed adjudication."""

    example: str
    claim: str
    text: str
    status: str
    expected: str
    facts: dict


@dataclass(frozen=True)
class TheoremReport:
    """Structured verdict of one check run; pure values, no rendering."""

    theorem_id: str
    hypotheses: dict
    conditions: dict
    condition_values: tuple[ConditionRecord, ...]
    ground_truth: dict
    witnesses: tuple[WitnessRecord, ...]
    verdict: str
    claims: tuple[ClaimRecord, ...] = ()


def _broken_hypothesis(theorem: str, g: Graph, h: Graph) -> str | None:
    """The reason for the first hypothesis of ``theorem`` that (g, h) breaks,
    or None when the pair satisfies them all."""
    if theorem not in _HYPOTHESES:
        raise ValueError(f"unknown theorem id {theorem!r}")
    for factor, needs_edge, reason in _HYPOTHESES[theorem]:
        if ((g, h)[factor].edge_count > 0) != needs_edge:
            return reason
    return None


def hypothesis_filter(theorem: str, g: Graph, h: Graph) -> bool:
    """Whether the pair satisfies the selected check's hypotheses."""
    return _broken_hypothesis(theorem, g, h) is None


def _require(theorem: str, g: Graph, h: Graph) -> None:
    reason = _broken_hypothesis(theorem, g, h)
    if reason is not None:
        raise HypothesisError(reason)


def thm32_lhs(stats: ForestStats, n: int) -> int:
    """n*(I + K2 + L) + K2 + L' — the per-forest value of the thm32 condition."""
    if n < 1:
        raise ValueError("second-factor order must be positive")
    return thm35_lhs(stats, n, n)


def thm35_lhs(stats: ForestStats, f_h: int, m_h_size: int) -> int:
    """f(H)*I + |M_H|*(K2 + L) + K2 + L' — condition (4)'s per-forest value."""
    return (
        f_h * stats.isolated
        + m_h_size * (stats.k2_components + stats.outer_leaves)
        + stats.k2_components
        + stats.internal
    )


@lru_cache(maxsize=64)
def _forest_partitions(
    g: Graph, z_choice: str
) -> tuple[tuple[VertexSubset, ForestPartition, ForestStats], ...]:
    """Each maximal forest of G, ascending, with its partition and counters:
    the part of thm32's and thm35's per-forest work that reads G alone, so
    every second factor checked against G shares it.  ``forest_partition``
    checks each forest's maximality once per (G, ``z_choice``)."""
    out = []
    for forest in enumerate_maximal_induced_forests(g):
        p = forest_partition(g, forest, z_choice=z_choice)
        out.append((forest, p, p.stats))
    return tuple(out)


@lru_cache(maxsize=1)
def _product(g: Graph, h: Graph) -> Graph:
    """G∘H, kept for the latest pair: a check and the public ``construct_*``
    calls on its pair share one build."""
    return lexicographic(g, h)[0]


def _witness(product: Graph, h_order: int, blocks, what: str) -> VertexSubset:
    """Lift ``blocks`` into ``product``, check the size formula sum
    |gmask|*|hmask|, and brute-force verify that it is a maximal forest."""
    subset = VertexSubset(product.order, lift(blocks, h_order))
    expected = sum(gmask.bit_count() * hmask.bit_count() for gmask, hmask in blocks)
    if len(subset) != expected:
        raise WitnessVerificationError(
            f"witness size {len(subset)} differs from formula value {expected}", subset=subset
        )
    if not is_maximal_induced_forest(product, subset):
        raise WitnessVerificationError(
            f"constructed {what} is not a maximal induced forest of the product",
            subset=subset,
        )
    return subset


def _vstar(
    product: Graph, h_order: int, p: ForestPartition, h_forest: int, h_independent: int, anchor: int
) -> VertexSubset:
    """V* = (X1 × F_H) ∪ ((X2 ∪ Z) × M_H) ∪ ((Y ∪ T) × {anchor}) in ``product``,
    from the partition ``p`` of a maximal forest of G and masks of F_H, M_H."""
    point = 1 << anchor
    blocks = (
        (p.x1.mask, h_forest),
        (p.x2.mask, h_independent),
        (p.z.mask, h_independent),
        (p.y.mask, point),
        (p.t.mask, point),
    )
    return _witness(product, h_order, blocks, "V*")


def _anchor_in_range(anchor: int | None, n: int) -> None:
    """Raise ValueError unless ``anchor`` is None or a vertex of a second
    factor of order ``n``."""
    if anchor is not None and not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} out of range for second factor of order {n}")


def _anchor(h: Graph, h_independent: VertexSubset, anchor: int | None) -> int:
    """``anchor``, by default the smallest vertex of M_H = ``h_independent``,
    once M_H is checked to be a maximal independent set of H that holds it."""
    if not is_maximal_independent_set(h, h_independent):
        raise ValueError("h_independent must be a maximal independent set of H")
    anchor = h_independent.vertices()[0] if anchor is None else anchor
    if anchor not in h_independent:
        raise ValueError(
            f"anchor {anchor} does not belong to the maximal independent set "
            f"{sorted(h_independent.vertices())}"
        )
    return anchor


def construct_vstar_empty_second(
    g: Graph, forest: VertexSubset, n: int, *, z_choice: str = "min", anchor: int = 0
) -> VertexSubset:
    """Witness forest in G∘(n-vertex edgeless H) for a maximal forest of G.

    V* = ((X ∪ Z) × V(H)) ∪ ((Y ∪ T) × {anchor}); its order is
    n*(|X|+|Z|) + |Y| + |T|, i.e. the thm32 left-hand side.  The returned
    set is brute-force verified to be a maximal induced forest.
    """
    if n < 1:
        raise ValueError("second-factor order must be positive")
    _anchor_in_range(anchor, n)
    h = generate(FamilySpec("empty", n))
    p = forest_partition(g, forest, z_choice=z_choice)
    return _vstar(_product(g, h), n, p, h.vertices_mask, h.vertices_mask, anchor)


def construct_vm(g: Graph, m: VertexSubset, h: Graph, f_h: VertexSubset) -> VertexSubset:
    """Witness forest M × V(F_H) in G∘H for a maximal independent set M of G.

    Requires H to contain an edge (so F_H does too, which the maximality
    argument needs).  |V_M| = |M| * |F_H|; brute-force verified.
    """
    if h.edge_count == 0:
        raise ValueError("second factor must contain an edge")
    if not is_maximal_independent_set(g, m):
        raise ValueError("witness construction requires a maximal independent set")
    if not is_maximal_induced_forest(h, f_h):
        raise ValueError("witness construction requires a maximal induced forest of H")
    return _witness(_product(g, h), h.order, ((m.mask, f_h.mask),), "V_M")


def construct_vstar_nonempty_second(
    g: Graph,
    forest: VertexSubset,
    h: Graph,
    h_forest: VertexSubset,
    h_independent: VertexSubset,
    *,
    z_choice: str = "min",
    anchor: int | None = None,
) -> VertexSubset:
    """Witness forest in G∘H (both factors with an edge) for a maximal forest of G.

    V* = (X1 × V(F_H)) ∪ ((X2 ∪ Z) × M_H) ∪ ((Y ∪ T) × {anchor}) with
    anchor ∈ M_H, by default its smallest vertex; its order is
    |F_H|*I + |M_H|*(K2+L) + K2 + L'.  The returned set is brute-force
    verified to be a maximal induced forest.
    """
    if g.edge_count == 0 or h.edge_count == 0:
        raise ValueError("both factors must contain an edge")
    if h_forest is None or h_independent is None:
        raise ValueError("construction needs both a maximal forest and a maximal independent set of H")
    if not is_maximal_induced_forest(h, h_forest):
        raise ValueError("h_forest must be a maximal induced forest of H")
    anchor = _anchor(h, h_independent, anchor)
    p = forest_partition(g, forest, z_choice=z_choice)
    return _vstar(_product(g, h), h.order, p, h_forest.mask, h_independent.mask, anchor)


def _record(kind: str, detail: dict, construct, *args) -> WitnessRecord:
    """Build one witness; a failed verification is recorded, not raised."""
    try:
        subset = construct(*args)
    except WitnessVerificationError as exc:
        return WitnessRecord(kind, exc.subset, len(exc.subset), False, dict(detail, error=str(exc)))
    return WitnessRecord(kind, subset, len(subset), True, detail)


def _verdict(witnesses: list[WitnessRecord], conditions_hold: bool, wfc_product: bool) -> str:
    """A witness that fails verification, or a well-f-covered product whose
    necessary conditions fail, is a violation; conditions that hold on a
    product that is not well-f-covered are a non-sufficiency witness."""
    if not all(w.verified for w in witnesses) or (wfc_product and not conditions_hold):
        return VERDICT_VIOLATION
    if conditions_hold and not wfc_product:
        return VERDICT_NON_SUFFICIENCY
    return VERDICT_CONSISTENT


def _product_ground_truth(product: Graph, max_order: int | None) -> dict:
    f_p = forest_number(product, max_order)
    wfc_p, witness = is_well_f_covered(product, max_order)
    orders = sorted(maximal_forest_order_histogram(product, max_order))
    truth = {
        "product_order": product.order,
        "f_product": f_p,
        "well_f_covered_product": wfc_p,
        "maximal_forest_orders": orders,
    }
    if witness is not None:
        truth["product_witness"] = [sorted(witness[0].vertices()), sorted(witness[1].vertices())]
    return truth


def check_thm31(g: Graph, h: Graph, max_order: int | None = None) -> TheoremReport:
    """Check the empty-first-factor characterization against brute force."""
    _require("thm31", g, h)
    _within_bound(g.order * h.order, max_order)
    m = g.order
    truth = _product_ground_truth(_product(g, h), max_order)
    wfc_h, _ = is_well_f_covered(h)
    f_h = forest_number(h)
    truth.update({"f_h": f_h, "well_f_covered_h": wfc_h})
    biconditional = truth["well_f_covered_product"] == wfc_h
    formula = truth["f_product"] == m * f_h
    verdict = VERDICT_CONSISTENT if (biconditional and formula) else VERDICT_VIOLATION
    return TheoremReport(
        theorem_id="thm31",
        hypotheses={"g_empty": True, "m": m, "h_order": h.order},
        conditions={"well_f_covered_iff": biconditional, "forest_number_formula": formula},
        condition_values=(),
        ground_truth=truth,
        witnesses=(),
        verdict=verdict,
    )


def check_thm32(
    g: Graph,
    n: int,
    max_order: int | None = None,
    z_choice: str = "min",
    anchor: int | None = None,
) -> TheoremReport:
    """Evaluate the empty-second-factor necessary condition for G∘(n copies).

    The n = 1 case degenerates to |F| = f(G∘H) for every maximal forest,
    i.e. G itself being well-f-covered.
    """
    if n < 1:
        raise HypothesisError("thm32 requires a second factor with at least one vertex")
    _anchor_in_range(anchor, n)
    anchor_val = 0 if anchor is None else anchor
    _within_bound(g.order * n, max_order)
    h = generate(FamilySpec("empty", n))
    product = _product(g, h)
    truth = _product_ground_truth(product, max_order)
    f_p = truth["f_product"]
    records = []
    witnesses = []
    for forest, p, stats in _forest_partitions(g, z_choice):
        lhs = thm32_lhs(stats, n)
        records.append(
            ConditionRecord(forest=forest, stats=stats, lhs=lhs, rhs=f_p, holds=lhs == f_p)
        )
        detail = {
            "forest": list(forest.vertices()),
            "anchor": anchor_val,
            "z_choice": z_choice,
        }
        witnesses.append(
            _record(
                "vstar_empty_second", detail, _vstar, product, n, p,
                h.vertices_mask, h.vertices_mask, anchor_val,
            )
        )
    all_hold = all(r.holds for r in records)
    return TheoremReport(
        theorem_id="thm32",
        hypotheses={"h_empty": True, "n": n, "g_order": g.order},
        conditions={"per_forest_formula": all_hold},
        condition_values=tuple(records),
        ground_truth=truth,
        witnesses=tuple(witnesses),
        verdict=_verdict(witnesses, all_hold, truth["well_f_covered_product"]),
    )


def check_thm35(
    g: Graph,
    h: Graph,
    max_order: int | None = None,
    z_choice: str = "min",
    anchor: int | None = None,
) -> TheoremReport:
    """Evaluate conditions (1)-(4) for factors that both contain an edge."""
    _require("thm35", g, h)
    _anchor_in_range(anchor, h.order)
    _within_bound(g.order * h.order, max_order)
    # each M_H and its anchor are checked once, before the product is built
    mis_h = enumerate_maximal_independent_sets(h)
    anchors = [_anchor(h, m_h, anchor) for m_h in mis_h]
    product = _product(g, h)
    truth = _product_ground_truth(product, max_order)
    f_p = truth["f_product"]
    wfc_p = truth["well_f_covered_product"]

    forests_g = _forest_partitions(g, z_choice)
    mis_g = enumerate_maximal_independent_sets(g)
    forests_h = enumerate_maximal_induced_forests(h)
    alpha_g = independence_number(g)
    f_g = forest_number(g)
    f_h = forest_number(h)
    wc_g, _ = is_well_covered(g)
    wc_h, _ = is_well_covered(h)
    wfc_g, _ = is_well_f_covered(g)
    wfc_h, _ = is_well_f_covered(h)
    truth.update(
        {
            "alpha_g": alpha_g,
            "f_g": f_g,
            "f_h": f_h,
            "well_covered_g": wc_g,
            "well_covered_h": wc_h,
            "well_f_covered_g": wfc_g,
            "well_f_covered_h": wfc_h,
        }
    )

    premise1 = all(s.isolated == 0 for _, _, s in forests_g) and any(len(m) == 1 for m in mis_h)
    cond1 = wc_g and ((not premise1) or (wfc_g and f_g == f_p))
    premise2 = any(s.k2_components + s.outer_leaves > 0 for _, _, s in forests_g)
    cond2 = wfc_h and ((not premise2) or wc_h)
    cond3 = f_p == alpha_g * f_h

    records = []
    witnesses = []

    # canonical F_H: the smallest-mask maximal forest of maximum order, so that
    # each V* has condition (4)'s order; construct_vm checks it before any V*
    fh_canon = next(s for s in forests_h if len(s) == f_h)
    for m in mis_g:
        detail = {"m": list(m.vertices()), "f_h": list(fh_canon.vertices())}
        if wfc_p:
            detail["quotient_holds"] = len(m) * len(fh_canon) == f_p
        witnesses.append(_record("vm", detail, construct_vm, g, m, h, fh_canon))

    mis_h_vertices = [m_h.vertices() for m_h in mis_h]
    for forest, p, stats in forests_g:
        forest_vertices = forest.vertices()
        for m_h, m_h_vertices, anchor_val in zip(mis_h, mis_h_vertices, anchors):
            lhs = thm35_lhs(stats, f_h, len(m_h))
            records.append(
                ConditionRecord(
                    forest=forest, stats=stats, lhs=lhs, rhs=f_p, holds=lhs == f_p, m_h=m_h
                )
            )
            detail = {
                "forest": list(forest_vertices),
                "m_h": list(m_h_vertices),
                "anchor": anchor_val,
                "z_choice": z_choice,
            }
            witnesses.append(
                _record(
                    "vstar_nonempty_second", detail, _vstar, product, h.order, p,
                    fh_canon.mask, m_h.mask, anchor_val,
                )
            )

    cond4 = all(r.holds for r in records)
    conditions = {
        "condition_1": cond1,
        "condition_2": cond2,
        "condition_3": cond3,
        "condition_4": cond4,
    }
    all_conditions = cond1 and cond2 and cond3 and cond4
    return TheoremReport(
        theorem_id="thm35",
        hypotheses={
            "g_nonempty": True,
            "h_nonempty": True,
            "g_order": g.order,
            "h_order": h.order,
        },
        conditions=conditions,
        condition_values=tuple(records),
        ground_truth=truth,
        witnesses=tuple(witnesses),
        verdict=_verdict(witnesses, all_conditions, wfc_p),
    )


def check(
    theorem: str,
    g: Graph,
    h: Graph,
    max_order: int | None = None,
    z_choice: str | None = None,
    anchor: int | None = None,
) -> TheoremReport:
    """Run the check ``theorem`` names on the pair (g, h).

    ``z_choice`` (None for "min") and ``anchor`` pick the witnesses of thm32
    and thm35; thm31 builds none, so it raises ValueError when given either.
    A pair outside the theorem's hypotheses raises HypothesisError, an
    unknown id ValueError.
    """
    if theorem == "thm31":
        if z_choice is not None or anchor is not None:
            raise ValueError(
                "thm31 builds no witnesses: --anchor and --z-tiebreak apply to thm32 and thm35 only"
            )
        return check_thm31(g, h, max_order=max_order)
    z_choice = "min" if z_choice is None else z_choice
    if theorem == "thm32":
        _require("thm32", g, h)
        return check_thm32(g, h.order, max_order=max_order, z_choice=z_choice, anchor=anchor)
    if theorem == "thm35":
        return check_thm35(g, h, max_order=max_order, z_choice=z_choice, anchor=anchor)
    raise ValueError(f"unknown theorem id {theorem!r}")
