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
((Y ∪ T) × {anchor}) from the partition of a maximal forest of G.  V* has
one builder: ``_lifts`` lifts a forest's X1 × F_H and the fibre spreads of
X2 ∪ Z and Y ∪ T once, and ``_vstar_mask`` makes each V* from them with one
multiply, shift and or per M_H.  thm32 and thm35 share one pair path,
``_condition_4``: it reads H's record, checks the anchor against every M_H
before the product is built, builds the product and its ground truth, reads
G's forest partitions, and evaluates condition (4) with its V* for each
maximal forest of G and each M_H.  It reads which theorem it serves off H:
thm35's H has an edge, thm32's has none.  thm32 runs it, and
``construct_vstar_empty_second`` its V*, on nK1, whose record gives
F_H = M_H = V(nK1) and f(H) = n: V(nK1) is nK1's only maximal forest and
only maximal independent set.  Every witness is size-checked against its
formula value (a V*'s is condition (4)'s with f(H) = |F_H|) and re-verified
by brute force in one helper, ``_verified``; a failure is never silently
ignored.  Each witness row carries a typed detail: a ``VStarDetail`` (F, the
anchor, ``z_choice`` and, for thm35, M_H) or a ``VmDetail`` (M, F_H and,
when the product is well-f-covered, whether |M|*|F_H| = f(G∘H)), with the
error text of a failed verification.  The public ``construct_*`` check
their inputs on every call.  H enters a check through the one record per H
that the product profile also reads, ``forests._fibres``: f(H), wfc(H) and
the canonical F_H off its ISO role record, "H has a size-1 maximal
independent set" off UNIV, wc(H) as "UNIV and BIG hold one size between
them", and each M_H off its list.
thm31 reads the ISO record alone, H's forest catalogue record, so it lists
no M_H.  G's maximal forests with their partitions enter through one record
per (G, z_choice), ``_forest_partitions``: each M_H and each forest of G is
checked once, however many pairs share its factor.

Ground truth is exact.  The product's forest number, maximal forest orders
and witness pair come from ``forests.product_profile``, which derives them
from the factors' exhaustive catalogues and equals the exhaustive
enumeration of the product histogram for histogram and mask for mask.  A
report's verdict is ``theorem_violation`` iff the product is well-f-covered
while a necessary condition fails (or a constructed witness fails
verification), ``non_sufficiency_witness`` iff every condition holds yet the
product is not well-f-covered, and ``consistent`` otherwise.

A check takes no enumeration bound: like the queries, it answers a pair of
any order; the CLI and a scan test their bound on |G|·|H| before they call
it.  A check first tests the hypotheses, ``z_choice`` and the anchor, before
either factor is enumerated or the product built.  f, alpha, wc and wfc of
a factor come off the catalogue records the check reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

from .graphs import FamilySpec, Graph, VertexSubset, _frozen_record, generate, is_int
from .products import lexicographic, lift
from .forests import (
    Z_CHOICES,
    ForestPartition,
    ForestStats,
    _fibres,
    _forest_catalogue,
    enumerate_maximal_induced_forests,
    forest_partition,
    is_maximal_induced_forest,
    is_well_f_covered,
    maximal_forest_order_histogram,
)
from .independence import (
    _independent_catalogue,
    enumerate_maximal_independent_sets,
    is_maximal_independent_set,
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

    def __init__(self, message: str, subset: VertexSubset) -> None:
        super().__init__(message)
        self.subset = subset


@_frozen_record
class ConditionRecord:
    """One evaluated per-forest equality (lhs vs the product forest number)."""

    forest: VertexSubset
    stats: ForestStats
    lhs: int
    rhs: int
    holds: bool
    m_h: VertexSubset | None = None


@_frozen_record
class VStarDetail:
    """The detail of a V* witness row: the maximal forest F of G, the anchor
    and ``z_choice`` it was built with, M_H when the check names it (thm35;
    thm32's is all of V(nK1)), and the verification error of a failed row."""

    forest: VertexSubset
    anchor: int
    z_choice: str
    m_h: VertexSubset | None = None
    error: str | None = None


@_frozen_record
class VmDetail:
    """The detail of a V_M witness row: the maximal independent set M of G,
    the canonical F_H, whether |M|*|F_H| = f(G∘H) when the product is
    well-f-covered (else None), and the verification error of a failed row."""

    m: VertexSubset
    f_h: VertexSubset
    quotient_holds: bool | None = None
    error: str | None = None


@_frozen_record
class WitnessRecord:
    """One constructed witness set and the outcome of its verification.

    ``detail`` is a ``VStarDetail`` or a ``VmDetail``, each written by its
    own template."""

    kind: str
    subset: VertexSubset
    size: int
    verified: bool
    detail: VStarDetail | VmDetail


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


def _second_factor_order(n: int) -> int:
    """``n``, thm32's second-factor order, once it is checked to be an int."""
    if not is_int(n):
        raise ValueError(f"second-factor order is not an int: {n!r}")
    return n


def thm32_lhs(stats: ForestStats, n: int) -> int:
    """n*(I + K2 + L) + K2 + L' — the per-forest value of the thm32 condition."""
    if _second_factor_order(n) < 1:
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


def _verified(product: Graph, mask: int, expected: int, what: str) -> VertexSubset:
    """The subset ``mask`` of ``product``, once its size is checked against
    ``expected`` (a V*'s condition value, or |M|*|F_H| for V_M) and it is
    brute-force verified to be a maximal induced forest: the one
    verification path of every witness."""
    subset = VertexSubset(product.order, mask)
    if len(subset) != expected:
        raise WitnessVerificationError(
            f"witness size {len(subset)} differs from formula value {expected}", subset
        )
    if not is_maximal_induced_forest(product, subset):
        raise WitnessVerificationError(
            f"constructed {what} is not a maximal induced forest of the product", subset
        )
    return subset


def _lifts(p: ForestPartition, h_forest: int, h_order: int) -> tuple[int, int, int]:
    """The three lifts of V* that read only the partition ``p`` of a maximal
    forest of G: X1 × F_H, and the fibre spreads of X2 ∪ Z and of Y ∪ T,
    each the ``lift`` of (part, {0})."""
    blocks = ((p.x1.mask, h_forest), (p.x2.mask | p.z.mask, 1), (p.y.mask | p.t.mask, 1))
    return tuple(lift((block,), h_order) for block in blocks)


def _vstar_mask(lifts: tuple[int, int, int], h_independent: int, anchor: int) -> int:
    """V* = (X1 × F_H) ∪ ((X2 ∪ Z) × M_H) ∪ ((Y ∪ T) × {anchor}) from ``_lifts``:
    as M_H < 2**|V(H)|, (X2 ∪ Z) × M_H is a spread times M_H, and
    (Y ∪ T) × {anchor} a spread shifted by the anchor."""
    fixed, spread_m_h, spread_anchor = lifts
    return fixed | spread_m_h * h_independent | spread_anchor << anchor


def _witness_options(z_choice: str, anchor: int | None, n: int) -> None:
    """Raise ValueError unless ``z_choice`` is one of ``Z_CHOICES`` and
    ``anchor`` is None or a vertex of a second factor of order ``n``: the
    options of a V*, tested before any work is done."""
    if z_choice not in Z_CHOICES:
        raise ValueError(f"z_choice must be one of {Z_CHOICES}, got {z_choice!r}")
    if anchor is not None and not is_int(anchor):
        raise ValueError(f"anchor is not an int: {anchor!r}")
    if anchor is not None and not 0 <= anchor < n:
        raise ValueError(f"anchor {anchor} out of range for second factor of order {n}")


def _anchor(h_independent: VertexSubset, anchor: int | None) -> int:
    """``anchor``, by default the smallest vertex of M_H = ``h_independent``,
    once it is checked to belong to M_H."""
    anchor = h_independent.vertices()[0] if anchor is None else anchor
    if anchor not in h_independent:
        raise ValueError(
            f"anchor {anchor} does not belong to the maximal independent set "
            f"{sorted(h_independent.vertices())}"
        )
    return anchor


def _vstar(
    g: Graph, forest: VertexSubset, h: Graph, h_forest: VertexSubset,
    h_independent: VertexSubset, z_choice: str, anchor: int | None,
) -> VertexSubset:
    """V* for the maximal forest ``forest`` of G, built as a check builds it
    and verified against condition (4)'s value with f(H) = |F_H|: the
    builder behind both ``construct_vstar_*``, which check F_H and M_H."""
    _witness_options(z_choice, anchor, h.order)
    anchor = _anchor(h_independent, anchor)
    p = forest_partition(g, forest, z_choice=z_choice)
    mask = _vstar_mask(_lifts(p, h_forest.mask, h.order), h_independent.mask, anchor)
    expected = thm35_lhs(p.stats, len(h_forest), len(h_independent))
    return _verified(_product(g, h), mask, expected, "V*")


def construct_vstar_empty_second(
    g: Graph, forest: VertexSubset, n: int, *, z_choice: str = "min", anchor: int | None = None
) -> VertexSubset:
    """Witness forest in G∘(n-vertex edgeless H) for a maximal forest of G.

    V* = ((X ∪ Z) × V(H)) ∪ ((Y ∪ T) × {anchor}), by default anchor 0, the
    smallest vertex of V(H); its order is n*(|X|+|Z|) + |Y| + |T|, i.e. the
    thm32 left-hand side.  The returned set is brute-force verified to be a
    maximal induced forest.
    """
    if _second_factor_order(n) < 1:
        raise ValueError("second-factor order must be positive")
    h = generate(FamilySpec("empty", n))
    all_h = VertexSubset(n, h.vertices_mask)
    return _vstar(g, forest, h, all_h, all_h, z_choice, anchor)


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
    vm = lift(((m.mask, f_h.mask),), h.order)
    return _verified(_product(g, h), vm, len(m) * len(f_h), "V_M")


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
    if not is_maximal_independent_set(h, h_independent):
        raise ValueError("h_independent must be a maximal independent set of H")
    return _vstar(g, forest, h, h_forest, h_independent, z_choice, anchor)


def _record(kind: str, detail: VStarDetail | VmDetail, construct, *args) -> WitnessRecord:
    """Build one witness; a failed verification is recorded, not raised."""
    try:
        subset = construct(*args)
    except WitnessVerificationError as exc:
        return WitnessRecord(kind, exc.subset, len(exc.subset), False, replace(detail, error=str(exc)))
    return WitnessRecord(kind, subset, len(subset), True, detail)


def _condition_4(
    g: Graph, h: Graph, z_choice: str, anchor: int | None
) -> tuple[dict, tuple, list[ConditionRecord], list[WitnessRecord]]:
    """The pair path of thm32 and thm35: the product's ground truth, G's
    ``(forest, partition, stats)`` rows, and condition (4) with its V*
    witness for each maximal forest F of G and each M_H of H's record:
    f(H)*I + |M_H|*(K2 + L) + K2 + L' against f(G∘H), and V* with the
    record's F_H.  The anchor is checked against every M_H before the
    product is built.  The case is read off H (``_HYPOTHESES``): thm35's H
    has an edge, and its rows name each M_H; thm32's nK1 is edgeless, and
    its rows name none, as its one M_H is all of V(nK1).

    Each forest's ``_lifts`` are made once.  V* has order
    |F_H|*|X1| + |M_H|*(|X2| + |Z|) + |Y| + |T|, with I = |X1|, L = |X2|,
    K2 = |Z| = |T| and L' = |Y|; the canonical F_H is the ``hi`` of H's
    ISO role record, its forest catalogue record, so |F_H| = f(H) and V*'s
    order certifies condition (4)."""
    (iso, *_), mis_h = _fibres(h)
    f_h = iso.number()
    per_m_h = [(m_h, _anchor(m_h, anchor), len(m_h)) for m_h in mis_h]
    named = h.edge_count > 0
    kind = "vstar_nonempty_second" if named else "vstar_empty_second"
    product = _product(g, h)
    truth = _product_ground_truth(product)
    f_p = truth["f_product"]
    forests_g = _forest_partitions(g, z_choice)
    records = []
    witnesses = []
    for forest, p, stats in forests_g:
        lifts = _lifts(p, iso.hi, h.order)
        for m_h, anchor, m_h_size in per_m_h:
            lhs = thm35_lhs(stats, f_h, m_h_size)
            named_m_h = m_h if named else None
            records.append(ConditionRecord(forest, stats, lhs, f_p, lhs == f_p, named_m_h))
            detail = VStarDetail(forest, anchor, z_choice, named_m_h)
            mask = _vstar_mask(lifts, m_h.mask, anchor)
            witnesses.append(_record(kind, detail, _verified, product, mask, lhs, "V*"))
    return truth, forests_g, records, witnesses


def _verdict(witnesses: list[WitnessRecord], conditions_hold: bool, wfc_product: bool) -> str:
    """A witness that fails verification, or a well-f-covered product whose
    necessary conditions fail, is a violation; conditions that hold on a
    product that is not well-f-covered are a non-sufficiency witness."""
    if not all(w.verified for w in witnesses) or (wfc_product and not conditions_hold):
        return VERDICT_VIOLATION
    if conditions_hold and not wfc_product:
        return VERDICT_NON_SUFFICIENCY
    return VERDICT_CONSISTENT


def _product_ground_truth(product: Graph) -> dict:
    """The product's maximal forest orders, f(G∘H) the largest of them, and
    its verdict with the witness pair."""
    orders = sorted(maximal_forest_order_histogram(product))
    wfc_p, witness = is_well_f_covered(product)
    truth = {
        "product_order": product.order,
        "f_product": orders[-1],
        "well_f_covered_product": wfc_p,
        "maximal_forest_orders": orders,
    }
    if witness is not None:
        truth["product_witness"] = [sorted(witness[0].vertices()), sorted(witness[1].vertices())]
    return truth


def check_thm31(g: Graph, h: Graph) -> TheoremReport:
    """Check the empty-first-factor characterization against brute force."""
    _require("thm31", g, h)
    m = g.order
    truth = _product_ground_truth(_product(g, h))
    forests_h = _forest_catalogue(h).aggregates
    f_h, wfc_h = forests_h.number(), forests_h.uniform()[0]
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
    z_choice: str = "min",
    anchor: int | None = None,
) -> TheoremReport:
    """Evaluate the empty-second-factor necessary condition for G∘(n copies).

    The n = 1 case degenerates to |F| = f(G∘H) for every maximal forest,
    i.e. G itself being well-f-covered.
    """
    if _second_factor_order(n) < 1:
        raise HypothesisError("thm32 requires a second factor with at least one vertex")
    _witness_options(z_choice, anchor, n)
    truth, _, records, witnesses = _condition_4(g, generate(FamilySpec("empty", n)), z_choice, anchor)
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
    z_choice: str = "min",
    anchor: int | None = None,
) -> TheoremReport:
    """Evaluate conditions (1)-(4) for factors that both contain an edge."""
    _require("thm35", g, h)
    _witness_options(z_choice, anchor, h.order)
    truth, forests_g, records, vstars = _condition_4(g, h, z_choice, anchor)
    (iso, _, univ, big), _ = _fibres(h)
    f_h, wfc_h = iso.number(), iso.uniform()[0]
    wc_h = len(univ.counts) + len(big.counts) == 1
    fh_canon = VertexSubset(h.order, iso.hi)
    f_p = truth["f_product"]
    wfc_p = truth["well_f_covered_product"]

    independent_g = _independent_catalogue(g).aggregates
    alpha_g, wc_g = independent_g.number(), independent_g.uniform()[0]
    forest_record_g = _forest_catalogue(g).aggregates
    f_g, wfc_g = forest_record_g.number(), forest_record_g.uniform()[0]
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

    premise1 = all(s.isolated == 0 for _, _, s in forests_g) and bool(univ.counts)
    cond1 = wc_g and ((not premise1) or (wfc_g and f_g == f_p))
    premise2 = any(s.k2_components + s.outer_leaves > 0 for _, _, s in forests_g)
    cond2 = wfc_h and ((not premise2) or wc_h)
    cond3 = f_p == alpha_g * f_h

    # V_M first, then V*; construct_vm checks the canonical F_H each time
    witnesses = []
    for m in enumerate_maximal_independent_sets(g):
        detail = VmDetail(m, fh_canon, len(m) * len(fh_canon) == f_p if wfc_p else None)
        witnesses.append(_record("vm", detail, construct_vm, g, m, h, fh_canon))
    witnesses += vstars

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
        return check_thm31(g, h)
    z_choice = "min" if z_choice is None else z_choice
    if theorem == "thm32":
        _require("thm32", g, h)
        return check_thm32(g, h.order, z_choice=z_choice, anchor=anchor)
    if theorem == "thm35":
        return check_thm35(g, h, z_choice=z_choice, anchor=anchor)
    raise ValueError(f"unknown theorem id {theorem!r}")
