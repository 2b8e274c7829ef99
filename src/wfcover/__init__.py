"""Exact well-f-coveredness analysis of graphs and their lexicographic products."""

from .graphs import (
    DEFAULT_MAX_ORDER,
    FIG1_EDGES,
    EnumerationBoundError,
    FamilyError,
    FamilySpec,
    Graph,
    Graph6Error,
    VertexSubset,
    from_graph6,
    generate,
    parse_family,
    to_graph6,
)
from .products import ProductIndexMap, lexicographic
from .forests import (
    ForestPartition,
    ForestStats,
    enumerate_maximal_induced_forests,
    forest_number,
    forest_partition,
    forest_stats,
    is_induced_forest,
    is_maximal_induced_forest,
    is_well_f_covered,
    maximal_forest_order_histogram,
    product_profile,
)
from .independence import (
    enumerate_maximal_independent_sets,
    independence_number,
    is_maximal_independent_set,
    is_well_covered,
)
from .theorems import (
    ClaimRecord,
    ConditionRecord,
    HypothesisError,
    TheoremReport,
    VmDetail,
    VStarDetail,
    WitnessRecord,
    WitnessVerificationError,
    check,
    check_thm31,
    check_thm32,
    check_thm35,
    construct_vm,
    construct_vstar_empty_second,
    construct_vstar_nonempty_second,
    hypothesis_filter,
    thm32_lhs,
    thm35_lhs,
)
from .examples import verify_paper_examples
from .search import Finding, ScanConfig, read_graph6_stream, scan

__version__ = "0.1.0"
