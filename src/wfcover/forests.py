"""Maximal induced forest enumeration, forest number, and forest statistics.

"Forest" always means *induced* forest: a vertex set whose induced subgraph
is acyclic.  A forest is maximal when adding any outside vertex closes a
cycle.  Enumeration is exhaustive: an include/exclude walk per connected
component, deciding high-degree vertices first, that never includes a
vertex closing a cycle and cuts a branch as soon as some excluded vertex
has fewer than two neighbours left to choose; each completed set is then
tested for maximality.  Twins (vertices with one open or one closed
neighbourhood) can be swapped by an automorphism, so the walk includes a
twin only after its predecessor in the class and keeps one representative
per orbit; the catalogue expands or counts the orbits.  Results are
returned in a canonical ascending-bitmask order regardless of internal
traversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable

from .graphs import (
    Graph,
    VertexSubset,
    component_masks,
    components_within,
    iter_bits,
)

DEFAULT_MAX_ORDER = 24

Z_CHOICES = ("min", "max")


class EnumerationBoundError(ValueError):
    """Graph too large for exhaustive enumeration."""

    def __init__(self, order: int, bound: int) -> None:
        super().__init__(f"graph order {order} exceeds the enumeration bound {bound}")
        self.order = order
        self.bound = bound


@dataclass(frozen=True)
class ForestStats:
    """The four counters of a forest F.

    isolated        I(F):  vertices of degree 0 in F
    k2_components   K2(F): connected components of F that are a single edge
    outer_leaves    L(F):  degree-1 vertices in components larger than an edge
    internal        L'(F): vertices of degree at least 2 in F

    Every forest vertex falls in exactly one bucket, so
    isolated + 2*k2_components + outer_leaves + internal = |F|.
    """

    isolated: int
    k2_components: int
    outer_leaves: int
    internal: int

    @property
    def total(self) -> int:
        return self.isolated + 2 * self.k2_components + self.outer_leaves + self.internal


@dataclass(frozen=True)
class ForestPartition:
    """The proof partition of a maximal forest F.

    x  = x1 | x2, derived: isolated vertices and leaves of non-edge components
    x1 = isolated vertices only
    x2 = leaves of components larger than a single edge
    y  = vertices of degree >= 2
    z  = one chosen endpoint per single-edge component
    t  = the partner endpoints of z
    """

    x1: VertexSubset
    x2: VertexSubset
    y: VertexSubset
    z: VertexSubset
    t: VertexSubset

    @property
    def x(self) -> VertexSubset:
        return VertexSubset(self.x1.order, self.x1.mask | self.x2.mask)


def _within_bound(g: Graph, max_order: int | None) -> Graph:
    """``g`` itself, once its order is checked against ``max_order``
    (``DEFAULT_MAX_ORDER`` when None)."""
    bound = DEFAULT_MAX_ORDER if max_order is None else max_order
    if g.order > bound:
        raise EnumerationBoundError(g.order, bound)
    return g


def _twin_classes(adj: tuple[int, ...], comp: int) -> list[list[int]]:
    """The twin classes of the component ``comp``, each ascending: false
    twins share an open neighbourhood, true twins a closed one.  A vertex
    with a false twin has no true twin (a true twin of it would be adjacent
    to it and so to its false twin, which it is not), so a vertex without a
    false twin is keyed by its closed neighbourhood.  The two kinds of key
    never coincide: N(u) = N[w] would put w in N(u), so u in N[w] = N(u)."""
    false_twins: dict[int, int] = {}
    for v in iter_bits(comp):
        false_twins[adj[v]] = false_twins.get(adj[v], 0) + 1
    classes: dict[int, list[int]] = {}
    for v in iter_bits(comp):
        key = adj[v] if false_twins[adj[v]] > 1 else adj[v] | 1 << v
        classes.setdefault(key, []).append(v)
    return list(classes.values())


def _orbit(rep: int, classes: tuple[int, ...]) -> list[int]:
    """Every mask obtained from ``rep`` by permuting vertices inside each
    class mask of ``classes``."""
    out = [rep & ~sum(classes)]
    for c in classes:
        k = (rep & c).bit_count()
        picks = [sum(1 << v for v in pick) for pick in combinations(iter_bits(c), k)]
        out = [m | p for m in out for p in picks]
    return out


@dataclass(frozen=True)
class Catalogue:
    """All maximal sets of one kind (forests, independent sets) of a graph.

    ``components`` holds, per connected component, a pair ``(reps,
    classes)`` of global masks.  ``classes`` are the component's twin
    classes of two or more vertices; permuting a class is an automorphism,
    so the component's maximal sets fall into orbits, one per choice of how
    many members of each class a set holds.  ``reps`` holds, ascending, the
    smallest mask of each orbit: the one taking the lowest-numbered members
    of every class.  The maximal sets of the whole graph are the unions of
    one per component, so every query combines the components by product.
    """

    order: int
    components: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @classmethod
    def build(
        cls, g: Graph, kernel: Callable[[int, tuple[int, ...], tuple[int, ...]], list[int]]
    ) -> Catalogue:
        """Run ``kernel(n, adj, prev)`` on each component, relabelled to
        0..n-1 class by class: twin classes ordered by descending degree,
        ties by smallest member, members ascending.  ``prev[i]`` is the label
        of the twin just before ``i`` in its class, or -1.

        The kernels decide vertices in label order, so hubs come first: a
        decided hub constrains many vertices while the subtrees below it are
        still large, instead of after they have been walked.  They include
        a vertex only when its previous twin is included, so they return the
        smallest mask of each orbit.  Without twins the order is descending
        degree, ties by index.  Each component's masks are mapped back and
        sorted, so the result does not depend on the order.
        """
        per_comp = []
        for comp in component_masks(g):
            classes = sorted(
                _twin_classes(g.adj, comp), key=lambda c: (-g.adj[c[0]].bit_count(), c[0])
            )
            verts: list[int] = []
            prev: list[int] = []
            for c in classes:
                prev += [-1, *range(len(verts), len(verts) + len(c) - 1)]
                verts += c
            label = {v: i for i, v in enumerate(verts)}
            adj = tuple(sum(1 << label[u] for u in iter_bits(g.adj[v])) for v in verts)
            reps = []
            for lm in kernel(len(verts), adj, tuple(prev)):
                gm = 0
                for i in iter_bits(lm):
                    gm |= 1 << verts[i]
                reps.append(gm)
            twins = tuple(sum(1 << v for v in c) for c in classes if len(c) > 1)
            per_comp.append((tuple(sorted(reps)), twins))
        return cls(g.order, tuple(per_comp))

    def sets(self) -> list[VertexSubset]:
        """Every maximal set, each once, ascending by bitmask."""
        combined = [0]
        for reps, classes in self.components:
            masks = [m for rep in reps for m in _orbit(rep, classes)]
            combined = [acc | m for acc in combined for m in masks]
        combined.sort()
        return [VertexSubset(self.order, m) for m in combined]

    def histogram(self) -> dict[int, int]:
        """Counts of maximal sets by size (component-wise convolution); a
        representative stands for prod C(|c|, |rep & c|) sets."""
        hist = {0: 1}
        for reps, classes in self.components:
            sizes = [c.bit_count() for c in classes]
            comp_hist: dict[int, int] = {}
            for m in reps:
                k = m.bit_count()
                weight = 1
                for c, size in zip(classes, sizes):
                    weight *= comb(size, (m & c).bit_count())
                comp_hist[k] = comp_hist.get(k, 0) + weight
            merged: dict[int, int] = {}
            for a, ca in hist.items():
                for b, cb in comp_hist.items():
                    merged[a + b] = merged.get(a + b, 0) + ca * cb
            hist = merged
        return dict(sorted(hist.items()))

    def number(self) -> int:
        """Size of a largest maximal set."""
        return sum(max(m.bit_count() for m in reps) for reps, _ in self.components)

    def uniform(self) -> tuple[bool, tuple[VertexSubset, VertexSubset] | None]:
        """Whether all maximal sets share one size; if not, also a witness
        pair (smaller, larger): per component the smallest-mask set of least
        size and the smallest-mask set of greatest size.  An orbit's sets
        share one size and its representative is its smallest mask, so the
        representatives alone give both."""
        lo = hi = 0
        for reps, _ in self.components:
            lo |= min(reps, key=lambda m: (m.bit_count(), m))
            hi |= max(reps, key=lambda m: (m.bit_count(), -m))
        if lo.bit_count() == hi.bit_count():
            return True, None
        return False, (VertexSubset(self.order, lo), VertexSubset(self.order, hi))


def _edges_within(adj: tuple[int, ...], mask: int) -> int:
    total = 0
    for v in iter_bits(mask):
        total += (adj[v] & mask).bit_count()
    return total // 2


def _is_forest_mask(adj: tuple[int, ...], mask: int) -> bool:
    return _edges_within(adj, mask) == mask.bit_count() - len(components_within(adj, mask))


def _extends(adj: tuple[int, ...], outside: int, smask: int, comps: list[int]) -> bool:
    """Whether some vertex of ``outside`` can join the forest ``smask``,
    whose components are the masks ``comps``: it can unless two of its
    neighbours lie in one component."""
    for v in iter_bits(outside):
        nb = adj[v] & smask
        for c in comps:
            hit = nb & c
            if hit & (hit - 1):
                break
        else:
            return True
    return False


def _is_maximal_forest_mask(order: int, adj: tuple[int, ...], mask: int) -> bool:
    comps = components_within(adj, mask)
    if _edges_within(adj, mask) != mask.bit_count() - len(comps):
        return False
    return not _extends(adj, ((1 << order) - 1) & ~mask, mask, comps)


def is_induced_forest(g: Graph, s: VertexSubset) -> bool:
    """True iff the subgraph induced by ``s`` is acyclic (empty set included)."""
    if s.order != g.order:
        raise ValueError("subset belongs to a graph of different order")
    return _is_forest_mask(g.adj, s.mask)


def is_maximal_induced_forest(g: Graph, s: VertexSubset) -> bool:
    """True iff ``s`` induces a forest and every added vertex closes a cycle."""
    if s.order != g.order:
        raise ValueError("subset belongs to a graph of different order")
    return _is_maximal_forest_mask(g.order, g.adj, s.mask)


def _maximal_forest_masks(n: int, adj: tuple[int, ...], prev: tuple[int, ...]) -> list[int]:
    """The maximal induced forest masks of the graph (n, adj) that include a
    vertex ``i`` only with its previous twin ``prev[i]`` (-1 for none): one
    per orbit of swapping twins, its smallest mask when each class's labels
    are consecutive.

    Include/exclude walk over vertices 0..n-1 that passes down the
    components of the chosen set ``smask`` as a list of disjoint masks.
    Including a vertex builds a new list, merging it with every component
    it touches, so nothing is undone on the way back; a component holding
    two of its neighbours means it closes a cycle.  A vertex's potential
    neighbours are its neighbours in ``smask | undecided``.  An
    excluded vertex with fewer than two of them can be added to every
    completion of ``smask`` without closing a cycle, so its branch holds no
    maximal forest and is cut.  Excluding ``i`` takes a potential neighbour
    away only from the neighbours of ``i``, so the exclude branch re-checks
    ``i`` and its earlier-excluded neighbours.  It skips those in ``twice``:
    ``once`` and ``twice`` hold the vertices with at least one and at least
    two neighbours in ``smask``, and since ``smask`` only grows along a
    branch, a vertex in ``twice`` keeps two potential neighbours for good.
    Completed subsets are kept only if no excluded vertex extends them
    (``_extends``, the rule ``is_maximal_induced_forest`` uses too).
    The twin gate only skips include branches, so every cut above stays
    sound.
    """
    full = (1 << n) - 1
    out: list[int] = []

    def leaf_is_maximal(smask: int, comps: list[int]) -> bool:
        return not _extends(adj, full & ~smask, smask, comps)

    def decide(i: int, smask: int, undecided: int, once: int, twice: int, comps: list[int]) -> None:
        if i == n:
            if leaf_is_maximal(smask, comps):
                out.append(smask)
            return
        bit = 1 << i
        undecided &= ~bit
        nbrs = adj[i]
        # include i unless its previous twin is excluded or it closes a cycle
        # (two neighbours in one component)
        p = prev[i]
        if p < 0 or smask >> p & 1:
            merged = bit
            rest = []
            for c in comps:
                hit = nbrs & c
                if not hit:
                    rest.append(c)
                elif hit & (hit - 1):
                    break
                else:
                    merged |= c
            else:
                rest.append(merged)
                decide(i + 1, smask | bit, undecided, once | nbrs, twice | (once & nbrs), rest)
        # exclude i: dead end if i, or an excluded neighbour of i that is not
        # yet in twice, keeps at most one potential neighbour, since that
        # vertex would then extend every completion of smask
        potential = smask | undecided
        if (nbrs & potential).bit_count() < 2:
            return
        for v in iter_bits(nbrs & ~potential & (bit - 1) & ~twice):
            if (adj[v] & potential).bit_count() < 2:
                return
        decide(i + 1, smask, undecided, once, twice, comps)

    decide(0, 0, full, 0, 0, [])
    return out


@lru_cache(maxsize=256)
def _forest_catalogue(g: Graph) -> Catalogue:
    return Catalogue.build(g, _maximal_forest_masks)


def enumerate_maximal_induced_forests(
    g: Graph, max_order: int | None = None
) -> list[VertexSubset]:
    """Exactly the maximal induced forests, each once, ascending by bitmask."""
    return _forest_catalogue(_within_bound(g, max_order)).sets()


def maximal_forest_order_histogram(g: Graph, max_order: int | None = None) -> dict[int, int]:
    """Counts of maximal induced forests by order (component-wise convolution)."""
    return _forest_catalogue(_within_bound(g, max_order)).histogram()


def forest_number(g: Graph, max_order: int | None = None) -> int:
    """Order of a maximum induced forest: |V| minus the minimum feedback vertex set."""
    return _forest_catalogue(_within_bound(g, max_order)).number()


def is_well_f_covered(
    g: Graph, max_order: int | None = None
) -> tuple[bool, tuple[VertexSubset, VertexSubset] | None]:
    """Decide whether all maximal induced forests share one order.

    When they do not, also return a witness pair (smaller, larger).
    """
    return _forest_catalogue(_within_bound(g, max_order)).uniform()


def _classify(adj: tuple[int, ...], forest: int) -> tuple[int, int, int, int, int]:
    """Sort the vertices of a forest mask by their role in its component:
    the masks of isolated vertices, of leaves of components larger than an
    edge, and of vertices of degree >= 2, then the masks of the lower and
    of the higher endpoints of the single-edge components."""
    isolated = leaves = internal = lo = hi = 0
    for comp in components_within(adj, forest):
        sz = comp.bit_count()
        if sz == 1:
            isolated |= comp
        elif sz == 2:
            low = comp & -comp
            lo |= low
            hi |= comp ^ low
        else:
            for v in iter_bits(comp):
                if (adj[v] & forest).bit_count() == 1:
                    leaves |= 1 << v
                else:
                    internal |= 1 << v
    return isolated, leaves, internal, lo, hi


def forest_stats(g: Graph, f: VertexSubset) -> ForestStats:
    """Count I(F), K2(F), L(F), L'(F) for an induced forest F."""
    if f.order != g.order:
        raise ValueError("subset belongs to a graph of different order")
    if not _is_forest_mask(g.adj, f.mask):
        raise ValueError("subset does not induce a forest")
    isolated, leaves, internal, lo, _ = _classify(g.adj, f.mask)
    return ForestStats(
        isolated.bit_count(), lo.bit_count(), leaves.bit_count(), internal.bit_count()
    )


def forest_partition(g: Graph, f: VertexSubset, z_choice: str = "min") -> ForestPartition:
    """Split a maximal forest into the X1/X2/Y/Z/T classes.

    ``z_choice`` picks the representative endpoint of each single-edge
    component ("min" or "max" vertex index); any choice is mathematically
    valid, fixing one makes runs reproducible.
    """
    if z_choice not in Z_CHOICES:
        raise ValueError(f"z_choice must be one of {Z_CHOICES}, got {z_choice!r}")
    if f.order != g.order:
        raise ValueError("subset belongs to a graph of different order")
    if not _is_maximal_forest_mask(g.order, g.adj, f.mask):
        raise ValueError("witness constructions require a maximal induced forest")
    x1, x2, y, lo, hi = _classify(g.adj, f.mask)
    z, t = (lo, hi) if z_choice == "min" else (hi, lo)
    n = g.order
    return ForestPartition(
        x1=VertexSubset(n, x1),
        x2=VertexSubset(n, x2),
        y=VertexSubset(n, y),
        z=VertexSubset(n, z),
        t=VertexSubset(n, t),
    )
