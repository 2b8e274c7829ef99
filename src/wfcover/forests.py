"""Maximal induced forest enumeration, forest number, and forest statistics.

"Forest" always means *induced* forest: a vertex set whose induced subgraph
is acyclic.  A forest is maximal when adding any outside vertex closes a
cycle.  Enumeration is exhaustive: an include/exclude walk per connected
component, in the graph's own labels along a decision sequence that puts
high-degree vertices first, that never includes a vertex closing a cycle
(``_join``, the one include step, which the role-pattern walk below shares)
and cuts an exclusion that strands a vertex, one that every completion could
take without closing a cycle: it has fewer than two neighbours left to
choose, or it could have joined and its only two are not connected through
the vertices still chosen or undecided (``_connected``, a flood fill); each
completed set is then tested for maximality.  Twins (vertices with one open
or one closed neighbourhood) can be swapped by an automorphism, so the walk
includes a twin only after its predecessor in the class and keeps one
representative per orbit; the catalogue expands or counts the orbits, each
once per catalogue.  Results are returned in a canonical ascending-bitmask
order regardless of internal traversal.  Maximality has one rule, stated over
a list of component masks, ``_blocks_all``: every outside vertex has two
neighbours in one component.  It returns at the first vertex that escapes,
and the component that blocks a vertex blocks every vertex with two
neighbours in it at once (``_blocked_by``).  The kernel applies it to each
leaf with the component list it carries; ``is_maximal_induced_forest`` and
``forest_partition`` get their components from one walk over the set
(``_forest_components``), which also checks that the degrees inside the set
of each component c sum to 2(|c| - 1); the role-pattern walk reads the
vertices each component blocks.

For a product built by ``lexicographic``, the forest number, the order
histogram and the well-f-covered decision with its witness pair are
computed from the factors instead (``product_profile``): a maximal forest
of G∘H is an induced forest of G with a role for each of its vertices.
Which role patterns are admissible depends on H only through its
signature (whether it has an edge, a universal vertex, a maximal
independent set of two or more vertices), so a G-side table of them,
``_role_patterns``, is walked once and cached per (G, signature).  That
walk cuts an excluded vertex once it can no longer be dominated, and tests
each forest it reaches on neighbourhood masks: a role choice is kept iff
the outside vertices that nothing else dominates lie in the neighbourhood
of its BIG vertices.  The profile reads H in the type it returns, one
``Aggregates`` per role; the ISO record is the forest catalogue's own.
With H's checked maximal independent sets they make the one record of a
second factor, ``_fibres``, cached per H, which the checks read too.  Per
pair only a fold remains: it sums the sizes of the patterns, and its
witnesses are the patterns of extreme order with the least or the greatest
fibres of H lifted onto them (``products.lift``).  The fold is in closed
form: each key's histogram is a product of powers of the ISO and BIG
records, shifted and scaled by its one-vertex ONE and UNIV fibres.  The
answers equal the catalogue's; a graph with the same adjacency but no
factors still goes through the kernel, and so does
``enumerate_maximal_induced_forests``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import comb
from typing import Callable, Collection, NamedTuple

from .graphs import (
    Graph,
    VertexSubset,
    component_masks,
    iter_bits,
)
from .products import lift

Z_CHOICES = ("min", "max")


@dataclass(frozen=True, init=False)
class ForestStats:
    """The four counters of a forest F.

    isolated        I(F):  vertices of degree 0 in F
    k2_components   K2(F): connected components of F that are a single edge
    outer_leaves    L(F):  degree-1 vertices in components larger than an edge
    internal        L'(F): vertices of degree at least 2 in F

    Every forest vertex falls in exactly one bucket, so
    isolated + 2*k2_components + outer_leaves + internal = |F|.

    A check builds one per maximal forest of G, so ``__init__`` is written
    by hand and stores the fields straight into the instance ``__dict__``,
    as unpickling does, not through ``object.__setattr__`` one by one.
    """

    isolated: int
    k2_components: int
    outer_leaves: int
    internal: int

    def __init__(self, isolated: int, k2_components: int, outer_leaves: int, internal: int) -> None:
        state = self.__dict__
        state["isolated"] = isolated
        state["k2_components"] = k2_components
        state["outer_leaves"] = outer_leaves
        state["internal"] = internal

    @property
    def total(self) -> int:
        return self.isolated + 2 * self.k2_components + self.outer_leaves + self.internal


@dataclass(frozen=True, init=False)
class ForestPartition:
    """The proof partition of a maximal forest F.

    x  = x1 | x2, derived: isolated vertices and leaves of non-edge components
    x1 = isolated vertices only
    x2 = leaves of components larger than a single edge
    y  = vertices of degree >= 2
    z  = one chosen endpoint per single-edge component
    t  = the partner endpoints of z

    A check builds one per maximal forest of G, so ``__init__`` is written
    by hand and stores the fields straight into the instance ``__dict__``,
    as unpickling does, not through ``object.__setattr__`` one by one.
    """

    x1: VertexSubset
    x2: VertexSubset
    y: VertexSubset
    z: VertexSubset
    t: VertexSubset

    def __init__(
        self, x1: VertexSubset, x2: VertexSubset, y: VertexSubset, z: VertexSubset, t: VertexSubset
    ) -> None:
        state = self.__dict__
        state["x1"] = x1
        state["x2"] = x2
        state["y"] = y
        state["z"] = z
        state["t"] = t

    @property
    def x(self) -> VertexSubset:
        return VertexSubset(self.x1.order, self.x1.mask | self.x2.mask)

    @property
    def stats(self) -> ForestStats:
        """The forest's counters: I = |X1|, K2 = |Z|, L = |X2|, L' = |Y|."""
        return ForestStats(len(self.x1), len(self.z), len(self.x2), len(self.y))


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


class Aggregates(NamedTuple):
    """The aggregate queries over the maximal sets of one kind of a graph of
    ``order`` vertices.  ``counts`` holds (size, number of sets) pairs,
    ascending; ``lo`` and ``hi`` are the smallest masks of least and of
    greatest size."""

    order: int
    counts: tuple[tuple[int, int], ...]
    lo: int
    hi: int

    @classmethod
    def of(cls, order: int, masks: Collection[int]) -> Aggregates:
        """The record of the sets ``masks``, listed one by one; ``lo`` and
        ``hi`` are 0 when there are none."""
        hist: dict[int, int] = {}
        for m in masks:
            k = m.bit_count()
            hist[k] = hist.get(k, 0) + 1
        return cls(
            order,
            tuple(sorted(hist.items())),
            min(masks, key=lambda m: (m.bit_count(), m), default=0),
            min(masks, key=lambda m: (-m.bit_count(), m), default=0),
        )

    def histogram(self) -> dict[int, int]:
        """Counts of maximal sets by size."""
        return dict(self.counts)

    def number(self) -> int:
        """Size of a largest maximal set."""
        return self.counts[-1][0]

    def uniform(self) -> tuple[bool, tuple[VertexSubset, VertexSubset] | None]:
        """Whether all maximal sets share one size; if not, also the witness
        pair (smaller, larger)."""
        if len(self.counts) == 1:
            return True, None
        return False, (VertexSubset(self.order, self.lo), VertexSubset(self.order, self.hi))


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
    ``sets()`` lists them, expanded once per catalogue; the ``aggregates``
    record, also computed once per catalogue, is the one source of the
    histogram, the number and the uniformity test with its witness pair.
    """

    order: int
    components: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @classmethod
    def build(
        cls,
        g: Graph,
        kernel: Callable[[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]], list[int]],
    ) -> Catalogue:
        """Run ``kernel(comp, adj, sequence, prev)`` on each component mask
        ``comp`` of ``g``, in the graph's own labels: ``adj`` is ``g.adj``,
        ``sequence`` holds the component's vertices in decision order, twin
        classes by descending degree, ties by smallest member, members
        ascending, and ``prev[i]`` is the twin just before ``sequence[i]`` in
        its class, or -1.

        The kernels decide vertices in sequence order, so hubs come first: a
        decided hub constrains many vertices while the subtrees below it are
        still large, instead of after they have been walked.  They include
        a vertex only when its previous twin is included, so they return the
        smallest mask of each orbit, as a mask of ``g``.  Without twins the
        order is descending degree, ties by index.  Each component's masks
        are sorted, so the result does not depend on the order.
        """
        per_comp = []
        for comp in component_masks(g):
            classes = sorted(
                _twin_classes(g.adj, comp), key=lambda c: (-g.adj[c[0]].bit_count(), c[0])
            )
            sequence: list[int] = []
            prev: list[int] = []
            for c in classes:
                sequence += c
                prev += [-1, *c[:-1]]
            reps = kernel(comp, g.adj, tuple(sequence), tuple(prev))
            twins = tuple(sum(1 << v for v in c) for c in classes if len(c) > 1)
            per_comp.append((tuple(sorted(reps)), twins))
        return cls(g.order, tuple(per_comp))

    def sets(self) -> list[VertexSubset]:
        """Every maximal set, each once, ascending by bitmask, as a new list."""
        return list(self._sets)

    @cached_property
    def _sets(self) -> tuple[VertexSubset, ...]:
        combined = [0]
        for reps, classes in self.components:
            masks = [m for rep in reps for m in _orbit(rep, classes)]
            combined = [acc | m for acc in combined for m in masks]
        combined.sort()
        return tuple(VertexSubset(self.order, m) for m in combined)

    @cached_property
    def aggregates(self) -> Aggregates:
        """Sizes combine by component-wise convolution, a representative
        standing for prod C(|c|, |rep & c|) sets.  ``lo`` and ``hi`` take, per
        component, the smallest-mask set of least and of greatest size; an
        orbit's sets share one size and its representative is its smallest
        mask, so the representatives alone give both."""
        hist = {0: 1}
        lo = hi = 0
        for reps, classes in self.components:
            sizes = [c.bit_count() for c in classes]
            comp_hist: dict[int, int] = {}
            for m in reps:
                k = m.bit_count()
                weight = 1
                for c, size in zip(classes, sizes):
                    weight *= comb(size, (m & c).bit_count())
                comp_hist[k] = comp_hist.get(k, 0) + weight
            hist = _convolve(hist, comp_hist.items())
            lo |= min(reps, key=lambda m: (m.bit_count(), m))
            hi |= max(reps, key=lambda m: (m.bit_count(), -m))
        return Aggregates(self.order, tuple(sorted(hist.items())), lo, hi)


def _convolve(a: dict[int, int], b: Collection[tuple[int, int]]) -> dict[int, int]:
    """The size histogram of the unions of one set counted by ``a`` with one
    disjoint set counted by the (size, number) pairs ``b``."""
    out: dict[int, int] = {}
    for i, ci in a.items():
        for j, cj in b:
            out[i + j] = out.get(i + j, 0) + ci * cj
    return out


def _powers(counts: tuple[tuple[int, int], ...], top: int) -> list[dict[int, int]]:
    """The size histograms of the unions of 0, 1, ..., ``top`` disjoint
    sets, each counted by the (size, number) pairs ``counts``."""
    out = [{0: 1}]
    for _ in range(top):
        out.append(_convolve(out[-1], counts))
    return out


def _forest_components(adj: tuple[int, ...], mask: int) -> list[int] | None:
    """The components of two or more vertices of the subgraph ``mask``
    induces, as masks ordered by smallest member, or None when it has a
    cycle.  (A lone vertex blocks nothing, so the maximality rule does not
    need it, and ``_partition`` finds the isolated vertices as the rest.)

    One walk over the components, reading each vertex's row once, when the
    search reaches it, for the degree sum inside ``mask``, which is
    2(|c| - 1) exactly when the component c is a tree."""
    comps = []
    rem = mask
    while rem:
        start = rem
        degrees = 0
        todo = rem & -rem
        while todo:
            bit = todo & -todo
            rem ^= bit
            nbrs = adj[bit.bit_length() - 1] & mask
            degrees += nbrs.bit_count()
            todo = (todo | nbrs) & rem
        if degrees:
            comp = start ^ rem
            if degrees != 2 * comp.bit_count() - 2:
                return None
            comps.append(comp)
    return comps


def _blocked_by(adj: tuple[int, ...], comp: int) -> int:
    """The vertices with two neighbours in the tree ``comp``: those that
    cannot join it without closing a cycle."""
    once = twice = 0
    while comp:
        bit = comp & -comp
        nbrs = adj[bit.bit_length() - 1]
        twice |= once & nbrs
        once |= nbrs
        comp ^= bit
    return twice


def _blocks_all(adj: tuple[int, ...], comps: list[int], outside: int) -> bool:
    """The maximality rule: whether every vertex of ``outside`` has two
    neighbours in one of the forest components ``comps``, so that adding it
    closes a cycle.  With ``outside`` every vertex the forest leaves out, it
    decides that the forest is maximal.

    It returns at the first vertex that escapes, one that could join the
    forest.  The vertices are taken lowest first; the component that holds
    two neighbours of one of them blocks, at once, every vertex with two
    neighbours in it (``_blocked_by``)."""
    while outside:
        nbrs = adj[(outside & -outside).bit_length() - 1]
        for c in comps:
            hit = nbrs & c
            if hit & (hit - 1):
                break
        else:
            return False
        outside &= ~_blocked_by(adj, c)
    return True


def _maximal_forest_components(order: int, adj: tuple[int, ...], mask: int) -> list[int] | None:
    """The components of two or more vertices of ``mask`` when it is a
    maximal forest of the graph (order, adj), else None: one walk for the
    components, then the rule ``_blocks_all`` over them."""
    comps = _forest_components(adj, mask)
    if comps is None or not _blocks_all(adj, comps, ((1 << order) - 1) & ~mask):
        return None
    return comps


def _join(comps: list[int], bit: int, nbrs: int) -> list[int] | None:
    """The components of a forest, given as the masks ``comps``, once the
    vertex ``bit`` with neighbours ``nbrs`` joins it, merged with every
    component it touches; None when two of its neighbours lie in one
    component, so that it closes a cycle.  ``comps`` is left as it is."""
    merged = bit
    rest = []
    for c in comps:
        hit = nbrs & c
        if not hit:
            rest.append(c)
        elif hit & (hit - 1):
            return None
        else:
            merged |= c
    rest.append(merged)
    return rest


def _connected(adj: tuple[int, ...], within: int, pair: int) -> bool:
    """Whether the two vertices of the mask ``pair`` lie in one component
    of the subgraph that ``within`` induces: a flood fill from the lower one
    that stops once it reaches the other."""
    low = pair & -pair
    seen = todo = low
    while todo:
        bit = todo & -todo
        todo ^= bit
        new = adj[bit.bit_length() - 1] & within & ~seen
        if new & pair:
            return True
        seen |= new
        todo |= new
    return False


def _same_order(g: Graph, s: VertexSubset) -> None:
    """Raise ValueError unless ``s`` is a subset of a graph of ``g``'s order."""
    if s.order != g.order:
        raise ValueError("subset belongs to a graph of different order")


def is_induced_forest(g: Graph, s: VertexSubset) -> bool:
    """True iff the subgraph induced by ``s`` is acyclic (empty set included)."""
    _same_order(g, s)
    return _forest_components(g.adj, s.mask) is not None


def is_maximal_induced_forest(g: Graph, s: VertexSubset) -> bool:
    """True iff ``s`` induces a forest and every added vertex closes a cycle."""
    _same_order(g, s)
    return _maximal_forest_components(g.order, g.adj, s.mask) is not None


def _maximal_forest_masks(
    comp: int, adj: tuple[int, ...], sequence: tuple[int, ...], prev: tuple[int, ...]
) -> list[int]:
    """The maximal induced forest masks of the component ``comp`` of the
    graph with rows ``adj`` that include the vertex ``sequence[i]`` only
    with its previous twin ``prev[i]`` (-1 for none): one per orbit of
    swapping twins, its smallest mask when each class's members come
    ascending in ``sequence``.  Masks are in the graph's own labels.

    Include/exclude walk over the vertices of ``sequence`` that passes down
    the components of the chosen set ``smask`` as a list of disjoint masks.
    Including a vertex builds a new list by ``_join``, which merges it with
    every component it touches, so nothing is undone on the way back, and
    refuses it when a component holds two of its neighbours, since it
    closes a cycle.  A vertex's potential neighbours are its neighbours in
    ``potential = smask | undecided``; every completion of ``smask`` lies
    inside ``potential``, so its components lie inside those of
    ``G[potential]``.  An excluded vertex that has fewer than two potential
    neighbours, or exactly two that lie in different components of
    ``G[potential]``, has at most one neighbour in each component of every
    completion, so it can be added to every completion without closing a
    cycle: its branch holds no maximal forest and is cut.  Excluding a
    vertex ``v`` takes a potential neighbour away only from the neighbours
    of ``v``, so the exclude branch re-checks ``v`` and its excluded
    neighbours for fewer than two; those are its neighbours outside
    ``potential``, all decided before it.  It skips those in ``twice``:
    ``once`` and ``twice`` hold the vertices with at least one and at least
    two neighbours in ``smask``, and since ``smask`` only grows along a
    branch, a vertex in ``twice`` keeps two potential neighbours for good.
    Only ``v`` itself, and only when it could have been included and has
    exactly two potential neighbours, gets the component test, a flood fill
    (``_connected``): on a path it leaves one node per vertex for the one
    maximal forest (P22: 23 nodes), where a walk without it reaches every
    subset with no two consecutive excluded vertices, Fibonacci many.  The
    other cases, three or more potential neighbours, the neighbours of
    ``v``, and a closing or twin-gated ``v``, skip the flood; a vertex that
    closes a cycle has two neighbours in one component of ``smask`` anyway.
    A completed subset is kept only if it is maximal: ``_blocks_all``, the
    rule ``is_maximal_induced_forest`` uses too, tests the excluded vertices
    against the component list ``comps`` and returns at the first that
    escapes, so a leaf that is not maximal, most of them, costs little.
    The twin gate only skips include branches, so every cut above stays
    sound.
    """
    n = len(sequence)
    out: list[int] = []

    def decide(i: int, smask: int, undecided: int, once: int, twice: int, comps: list[int]) -> None:
        if i == n:
            if _blocks_all(adj, comps, comp & ~smask):
                out.append(smask)
            return
        v = sequence[i]
        bit = 1 << v
        undecided &= ~bit
        nbrs = adj[v]
        # include v unless its previous twin is excluded or it closes a cycle
        p = prev[i]
        joined = None
        if p < 0 or smask >> p & 1:
            joined = _join(comps, bit, nbrs)
            if joined is not None:
                decide(i + 1, smask | bit, undecided, once | nbrs, twice | (once & nbrs), joined)
        # exclude v: dead end if v, or an excluded neighbour of v that is not
        # yet in twice, keeps at most one potential neighbour, or if v could
        # join and its only two potential neighbours are not joined in
        # G[potential], since v would then extend every completion of smask
        potential = smask | undecided
        near = nbrs & potential
        k = near.bit_count()
        if k < 2 or k == 2 and joined is not None and not _connected(adj, potential, near):
            return
        for u in iter_bits(nbrs & ~potential & ~twice):
            if (adj[u] & potential).bit_count() < 2:
                return
        decide(i + 1, smask, undecided, once, twice, comps)

    decide(0, 0, comp, 0, 0, [])
    return out


@lru_cache(maxsize=256)
def _forest_catalogue(g: Graph) -> Catalogue:
    return Catalogue.build(g, _maximal_forest_masks)


# The roles of a vertex g of P in the forest G[P], named by the fibres S_g
# they allow: a maximal forest of H, any one vertex, one universal vertex of
# H, or a maximal independent set of H with two or more vertices.  A role
# pattern holds, per role, the mask of the vertices of P that take it.
_ISO, _ONE, _UNIV, _BIG = range(4)


# An H of two or more vertices is edgeless, complete, or has an edge and an
# MIS of two or more vertices, with or without a universal vertex: four
# signatures, so this holds the tables of four G.  The largest measured,
# C12 with P3's signature, has 5 495 patterns in about 0.9 MB.
@lru_cache(maxsize=16)
def _role_patterns(
    g: Graph, has_edge: bool, has_univ: bool, has_big: bool
) -> tuple[tuple[tuple[int, int, int, int], tuple[tuple[int, int, int, int], ...]], ...]:
    """The admissible role patterns (P, roles) of G, by the rules of
    ``product_profile``, for every H whose signature is (``has_edge``: H has
    an edge, ``has_univ``: a universal vertex, ``has_big``: a maximal
    independent set of two or more vertices).  They are grouped by the
    number of vertices of each role: pairs (counts, patterns), each pattern
    its role masks (ISO, ONE, UNIV, BIG).

    The induced forests P are walked by include/exclude in descending-degree
    order, passing the components down as masks through ``_join`` as the
    forest kernel does.  Only the exclude branch is cut: once an excluded
    vertex w can no longer be dominated.  It cannot once it has no
    potential neighbour left (one still in P or undecided), and, when H has
    no edge, once none of its potential neighbours has a potential
    neighbour of its own: each of them can then only end isolated in G[P],
    an isolated vertex dominates nothing when H has no edge, and two
    isolated vertices lie in two components.  Excluding v takes a potential
    neighbour away only from the neighbours of v, so the exclude step
    re-tests v, its excluded neighbours and, when H has no edge, the
    excluded neighbours of each neighbour of v that v leaves with no
    potential neighbour.

    The role choices of a component of two or more vertices depend only on
    its mask, so they are worked out once per mask and reused at every
    forest of the walk that holds it; each choice carries the neighbourhood
    of its BIG vertices.  At a leaf, the outside vertices U that no
    component blocks and, when H has an edge, no isolated vertex dominates
    must each have a BIG neighbour: the leaf returns at once if U leaves
    the neighbourhood of the leaves of the forest's components, and keeps
    a choice iff U lies in the neighbourhood of its BIG vertices.
    """
    m, adj = g.order, g.adj
    full = (1 << m) - 1
    table: dict[tuple[int, int, int, int], list[tuple[int, int, int, int]]] = {}
    # per component mask: (twice, internal, reach, choices) as returned by component
    facts: dict[int, tuple[int, int, int, list[tuple[int, int, int, int]]]] = {}

    def component(c: int) -> tuple[int, int, int, list[tuple[int, int, int, int]]]:
        """The vertices with two neighbours in the component ``c`` (the
        vertices it blocks, ``_blocked_by``, the bulk step of the maximality
        rule), its vertices of degree >= 2 (none for a K2), the
        neighbourhood of its leaves, and its role choices as (BIG, ONE,
        UNIV, N(BIG)) masks: per leaf a BIG or a UNIV fibre, or for a K2 one
        end BIG and the other ONE, or both UNIV."""
        twice = _blocked_by(adj, c)
        if c.bit_count() == 2:
            a = c & -c
            b = c ^ a
            na, nb = adj[a.bit_length() - 1], adj[b.bit_length() - 1]
            big = [(a, b, 0, na), (b, a, 0, nb)] * has_big
            return twice, 0, na | nb, big + [(0, 0, c, 0)] * has_univ
        reach = 0
        choices = [(0, 0, 0, 0)]
        for v in iter_bits(c & ~twice):
            reach |= adj[v]
            unit = [(1 << v, 0, 0, adj[v])] * has_big + [(0, 0, 1 << v, 0)] * has_univ
            choices = [
                (b | b2, o, u | u2, n | n2) for b, o, u, n in choices for b2, _, u2, n2 in unit
            ]
        return twice, c & twice, reach, choices

    def patterns(pmask: int, comps: list[int]) -> None:
        """Add each admissible role choice on the induced forest ``pmask``
        of G, whose components are ``comps``, to the table."""
        isolated = internal = dominated = reach = 0
        units = []  # per component of two or more vertices: its role choices
        for c in comps:
            if not c & (c - 1):
                isolated |= c
                continue
            fact = facts.get(c)
            if fact is None:
                fact = facts[c] = component(c)
            twice, inner, leaf_reach, choices = fact
            dominated |= twice  # two neighbours in c
            internal |= inner
            reach |= leaf_reach
            units.append(choices)
        if has_edge:
            for v in iter_bits(isolated):
                dominated |= adj[v]
        # the outside vertices that need a BIG neighbour
        undominated = full & ~pmask & ~dominated
        if undominated & ~reach:
            return
        n_iso, n_int = isolated.bit_count(), internal.bit_count()
        for choice in product(*units):
            big = one = univ = covered = 0
            for b, o, u, n in choice:
                big |= b
                one |= o
                univ |= u
                covered |= n
            if undominated & ~covered:
                continue
            counts = (n_iso, n_int + one.bit_count(), univ.bit_count(), big.bit_count())
            table.setdefault(counts, []).append((isolated, internal | one, univ, big))

    sequence = sorted(range(m), key=lambda v: (-adj[v].bit_count(), v))

    def walk(i: int, pmask: int, undecided: int, comps: list[int]) -> None:
        if i == m:
            patterns(pmask, comps)
            return
        v = sequence[i]
        bit = 1 << v
        undecided &= ~bit
        nbrs = adj[v]
        joined = _join(comps, bit, nbrs)
        if joined is not None:
            walk(i + 1, pmask | bit, undecided, joined)
        # exclude v, unless that strands v, an excluded neighbour of v, or,
        # when H has no edge, one of a neighbour that v leaves with no
        # potential neighbour
        potential = pmask | undecided
        check = nbrs & ~potential | bit
        if not has_edge:
            rest = nbrs & potential
            while rest:
                around = adj[(rest & -rest).bit_length() - 1]
                if not around & potential:
                    check |= around & ~potential
                rest &= rest - 1
        while check:
            near = adj[(check & -check).bit_length() - 1] & potential
            if not has_edge:
                # only a potential neighbour that can end in a component of
                # two or more vertices can dominate
                while near and not adj[(near & -near).bit_length() - 1] & potential:
                    near &= near - 1
            if not near:
                return
            check &= check - 1
        walk(i + 1, pmask, undecided, comps)

    walk(0, 0, full, [])
    return tuple((counts, tuple(pats)) for counts, pats in table.items())


@lru_cache(maxsize=256)
def _fibres(h: Graph) -> tuple[tuple[Aggregates, ...], tuple[VertexSubset, ...]]:
    """The one record of a second factor H, read by the profile of every G∘H
    and by every check of a pair with H: per role (ISO, ONE, UNIV, BIG) the
    record of the fibres it allows, empty for a role H has none for, and H's
    maximal independent sets, ascending, each checked once.  ISO is H's
    forest catalogue record; UNIV holds the MIS of size 1, BIG the rest."""
    from .independence import _independent_catalogue, is_maximal_independent_set  # a cyclic import

    mis = tuple(_independent_catalogue(h).sets())
    if not all(is_maximal_independent_set(h, m) for m in mis):
        raise ValueError("the catalogue lists a set that is not a maximal independent set of H")
    n = h.order
    return (
        _forest_catalogue(h).aggregates,
        Aggregates.of(n, [1 << x for x in range(n)]),
        Aggregates.of(n, [m.mask for m in mis if len(m) == 1]),
        Aggregates.of(n, [m.mask for m in mis if len(m) > 1]),
    ), mis


@lru_cache(maxsize=8)
def product_profile(g: Graph, h: Graph) -> Aggregates:
    """``histogram()``, ``number()`` and ``uniform()`` of the maximal
    induced forests of G∘H, equal to those of its catalogue, from a record
    of G per signature and a record of H.

    Let S be an induced forest of G∘H, ``S_g`` its fibre in {g}×V(H), and
    P = {g : S_g nonempty}.  One vertex from each fibre of P spans a copy of
    G[P], so G[P] is a forest.  Two vertices of one fibre and a vertex of a
    neighbouring fibre make a triangle if they are adjacent, and a C4 with a
    vertex of a second neighbouring fibre (or two of the same one).  Adding
    a vertex (g, x) closes a cycle exactly when it has two neighbours in
    one component of S.  So S is a maximal forest exactly when each vertex
    of P has a role by its place in G[P]:

    - isolated: S_g is a maximal forest of H;
    - of degree >= 2: S_g is one vertex, any of the n = |H|;
    - a leaf of a component of three or more vertices: S_g is a maximal
      independent set (MIS) of H, of size 1 (a universal vertex) or >= 2;
    - one end of a component {a, b}: S_a is an MIS of size >= 2 and S_b
      any one vertex, or the mirror image, or S_a and S_b are each one
      universal vertex of H;

    and every g outside P is dominated: it has a neighbour isolated in G[P]
    while H has an edge (the fibre there is a maximal forest of H, which
    then has an edge), or two neighbours in one component of G[P], or a
    neighbour whose role is an MIS of size >= 2 in a component of two or
    more vertices.  P ranges over every induced forest of G, not only the
    maximal ones, and distinct role choices give disjoint sets of forests.

    Which patterns (P, roles) are admissible reads H only through its
    signature: whether it has an edge, a universal vertex and an MIS of two
    or more vertices.  So the walk over the induced forests of G that finds
    them is a table, ``_role_patterns``, cached per (G, signature) and
    shared by every H with that signature.  The rest of H that the profile
    reads is one ``Aggregates`` per role, the role records of ``_fibres``,
    cached per H and shared by every G; the signature is read off them.
    The fold here is the only work per pair: each pattern adds the
    convolution of its vertices' fibre size histograms to the total, so
    patterns with equal role counts (i, o, u, b) are summed at once, in
    closed form.  The ISO and BIG histograms are raised to each power the
    table needs once per call; a ONE or UNIV fibre is one vertex, chosen
    among n = |H| or among the |UNIV| universal vertices, so those roles
    add the factor n**o * |UNIV|**u at the shift o + u.

    A pattern's orders are the sums of one fibre size per vertex, so a
    pattern reaches the least (greatest) order of the product only if its
    least (greatest) sum is that order, and its forests of that order then
    take the least (greatest) fibre size of each vertex's role.  The fibres
    are disjoint bit blocks of the product, so the smallest such mask takes,
    per role, its smallest fibre of that size: it is the ``lift`` of the
    role masks with those fibres.  The catalogue's witness masks are the
    smallest masks of least and of greatest order, so they are the smallest
    of these lifts over the patterns that reach the extreme orders.  Every
    fibre is nonempty, so a lift's top block is its pattern's highest
    vertex, and only the patterns whose highest vertex is lowest are lifted.
    For |H| = 1 the product is G itself, with the same labels, so its own
    catalogue's record is returned.
    """
    if h.order == 1:
        return _forest_catalogue(g).aggregates
    roles = _fibres(h)[0]
    has_univ, has_big = bool(roles[_UNIV].counts), bool(roles[_BIG].counts)
    table = _role_patterns(g, h.edge_count > 0, has_univ, has_big)

    n = h.order
    n_univ = sum(c for _, c in roles[_UNIV].counts)
    iso = _powers(roles[_ISO].counts, max(counts[_ISO] for counts, _ in table))
    big = _powers(roles[_BIG].counts, max(counts[_BIG] for counts, _ in table))
    total: dict[int, int] = {}
    for (i, o, u, b), pats in table:
        weight, shift = len(pats) * n**o * n_univ**u, o + u
        for k, c in _convolve(iso[i], big[b].items()).items():
            total[k + shift] = total.get(k + shift, 0) + weight * c
    witnesses = []
    for t, fibres in ((min(total), [r.lo for r in roles]), (max(total), [r.hi for r in roles])):
        s_iso, s_one, s_univ, s_big = (f.bit_count() for f in fibres)
        reach = [
            masks
            for (i, o, u, b), pats in table
            if i * s_iso + o * s_one + u * s_univ + b * s_big == t
            for masks in pats
        ]
        low = min(map(max, reach)).bit_length()
        witnesses.append(
            min(lift(zip(masks, fibres), n) for masks in reach if max(masks).bit_length() == low)
        )
    return Aggregates(g.order * n, tuple(sorted(total.items())), *witnesses)


def _forest_aggregates(g: Graph) -> Aggregates:
    """What the aggregate queries read: for a graph built by
    ``lexicographic`` the profile from its factors, else its catalogue's."""
    return _forest_catalogue(g).aggregates if g.factors is None else product_profile(*g.factors)


def enumerate_maximal_induced_forests(g: Graph) -> list[VertexSubset]:
    """Exactly the maximal induced forests, each once, ascending by bitmask."""
    return _forest_catalogue(g).sets()


def maximal_forest_order_histogram(g: Graph) -> dict[int, int]:
    """Counts of maximal induced forests by order (component-wise convolution)."""
    return _forest_aggregates(g).histogram()


def forest_number(g: Graph) -> int:
    """Order of a maximum induced forest: |V| minus the minimum feedback vertex set."""
    return _forest_aggregates(g).number()


def is_well_f_covered(g: Graph) -> tuple[bool, tuple[VertexSubset, VertexSubset] | None]:
    """Decide whether all maximal induced forests share one order.

    When they do not, also return a witness pair (smaller, larger).
    """
    return _forest_aggregates(g).uniform()


def _partition(
    n: int, adj: tuple[int, ...], forest: int, comps: list[int], z_choice: str = "min"
) -> ForestPartition:
    """Sort the vertices of a forest mask of the graph (n, adj), whose
    components of two or more vertices are ``comps``, by their role in its
    component: isolated vertices, leaves of components larger than an edge,
    vertices of degree >= 2 (those with two neighbours in their component,
    ``_blocked_by``, as in ``_role_patterns``), and the endpoints of the
    single-edge components, the ``z_choice`` one of each in Z."""
    isolated = forest
    leaves = internal = lo = hi = 0
    for comp in comps:
        isolated &= ~comp
        sz = comp.bit_count()
        if sz == 2:
            low = comp & -comp
            lo |= low
            hi |= comp ^ low
        else:
            inner = comp & _blocked_by(adj, comp)
            internal |= inner
            leaves |= comp ^ inner
    z, t = (lo, hi) if z_choice == "min" else (hi, lo)
    return ForestPartition(*(VertexSubset(n, mask) for mask in (isolated, leaves, internal, z, t)))


def forest_stats(g: Graph, f: VertexSubset) -> ForestStats:
    """Count I(F), K2(F), L(F), L'(F) for an induced forest F."""
    _same_order(g, f)
    comps = _forest_components(g.adj, f.mask)
    if comps is None:
        raise ValueError("subset does not induce a forest")
    return _partition(g.order, g.adj, f.mask, comps).stats


def forest_partition(g: Graph, f: VertexSubset, z_choice: str = "min") -> ForestPartition:
    """Split a maximal forest into the X1/X2/Y/Z/T classes.

    ``z_choice`` picks the representative endpoint of each single-edge
    component ("min" or "max" vertex index); any choice is mathematically
    valid, fixing one makes runs reproducible.
    """
    if z_choice not in Z_CHOICES:
        raise ValueError(f"z_choice must be one of {Z_CHOICES}, got {z_choice!r}")
    _same_order(g, f)
    comps = _maximal_forest_components(g.order, g.adj, f.mask)
    if comps is None:
        raise ValueError("witness constructions require a maximal induced forest")
    return _partition(g.order, g.adj, f.mask, comps, z_choice)
