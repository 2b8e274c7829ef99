"""Maximal induced forest enumeration, forest number, and forest statistics.

"Forest" always means *induced* forest: a vertex set whose induced subgraph
is acyclic.  A forest is maximal when adding any outside vertex closes a
cycle.  Enumeration is exhaustive: an include/exclude walk per connected
component, deciding high-degree vertices first, that never includes a
vertex closing a cycle (``_join``, the one include step, which the
role-pattern walk below shares) and cuts a branch as soon as some excluded
vertex has fewer than two neighbours left to choose; each completed set is
then tested for maximality.  Twins (vertices with one open or one closed
neighbourhood) can be swapped by an automorphism, so the walk includes a
twin only after its predecessor in the class and keeps one representative
per orbit; the catalogue expands or counts the orbits, each once per
catalogue.  Results are returned in a canonical ascending-bitmask order
regardless of internal traversal.  Maximality has one rule,
``_is_maximal_forest_mask``, behind the kernel's leaves and
``is_maximal_induced_forest`` alike.  It is one walk over the components
of the set (``_forest_blocked``): the degrees inside the set of each
component c must sum to 2(|c| - 1), and every outside vertex must have two
neighbours in one of them.

For a product built by ``lexicographic``, the forest number, the order
histogram and the well-f-covered decision with its witness pair are
computed from the factors instead (``product_profile``): a maximal forest
of G∘H is an induced forest of G with a role for each of its vertices.
Which role patterns are admissible depends on H only through its
signature (whether it has an edge, a universal vertex, a maximal
independent set of two or more vertices), so a G-side table of them,
``_role_patterns``, is walked once and cached per (G, signature).  What
the profile reads of H, its signature and per role the fibre size
histogram and extreme fibres, is one record, ``_fibres``, read from the
catalogues of H once and cached per H.  Per pair only a fold remains: it
sums the sizes of the patterns, and its witnesses are the patterns of
extreme order with the least or the greatest fibres of H lifted onto them
(``products.lift``).  The answers equal the catalogue's; a graph with the
same adjacency but no factors still goes through the kernel, and so does
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
    components_within,
    iter_bits,
)
from .products import lift

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

    @property
    def stats(self) -> ForestStats:
        """The forest's counters: I = |X1|, K2 = |Z|, L = |X2|, L' = |Y|."""
        return ForestStats(len(self.x1), len(self.z), len(self.x2), len(self.y))


def _within_bound(order: int, max_order: int | None) -> None:
    """Raise EnumerationBoundError if a graph of ``order`` vertices exceeds
    ``max_order`` (``DEFAULT_MAX_ORDER`` when None)."""
    bound = DEFAULT_MAX_ORDER if max_order is None else max_order
    if order > bound:
        raise EnumerationBoundError(order, bound)


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


def _forest_blocked(adj: tuple[int, ...], mask: int) -> int:
    """-1 if ``mask`` does not induce a forest, else the vertices with two
    neighbours in one of its components: the vertices that cannot join it.

    One walk over the components, reading each vertex's row once, when the
    search reaches it: for the degree sum inside ``mask``, which is
    2(|c| - 1) exactly when the component c is a tree, and for the
    ``once``/``twice`` sets of the component."""
    blocked = 0
    rem = mask
    while rem:
        comp = degrees = once = twice = 0
        todo = rem & -rem
        while todo:
            bit = todo & -todo
            comp |= bit
            nbrs = adj[bit.bit_length() - 1]
            degrees += (nbrs & mask).bit_count()
            twice |= once & nbrs
            once |= nbrs
            todo = (todo | nbrs & mask) & ~comp
        if degrees != 2 * comp.bit_count() - 2:
            return -1
        blocked |= twice
        rem &= ~comp
    return blocked


def _is_maximal_forest_mask(order: int, adj: tuple[int, ...], mask: int) -> bool:
    """The maximality rule, from one walk: ``mask`` is a forest and no
    outside vertex escapes the vertices it blocks."""
    blocked = _forest_blocked(adj, mask)
    return blocked >= 0 and not ((1 << order) - 1) & ~mask & ~blocked


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


def _same_order(g: Graph, s: VertexSubset) -> None:
    """Raise ValueError unless ``s`` is a subset of a graph of ``g``'s order."""
    if s.order != g.order:
        raise ValueError("subset belongs to a graph of different order")


def is_induced_forest(g: Graph, s: VertexSubset) -> bool:
    """True iff the subgraph induced by ``s`` is acyclic (empty set included)."""
    _same_order(g, s)
    return _forest_blocked(g.adj, s.mask) >= 0


def is_maximal_induced_forest(g: Graph, s: VertexSubset) -> bool:
    """True iff ``s`` induces a forest and every added vertex closes a cycle."""
    _same_order(g, s)
    return _is_maximal_forest_mask(g.order, g.adj, s.mask)


def _maximal_forest_masks(n: int, adj: tuple[int, ...], prev: tuple[int, ...]) -> list[int]:
    """The maximal induced forest masks of the graph (n, adj) that include a
    vertex ``i`` only with its previous twin ``prev[i]`` (-1 for none): one
    per orbit of swapping twins, its smallest mask when each class's labels
    are consecutive.

    Include/exclude walk over vertices 0..n-1 that passes down the
    components of the chosen set ``smask`` as a list of disjoint masks.
    Including a vertex builds a new list by ``_join``, which merges it with
    every component it touches, so nothing is undone on the way back, and
    refuses it when a component holds two of its neighbours, since it
    closes a cycle.  A vertex's potential neighbours are its neighbours in
    ``smask | undecided``.  An excluded vertex with fewer than two of them can be added to every
    completion of ``smask`` without closing a cycle, so its branch holds no
    maximal forest and is cut.  Excluding ``i`` takes a potential neighbour
    away only from the neighbours of ``i``, so the exclude branch re-checks
    ``i`` and its earlier-excluded neighbours.  It skips those in ``twice``:
    ``once`` and ``twice`` hold the vertices with at least one and at least
    two neighbours in ``smask``, and since ``smask`` only grows along a
    branch, a vertex in ``twice`` keeps two potential neighbours for good.
    A completed subset is kept only if it is maximal: no excluded vertex
    escapes the vertices its components block (``_is_maximal_forest_mask``,
    the rule ``is_maximal_induced_forest`` uses too).
    The twin gate only skips include branches, so every cut above stays
    sound.
    """
    full = (1 << n) - 1
    out: list[int] = []

    def decide(i: int, smask: int, undecided: int, once: int, twice: int, comps: list[int]) -> None:
        if i == n:
            if _is_maximal_forest_mask(n, adj, smask):
                out.append(smask)
            return
        bit = 1 << i
        undecided &= ~bit
        nbrs = adj[i]
        # include i unless its previous twin is excluded or it closes a cycle
        p = prev[i]
        if p < 0 or smask >> p & 1:
            joined = _join(comps, bit, nbrs)
            if joined is not None:
                decide(i + 1, smask | bit, undecided, once | nbrs, twice | (once & nbrs), joined)
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
    forest kernel does.
    Only the exclude branch is cut: once an excluded vertex can no longer
    be dominated, as it has no potential neighbour left or, when H has no
    edge, only one, which itself has none left and so ends isolated.  The
    role choices of a component of two or more vertices depend only on its
    mask, so they are worked out once per mask and reused at every forest
    of the walk that holds it.
    """
    m, adj = g.order, g.adj
    full = (1 << m) - 1
    table: dict[tuple[int, int, int, int], list[tuple[int, int, int, int]]] = {}
    # per component mask: (twice, internal, choices) as returned by component
    facts: dict[int, tuple[int, int, list[tuple[int, int, int]]]] = {}

    def component(c: int) -> tuple[int, int, list[tuple[int, int, int]]]:
        """The vertices with two neighbours in the component ``c`` (the
        vertices a tree blocks, ``_forest_blocked``), its vertices of degree
        >= 2 (none for a K2), and its role choices as (BIG, ONE, UNIV)
        masks: per leaf a BIG or a UNIV fibre, or for a K2 one end BIG and
        the other ONE, or both UNIV."""
        twice = _forest_blocked(adj, c)
        if c.bit_count() == 2:
            a = c & -c
            return twice, 0, [(a, c ^ a, 0), (c ^ a, a, 0)] * has_big + [(0, 0, c)] * has_univ
        choices = [(0, 0, 0)]
        for v in iter_bits(c & ~twice):
            unit = [(1 << v, 0, 0)] * has_big + [(0, 0, 1 << v)] * has_univ
            choices = [(b | b2, o, u | u2) for b, o, u in choices for b2, _, u2 in unit]
        return twice, c & twice, choices

    def patterns(pmask: int, comps: list[int]) -> None:
        """Add each admissible role choice on the induced forest ``pmask``
        of G, whose components are ``comps``, to the table."""
        isolated = internal = dominated = 0
        units = []  # per component of two or more vertices: its role choices
        for c in comps:
            if not c & (c - 1):
                isolated |= c
                continue
            fact = facts.get(c)
            if fact is None:
                fact = facts[c] = component(c)
            twice, inner, choices = fact
            dominated |= twice  # two neighbours in c
            internal |= inner
            units.append(choices)
        if has_edge:
            for v in iter_bits(isolated):
                dominated |= adj[v]
        leaves = pmask & ~isolated & ~internal
        needs = []  # per undominated outside vertex: the neighbours one of which must be BIG
        for w in iter_bits(full & ~pmask & ~dominated):
            need = adj[w] & leaves
            if not need:
                return
            needs.append(need)
        n_iso, n_int = isolated.bit_count(), internal.bit_count()
        for choice in product(*units):
            big = one = univ = 0
            for b, o, u in choice:
                big |= b
                one |= o
                univ |= u
            if not all(need & big for need in needs):
                continue
            counts = (n_iso, n_int + one.bit_count(), univ.bit_count(), big.bit_count())
            table.setdefault(counts, []).append((isolated, internal | one, univ, big))

    def stranded(w: int, alive: int) -> bool:
        """Whether the excluded vertex w can no longer be dominated: it has
        no potential neighbour in ``alive``, or, when H has no edge, only
        one, which has no potential neighbour itself and so ends isolated."""
        near = adj[w] & alive
        if near & (near - 1):
            return False
        return not near or not (has_edge or adj[near.bit_length() - 1] & alive)

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
        # exclude v, unless that strands v, an excluded neighbour of v, or
        # one of a neighbour that v leaves with no potential neighbour
        potential = pmask | undecided
        check = nbrs & ~potential | bit
        if not has_edge:
            for a in iter_bits(nbrs & potential):
                if not adj[a] & potential:
                    check |= adj[a] & ~potential
        for w in iter_bits(check):
            if stranded(w, potential):
                return
        walk(i + 1, pmask, undecided, comps)

    walk(0, 0, full, [])
    return tuple((counts, tuple(pats)) for counts, pats in table.items())


class Fibres(NamedTuple):
    """What the profile of G∘H reads of H beyond G: its signature (whether
    it has an edge, a universal vertex, a maximal independent set of two or
    more vertices) and, per role (ISO, ONE, UNIV, BIG), the size histogram
    of the fibres the role allows as (size, number) pairs, and its smallest
    fibre of least and of greatest size (0 for a role H has no fibre for)."""

    signature: tuple[bool, bool, bool]
    hists: tuple[tuple[tuple[int, int], ...], ...]
    lows: tuple[int, ...]
    highs: tuple[int, ...]


@lru_cache(maxsize=256)
def _fibres(h: Graph) -> Fibres:
    """The ``Fibres`` record of H, read from its catalogues once per H and
    shared by every first factor."""
    from .independence import _independent_catalogue  # independence imports this module

    mis = _independent_catalogue(h).sets()
    options = (
        [s.mask for s in _forest_catalogue(h).sets()],
        [1 << x for x in range(h.order)],
        [s.mask for s in mis if len(s) == 1],
        [s.mask for s in mis if len(s) > 1],
    )
    hists = []
    for masks in options:
        hist: dict[int, int] = {}
        for mask in masks:
            k = mask.bit_count()
            hist[k] = hist.get(k, 0) + 1
        hists.append(tuple(sorted(hist.items())))
    return Fibres(
        (h.edge_count > 0, bool(options[_UNIV]), bool(options[_BIG])),
        tuple(hists),
        tuple(min(masks, key=lambda f: (f.bit_count(), f), default=0) for masks in options),
        tuple(min(masks, key=lambda f: (-f.bit_count(), f), default=0) for masks in options),
    )


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
    reads, the signature and each role's fibre size histogram and extreme
    fibres, is one record, ``_fibres``, cached per H and shared by every G.
    The fold here is the only work per pair: each pattern adds the
    convolution of its vertices' fibre size histograms to the total, so
    patterns with equal role counts are summed at once.

    A pattern's orders are the sums of one fibre size per vertex, so a
    pattern reaches the least (greatest) order of the product only if its
    least (greatest) sum is that order, and its forests of that order then
    take the least (greatest) fibre size of each vertex's role.  The fibres
    are disjoint bit blocks of the product, so the smallest such mask takes,
    per role, its smallest fibre of that size: it is the ``lift`` of the
    role masks with those fibres.  The catalogue's witness masks are the
    smallest masks of least and of greatest order, so they are the smallest
    of these lifts over the patterns that reach the extreme orders.  For
    |H| = 1 the product is G itself, with the same labels, so its own
    catalogue's record is returned.
    """
    if h.order == 1:
        return _forest_catalogue(g).aggregates
    fibres = _fibres(h)
    table = _role_patterns(g, *fibres.signature)

    total: dict[int, int] = {}
    for counts, pats in table:
        poly = {0: len(pats)}
        for r, k in enumerate(counts):
            for _ in range(k):
                poly = _convolve(poly, fibres.hists[r])
        for k, c in poly.items():
            total[k] = total.get(k, 0) + c
    witnesses = []
    n = h.order
    for t, extremes in ((min(total), fibres.lows), (max(total), fibres.highs)):
        witnesses.append(
            min(
                lift(zip(masks, extremes), n)
                for counts, pats in table
                if sum(k * f.bit_count() for k, f in zip(counts, extremes)) == t
                for masks in pats
            )
        )
    return Aggregates(g.order * n, tuple(sorted(total.items())), *witnesses)


def _forest_aggregates(g: Graph, max_order: int | None) -> Aggregates:
    """What the aggregate queries read: for a graph built by
    ``lexicographic`` the profile from its factors, else its catalogue's."""
    _within_bound(g.order, max_order)
    return _forest_catalogue(g).aggregates if g.factors is None else product_profile(*g.factors)


def enumerate_maximal_induced_forests(
    g: Graph, max_order: int | None = None
) -> list[VertexSubset]:
    """Exactly the maximal induced forests, each once, ascending by bitmask."""
    _within_bound(g.order, max_order)
    return _forest_catalogue(g).sets()


def maximal_forest_order_histogram(g: Graph, max_order: int | None = None) -> dict[int, int]:
    """Counts of maximal induced forests by order (component-wise convolution)."""
    return _forest_aggregates(g, max_order).histogram()


def forest_number(g: Graph, max_order: int | None = None) -> int:
    """Order of a maximum induced forest: |V| minus the minimum feedback vertex set."""
    return _forest_aggregates(g, max_order).number()


def is_well_f_covered(
    g: Graph, max_order: int | None = None
) -> tuple[bool, tuple[VertexSubset, VertexSubset] | None]:
    """Decide whether all maximal induced forests share one order.

    When they do not, also return a witness pair (smaller, larger).
    """
    return _forest_aggregates(g, max_order).uniform()


def _partition(n: int, adj: tuple[int, ...], forest: int, z_choice: str = "min") -> ForestPartition:
    """Sort the vertices of a forest mask of the graph (n, adj) by their
    role in its component: isolated vertices, leaves of components larger
    than an edge, vertices of degree >= 2, and the endpoints of the
    single-edge components, the ``z_choice`` one of each in Z."""
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
    z, t = (lo, hi) if z_choice == "min" else (hi, lo)
    return ForestPartition(*(VertexSubset(n, mask) for mask in (isolated, leaves, internal, z, t)))


def forest_stats(g: Graph, f: VertexSubset) -> ForestStats:
    """Count I(F), K2(F), L(F), L'(F) for an induced forest F."""
    _same_order(g, f)
    if _forest_blocked(g.adj, f.mask) < 0:
        raise ValueError("subset does not induce a forest")
    return _partition(g.order, g.adj, f.mask).stats


def forest_partition(g: Graph, f: VertexSubset, z_choice: str = "min") -> ForestPartition:
    """Split a maximal forest into the X1/X2/Y/Z/T classes.

    ``z_choice`` picks the representative endpoint of each single-edge
    component ("min" or "max" vertex index); any choice is mathematically
    valid, fixing one makes runs reproducible.
    """
    if z_choice not in Z_CHOICES:
        raise ValueError(f"z_choice must be one of {Z_CHOICES}, got {z_choice!r}")
    _same_order(g, f)
    if not _is_maximal_forest_mask(g.order, g.adj, f.mask):
        raise ValueError("witness constructions require a maximal induced forest")
    return _partition(g.order, g.adj, f.mask, z_choice)
