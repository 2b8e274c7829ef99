"""Maximal independent sets, independence number, well-covered decision.

Mirrors the forest enumeration: an exhaustive include/exclude scan per
connected component, in the graph's own labels along the catalogue's
decision sequence, one representative per orbit of swapping twins,
combined and expanded by the same catalogue, canonical ascending order.
The scan cuts an exclusion that strands a vertex: one that nothing covers
and that has no neighbour left that could still join.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, VertexSubset, iter_bits
from .forests import Catalogue, _same_order


def is_maximal_independent_set(g: Graph, s: VertexSubset) -> bool:
    """True iff ``s`` is independent and dominates every outside vertex."""
    _same_order(g, s)
    covered = s.mask
    for v in iter_bits(s.mask):
        if g.adj[v] & s.mask:
            return False
        covered |= g.adj[v]
    return covered == g.vertices_mask


def _maximal_independent_masks(
    comp: int, adj: tuple[int, ...], sequence: tuple[int, ...], prev: tuple[int, ...]
) -> list[int]:
    """The maximal independent set masks of the component ``comp`` of the
    graph with rows ``adj`` that include the vertex ``sequence[i]`` only
    with its previous twin ``prev[i]`` (-1 for none), in the graph's own
    labels.

    Include/exclude walk over the vertices of ``sequence``.  ``covered``
    holds the chosen set ``smask`` and its neighbours; an undecided vertex
    in it can no longer join, so the vertices that still can are
    ``undecided & ~covered``.  An excluded vertex that nothing covers and
    that has no neighbour among them is never dominated, so its branch holds
    no maximal independent set and is cut.  Excluding a vertex ``v`` removes
    a candidate only from the neighbours of ``v``, so the exclude branch
    re-checks ``v`` and its excluded neighbours that nothing covers: those
    among the decided vertices ``~undecided``, the prefix of the sequence
    (C30: 27 821 nodes for 4 610 sets, where a test of ``v`` against
    ``smask | undecided`` alone reaches 4 870 845).  Including ``v`` covers
    its neighbours, which can strand an excluded vertex at distance two;
    that is left to the leaf test ``covered == comp``, since re-checking
    those vertices cost more than it saved on random graphs."""
    n = len(sequence)
    out: list[int] = []

    def decide(i: int, smask: int, undecided: int, covered: int) -> None:
        if i == n:
            if covered == comp:
                out.append(smask)
            return
        v = sequence[i]
        bit = 1 << v
        undecided &= ~bit
        nbrs = adj[v]
        p = prev[i]
        if not nbrs & smask and (p < 0 or smask >> p & 1):
            decide(i + 1, smask | bit, undecided, covered | nbrs | bit)
        # exclude v: dead end if v, uncovered, or an uncovered excluded
        # neighbour of v, which had v as a candidate, has no neighbour left
        # that can still join (an undecided vertex nothing covers)
        free = undecided & ~covered
        if not covered & bit and not nbrs & free:
            return
        check = nbrs & ~undecided & ~covered
        while check:
            low = check & -check
            if not adj[low.bit_length() - 1] & free:
                return
            check ^= low
        decide(i + 1, smask, undecided, covered)

    decide(0, 0, comp, 0)
    return out


@lru_cache(maxsize=256)
def _independent_catalogue(g: Graph) -> Catalogue:
    return Catalogue.build(g, _maximal_independent_masks)


def enumerate_maximal_independent_sets(g: Graph) -> list[VertexSubset]:
    """Exactly the maximal independent sets, each once, ascending by bitmask."""
    return _independent_catalogue(g).sets()


def independence_number(g: Graph) -> int:
    """Size of a maximum independent set."""
    return _independent_catalogue(g).aggregates.number()


def is_well_covered(g: Graph) -> tuple[bool, tuple[VertexSubset, VertexSubset] | None]:
    """Decide whether all maximal independent sets share one size.

    When they do not, also return a witness pair (smaller, larger).
    """
    return _independent_catalogue(g).aggregates.uniform()
