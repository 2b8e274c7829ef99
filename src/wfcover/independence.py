"""Maximal independent sets, independence number, well-covered decision.

Mirrors the forest enumeration: an exhaustive include/exclude scan per
connected component with domination pruning, one representative per orbit
of swapping twins, combined and expanded by the same catalogue, canonical
ascending order.
"""

from __future__ import annotations

from functools import lru_cache

from .graphs import Graph, VertexSubset, iter_bits
from .forests import Catalogue, _same_order, _within_bound


def is_maximal_independent_set(g: Graph, s: VertexSubset) -> bool:
    """True iff ``s`` is independent and dominates every outside vertex."""
    _same_order(g, s)
    covered = s.mask
    for v in iter_bits(s.mask):
        if g.adj[v] & s.mask:
            return False
        covered |= g.adj[v]
    return covered == g.vertices_mask


def _maximal_independent_masks(n: int, adj: tuple[int, ...], prev: tuple[int, ...]) -> list[int]:
    """The maximal independent set masks of the graph (n, adj) that include
    a vertex ``i`` only with its previous twin ``prev[i]`` (-1 for none)."""
    full = (1 << n) - 1
    out: list[int] = []

    def decide(i: int, smask: int, undecided: int, covered: int) -> None:
        if i == n:
            if covered == full:
                out.append(smask)
            return
        bit = 1 << i
        undecided &= ~bit
        p = prev[i]
        if not adj[i] & smask and (p < 0 or smask >> p & 1):
            decide(i + 1, smask | bit, undecided, covered | adj[i] | bit)
        # exclude i: dead end unless some chosen or future vertex can dominate i
        if adj[i] & (smask | undecided):
            decide(i + 1, smask, undecided, covered)

    decide(0, 0, full, 0)
    return out


@lru_cache(maxsize=256)
def _independent_catalogue(g: Graph) -> Catalogue:
    return Catalogue.build(g, _maximal_independent_masks)


def enumerate_maximal_independent_sets(
    g: Graph, max_order: int | None = None
) -> list[VertexSubset]:
    """Exactly the maximal independent sets, each once, ascending by bitmask."""
    _within_bound(g.order, max_order)
    return _independent_catalogue(g).sets()


def independence_number(g: Graph, max_order: int | None = None) -> int:
    """Size of a maximum independent set."""
    _within_bound(g.order, max_order)
    return _independent_catalogue(g).aggregates.number()


def is_well_covered(
    g: Graph, max_order: int | None = None
) -> tuple[bool, tuple[VertexSubset, VertexSubset] | None]:
    """Decide whether all maximal independent sets share one size.

    When they do not, also return a witness pair (smaller, larger).
    """
    _within_bound(g.order, max_order)
    return _independent_catalogue(g).aggregates.uniform()
