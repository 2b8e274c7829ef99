"""Lexicographic (composition) product of graphs and its vertex bookkeeping.

The product G∘H puts a copy of H at every vertex of G; (g1,h1) and (g2,h2)
are adjacent iff g1g2 is an edge of G, or g1=g2 and h1h2 is an edge of H.
Product vertices are numbered row-major: (g, h) -> g*|V(H)| + h.  This
module is the one home of that layout: a set of product vertices that is a
union of blocks gmask × hmask is built by ``lift``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import Graph, VertexSubset


@dataclass(frozen=True)
class ProductIndexMap:
    """Bijection between product vertices and (first, second) factor pairs."""

    g_order: int
    h_order: int

    @property
    def order(self) -> int:
        return self.g_order * self.h_order

    def encode(self, gv: int, hv: int) -> int:
        if not 0 <= gv < self.g_order:
            raise ValueError(f"first-factor vertex {gv} out of range")
        if not 0 <= hv < self.h_order:
            raise ValueError(f"second-factor vertex {hv} out of range")
        return gv * self.h_order + hv

    def decode(self, v: int) -> tuple[int, int]:
        if not 0 <= v < self.order:
            raise ValueError(f"product vertex {v} out of range")
        return divmod(v, self.h_order)

    def subset_from_pairs(self, pairs: Iterable[tuple[int, int]]) -> VertexSubset:
        """Encode a set of (g, h) pairs as a product vertex subset.

        Duplicate pairs collapse; out-of-range pairs raise ValueError.
        """
        mask = 0
        for gv, hv in pairs:
            mask |= 1 << self.encode(gv, hv)
        return VertexSubset(self.order, mask)


def lift(blocks: Iterable[tuple[int, int]], h_order: int) -> int:
    """The union of the blocks ``gmask × hmask`` of G∘H, as a product mask:
    the fibre of each vertex g of ``gmask`` holds ``hmask`` in its bit block
    starting at g*h_order."""
    mask = 0
    for gmask, hmask in blocks:
        while gmask:
            low = gmask & -gmask
            mask |= hmask << (low.bit_length() - 1) * h_order
            gmask ^= low
    return mask


def lexicographic(g: Graph, h: Graph) -> tuple[Graph, ProductIndexMap]:
    """Build G∘H together with the row-major index map.  The product
    remembers its factors, so its forest aggregates come from them
    (``forests.product_profile``).

    |V| = |V(G)|*|V(H)| and |E| = |E(G)|*|V(H)|^2 + |V(G)|*|E(H)|.  Orders
    above the graph6 export limit construct fine in memory; only the
    ``product`` command, which writes graph6, warns about them.
    """
    m, n = g.order, h.order
    order = m * n
    h_block = (1 << n) - 1
    rows = []
    for a in range(m):
        # every product vertex whose first factor is a neighbour of a
        cross = lift(((g.adj[a], h_block),), n)
        base = a * n
        for i in range(n):
            rows.append(cross | (h.adj[i] << base))
    name = None
    if g.name and h.name:
        name = f"lex({g.name},{h.name})"
    return Graph._built(order, tuple(rows), name, (g, h)), ProductIndexMap(m, n)
