"""Parity sweep of the product profile against the forest kernel.

For every pair (G, H) of the sweeps below, drawn from networkx's graph atlas
(every graph of order 1-7), ``forests.product_profile(G, H)`` must give the
whole record that the kernel gives on the factor-less copy ``Graph(p.order,
p.adj)`` of G∘H: the order, the size counts and the smallest masks of least
and of greatest size, which ``uniform()`` exposes only when the sizes
differ.  Every product has at most 24 vertices, the enumeration bound.
This is the gate for any change to the profile; pytest does not collect it.

    python tests/profile_sweep.py

prints per sweep and in total the pairs, the role-pattern tables built (the
misses of ``forests._role_patterns``, cached per G and signature of H; the
sweeps run G-major, as a census pairs each G with every H of a file), the
mismatches and the seconds, and exits 1 on any mismatch.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from networkx.generators.atlas import graph_atlas_g

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wfcover import Graph, lexicographic  # noqa: E402
from wfcover.forests import (  # noqa: E402
    Catalogue,
    _maximal_forest_masks,
    _role_patterns,
    product_profile,
)

# (orders of G, orders of H)
SWEEPS = (
    ((1, 2, 3, 4), (1, 2, 3, 4)),
    ((5, 6), (1, 2, 3, 4)),
    ((1, 2, 3, 4), (5, 6)),
    ((7,), (1, 2, 3)),
    ((1, 2, 3), (7,)),
)


def main() -> int:
    atlas: dict[int, list[Graph]] = {}
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if n:
            atlas.setdefault(n, []).append(Graph.from_edges(n, list(G.edges())))
    start = time.perf_counter()
    pairs = mismatches = 0
    for g_orders, h_orders in SWEEPS:
        sweep_start = time.perf_counter()
        builds_before = _role_patterns.cache_info().misses
        sweep_pairs = sweep_mismatches = 0
        for g in (g for n in g_orders for g in atlas[n]):
            for h in (h for n in h_orders for h in atlas[n]):
                p, _ = lexicographic(g, h)
                kernel = Catalogue.build(Graph(p.order, p.adj), _maximal_forest_masks)
                sweep_pairs += 1
                if tuple(product_profile(g, h)) != tuple(kernel.aggregates):
                    sweep_mismatches += 1
                    print(f"mismatch: G {g.order} {g.edges()}  H {h.order} {h.edges()}",
                          file=sys.stderr)
        print(f"G of order {'/'.join(map(str, g_orders))} x H of order "
              f"{'/'.join(map(str, h_orders))}: {sweep_pairs} pairs, "
              f"{_role_patterns.cache_info().misses - builds_before} table builds, "
              f"{sweep_mismatches} mismatches, {time.perf_counter() - sweep_start:.1f} s")
        pairs += sweep_pairs
        mismatches += sweep_mismatches
    print(f"total: {pairs} pairs, {_role_patterns.cache_info().misses} table builds, "
          f"{mismatches} mismatches, {time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
