"""The maximal forest orders of G∘K_m, m >= 2, read off G alone.

Call an induced forest P of G *K-dominating* if every vertex outside P has
a neighbour isolated in G[P], or two neighbours in one component of G[P],
and write i(P) for the number of isolated vertices of G[P].  The orders of
the maximal induced forests of G∘K_m are exactly the values |P| + i(P) over
the K-dominating P (README, "A complete second factor").

``k_dominating_values(g)`` finds those values by brute force with networkx
over every vertex subset of G, without the forest kernel or the product
profile.  ``orders(g, m)`` gives the maximal forest orders of G∘K_m twice:
from the product profile, and from the kernel on the factor-less copy
``Graph(p.order, p.adj)`` of the product.  This script compares the three
for every graph of order 1-7 in networkx's graph atlas against K2 and K3
(2 504 pairs), prints the pairs, the mismatches and the seconds, and exits 1
on any mismatch; ``tests/test_complete_h.py`` runs the same comparison on
the atlas up to order 6 and on five graphs of order 8.  pytest does not
collect this file.

    python tests/complete_h_sweep.py
"""

from __future__ import annotations

import sys
import time
from itertools import combinations
from pathlib import Path

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wfcover import FamilySpec, Graph, generate, lexicographic  # noqa: E402
from wfcover import maximal_forest_order_histogram  # noqa: E402


def is_k_dominating(G: nx.Graph, P: set[int]) -> bool:
    """Whether ``P`` induces a forest of ``G`` that every outside vertex
    meets in an isolated vertex or in two vertices of one component."""
    F = G.subgraph(P)
    if not P or not nx.is_forest(F):
        return False
    component = {v: i for i, comp in enumerate(nx.connected_components(F)) for v in comp}
    for v in set(G) - P:
        inside = [u for u in G[v] if u in P]
        hit = [component[u] for u in inside]
        if not any(F.degree(u) == 0 for u in inside) and len(set(hit)) == len(hit):
            return False
    return True


def value(G: nx.Graph, P: set[int]) -> int:
    """|P| + i(P)."""
    return len(P) + sum(1 for v in P if not any(u in P for u in G[v]))


def k_dominating_values(g: Graph) -> set[int]:
    """|P| + i(P) over every K-dominating vertex subset P of ``g``."""
    G = nx.Graph()
    G.add_nodes_from(range(g.order))
    G.add_edges_from(g.edges())
    return {
        value(G, set(P))
        for k in range(g.order + 1)
        for P in combinations(range(g.order), k)
        if is_k_dominating(G, set(P))
    }


def orders(g: Graph, m: int) -> tuple[set[int], set[int]]:
    """The maximal forest orders of G∘K_m from the product profile and from
    the kernel on a factor-less copy of the product."""
    p, _ = lexicographic(g, generate(FamilySpec("complete", m)))
    kernel = maximal_forest_order_histogram(Graph(p.order, p.adj))
    return set(maximal_forest_order_histogram(p)), set(kernel)


def mismatch(g: Graph, m: int, brute: set[int]) -> str | None:
    """Why ``brute``, the values of ``k_dominating_values(g)``, and the two
    order sets of G∘K_m differ, or None when they agree."""
    profile, kernel = orders(g, m)
    if brute == profile == kernel:
        return None
    return (f"G {g.order} {g.edges()} with K{m}: brute force {sorted(brute)}, "
            f"profile {sorted(profile)}, kernel {sorted(kernel)}")


def main() -> int:
    start = time.perf_counter()
    pairs = mismatches = 0
    for G in graph_atlas_g():
        n = G.number_of_nodes()
        if not 1 <= n <= 7:
            continue
        g = Graph.from_edges(n, list(G.edges()))
        brute = k_dominating_values(g)
        for m in (2, 3):
            pairs += 1
            reason = mismatch(g, m, brute)
            if reason is not None:
                mismatches += 1
                print(f"mismatch: {reason}", file=sys.stderr)
    print(f"G of order 1-7 x K2, K3: {pairs} pairs, {mismatches} mismatches, "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
