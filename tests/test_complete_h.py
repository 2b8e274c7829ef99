"""The complete-H theorem against an independent brute force.

The maximal forest orders of G∘K_m (m >= 2) are the values |P| + i(P) over
the K-dominating induced forests P of G; ``complete_h_sweep`` finds those
values with networkx over every vertex subset of G and compares them with
the orders from the product profile and from the kernel.
"""

from __future__ import annotations

import pytest

from conftest import to_nx
from wfcover import enumerate_maximal_induced_forests, from_graph6

import complete_h_sweep

# the smallest first factors for which thm35 against K2 or K3 reports
# non_sufficiency_witness
ORDER_8 = ("GhoGL_", "Ggogdg", "GIc`MG", "GhNGCc", "GxU?Kw")


def test_atlas_le6_with_k2_and_k3(atlas_le6):
    reasons = []
    for g in atlas_le6:
        brute = complete_h_sweep.k_dominating_values(g)
        reasons += [complete_h_sweep.mismatch(g, m, brute) for m in (2, 3)]
    assert len(reasons) == 416
    assert [r for r in reasons if r is not None] == []


@pytest.mark.parametrize("g6", ORDER_8)
def test_order_8_witnesses_with_k2_and_k3(g6):
    g = from_graph6(g6.encode())
    brute = complete_h_sweep.k_dominating_values(g)
    assert brute == {5, 6}
    assert [complete_h_sweep.mismatch(g, m, brute) for m in (2, 3)] == [None, None]


def test_order_5_value_comes_from_a_forest_that_is_not_maximal():
    # for GhoGL_ the P behind order 5 has one isolated vertex; it is not a
    # maximal forest of G, so no condition of thm35 reads it
    g = from_graph6(b"GhoGL_")
    G, P = to_nx(g), {0, 2, 5, 7}
    assert complete_h_sweep.is_k_dominating(G, P)
    assert complete_h_sweep.value(G, P) == 5
    assert P not in [set(f.vertices()) for f in enumerate_maximal_induced_forests(g)]
