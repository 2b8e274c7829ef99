"""Lexicographic product construction and index bookkeeping."""

from __future__ import annotations

import logging
import random

import pytest

from wfcover import (
    Graph,
    generate,
    is_well_f_covered,
    lexicographic,
    parse_family,
    VertexSubset,
)

from wfcover.graphs import iter_bits
from wfcover.products import ProductIndexMap, lift

from conftest import atlas_graphs, connected_components, induced_subgraph


def fam(text: str) -> Graph:
    return generate(parse_family(text))


class TestAdjacencyRule:
    def test_k1_second_factor_is_identity(self):
        for g in atlas_graphs(4):
            product, _ = lexicographic(g, fam("complete:1"))
            assert product.adj == g.adj

    def test_k1_first_factor_is_identity(self):
        for h in atlas_graphs(4):
            product, _ = lexicographic(fam("complete:1"), h)
            assert product.adj == h.adj

    def test_empty_first_factor_gives_disjoint_copies(self):
        h = fam("cycle:4")
        for m in (2, 3):
            product, index_map = lexicographic(fam(f"empty:{m}"), h)
            comps = connected_components(product)
            assert len(comps) == m
            for comp in comps:
                copy = induced_subgraph(product, VertexSubset.from_vertices(product.order, comp))
                assert copy == Graph(h.order, h.adj)

    def test_empty_times_empty_is_empty_and_wfc(self):
        product, _ = lexicographic(fam("empty:3"), fam("empty:2"))
        assert product.edge_count == 0
        assert is_well_f_covered(product)[0]

    def test_path4_with_two_copies_edge_count(self):
        product, _ = lexicographic(fam("path:4"), fam("empty:2"))
        assert product.order == 8
        assert product.edge_count == 3 * 2 * 2 + 4 * 0

    def test_order_and_edge_identity_le4(self, atlas_le4):
        for g in atlas_le4:
            for h in atlas_le4:
                product, _ = lexicographic(g, h)
                assert product.order == g.order * h.order
                assert (
                    product.edge_count
                    == g.edge_count * h.order * h.order + g.order * h.edge_count
                )

    def test_explicit_adjacency(self):
        g = fam("path:2")
        h = fam("empty:2")
        product, index_map = lexicographic(g, h)  # K2 o 2K1 = C4 on the crossing pairs
        assert product.has_edge(index_map.encode(0, 0), index_map.encode(1, 1))
        assert product.has_edge(index_map.encode(0, 1), index_map.encode(1, 0))
        assert not product.has_edge(index_map.encode(0, 0), index_map.encode(0, 1))

    def test_no_warning_above_graph6_limit(self, caplog):
        # only the product command writes graph6, so only it warns (test_cli)
        with caplog.at_level(logging.DEBUG, logger="wfcover"):
            product, _ = lexicographic(fam("cycle:8"), fam("cycle:8"))
        assert product.order == 64
        assert caplog.records == []


class TestIndexMap:
    def test_encode_decode_inverse(self):
        _, index_map = lexicographic(fam("path:3"), fam("cycle:4"))
        for v in range(index_map.order):
            assert index_map.encode(*index_map.decode(v)) == v

    def test_single_pair(self):
        _, index_map = lexicographic(fam("path:2"), fam("cycle:4"))
        assert index_map.subset_from_pairs([(0, 0)]).vertices() == (0,)

    def test_example_product_subset_has_six_vertices(self):
        _, index_map = lexicographic(fam("cycle:5"), fam("cycle:4"))
        pairs = [(0, 0), (0, 2), (1, 0), (2, 0), (3, 0), (3, 2)]
        subset = index_map.subset_from_pairs(pairs)
        assert len(subset) == 6
        assert subset.vertices() == (0, 2, 4, 8, 12, 14)

    def test_duplicates_collapse(self):
        _, index_map = lexicographic(fam("path:2"), fam("path:2"))
        a = index_map.subset_from_pairs([(0, 1), (0, 1), (1, 0)])
        b = index_map.subset_from_pairs([(0, 1), (1, 0)])
        assert a == b

    @pytest.mark.parametrize("v", [-1, 6])
    def test_decode_rejects_out_of_range(self, v):
        _, index_map = lexicographic(fam("path:2"), fam("path:3"))
        with pytest.raises(ValueError) as err:
            index_map.decode(v)
        assert str(err.value) == f"product vertex {v} out of range"

    def test_out_of_range_pair(self):
        _, index_map = lexicographic(fam("path:2"), fam("path:2"))
        with pytest.raises(ValueError):
            index_map.subset_from_pairs([(2, 0)])
        with pytest.raises(ValueError):
            index_map.subset_from_pairs([(0, 2)])


class TestLift:
    def test_matches_the_index_map_on_random_blocks(self):
        rng = random.Random(7)
        for _ in range(300):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            blocks = [
                (rng.getrandbits(m), rng.getrandbits(n)) for _ in range(rng.randint(0, 4))
            ]
            pairs = [(gv, hv) for gm, hm in blocks for gv in iter_bits(gm) for hv in iter_bits(hm)]
            expected = ProductIndexMap(m, n).subset_from_pairs(pairs)
            assert lift(blocks, n) == expected.mask
