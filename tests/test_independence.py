"""Maximal independent sets, independence number, well-covered decision."""

from __future__ import annotations

import networkx as nx
import pytest

from wfcover import (
    Graph,
    VertexSubset,
    enumerate_maximal_independent_sets,
    generate,
    independence_number,
    is_induced_forest,
    is_maximal_independent_set,
    is_well_covered,
    parse_family,
)

from conftest import naive_maximal_independent, to_nx


def fam(text: str) -> Graph:
    return generate(parse_family(text))


class TestEnumeration:
    def test_k2(self):
        sets = enumerate_maximal_independent_sets(fam("complete:2"))
        assert [s.vertices() for s in sets] == [(0,), (1,)]

    def test_c4_diagonals(self):
        sets = enumerate_maximal_independent_sets(fam("cycle:4"))
        assert {s.vertices() for s in sets} == {(0, 2), (1, 3)}

    def test_fig1_all_size_two(self):
        sets = enumerate_maximal_independent_sets(fam("fig1"))
        assert sets and all(len(s) == 2 for s in sets)

    def test_matches_naive_oracle_le4(self, atlas_le4):
        for g in atlas_le4:
            ours = {frozenset(s.vertices()) for s in enumerate_maximal_independent_sets(g)}
            assert ours == naive_maximal_independent(g), g.edges()

    def test_matches_complement_clique_oracle_le6(self, atlas_le6):
        for g in atlas_le6:
            ours = {frozenset(s.vertices()) for s in enumerate_maximal_independent_sets(g)}
            cliques = {frozenset(c) for c in nx.find_cliques(nx.complement(to_nx(g)))}
            assert ours == cliques, g.edges()

    def test_every_maximal_independent_set_is_a_forest_le6(self, atlas_le6):
        for g in atlas_le6:
            for s in enumerate_maximal_independent_sets(g):
                assert is_induced_forest(g, s)

    def test_deterministic_ascending(self):
        g = fam("fig1")
        sets = enumerate_maximal_independent_sets(g)
        assert sets == enumerate_maximal_independent_sets(g)
        masks = [s.mask for s in sets]
        assert masks == sorted(masks)


class TestIndependenceNumber:
    @pytest.mark.parametrize(
        "family,expected",
        [("cycle:5", 2), ("cycle:4", 2), ("complete:3", 1), ("complete:6", 1), ("empty:4", 4)],
    )
    def test_known_values(self, family, expected):
        assert independence_number(fam(family)) == expected


class TestWellCovered:
    def test_c5_and_fig1_are_well_covered(self):
        assert is_well_covered(fam("cycle:5")) == (True, None)
        assert is_well_covered(fam("fig1")) == (True, None)

    def test_p4_is_well_covered(self):
        # P4's maximal independent sets are {0,2}, {0,3}, {1,3}: all of size 2.
        wc, witness = is_well_covered(fam("path:4"))
        assert wc and witness is None

    def test_p3_is_not_well_covered(self):
        wc, witness = is_well_covered(fam("path:3"))
        assert not wc
        assert sorted((len(witness[0]), len(witness[1]))) == [1, 2]
        assert is_maximal_independent_set(fam("path:3"), witness[0])
        assert is_maximal_independent_set(fam("path:3"), witness[1])


class TestMaximalityPredicate:
    def test_examples(self):
        c4 = fam("cycle:4")
        assert is_maximal_independent_set(c4, VertexSubset.from_vertices(4, [0, 2]))
        assert not is_maximal_independent_set(c4, VertexSubset.from_vertices(4, [0]))
        assert not is_maximal_independent_set(c4, VertexSubset.from_vertices(4, [0, 1]))
