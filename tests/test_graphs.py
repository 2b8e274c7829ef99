"""Families, invariants, and elementary operations of the graph core."""

from __future__ import annotations

import pickle
from dataclasses import replace
from enum import IntEnum

import pytest
from hypothesis import given, settings, strategies as st

from wfcover import (
    FamilyError,
    FamilySpec,
    Graph,
    VertexSubset,
    from_graph6,
    generate,
    forest_number,
    is_induced_forest,
    lexicographic,
    parse_family,
    to_graph6,
)
from wfcover.graphs import FIG1_EDGES

from conftest import (
    connected_components,
    dfs_has_cycle,
    disjoint_union,
    edgewise_symmetry_error,
    induced_subgraph,
)


def fam(text: str) -> Graph:
    return generate(parse_family(text))


class TestFamilies:
    def test_path4(self):
        g = fam("path:4")
        assert g.order == 4
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_cycle5(self):
        g = fam("cycle:5")
        assert g.order == 5
        assert g.edge_count == 5
        assert all(g.degree(v) == 2 for v in range(5))

    def test_fig1(self):
        g = fam("fig1")
        assert g.order == 5
        assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in FIG1_EDGES)
        # the a,d,e triangle: a=0, d=3, e=4
        assert g.has_edge(0, 3) and g.has_edge(0, 4) and g.has_edge(3, 4)

    def test_complete_and_empty(self):
        assert fam("complete:4").edge_count == 6
        assert fam("empty:3").edge_count == 0

    @pytest.mark.parametrize("bad", ["cycle:2", "path:0", "empty:0", "complete:-1"])
    def test_invalid_parameters(self, bad):
        with pytest.raises(FamilyError):
            generate(parse_family(bad))

    @pytest.mark.parametrize("k", [None, True, 3.0, "3"])
    def test_size_parameter_must_be_an_int(self, k):
        with pytest.raises(FamilyError, match=r"^path needs a positive size parameter$"):
            FamilySpec("path", k)

    def test_parse_rejects_garbage(self):
        with pytest.raises(FamilyError):
            parse_family("median:3")
        with pytest.raises(FamilyError):
            parse_family("path")
        with pytest.raises(FamilyError):
            parse_family("path:x")
        with pytest.raises(FamilyError):
            FamilySpec("fig1", 3)


class TestGraphInvariants:
    def test_rejects_vertexless(self):
        with pytest.raises(ValueError):
            Graph(0, ())

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            Graph(2, (0b10, 0b00))
        # one-sided pairs 5->3 and 2->4: the message names the one in row 2
        rows = (0, 0, 1 << 4, 0, 0, 1 << 3)
        with pytest.raises(ValueError, match=r"^adjacency not symmetric between 4 and 2$"):
            Graph(6, rows)

    @settings(max_examples=300)
    @given(st.data())
    def test_symmetry_decision_and_message_match_the_edgewise_rule(self, data):
        # a symmetric graph up to order 70, with a few one-sided pairs on top
        n = data.draw(st.integers(1, 70))
        rows = [0] * n
        for u, v in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
            if u != v:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        for u, v in data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
            if u != v:
                rows[u] ^= 1 << v
        adj = tuple(rows)
        expected = edgewise_symmetry_error(adj)
        if expected is None:
            assert Graph(n, adj).adj == adj
        else:
            with pytest.raises(ValueError) as err:
                Graph(n, adj)
            assert str(err.value) == expected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    @pytest.mark.parametrize(
        "order,adj,message",
        [
            (3, (0, 0), "adjacency row count must equal the order"),
            (2, (0b10, 0b101), "adjacency row 1 mentions vertices outside the graph"),
            (3, (0, 0b10, 0), "self-loop at vertex 1"),
            (2, (0b10, "1"), "adjacency row 1 is not an int: '1'"),
            (2, (0b10, 1.0), "adjacency row 1 is not an int: 1.0"),
            (2.0, (0b10, 0b1), "order is not an int: 2.0"),
            ("2", (0b10, 0b1), "order is not an int: '2'"),
            (True, (0,), "order is not an int: True"),
            (2, (2, True), "adjacency row 1 is not an int: True"),
        ],
    )
    def test_public_rows_are_rejected_by_name(self, order, adj, message):
        with pytest.raises(ValueError) as err:
            Graph(order, adj)
        assert str(err.value) == message

    @pytest.mark.parametrize("edges", [[], [(0, 1)], [(0, 0)]])
    def test_from_edges_rejects_vertexless_before_any_edge(self, edges):
        with pytest.raises(ValueError) as err:
            Graph.from_edges(0, edges)
        assert str(err.value) == "graphs must have at least one vertex"

    @pytest.mark.parametrize(
        "order,edges,message",
        [
            (2.0, [], "order is not an int: 2.0"),
            ("3", [(0, 1)], "order is not an int: '3'"),
            (3, [(0, 1.0)], "edge (0, 1.0) has an endpoint that is not an int"),
            (3, [("0", 1)], "edge ('0', 1) has an endpoint that is not an int"),
            (True, [], "order is not an int: True"),
            (3, [(0, True)], "edge (0, True) has an endpoint that is not an int"),
        ],
    )
    def test_from_edges_rejects_non_ints_by_name(self, order, edges, message):
        with pytest.raises(ValueError) as err:
            Graph.from_edges(order, edges)
        assert str(err.value) == message

    def test_list_rows_are_stored_as_a_tuple(self):
        g = Graph(3, [6, 5, 3])
        assert g.adj == (6, 5, 3) and type(g.adj) is tuple
        twin = Graph(3, (6, 5, 3))
        assert g == twin and hash(g) == hash(twin)
        assert forest_number(g) == 2

    def test_constructors_produce_symmetric_irreflexive(self, atlas_le4, atlas_le5):
        # the builders' graphs skip the public row checks, so they must pass them
        families = [fam(t) for t in ("fig1", "path:1", "path:6", "cycle:5", "complete:5", "empty:4")]
        decoded = [from_graph6(to_graph6(g)) for g in atlas_le5]
        products = [lexicographic(g, h)[0] for g in atlas_le4 for h in atlas_le4]
        for g in [*atlas_le5, *families, *decoded, *products]:
            checked = Graph(g.order, g.adj)
            assert checked == g and hash(checked) == hash(g)
            assert vars(g)["edge_count"] == checked.edge_count
            for v in range(g.order):
                assert not g.has_edge(v, v)
                for u in range(g.order):
                    assert g.has_edge(u, v) == g.has_edge(v, u)

    def test_equality_ignores_name(self):
        a = fam("cycle:4")
        b = Graph(a.order, a.adj, name="other")
        assert a == b and hash(a) == hash(b)

    def test_edge_count_is_counted_once_and_stays_out_of_identity(self):
        g = fam("fig1")
        assert vars(g)["edge_count"] == len(g.edges()) == 6  # a stored field, not a property
        assert repr(g) == "Graph(order=5, adj=(26, 5, 10, 21, 9), name='fig1')"
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and hash(copy) == hash(g) and copy.edge_count == 6
        with pytest.raises(TypeError):
            Graph(2, (2, 1), edge_count=1)


class TestVertexSubset:
    def test_from_vertices_roundtrip(self):
        s = VertexSubset.from_vertices(5, [3, 1])
        assert s.vertices() == (1, 3)
        assert len(s) == 2
        assert 3 in s and 0 not in s

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            VertexSubset.from_vertices(3, [3])
        with pytest.raises(ValueError):
            VertexSubset(3, 0b1000)

    @pytest.mark.parametrize(
        "order,mask,message",
        [
            (3, 1.0, "mask is not an int: 1.0"),
            (3.0, 1, "order is not an int: 3.0"),
            (True, 1, "order is not an int: True"),
            (3, True, "mask is not an int: True"),
            (False, 0, "order is not an int: False"),
            (3, False, "mask is not an int: False"),
            ("3", 1, "order is not an int: '3'"),
            (3, "3", "mask is not an int: '3'"),
        ],
    )
    def test_non_int_fields_are_rejected_by_name(self, order, mask, message):
        with pytest.raises(ValueError) as err:
            VertexSubset(order, mask)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            replace(VertexSubset(3, 1), order=order, mask=mask)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "order,mask,message",
        [
            (3, -1, "subset mentions vertices outside the host graph"),
            (3, 0b1000, "subset mentions vertices outside the host graph"),
            (64, 1 << 64, "subset mentions vertices outside the host graph"),
            (-2, 0, "host order must be positive"),
        ],
    )
    def test_out_of_range_fields_are_rejected(self, order, mask, message):
        with pytest.raises(ValueError) as err:
            VertexSubset(order, mask)
        assert str(err.value) == message
        with pytest.raises(ValueError) as err:
            replace(VertexSubset(3, 1), order=order, mask=mask)
        assert str(err.value) == message

    def test_int_subclasses_other_than_bool_are_ints(self):
        class Size(IntEnum):
            SIX = 6
            LOW = 0b101

        s = VertexSubset(Size.SIX, Size.LOW)
        assert s == VertexSubset(6, 5) and hash(s) == hash(VertexSubset(6, 5))
        assert s.vertices() == (0, 2) and len(s) == 2

    @pytest.mark.parametrize(
        "order,vertices,message",
        [
            (3, [1.0], "vertex is not an int: 1.0"),
            (3, [0, "2"], "vertex is not an int: '2'"),
            ("3", [1], "order is not an int: '3'"),
            (3, [True], "vertex is not an int: True"),
            (True, [0], "order is not an int: True"),
        ],
    )
    def test_from_vertices_rejects_non_ints_by_name(self, order, vertices, message):
        with pytest.raises(ValueError) as err:
            VertexSubset.from_vertices(order, vertices)
        assert str(err.value) == message

    def test_rejects_hostless(self):
        with pytest.raises(ValueError) as err:
            VertexSubset(0, 0)
        assert str(err.value) == "host order must be positive"

    def test_forest_test_rejects_a_subset_of_another_order(self):
        with pytest.raises(ValueError) as err:
            is_induced_forest(fam("path:3"), VertexSubset(4, 0b11))
        assert str(err.value) == "subset belongs to a graph of different order"


class TestInducedSubgraph:
    """The test oracle in conftest (the library needs no induced subgraphs)."""

    def test_cycle_minus_vertex_is_path(self):
        g = induced_subgraph(fam("cycle:4"), VertexSubset.from_vertices(4, [0, 1, 2]))
        assert g.order == 3
        assert g.edges() == [(0, 1), (1, 2)]

    def test_fig1_abc_is_path(self):
        g = induced_subgraph(fam("fig1"), VertexSubset.from_vertices(5, [0, 1, 2]))
        assert g.edges() == [(0, 1), (1, 2)]

    def test_whole_graph_identity(self):
        g = fam("cycle:5")
        assert induced_subgraph(g, VertexSubset(5, g.vertices_mask)) == g

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(fam("path:3"), VertexSubset(3, 0))

    def test_foreign_subset_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(fam("path:3"), VertexSubset(4, 0b11))


class TestDisjointUnion:
    """The test oracle in conftest."""

    def test_two_singletons(self):
        g = disjoint_union(fam("complete:1"), fam("complete:1"))
        assert g.order == 2 and g.edge_count == 0

    def test_two_cycles(self):
        g = disjoint_union(fam("cycle:4"), fam("cycle:4"))
        assert g.order == 8 and g.edge_count == 8
        assert len(connected_components(g)) == 2

    def test_no_cross_edges(self):
        g = disjoint_union(fam("complete:3"), fam("complete:2"))
        for u in range(3):
            for v in range(3, 5):
                assert not g.has_edge(u, v)


def is_acyclic(g: Graph) -> bool:
    return is_induced_forest(g, VertexSubset(g.order, g.vertices_mask))


class TestAcyclicityAndComponents:
    """Acyclicity through the library's forest test on the whole vertex set;
    components through the conftest oracle."""

    def test_basic_cases(self):
        assert is_acyclic(fam("path:4"))
        assert not is_acyclic(fam("cycle:4"))
        assert not is_acyclic(fam("fig1"))

    def test_matches_dfs_cycle_finder(self, atlas_le6):
        for g in atlas_le6:
            assert is_acyclic(g) == (not dfs_has_cycle(g)), g.edges()

    def test_components(self):
        assert connected_components(fam("empty:2")) == ((0,), (1,))
        assert connected_components(fam("complete:2")) == ((0, 1),)
        g = disjoint_union(fam("cycle:4"), fam("complete:1"))
        sizes = sorted(len(c) for c in connected_components(g))
        assert sizes == [1, 4]

    def test_component_order_by_smallest_member(self):
        g = Graph.from_edges(5, [(1, 3), (0, 4)])
        assert connected_components(g) == ((0, 4), (1, 3), (2,))
