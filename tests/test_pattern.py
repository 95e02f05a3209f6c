"""Unit tests for the pattern query model (driver-side, no Spark)."""
import pytest

from repro.queries.pattern import CHILD, DESC, Pattern, PEdge


def P(labels, edges, name="Q"):
    return Pattern.of(labels, edges, name=name)


class TestPEdge:
    def test_default_kind_is_child(self):
        assert PEdge(0, 1).kind == CHILD

    def test_desc_kind(self):
        assert PEdge(0, 1, DESC).kind == DESC

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            PEdge(0, 1, "sibling")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            PEdge(2, 2)


class TestPatternBasics:
    def setup_method(self):
        self.p = P(
            {0: "A", 1: "B", 2: "C"},
            [(0, 1, CHILD), (0, 2, CHILD), (1, 2, DESC)],
        )

    def test_label_of(self):
        assert self.p.label_of(0) == "A"
        assert self.p.label_of(2) == "C"

    def test_node_ids_sorted(self):
        assert self.p.node_ids() == [0, 1, 2]

    def test_n_nodes(self):
        assert self.p.n_nodes() == 3

    def test_out_edges(self):
        assert {e.dst for e in self.p.out_edges(0)} == {1, 2}

    def test_in_edges(self):
        assert {e.src for e in self.p.in_edges(2)} == {0, 1}

    def test_incident(self):
        assert len(self.p.incident(1)) == 2

    def test_undirected_degree(self):
        assert self.p.undirected_degree(0) == 2
        assert self.p.undirected_degree(2) == 2

    def test_neighbors(self):
        assert self.p.neighbors(0) == {1, 2}

    def test_describe_mentions_kinds(self):
        d = self.p.describe()
        assert "->" in d and "=>" in d


class TestValidation:
    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ValueError):
            Pattern(labels=((0, "A"), (0, "B")), edges=(PEdge(0, 0, CHILD),)).validate()

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(ValueError):
            P({0: "A", 1: "B"}, [(0, 7)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            P({0: "A", 1: "B", 2: "C", 3: "D"}, [(0, 1), (2, 3)])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError):
            P({0: "A", 1: "B"}, [(0, 1, CHILD), (0, 1, CHILD)])

    def test_single_node_ok(self):
        assert P({0: "A"}, []).is_connected()


class TestStructure:
    def test_topological_order_path(self):
        p = P({0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2)])
        assert p.topological_order() == [0, 1, 2]

    def test_topological_order_cycle_none(self):
        p = P({0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2), (2, 0)])
        assert p.topological_order() is None
        assert not p.is_dag()

    def test_diamond_is_dag(self):
        p = P({0: "A", 1: "B", 2: "C", 3: "D"}, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert p.is_dag()
        topo = p.topological_order()
        assert topo.index(0) < topo.index(3)

    def test_has_path(self):
        p = P({0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2)])
        assert p.has_path(0, 2)
        assert not p.has_path(2, 0)

    def test_has_path_excluding_edge(self):
        # The transitive-reduction check: a path from e.src to e.dst
        # once e itself is dropped.
        e = PEdge(0, 2, DESC)
        p = Pattern.of({0: "A", 1: "B", 2: "C"}, [PEdge(0, 1), PEdge(1, 2), e])
        assert p.with_edges([x for x in p.edges if x != e]).has_path(0, 2)
        p2 = Pattern.of({0: "A", 1: "B", 2: "C"}, [PEdge(1, 0), PEdge(1, 2), e])
        assert not p2.with_edges([x for x in p2.edges if x != e]).has_path(0, 2)

    def test_dag_decomposition_dag_pattern(self):
        p = P({0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2)])
        dag, back = p.dag_decomposition()
        assert len(dag) == 2 and back == ()

    def test_dag_decomposition_cycle(self):
        p = P({0: "A", 1: "B", 2: "C"}, [(0, 1), (1, 2), (2, 0)])
        dag, back = p.dag_decomposition()
        assert len(dag) == 2 and len(back) == 1
        assert p.with_edges(dag).topological_order() is not None

    def test_with_edges_preserves_labels(self):
        p = P({0: "A", 1: "B"}, [(0, 1)])
        p2 = p.with_edges([PEdge(1, 0)], name="rev")
        assert p2.label_of(0) == "A" and p2.name == "rev"
