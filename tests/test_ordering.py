"""Tests for search-order strategies (§5.2) — driver-side via fake RIGs."""
from itertools import permutations

import pytest

from repro.core.ordering import bj_order, estimated_cost, jo_order, pick_order, ri_order
from repro.core.rig import RIG
from repro.queries.pattern import Pattern
from repro.queries.templates import instantiate


def fake_rig(p: Pattern, node_counts=None, edge_counts=None) -> RIG:
    nc = node_counts or {q: 10 + q for q in p.node_ids()}
    ec = edge_counts or {e: 20 for e in p.edges}
    return RIG(pattern=p, cos={}, cos_edges={}, node_counts=nc, edge_counts=ec)


@pytest.fixture
def diamond():
    return instantiate(6, qtype="H", n_labels=5, seed=0)


class TestJO:
    def test_starts_at_smallest_cos(self, diamond):
        rig = fake_rig(diamond, node_counts={0: 5, 1: 2, 2: 9, 3: 7})
        assert jo_order(rig)[0] == 1

    def test_is_permutation(self, diamond):
        rig = fake_rig(diamond)
        assert sorted(jo_order(rig)) == diamond.node_ids()

    def test_connected_prefixes(self, diamond):
        rig = fake_rig(diamond, node_counts={0: 1, 1: 50, 2: 50, 3: 2})
        order = jo_order(rig)
        for i in range(1, len(order)):
            assert diamond.neighbors(order[i]) & set(order[:i])

    def test_prefers_smaller_frontier_node(self, diamond):
        rig = fake_rig(diamond, node_counts={0: 1, 1: 3, 2: 2, 3: 9})
        order = jo_order(rig)
        assert order[:2] == [0, 2]  # 2 is the smaller neighbour of 0


class TestRI:
    def test_is_permutation(self, diamond):
        assert sorted(ri_order(diamond)) == diamond.node_ids()

    def test_starts_at_max_degree(self):
        p = instantiate(2, qtype="C", n_labels=5, seed=0)  # star-ish tree
        first = ri_order(p)[0]
        maxdeg = max(p.undirected_degree(q) for q in p.node_ids())
        assert p.undirected_degree(first) == maxdeg

    def test_data_independent(self, diamond):
        assert ri_order(diamond) == ri_order(diamond)

    def test_clique_any_order_connected(self):
        p = instantiate(11, qtype="C", n_labels=5, seed=0)
        order = ri_order(p)
        for i in range(1, len(order)):
            assert p.neighbors(order[i]) & set(order[:i])


class TestBJ:
    def test_is_permutation(self, diamond):
        rig = fake_rig(diamond)
        assert sorted(bj_order(rig)) == diamond.node_ids()

    def test_bj_cost_no_worse_than_greedy(self, diamond):
        rig = fake_rig(
            diamond,
            node_counts={0: 30, 1: 4, 2: 25, 3: 8},
            edge_counts={e: 12 for e in diamond.edges},
        )
        assert estimated_cost(rig, bj_order(rig)) <= estimated_cost(rig, jo_order(rig)) + 1e-9

    def test_larger_pattern(self):
        p = instantiate(13, qtype="C", n_labels=5, seed=1)
        rig = fake_rig(p)
        assert sorted(bj_order(rig)) == p.node_ids()

    @pytest.mark.parametrize(
        "p",
        [instantiate(6, qtype="H", n_labels=5, seed=0), instantiate(13, qtype="C", n_labels=5, seed=1)],
        ids=["diamond", "CQ13"],
    )
    def test_bj_matches_bruteforce_minimum(self, p):
        # BJ is exact: no connected left-deep order has a lower estimate.
        rig = fake_rig(
            p,
            node_counts={q: 3 + 7 * q % 11 for q in p.node_ids()},
            edge_counts={e: 5 + 3 * i for i, e in enumerate(p.edges)},
        )
        connected = [
            o for o in permutations(p.node_ids())
            if all(p.neighbors(o[i]) & set(o[:i]) for i in range(1, len(o)))
        ]
        best = min(estimated_cost(rig, o) for o in connected)
        assert estimated_cost(rig, bj_order(rig)) == pytest.approx(best)


class TestEstimatedCost:
    def test_positive(self, diamond):
        rig = fake_rig(diamond)
        assert estimated_cost(rig, jo_order(rig)) > 0

    def test_selective_edges_reduce_cost(self, diamond):
        loose = fake_rig(diamond, edge_counts={e: 100 for e in diamond.edges})
        tight = fake_rig(diamond, edge_counts={e: 1 for e in diamond.edges})
        order = jo_order(loose)
        assert estimated_cost(tight, order) < estimated_cost(loose, order)


def test_pick_order_dispatch(diamond):
    rig = fake_rig(diamond)
    assert pick_order("jo", rig) == jo_order(rig)
    assert pick_order("ri", rig) == ri_order(diamond)
    assert pick_order("bj", rig) == bj_order(rig)
    with pytest.raises(ValueError):
        pick_order("dp", rig)
