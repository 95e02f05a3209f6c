"""Tests for match sets (§4.1) against pandas-side recomputation."""
from itertools import product

import pandas as pd
import pytest

from repro.core.matchsets import MatchContext, label_relation
from repro.core.simulation import collect_match_sets
from repro.graphs.model import graph_from_pandas
from repro.queries.pattern import CHILD, DESC, Pattern, PEdge
from tests.bruteforce import reach_pairs
from tests.jobs import spark_jobs
from tests.sets import pair_set


@pytest.fixture(scope="module")
def bundle(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    labs = sorted(nodes.label.unique())
    p = Pattern.of({0: labs[0], 1: labs[1]}, [(0, 1, CHILD)])
    pd_ = Pattern.of({0: labs[0], 1: labs[1]}, [(0, 1, DESC)])
    return g, ctx, nodes, edges, p, pd_


def test_ms_node_is_inverted_list(bundle):
    g, ctx, nodes, _, p, _ = bundle
    got = {r["id"] for r in ctx.ms_node(p, 0).collect()}
    assert got == set(nodes[nodes.label == p.label_of(0)].id)


def test_ms_child_edge(bundle):
    g, ctx, nodes, edges, p, _ = bundle
    lab = dict(zip(nodes.id, nodes.label))
    expected = {
        (s, d)
        for s, d in edges.itertuples(index=False)
        if lab[s] == p.label_of(0) and lab[d] == p.label_of(1)
    }
    got = {(r["src"], r["dst"]) for r in ctx.ms_edge(p, p.edges[0]).collect()}
    assert got == expected


def test_ms_desc_edge(bundle):
    g, ctx, nodes, edges, _, pd_ = bundle
    lab = dict(zip(nodes.id, nodes.label))
    rp = reach_pairs(edges)
    expected = {
        (s, d) for (s, d) in rp
        if lab[s] == pd_.label_of(0) and lab[d] == pd_.label_of(1)
    }
    got = {(r["src"], r["dst"]) for r in ctx.ms_edge(pd_, pd_.edges[0]).collect()}
    assert got == expected


def test_ms_edge_cached_by_kind_and_labels(bundle):
    _, ctx, _, _, p, _ = bundle
    a = ctx.ms_edge(p, p.edges[0])
    b = ctx.ms_edge(p, p.edges[0])
    assert a is b


def test_child_subset_of_desc(bundle):
    _, ctx, _, _, p, pd_ = bundle
    child = {(r["src"], r["dst"]) for r in ctx.ms_edge(p, p.edges[0]).collect()}
    desc = {(r["src"], r["dst"]) for r in ctx.ms_edge(pd_, pd_.edges[0]).collect()}
    assert child <= desc


def test_release_clears_cache(bundle):
    _, ctx, _, _, p, _ = bundle
    ctx.ms_edge(p, p.edges[0])
    ctx.release()
    assert ctx._edge_ms == {}


@pytest.fixture(scope="module")
def cyclic(spark):
    # SCCs {0,1,2} and {3,4}, a chain into 5, and node 6 with no edges;
    # two labels need escaping in SQL.
    a, b, c = "A", "B'", "C\\"
    nodes = pd.DataFrame({"id": range(7), "label": [a, b, a, c, b, a, c]})
    edges = pd.DataFrame({"src": [0, 1, 2, 2, 3, 4, 4], "dst": [1, 2, 0, 3, 4, 3, 5]})
    g = graph_from_pandas(spark, nodes, edges, name="cyclic").cache()
    return g, MatchContext(graph=g), nodes, edges


def test_labelled_relation_on_a_cyclic_graph(cyclic):
    # Every (kind, ls, ld) view, and its rows collected to the driver,
    # equal the brute-force closure or edge set, and the set-up counts
    # equal each view's count().
    _, ctx, nodes, edges = cyclic
    lab = dict(zip(nodes.id, nodes.label))
    base = {CHILD: set(edges.itertuples(index=False, name=None)), DESC: reach_pairs(edges)}
    assert (0, 0) in base[DESC] and (3, 3) in base[DESC] and (5, 5) not in base[DESC]
    labels = sorted(set(lab.values()))
    for kind, pairs in base.items():
        for ls, ld in product(labels, labels):
            p = Pattern.of({0: ls, 1: ld}, [(0, 1, kind)])
            view = ctx.ms_edge(p, p.edges[0])
            got = {(r["src"], r["dst"]) for r in view.collect()}
            assert got == {(s, d) for s, d in pairs if (lab[s], lab[d]) == (ls, ld)}
            assert pair_set(collect_match_sets(ctx, p).ms_edges[p.edges[0]]) == got
            assert ctx.sizes[ctx.edge_key(p, p.edges[0])] == view.count()
    for ls in labels:
        p = Pattern.of({0: ls, 1: ls}, [(0, 1, DESC)])
        n = list(lab.values()).count(ls)
        assert ctx.ms_node_sizes(p) == {0: n, 1: n} == {0: ctx.ms_node(p, 0).count(), 1: n}


def test_labelling_takes_at_most_three_jobs(cyclic, spark):
    g, ctx, _, _ = cyclic
    (_, sizes), jobs = spark_jobs(spark, lambda: label_relation(g, ctx.reach))
    assert sizes == ctx.sizes and jobs <= 3


def test_absent_label_gives_no_rows(cyclic):
    _, ctx, _, _ = cyclic
    for kind in (CHILD, DESC):
        p = Pattern.of({0: "A", 1: "Z"}, [(0, 1, kind)])
        assert ctx.ms_edge(p, p.edges[0]).count() == 0
        assert ctx.sizes[ctx.edge_key(p, p.edges[0])] == 0
        assert ctx.ms_node_sizes(p)[1] == 0


def test_graph_unpersist_frees_inverted_lists(spark):
    nodes = pd.DataFrame({"id": [0, 1], "label": ["A", "B"]})
    edges = pd.DataFrame({"src": [0], "dst": [1]})
    g = graph_from_pandas(spark, nodes, edges).cache()
    inv = g.inverted_list("A")
    assert inv.count() == 1 and inv.is_cached
    g.unpersist()
    assert not inv.is_cached and g._label_cache == {}
    assert not g.nodes.is_cached and not g.edges.is_cached
