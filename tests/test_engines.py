"""Tests for the engine simulators (GF / EH / Neo4j, §7.5)."""
import pytest

from repro.baselines.engines import (
    build_catalog,
    child_only_on_closure,
    eh,
    gf,
    neo4j,
)
from repro.core.gm import gm
from repro.core.matchsets import MatchContext
from repro.graphs.model import Graph
from repro.harness.runner import run_guarded
from repro.queries.pattern import CHILD, DESC
from repro.queries.templates import instantiate
from tests.bruteforce import homomorphisms
from tests.test_baselines import GRID


@pytest.mark.parametrize("tid", [1, 6, 11])
def test_gf_matches_bruteforce_on_c_queries(tiny_ctx_for, tid):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    p = instantiate(tid, qtype="C", n_labels=5, seed=1)
    got = {tuple(r) for r in gf(ctx, p).rows.tolist()}
    assert got == homomorphisms(p, nodes, edges)


def test_gf_rejects_reachability_edges(tiny_ctx_for):
    _, ctx = tiny_ctx_for(0)
    p = instantiate(6, qtype="D", n_labels=5, seed=1)
    with pytest.raises(ValueError):
        gf(ctx, p)


def test_gf_on_materialized_closure_equals_gm_on_d_query(tiny_ctx_for, spark):
    # The paper's workaround: GF evaluates D-queries on the transitive
    # closure as if edges were child edges.
    g, ctx = tiny_ctx_for(1)
    p = instantiate(9, qtype="D", n_labels=5, seed=0)
    tc_graph = Graph(nodes=g.nodes, edges=ctx.reach, name="tc").cache()
    tc_ctx = MatchContext(graph=tc_graph, reach=ctx.reach)
    got = {tuple(r) for r in gf(tc_ctx, child_only_on_closure(p)).rows.tolist()}
    expected = {tuple(r) for r in gm(ctx, p).df.rows.tolist()}
    assert got == expected


def test_child_only_on_closure_rewrites_kinds():
    p = instantiate(6, qtype="H", n_labels=5, seed=0)
    cp = child_only_on_closure(p)
    assert all(e.kind == CHILD for e in cp.edges)
    assert cp.labels == p.labels


def test_eh_returns_answer_and_precompute_time(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    p = instantiate(6, qtype="C", n_labels=5, seed=1)
    res, pre = eh(ctx, p)
    assert pre >= 0
    got = {tuple(r) for r in res.rows.tolist()}
    assert got == homomorphisms(p, nodes, edges)


@pytest.mark.parametrize("p", GRID)
def test_neo4j_matches_bruteforce(tiny_ctx_for, p):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    got = {tuple(r) for r in neo4j(ctx, p).rows.tolist()}
    assert got == homomorphisms(p, nodes, edges)


class TestCatalog:
    def test_builds_statistics(self, tiny_ctx_for):
        _, ctx = tiny_ctx_for(0)
        cat = build_catalog(ctx)
        assert cat.build_seconds > 0
        assert cat.entries_modeled > 0
        assert all(n > 0 for n in cat.label_pair_counts.values())

    def test_om_when_footprint_exceeds_cap(self, tiny_ctx_for):
        # Fig. 16(a): GF's catalog runs out of memory on many-label
        # graphs; the modeled footprint trips the row cap.
        _, ctx = tiny_ctx_for(0)
        r = run_guarded(lambda g: build_catalog(ctx, guard=g), row_cap=10)
        assert r.status == "OM"

    def test_ok_with_generous_cap(self, tiny_ctx_for):
        _, ctx = tiny_ctx_for(0)
        r = run_guarded(lambda g: build_catalog(ctx, guard=g), row_cap=10**9)
        assert r.ok
