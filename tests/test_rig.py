"""Tests for RIG construction (§4.1, §4.5): Def. 4.1 and Prop. 4.1."""
import pytest

from repro.core.gm import gm
from repro.core.rig import build_rig, expand_rig
from repro.core.simulation import checkpoint_and_count
from repro.queries.pattern import CHILD, Pattern
from repro.queries.templates import instantiate
from tests.bruteforce import homomorphisms


@pytest.fixture(scope="module")
def bundle(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    p = instantiate(6, qtype="H", n_labels=5, seed=1)
    return g, ctx, nodes, edges, p


def _edge_set(df):
    return {(r["src"], r["dst"]) for r in df.collect()}


def test_rig_is_kpartite_over_query(bundle):
    _, ctx, _, _, p = bundle
    rig = build_rig(ctx, p)
    assert set(rig.cos) == set(p.node_ids())
    assert set(rig.cos_edges) == set(p.edges)


def test_def41_cos_between_os_and_ms(bundle):
    # os(e) ⊆ cos(e) ⊆ ms(e) for every query edge.
    _, ctx, nodes, edges, p = bundle
    rig = build_rig(ctx, p)
    answers = homomorphisms(p, nodes, edges)
    qpos = {q: i for i, q in enumerate(p.node_ids())}
    for e in p.edges:
        cos_e = _edge_set(rig.cos_edges[e])
        ms_e = _edge_set(ctx.ms_edge(p, e))
        os_e = {(t[qpos[e.src]], t[qpos[e.dst]]) for t in answers}
        assert os_e <= cos_e <= ms_e


def test_prop41_rig_encodes_all_homomorphisms(bundle):
    # Every homomorphism's edge images are RIG edges (Prop. 4.1).
    _, ctx, nodes, edges, p = bundle
    rig = build_rig(ctx, p, max_passes=1)  # even a coarse RIG
    answers = homomorphisms(p, nodes, edges)
    qpos = {q: i for i, q in enumerate(p.node_ids())}
    for e in p.edges:
        cos_e = _edge_set(rig.cos_edges[e])
        for t in answers:
            assert (t[qpos[e.src]], t[qpos[e.dst]]) in cos_e


def _match_rig(ctx, p):
    return expand_rig(ctx, p, *checkpoint_and_count({q: ctx.ms_node(p, q) for q in p.node_ids()}))


def test_match_rig_largest(bundle):
    # Expanding cos(q) = ms(q) builds the match RIG G_Q^m: cos(e) == ms(e).
    _, ctx, _, _, p = bundle
    rig = _match_rig(ctx, p)
    for e in p.edges:
        assert _edge_set(rig.cos_edges[e]) == _edge_set(ctx.ms_edge(p, e))


def test_refined_rig_no_larger_than_match_rig(bundle):
    _, ctx, _, _, p = bundle
    refined = build_rig(ctx, p, max_passes=None)
    assert refined.size() <= _match_rig(ctx, p).size()


def test_empty_answer_empty_rig(tiny_ctx_for):
    _, ctx = tiny_ctx_for(0)
    p = Pattern.of({0: "L0", 1: "NOPE"}, [(0, 1, CHILD)])
    rig = build_rig(ctx, p)
    assert rig.empty and rig.size() == 0


def test_counts_consistent(bundle):
    _, ctx, _, _, p = bundle
    rig = build_rig(ctx, p)
    for q, df in rig.cos.items():
        assert rig.node_counts[q] == df.count()
    for e, df in rig.cos_edges.items():
        assert rig.edge_counts[e] == df.count()


def test_build_seconds_recorded(bundle):
    _, ctx, _, _, p = bundle
    assert gm(ctx, p).timings["rig"] > 0
