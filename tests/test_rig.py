"""Tests for RIG construction (§4.1, §4.5): Def. 4.1 and Prop. 4.1.

``build_rig`` runs on both substrates (the ``substrates`` fixture).
"""
import pytest

from repro.core.gm import gm
from repro.core.rig import build_rig, expand_rig
from repro.core.simulation import checkpoint_and_count
from repro.queries.pattern import CHILD, Pattern
from repro.queries.templates import instantiate
from tests.bruteforce import homomorphisms
from tests.sets import pair_set, size


@pytest.fixture(scope="module")
def bundle(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    p = instantiate(6, qtype="H", n_labels=5, seed=1)
    return g, ctx, nodes, edges, p


def test_rig_is_kpartite_over_query(bundle, substrates):
    _, ctx, _, _, p = bundle
    for substrate in substrates():
        rig = build_rig(ctx, p)
        assert rig.substrate == substrate
        assert set(rig.cos) == set(p.node_ids())
        assert set(rig.cos_edges) == set(p.edges)


def test_def41_cos_between_os_and_ms(bundle, substrates):
    # os(e) ⊆ cos(e) ⊆ ms(e) for every query edge.
    _, ctx, nodes, edges, p = bundle
    answers = homomorphisms(p, nodes, edges)
    qpos = {q: i for i, q in enumerate(p.node_ids())}
    for _ in substrates():
        rig = build_rig(ctx, p)
        for e in p.edges:
            cos_e = pair_set(rig.cos_edges[e])
            ms_e = pair_set(ctx.ms_edge(p, e))
            os_e = {(t[qpos[e.src]], t[qpos[e.dst]]) for t in answers}
            assert os_e <= cos_e <= ms_e


def test_prop41_rig_encodes_all_homomorphisms(bundle, substrates):
    # Every homomorphism's edge images are RIG edges (Prop. 4.1).
    _, ctx, nodes, edges, p = bundle
    answers = homomorphisms(p, nodes, edges)
    qpos = {q: i for i, q in enumerate(p.node_ids())}
    for _ in substrates():
        rig = build_rig(ctx, p, max_passes=1)  # even a coarse RIG
        for e in p.edges:
            cos_e = pair_set(rig.cos_edges[e])
            for t in answers:
                assert (t[qpos[e.src]], t[qpos[e.dst]]) in cos_e


def _match_rig(ctx, p):
    return expand_rig(ctx, p, *checkpoint_and_count({q: ctx.ms_node(p, q) for q in p.node_ids()}))


def test_match_rig_largest(bundle):
    # Expanding cos(q) = ms(q) builds the match RIG G_Q^m: cos(e) == ms(e).
    _, ctx, _, _, p = bundle
    rig = _match_rig(ctx, p)
    for e in p.edges:
        assert pair_set(rig.cos_edges[e]) == pair_set(ctx.ms_edge(p, e))


def test_refined_rig_no_larger_than_match_rig(bundle, substrates):
    _, ctx, _, _, p = bundle
    match_size = _match_rig(ctx, p).size()
    for _ in substrates():
        assert build_rig(ctx, p, max_passes=None).size() <= match_size


def test_empty_answer_empty_rig(tiny_ctx_for, substrates):
    _, ctx = tiny_ctx_for(0)
    p = Pattern.of({0: "L0", 1: "NOPE"}, [(0, 1, CHILD)])
    for _ in substrates():
        rig = build_rig(ctx, p)
        assert rig.empty and rig.size() == 0


def test_counts_consistent(bundle, substrates):
    _, ctx, _, _, p = bundle
    for _ in substrates():
        rig = build_rig(ctx, p)
        for q, ids in rig.cos.items():
            assert rig.node_counts[q] == size(ids)
        for e, rows in rig.cos_edges.items():
            assert rig.edge_counts[e] == size(rows)


def test_build_seconds_recorded(bundle):
    _, ctx, _, _, p = bundle
    assert gm(ctx, p).timings["rig"] > 0
