"""End-to-end correctness of MJoin and the GM pipeline vs the oracle."""
import pytest

from repro.core.gm import gm
from repro.core.mjoin import mjoin
from repro.core.ordering import jo_order, ri_order
from repro.core.rig import build_rig
from repro.harness.runner import Guard
from repro.oracle import assert_equivalent
from repro.queries.pattern import CHILD, DESC, Pattern
from repro.queries.sql import pattern_to_sql
from repro.queries.templates import instantiate
from tests.bruteforce import homomorphisms


def oracle_check(res_df, pattern, graph):
    nodes, edges = graph.to_pandas()
    assert_equivalent(res_df, pattern_to_sql(pattern), nodes=nodes, edges=edges)


def answer_set(df):
    return {tuple(r) for r in df.collect()}


# A representative slice of the paper's workload grid: one template per
# class x query type, on two dataset profiles.
GRID = [
    ("em", 1, "C"), ("em", 6, "H"), ("em", 9, "D"), ("em", 11, "C"),
    ("em", 15, "H"), ("ep", 2, "H"), ("ep", 8, "H"), ("ep", 17, "D"),
    ("hu", 6, "C"), ("yt", 7, "H"),
]


@pytest.mark.parametrize("ds,tid,qtype", GRID)
def test_gm_matches_oracle(ctx_for, ds, tid, qtype):
    g, ctx = ctx_for(ds)
    p = instantiate(tid, qtype=qtype, n_labels=20, seed=2)
    res = gm(ctx, p)
    oracle_check(res.df, res.pattern, g)


def test_mjoin_equals_bruteforce(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    p = instantiate(6, qtype="H", n_labels=5, seed=1)
    rig = build_rig(ctx, p)
    assert answer_set(mjoin(rig, jo_order(rig))) == homomorphisms(p, nodes, edges)


@pytest.mark.parametrize("p", [
    pytest.param(instantiate(9, qtype="D", n_labels=5, seed=0), id="DQ9-cyclic"),
    pytest.param(Pattern.of({0: "L0", 1: "NOPE", 2: "L1"},
                            [(0, 1, CHILD), (1, 2, DESC), (0, 2, DESC)]), id="absent-label"),
])
def test_gm_matches_bruteforce(tiny_ctx_for, p):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    expected = homomorphisms(p, nodes, edges)
    res = gm(ctx, p)
    assert answer_set(res.df) == expected
    assert res.count() == len(expected)


def test_mjoin_order_invariance(tiny_ctx_for):
    # The reversed RI order of this pattern binds node 1 before any of
    # its neighbours, so MJoin's no-bound-neighbour rule runs too.
    g, ctx = tiny_ctx_for(1)
    p = instantiate(8, qtype="H", n_labels=5, seed=0)
    reverse = list(reversed(ri_order(p)))
    assert any(not p.neighbors(q) & set(reverse[:i]) for i, q in enumerate(reverse) if i)
    rig = build_rig(ctx, p)
    a = answer_set(mjoin(rig, jo_order(rig)))
    b = answer_set(mjoin(rig, ri_order(p)))
    c = answer_set(mjoin(rig, reverse))
    assert a == b == c


def test_mjoin_limit(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    p = instantiate(1, qtype="D", n_labels=5, seed=0)
    rig = build_rig(ctx, p)
    full = mjoin(rig, jo_order(rig)).count()
    if full > 1:
        assert mjoin(rig, jo_order(rig), limit=1).count() == 1


def test_mjoin_guarded_same_answer(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    p = instantiate(6, qtype="H", n_labels=5, seed=1)
    rig = build_rig(ctx, p)
    lazy = answer_set(mjoin(rig, jo_order(rig)))
    guarded = answer_set(mjoin(rig, jo_order(rig), guard=Guard(row_cap=10**9)))
    assert lazy == guarded


def test_mjoin_rejects_partial_order(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    p = instantiate(6, qtype="H", n_labels=5, seed=1)
    rig = build_rig(ctx, p)
    with pytest.raises(AssertionError):
        mjoin(rig, [0, 1])


@pytest.mark.parametrize("variant", ["gm", "gm-f", "gm-nr"])
def test_gm_variants_agree(tiny_ctx_for, variant):
    g, ctx = tiny_ctx_for(2)
    p = instantiate(15, qtype="H", n_labels=5, seed=4)
    res = gm(ctx, p, variant=variant)
    assert answer_set(res.df) == answer_set(gm(ctx, p).df)


def test_gm_rejects_unknown_variant(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    p = instantiate(6, qtype="H", n_labels=5, seed=1)
    with pytest.raises(ValueError):
        gm(ctx, p, variant="gm-s")


@pytest.mark.parametrize("method", ["jo", "ri", "bj"])
def test_gm_order_methods_agree(tiny_ctx_for, method):
    g, ctx = tiny_ctx_for(2)
    p = instantiate(7, qtype="H", n_labels=5, seed=1)
    base = answer_set(gm(ctx, p, order_method="jo").df)
    assert answer_set(gm(ctx, p, order_method=method).df) == base


def test_gm_exact_vs_capped_passes_agree(tiny_ctx_for):
    g, ctx = tiny_ctx_for(1)
    p = instantiate(6, qtype="H", n_labels=5, seed=1)
    capped = answer_set(gm(ctx, p, sim_passes=1).df)
    exact = answer_set(gm(ctx, p, sim_passes=None).df)
    assert capped == exact


def test_gm_timings_and_metadata(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    p = instantiate(6, qtype="H", n_labels=5, seed=1)
    res = gm(ctx, p)
    assert {"reduce", "rig", "order", "mjoin_build"} <= set(res.timings)
    assert sorted(res.order) == p.node_ids()
    res.count()
    assert res.timings["count"] >= 0


def test_gm_transitive_reduction_applied(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    p = instantiate(15, qtype="D", n_labels=5, seed=0)
    res = gm(ctx, p)
    res_nr = gm(ctx, p, variant="gm-nr")
    assert len(res.pattern.edges) <= len(res_nr.pattern.edges)
    assert answer_set(res.df) == answer_set(res_nr.df)
