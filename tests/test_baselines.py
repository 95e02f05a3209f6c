"""Tests for the JM / TM baselines and node pre-filtering."""
import pytest

from repro.baselines.engines import neo4j
from repro.baselines.jm import jm, plan_left_deep
from repro.baselines.prefilter import prefilter_nodes
from repro.baselines.tm import spanning_tree, tm
from repro.core.gm import gm
from repro.core.local import LocalSets
from repro.core.rig import expand_rig
from repro.core.simulation import fb_sim
from repro.harness.runner import run_guarded
from repro.queries.pattern import CHILD, DESC, Pattern
from repro.queries.templates import instantiate
from tests.bruteforce import homomorphisms
from tests.jobs import spark_jobs
from tests.sets import id_set, pair_set, size
from tests.ticks import TickLog


# Brute-force grid over the tiny graphs. The last pattern has a label no
# tiny graph carries: its answer is empty, and so is its pre-filtered
# cos(1), which drives RIG expansion's early termination.
GRID = [
    *(pytest.param(instantiate(tid, qtype=qtype, n_labels=5, seed=1), id=f"{tid}-{qtype}")
      for tid, qtype in [(1, "C"), (6, "H"), (9, "D"), (8, "H"), (11, "C")]),
    pytest.param(Pattern.of({0: "L0", 1: "NOPE", 2: "L1"},
                            [(0, 1, CHILD), (1, 2, DESC), (0, 2, DESC)]), id="absent-label"),
]


def answer_set(df):
    return {tuple(r) for r in df.collect()}


@pytest.mark.parametrize("p", GRID)
def test_jm_matches_bruteforce(tiny_ctx_for, substrates, p):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    expected = homomorphisms(p, nodes, edges)
    for _ in substrates():
        assert answer_set(jm(ctx, p)) == expected


@pytest.mark.parametrize("p", GRID)
def test_tm_matches_bruteforce(tiny_ctx_for, substrates, p):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    expected = homomorphisms(p, nodes, edges)
    for _ in substrates():
        assert answer_set(tm(ctx, p)) == expected


def test_three_algorithms_agree_on_dataset(ctx_for, substrates):
    g, ctx = ctx_for("em")
    p = instantiate(6, qtype="H", n_labels=20, seed=2)
    for _ in substrates():
        a = answer_set(gm(ctx, p).df)
        b = answer_set(jm(ctx, p))
        c = answer_set(tm(ctx, p))
        assert a == b == c


class TestPrefilter:
    def test_superset_of_double_simulation(self, tiny_ctx_for, substrates):
        # One-pass pre-filtering prunes less than the FB fixpoint (§4.2).
        g, ctx = tiny_ctx_for(1)
        p = instantiate(6, qtype="H", n_labels=5, seed=1)
        for _ in substrates():
            pf, counts = prefilter_nodes(ctx, p)
            sim = fb_sim(ctx, p, max_passes=None)
            for q in p.node_ids():
                pf_set = id_set(pf[q])
                assert id_set(sim.fb[q]) <= pf_set
                assert counts[q] == size(pf[q])

    def test_subset_of_match_sets(self, tiny_ctx_for, substrates):
        g, ctx = tiny_ctx_for(1)
        p = instantiate(6, qtype="H", n_labels=5, seed=1)
        for _ in substrates():
            pf, _ = prefilter_nodes(ctx, p)
            for q in p.node_ids():
                assert id_set(pf[q]) <= id_set(ctx.ms_node(p, q))


# HQ8 (84 answers on tiny graph 1) and the cyclic DQ9 (36 on tiny graph
# 0) pre-filter to non-empty sets and cos(e); every pre-filtered set of
# absent-label is empty, so its RIG is the early-exit one.
SUBSTRATE_GRID = [
    pytest.param(1, instantiate(8, qtype="H", n_labels=5, seed=0), id="HQ8"),
    pytest.param(0, instantiate(9, qtype="D", n_labels=5, seed=1), id="DQ9-cyclic"),
    pytest.param(0, GRID[-1].values[0], id="absent-label"),
]


@pytest.mark.parametrize("seed,p", SUBSTRATE_GRID)
def test_substrates_agree_on_prefilter(tiny_ctx_for, substrates, seed, p):
    # The pre-filtered sets, their counts, the expanded cos(e) and every
    # guard tick of JM and TM are the same on both substrates.
    g, ctx = tiny_ctx_for(seed)
    seen = {}
    for substrate in substrates():
        guard = TickLog()
        pf, counts = prefilter_nodes(ctx, p, guard=guard)
        rig = expand_rig(ctx, p, pf, counts, guard=guard)
        assert rig.substrate == substrate
        run = [{q: id_set(ids) for q, ids in pf.items()}, counts,
               {e: pair_set(rows) for e, rows in rig.cos_edges.items()}, guard.ticks]
        for alg in (jm, tm):
            guard = TickLog()
            run += [answer_set(alg(ctx, p, guard=guard)), guard.ticks]
        seen[substrate] = run
    assert seen["spark"] == seen["local"]


def test_prefilter_starts_one_job(tiny_ctx_for, spark):
    _, ctx = tiny_ctx_for(0)
    p = instantiate(9, qtype="D", n_labels=5, seed=1)
    (pf, _), jobs = spark_jobs(spark, lambda: prefilter_nodes(ctx, p))
    assert isinstance(pf, LocalSets) and jobs == 1


def test_jm_over_an_empty_prefilter_starts_at_most_one_job(tiny_ctx_for, spark):
    # The collect is the one job: every join reads ms(e).limit(0),
    # which Catalyst folds.
    g, ctx = tiny_ctx_for(0)
    p = GRID[-1].values[0]
    df, jobs = spark_jobs(spark, lambda: jm(ctx, p))
    assert jobs <= 1
    assert answer_set(df) == homomorphisms(p, *g.to_pandas()) == set()


class TestSpanningTree:
    def test_covers_all_nodes(self):
        p = instantiate(13, qtype="H", n_labels=5, seed=0)
        tree, non_tree = spanning_tree(p)
        assert len(tree) == p.n_nodes() - 1
        assert set(tree) | set(non_tree) == set(p.edges)

    def test_tree_edges_disjoint_from_non_tree(self):
        p = instantiate(16, qtype="C", n_labels=5, seed=0)
        tree, non_tree = spanning_tree(p)
        assert not set(tree) & set(non_tree)

    def test_tree_pattern_has_no_non_tree_edges(self):
        p = instantiate(2, qtype="C", n_labels=5, seed=0)  # tree template
        tree, non_tree = spanning_tree(p)
        assert non_tree == []


class TestPlanning:
    def test_plan_covers_all_edges(self, tiny_ctx_for):
        g, ctx = tiny_ctx_for(0)
        p = instantiate(8, qtype="H", n_labels=5, seed=1)
        rig = expand_rig(ctx, p, *prefilter_nodes(ctx, p))
        node_card = {q: ctx.ms_node(p, q).count() for q in p.node_ids()}
        plan = plan_left_deep(p, rig.edge_counts, node_card)
        assert set(plan) == set(p.edges)

    def test_plan_prefix_connected(self, tiny_ctx_for):
        g, ctx = tiny_ctx_for(0)
        p = instantiate(13, qtype="C", n_labels=5, seed=1)
        card = {e: 10 for e in p.edges}
        node_card = {q: 10 for q in p.node_ids()}
        plan = plan_left_deep(p, card, node_card)
        bound = {plan[0].src, plan[0].dst}
        for e in plan[1:]:
            assert e.src in bound or e.dst in bound
            bound |= {e.src, e.dst}


class TestGuards:
    @pytest.mark.parametrize("algo", [jm, tm, neo4j], ids=lambda f: f.__name__)
    def test_row_cap_gives_om(self, ctx_for, algo):
        g, ctx = ctx_for("em")
        p = instantiate(9, qtype="D", n_labels=20, seed=2)
        r = run_guarded(lambda gd: algo(ctx, p, guard=gd).count(), row_cap=1)
        assert r.status == "OM"

    def test_tm_time_limit_gives_to(self, ctx_for):
        g, ctx = ctx_for("em")
        p = instantiate(6, qtype="H", n_labels=20, seed=2)
        r = run_guarded(lambda gd: tm(ctx, p, guard=gd).count(), time_limit_s=1e-4)
        assert r.status == "TO"
