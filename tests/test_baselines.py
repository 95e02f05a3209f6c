"""Tests for the JM / TM baselines and node pre-filtering."""
import pandas as pd
import pytest

from repro.baselines.engines import neo4j
from repro.baselines.jm import binary_join, jm, plan_left_deep
from repro.baselines.prefilter import prefilter_nodes
from repro.baselines.tm import spanning_tree, tm
from repro.core.gm import gm
from repro.core.local import LocalSets
from repro.core.rig import expand_rig
from repro.core.simulation import collect_match_sets, fb_sim
from repro.harness.runner import Guard, RowCap, run_guarded
from repro.queries.pattern import CHILD, DESC, Pattern
from repro.queries.templates import instantiate
from tests.bruteforce import homomorphisms
from tests.jobs import spark_jobs
from tests.sets import id_set
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


def answer_set(res):
    return {tuple(r) for r in res.rows.tolist()}


@pytest.mark.parametrize("p", GRID)
def test_jm_matches_bruteforce(tiny_ctx_for, p):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    expected = homomorphisms(p, nodes, edges)
    assert answer_set(jm(ctx, p)) == expected


@pytest.mark.parametrize("p", GRID)
def test_tm_matches_bruteforce(tiny_ctx_for, p):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    expected = homomorphisms(p, nodes, edges)
    assert answer_set(tm(ctx, p)) == expected


def test_three_algorithms_agree_on_dataset(ctx_for):
    g, ctx = ctx_for("em")
    p = instantiate(6, qtype="H", n_labels=20, seed=2)
    a = answer_set(gm(ctx, p).df)
    b = answer_set(jm(ctx, p))
    c = answer_set(tm(ctx, p))
    assert a == b == c


class TestPrefilter:
    def test_superset_of_double_simulation(self, tiny_ctx_for):
        # One-pass pre-filtering prunes less than the FB fixpoint (§4.2).
        g, ctx = tiny_ctx_for(1)
        p = instantiate(6, qtype="H", n_labels=5, seed=1)
        pf, counts = prefilter_nodes(ctx, p)
        sim = fb_sim(ctx, p, max_passes=None)
        for q in p.node_ids():
            pf_set = id_set(pf[q])
            assert id_set(sim.fb[q]) <= pf_set
            assert counts[q] == len(pf[q])

    def test_subset_of_match_sets(self, tiny_ctx_for):
        g, ctx = tiny_ctx_for(1)
        p = instantiate(6, qtype="H", n_labels=5, seed=1)
        pf, _ = prefilter_nodes(ctx, p)
        nodes, _ = g.to_pandas()
        for q in p.node_ids():
            assert id_set(pf[q]) <= set(nodes.id[nodes.label == p.label_of(q)])


DQ9 = instantiate(9, qtype="D", n_labels=5, seed=1)  # directed triangle: 36 answers on tiny graph 0

# HQ8 (84 answers on tiny graph 1) and the cyclic DQ9 (36 on tiny graph
# 0) pre-filter to non-empty sets and cos(e); every pre-filtered set of
# absent-label is empty, so its RIG is the early-exit one.
SUBSTRATE_GRID = [
    pytest.param(1, instantiate(8, qtype="H", n_labels=5, seed=0), id="HQ8"),
    pytest.param(0, DQ9, id="DQ9-cyclic"),
    pytest.param(0, GRID[-1].values[0], id="absent-label"),
]


@pytest.mark.parametrize("seed,p", SUBSTRATE_GRID)
def test_substrates_agree_on_prefilter(tiny_ctx_for, seed, p):
    # The guard sees every pre-filtered node count, then every cos(e)
    # count (none after an empty node set: expansion exits early), and
    # JM and TM list the brute-force answers under it.
    g, ctx = tiny_ctx_for(seed)
    guard = TickLog()
    pf, counts = prefilter_nodes(ctx, p, guard=guard)
    rig = expand_rig(p, pf, counts, guard=guard)
    expanded = [] if 0 in counts.values() else list(rig.edge_counts.values())
    assert guard.ticks == list(counts.values()) + expanded
    expected = homomorphisms(p, *g.to_pandas())
    for alg in (jm, tm):
        assert answer_set(alg(ctx, p, guard=TickLog())) == expected


def test_prefilter_starts_one_job(tiny_ctx_for, spark):
    _, ctx = tiny_ctx_for(0)
    (pf, _), jobs = spark_jobs(spark, lambda: prefilter_nodes(ctx, DQ9))
    assert isinstance(pf, LocalSets) and jobs == 1


BASELINES = [jm, tm, neo4j]


@pytest.mark.parametrize("p", GRID)
def test_baselines_start_one_job(tiny_ctx_for, spark, p):
    # The collect of the query's match sets is the one job: the joins
    # run on the driver and count() reads the listed rows.
    g, ctx = tiny_ctx_for(0)
    expected = homomorphisms(p, *g.to_pandas())
    for alg in BASELINES:
        for guard in (None, Guard()):
            def run():
                df = alg(ctx, p, guard=guard)
                return df, df.count()
            (df, n), jobs = spark_jobs(spark, run)
            assert jobs == 1, (alg.__name__, guard)
            assert n == len(expected) and answer_set(df) == expected


def test_jm_over_an_empty_prefilter_starts_at_most_one_job(tiny_ctx_for, spark):
    # The collect is the one job: an empty match set empties the driver
    # joins without another Spark action, guarded or not.
    g, ctx = tiny_ctx_for(0)
    p = GRID[-1].values[0]
    df, jobs = spark_jobs(spark, lambda: jm(ctx, p))
    assert jobs <= 1
    assert answer_set(df) == homomorphisms(p, *g.to_pandas()) == set()
    for alg in (jm, tm):
        df, jobs = spark_jobs(spark, lambda: alg(ctx, p, guard=Guard()))
        assert jobs <= 1
        assert answer_set(df) == set()


def _merge_sizes(monkeypatch) -> list[int]:
    """The row count of every ``DataFrame.merge`` from now on, in call order."""
    sizes, merge = [], pd.DataFrame.merge

    def counted(*args, **kwargs):
        out = merge(*args, **kwargs)
        sizes.append(len(out))
        return out

    monkeypatch.setattr(pd.DataFrame, "merge", counted)
    return sizes


def test_binary_join_ticks_each_intermediate_before_building_it(tiny_ctx_for, monkeypatch):
    # DQ9's spanning tree binds one new node per step; its closing edge
    # joins on both endpoints. The guard sees every step's exact size.
    g, ctx = tiny_ctx_for(0)
    tree, non_tree = spanning_tree(DQ9)
    assert len(tree) == 2 and len(non_tree) == 1
    rels = collect_match_sets(ctx, DQ9).ms_edges
    sizes, guard = _merge_sizes(monkeypatch), TickLog()
    df = binary_join(DQ9, rels, tree + non_tree, guard=guard)
    assert guard.ticks == sizes and len(sizes) == 2
    assert sizes[0] > sizes[1] == df.count() == len(homomorphisms(DQ9, *g.to_pandas()))


# A path of reachability edges over four labels. Every intermediate of
# JM's, TM's and Neo4j's plans is smaller than the answer, 240 rows on
# tiny graph 0, which the last join builds.
PATH3 = Pattern.of({0: "L0", 1: "L1", 2: "L2", 3: "L3"}, [(0, 1, DESC), (1, 2, DESC), (2, 3, DESC)])


@pytest.mark.parametrize("alg", BASELINES, ids=lambda f: f.__name__)
def test_row_cap_binds_before_the_intermediate_is_built(tiny_ctx_for, monkeypatch, alg):
    g, ctx = tiny_ctx_for(0)
    n = len(homomorphisms(PATH3, *g.to_pandas()))
    uncapped = TickLog()
    alg(ctx, PATH3, guard=uncapped)
    assert uncapped.max_rows_seen == uncapped.ticks[-1] == n
    assert max(t for t in uncapped.ticks[:-1] if t is not None) < n
    sizes, guard = _merge_sizes(monkeypatch), Guard(row_cap=n - 1)
    with pytest.raises(RowCap):
        alg(ctx, PATH3, guard=guard)
    assert guard.max_rows_seen == n
    assert max(sizes) < n  # the over-cap intermediate was never built


@pytest.mark.parametrize("alg", BASELINES, ids=lambda f: f.__name__)
def test_capped_baseline_is_reproducible(tiny_ctx_for, alg):
    # DQ9 has 36 answers on tiny graph 0; five of them are listed, the
    # same five on every call.
    g, ctx = tiny_ctx_for(0)
    runs = [[tuple(r) for r in alg(ctx, DQ9, limit=5, guard=Guard()).rows.tolist()]
            for _ in range(2)]
    assert len(runs[0]) == 5 and runs[0] == runs[1]
    assert set(runs[0]) <= homomorphisms(DQ9, *g.to_pandas())


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
        rig = expand_rig(p, *prefilter_nodes(ctx, p))
        nodes, _ = g.to_pandas()
        node_card = {q: int((nodes.label == p.label_of(q)).sum()) for q in p.node_ids()}
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
