"""The driver-side substrate (repro.core.local).

The oracle and brute-force checks of simulation, RIG and MJoin run in
their own modules; here: the row limit and what lies above it,
pass-by-pass guard ticks, capped runs, budgets, the job-free count and
the shape of every algorithm's driver answers.
"""
import numpy as np
import pytest

from repro.baselines.engines import _match_rig, child_only_on_closure, eh, gf, neo4j
from repro.baselines.jm import jm
from repro.baselines.tm import tm
from repro.core import local
from repro.core.gm import VARIANTS, gm
from repro.core.matchsets import MatchContext
from repro.core.mjoin import mjoin
from repro.core.ordering import jo_order
from repro.core.rig import build_rig, expand_rig
from repro.core.simulation import collect_match_sets, fb_sim
from repro.graphs.model import Graph
from repro.harness.runner import Guard, RowCap, Timeout, run_guarded
from repro.queries.pattern import CHILD, Pattern
from repro.queries.sql import col_name
from repro.queries.templates import instantiate, random_pattern
from tests.bruteforce import homomorphisms
from tests.jobs import spark_jobs
from tests.sets import pair_set
from tests.test_baselines import GRID
from tests.ticks import TickLog

DQ9 = instantiate(9, qtype="D", n_labels=5, seed=1)  # directed triangle: 36 answers on tiny graph 0
ABSENT = GRID[-1].values[0]  # a label no tiny graph carries: no answer


def _node_counts(ctx, p):
    """|ms(q)| of every node of ``p``, counted from the graph's pandas nodes."""
    labels = ctx.graph.to_pandas()[0].label
    return {q: int((labels == p.label_of(q)).sum()) for q in p.node_ids()}


def _total(ctx, p):
    """|ms(q)| + |ms(e)| over ``p``: ms(q) counted in pandas, ms(e) on Spark."""
    return sum(_node_counts(ctx, p).values()) + sum(ctx.ms_edge(p, e).count() for e in p.edges)


# FB of DQ9 shrinks in passes 1 and 2 and is stable in pass 3; HQ8's in pass 2.
@pytest.mark.parametrize("seed,p", [
    pytest.param(0, DQ9, id="DQ9-cyclic"),
    pytest.param(1, instantiate(8, qtype="H", n_labels=5, seed=0), id="HQ8"),
])
def test_substrates_agree_pass_by_pass(tiny_ctx_for, seed, p):
    # Each pass ticks the guard once, with its largest FB set, and a run
    # capped at k passes ticks as the first k passes of a longer one;
    # expansion then ticks every cos(e) count.
    _, ctx = tiny_ctx_for(seed)
    sim_ticks = []
    for passes in (1, 2, 3):
        guard = TickLog()
        sim = fb_sim(ctx, p, max_passes=passes, guard=guard)
        rig = expand_rig(p, sim.fb, sim.counts, guard=guard)
        assert guard.ticks[:len(sim_ticks)] == sim_ticks
        assert guard.ticks[sim.passes - 1] == max(sim.counts.values())
        assert guard.ticks[sim.passes:] == list(rig.edge_counts.values())
        sim_ticks = guard.ticks[:sim.passes]


def test_choice_is_made_at_the_row_limit(tiny_ctx_for, monkeypatch):
    _, ctx = tiny_ctx_for(0)
    node_counts = _node_counts(ctx, DQ9)
    total = _total(ctx, DQ9)
    monkeypatch.setattr(local, "LOCAL_MAX_ROWS", total)
    sets = collect_match_sets(ctx, DQ9)
    assert {q: len(ids) for q, ids in sets.items()} == node_counts
    assert sum(map(len, sets.values())) + sum(map(len, sets.ms_edges.values())) == total
    monkeypatch.setattr(local, "LOCAL_MAX_ROWS", total - 1)
    with pytest.raises(RowCap):
        collect_match_sets(ctx, DQ9)


def test_capped_local_run_is_reproducible(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    expected = homomorphisms(DQ9, *g.to_pandas())
    for limit in (1, 10, len(expected) + 5):
        first, second = gm(ctx, DQ9, limit=limit), gm(ctx, DQ9, limit=limit)
        rows = [tuple(r) for r in first.df.rows.tolist()]
        assert len(rows) == first.count() == min(len(expected), limit)
        assert rows == [tuple(r) for r in second.df.rows.tolist()]
        assert set(rows) <= expected


def test_collect_starts_one_job_or_none(tiny_ctx_for, spark, monkeypatch):
    # DQ9 reads 5 keys, the 16-node D-query 14.
    _, ctx = tiny_ctx_for(0)
    for p in (DQ9, random_pattern(n_nodes=16, qtype="D", n_labels=5, seed=1)):
        total = _total(ctx, p)
        monkeypatch.setattr(local, "LOCAL_MAX_ROWS", total)
        sets, jobs = spark_jobs(spark, lambda: collect_match_sets(ctx, p))
        assert jobs == 1
        for e in p.edges:
            assert pair_set(sets.ms_edges[e]) == {tuple(r) for r in ctx.ms_edge(p, e).collect()}
        monkeypatch.setattr(local, "LOCAL_MAX_ROWS", total - 1)
        _, jobs = spark_jobs(spark, lambda: pytest.raises(RowCap, collect_match_sets, ctx, p))
        assert jobs == 0


@pytest.fixture(scope="module")
def tc_ctx(tiny_ctx_for):
    """GF's input for tiny graph 0: the closure as the graph's edges."""
    g, ctx = tiny_ctx_for(0)
    tc = Graph(nodes=g.nodes, edges=ctx.reach, name="tc").cache()
    return MatchContext(graph=tc, reach=ctx.reach)


# Every algorithm that collects its match sets, as a guarded call over
# tiny graph 0 (GF over its closure graph) that returns the answers of p.
ALGORITHMS = [
    *(pytest.param(lambda c, tc, p, v=v: gm(c, p, variant=v, guard=Guard()).df, id=v)
      for v in VARIANTS),
    pytest.param(lambda c, tc, p: jm(c, p, guard=Guard()), id="jm"),
    pytest.param(lambda c, tc, p: tm(c, p, guard=Guard()), id="tm"),
    pytest.param(lambda c, tc, p: neo4j(c, p, guard=Guard()), id="neo4j"),
    pytest.param(lambda c, tc, p: gf(tc, child_only_on_closure(p), guard=Guard()), id="gf"),
    pytest.param(lambda c, tc, p: eh(c, p, guard=Guard())[0], id="eh"),
]


@pytest.mark.parametrize("run", ALGORITHMS)
def test_above_the_row_limit_is_om_without_a_job(tiny_ctx_for, tc_ctx, spark, monkeypatch, run):
    _, ctx = tiny_ctx_for(0)
    assert _total(tc_ctx, child_only_on_closure(DQ9)) == _total(ctx, DQ9)
    monkeypatch.setattr(local, "LOCAL_MAX_ROWS", _total(ctx, DQ9) - 1)
    r, jobs = spark_jobs(spark, lambda: run_guarded(lambda guard: run(ctx, tc_ctx, DQ9).count()))
    assert r.status == "OM" and jobs == 0


@pytest.mark.parametrize("p", [pytest.param(DQ9, id="DQ9"), pytest.param(ABSENT, id="absent-label")])
@pytest.mark.parametrize("run", ALGORITHMS)
def test_answers_are_int64_columns_in_node_order(tiny_ctx_for, tc_ctx, run, p):
    # What perfbench's DuckDB gate and oracle.assert_equivalent read.
    _, ctx = tiny_ctx_for(0)
    res = run(ctx, tc_ctx, p)
    pdf = res.toPandas()
    assert list(pdf.columns) == [col_name(q) for q in p.node_ids()]
    assert (pdf.dtypes == np.int64).all()
    assert res.count() == len(pdf) == (0 if p is ABSENT else 36)


def test_match_rig_starts_one_job(tiny_ctx_for, spark):
    _, ctx = tiny_ctx_for(0)
    _, jobs = spark_jobs(spark, lambda: _match_rig(ctx, DQ9))
    assert jobs == 1


def test_edges_with_one_key_get_equal_read_only_arrays(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    nodes, edges = g.to_pandas()
    lab = dict(zip(nodes.id, nodes.label))
    s, d = next((s, d) for s, d in edges.itertuples(index=False) if lab[s] != lab[d])
    p = Pattern.of({0: lab[s], 1: lab[d], 2: lab[s]}, [(0, 1, CHILD), (2, 1, CHILD)])
    sets = collect_match_sets(ctx, p)
    a, b = (sets.ms_edges[e] for e in p.edges)
    assert len(a) > 0 and np.array_equal(a, b)
    assert np.array_equal(sets[0], sets[2])
    for arr in (a, b, sets[0], sets[1], sets[2]):
        assert not arr.flags.writeable


def test_local_count_runs_no_spark_job(tiny_ctx_for, spark):
    g, ctx = tiny_ctx_for(0)
    res = gm(ctx, DQ9)
    n, jobs = spark_jobs(spark, res.count)
    assert jobs == 0
    assert n == len(homomorphisms(DQ9, *g.to_pandas()))
    assert res.timings["count"] >= 0


def test_zero_time_budget_times_out_on_the_driver(tiny_ctx_for):
    _, ctx = tiny_ctx_for(0)
    with pytest.raises(Timeout):
        gm(ctx, DQ9, guard=Guard(time_limit_s=0))
    rig = build_rig(ctx, DQ9)
    with pytest.raises(Timeout):  # the enumeration ticks the guard too
        mjoin(rig, jo_order(rig), guard=Guard(time_limit_s=0))


def test_partial_cap_bounds_a_local_run(tiny_ctx_for):
    # DQ9 has 36 answers; with at most 5 partial matches per depth, no
    # depth reaches more, and the run lists a reproducible valid subset.
    g, ctx = tiny_ctx_for(0)
    expected = homomorphisms(DQ9, *g.to_pandas())
    rig = build_rig(ctx, DQ9)
    runs = []
    for _ in range(2):
        guard = TickLog()
        res = mjoin(rig, jo_order(rig), partial_cap=5, guard=guard)
        rows = [tuple(r) for r in res.rows.tolist()]
        assert 0 < len(rows) <= 5 < len(expected)
        assert max(guard.ticks) <= 5
        runs.append(rows)
    assert runs[0] == runs[1]
    assert set(runs[0]) <= expected
