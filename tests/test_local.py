"""GM's driver-side substrate (repro.core.local) against the Spark one.

The oracle and brute-force checks of simulation, RIG and MJoin run on
both substrates in their own modules; here: the choice between them,
pass-by-pass agreement, capped runs, budgets and the job-free count.
"""
from dataclasses import dataclass, field

import pytest

from repro.core import local
from repro.core.gm import gm
from repro.core.mjoin import mjoin
from repro.core.ordering import jo_order
from repro.core.rig import build_rig, expand_rig
from repro.core.simulation import collect_match_sets, fb_sim
from repro.harness.runner import Guard, Timeout
from repro.queries.templates import instantiate
from tests.bruteforce import homomorphisms
from tests.sets import id_set

DQ9 = instantiate(9, qtype="D", n_labels=5, seed=1)  # directed triangle: 36 answers on tiny graph 0


@dataclass
class TickLog(Guard):
    """A guard that records every tick's row count."""

    ticks: list = field(default_factory=list)

    def tick(self, rows=None):
        self.ticks.append(rows)
        super().tick(rows)


# FB of DQ9 shrinks in passes 1 and 2 and is stable in pass 3; HQ8's in pass 2.
@pytest.mark.parametrize("seed,p", [
    pytest.param(0, DQ9, id="DQ9-cyclic"),
    pytest.param(1, instantiate(8, qtype="H", n_labels=5, seed=0), id="HQ8"),
])
def test_substrates_agree_pass_by_pass(tiny_ctx_for, substrates, seed, p):
    # FB after each pass, every cos(e) count, and so every guard tick of
    # simulation and expansion, are the same on both substrates.
    _, ctx = tiny_ctx_for(seed)
    seen = {}
    for substrate in substrates():
        runs = []
        for passes in (1, 2, 3):
            guard = TickLog()
            sim = fb_sim(ctx, p, max_passes=passes, guard=guard)
            rig = expand_rig(ctx, p, sim.fb, sim.counts, guard=guard)
            assert rig.substrate == substrate
            fb = {q: id_set(ids) for q, ids in sim.fb.items()}
            runs.append((fb, sim.passes, sim.converged, rig.edge_counts, guard.ticks))
        seen[substrate] = runs
    assert seen["spark"] == seen["local"]


def test_choice_is_made_at_the_row_limit(tiny_ctx_for, monkeypatch):
    _, ctx = tiny_ctx_for(0)
    node_counts = {q: ctx.ms_node(DQ9, q).count() for q in DQ9.node_ids()}
    total = sum(node_counts.values()) + sum(ctx.ms_edge(DQ9, e).count() for e in DQ9.edges)
    monkeypatch.setattr(local, "LOCAL_MAX_ROWS", total)
    sets, counts = collect_match_sets(ctx, DQ9)
    assert counts == node_counts
    assert sum(map(len, sets.values())) + sum(map(len, sets.ms_edges.values())) == total
    monkeypatch.setattr(local, "LOCAL_MAX_ROWS", total - 1)
    assert collect_match_sets(ctx, DQ9) == (None, node_counts)


def test_capped_local_run_is_reproducible(tiny_ctx_for):
    g, ctx = tiny_ctx_for(0)
    expected = homomorphisms(DQ9, *g.to_pandas())
    for limit in (1, 10, len(expected) + 5):
        first, second = gm(ctx, DQ9, limit=limit), gm(ctx, DQ9, limit=limit)
        assert first.substrate == second.substrate == "local"
        rows = [tuple(r) for r in first.df.collect()]
        assert len(rows) == first.count() == min(len(expected), limit)
        assert rows == [tuple(r) for r in second.df.collect()]
        assert set(rows) <= expected


def test_local_count_runs_no_spark_job(tiny_ctx_for, spark):
    g, ctx = tiny_ctx_for(0)
    res = gm(ctx, DQ9)
    assert res.substrate == "local"
    sc = spark.sparkContext
    sc.setJobGroup("local-count", "GMResult.count on the driver")
    try:
        n = res.count()
        jobs = sc.statusTracker().getJobIdsForGroup("local-count")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert jobs == []
    assert n == len(homomorphisms(DQ9, *g.to_pandas()))
    assert res.timings["count"] >= 0


def test_zero_time_budget_times_out_on_the_driver(tiny_ctx_for):
    _, ctx = tiny_ctx_for(0)
    with pytest.raises(Timeout):
        gm(ctx, DQ9, guard=Guard(time_limit_s=0))
    rig = build_rig(ctx, DQ9)
    assert rig.substrate == "local"
    with pytest.raises(Timeout):  # the enumeration ticks the guard too
        mjoin(rig, jo_order(rig), guard=Guard(time_limit_s=0))


def test_partial_cap_bounds_a_local_run(tiny_ctx_for):
    # DQ9 has 36 answers; with at most 5 partial matches per depth, no
    # depth reaches more, and the run lists a reproducible valid subset.
    g, ctx = tiny_ctx_for(0)
    expected = homomorphisms(DQ9, *g.to_pandas())
    rig = build_rig(ctx, DQ9)
    assert rig.substrate == "local"
    runs = []
    for _ in range(2):
        guard = TickLog()
        rows = [tuple(r) for r in mjoin(rig, jo_order(rig), partial_cap=5, guard=guard).collect()]
        assert 0 < len(rows) <= 5 < len(expected)
        assert max(guard.ticks) <= 5
        runs.append(rows)
    assert runs[0] == runs[1]
    assert set(runs[0]) <= expected
