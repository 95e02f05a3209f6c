"""Double simulation (paper §4.2-§4.4) as a fixpoint over candidate sets.

The double simulation ``FB`` of a query Q by a graph G is the largest
relation S ⊆ V_Q × V_G whose pairs satisfy label equality plus forward
(every out-edge of q has a matching successor/descendant in S) and
backward (every in-edge has a matching predecessor/ancestor) conditions
— with edge-to-path matches for reachability edges (Def. 1).

We keep one candidate set ``FB(q)`` per query node and prune it with
semi-joins against ``ms(e)`` until a fixpoint:

* :func:`fb_sim_bas` — FBSimBas (Algorithm 1): per pass, forward-prune
  every edge in arbitrary (insertion) order, then backward-prune every
  edge. Kept on Spark as the reference FBSim is checked against.
* :func:`fb_sim` — FBSim / "Dag+Δ" (Algorithm 3): decompose the pattern
  into a spanning DAG plus back edges; per pass, run the FBSimDag sweep
  (Algorithm 2: query nodes in reverse topological order for forward
  simulation, then in topological order for backward simulation) over
  the DAG edges, then a FBSimBas sweep over the back edges. A DAG
  pattern has no back edges, so there FBSim is exactly FBSimDag. Same
  fixpoint as FBSimBas, fewer passes in practice (paper §4.4).

FBSim first counts the query's match sets and collects them to the
driver when they fit (:func:`collect_match_sets`, see
:mod:`repro.core.local`). Then the passes prune sorted numpy arrays;
otherwise they prune ``(id)`` DataFrames, materialized per pass via
``localCheckpoint`` to keep Catalyst plans bounded. Both run the same
sweep order, pass cap and guard ticks. Candidates shrink monotonically,
so per-node cardinalities are a sufficient convergence certificate.
``max_passes`` implements §4.5's approximation (the paper fixes N=3:
most redundant nodes die in the first 2-3 passes); ``None`` runs to the
exact fixpoint. Approximation never loses answers — any superset of os(q)
remains a valid RIG node set (Def. 4.1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core import local
from repro.core.local import LocalSets
from repro.core.matchsets import MatchContext
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern, PEdge


@dataclass
class SimResult:
    """Final FB sets, per-node cardinalities, and passes to converge.

    ``fb`` holds DataFrames, or numpy arrays in a ``LocalSets`` when the
    simulation ran on the driver.
    """

    fb: dict[int, DataFrame] | LocalSets
    counts: dict[int, int]
    passes: int
    converged: bool

    @property
    def empty(self) -> bool:
        return any(c == 0 for c in self.counts.values())


def _tag_union(frames: dict[int, DataFrame]) -> DataFrame:
    """One DataFrame of ``frames`` (same columns), each row tagged ``_k`` with its key."""
    combined = None
    for k in sorted(frames):
        tagged = frames[k].select(F.lit(k).alias("_k"), *frames[k].columns)
        combined = tagged if combined is None else combined.unionByName(tagged)
    return combined


def checkpoint_and_count(
    frames: dict[int, DataFrame],
) -> tuple[dict[int, DataFrame], dict[int, int]]:
    """Checkpoint all frames in ONE job and count them in one more.

    The frames are tagged with their key and unioned so a simulation
    pass or a RIG expansion costs O(1) Spark actions instead of one per
    query node or edge — the difference between ~5s and ~60s per
    simulation on 20-node patterns (the paper batches the same phases
    with bitmap unions). The per-key views handed back are cheap filters
    over the checkpointed union.
    """
    combined = _tag_union(frames).localCheckpoint(eager=True)
    counted = {
        r["_k"]: r["n"]
        for r in combined.groupBy("_k").agg(F.count("*").alias("n")).collect()
    }
    views = {
        k: combined.where(F.col("_k") == k).select(*frames[k].columns) for k in frames
    }
    return views, {k: int(counted.get(k, 0)) for k in sorted(frames)}


def collect_match_sets(
    ctx: MatchContext, p: Pattern,
) -> tuple[LocalSets | None, dict[int, int]]:
    """Every ``ms(q)`` and ``ms(e)`` of ``p`` as driver arrays, or None; and ``|ms(q)|``.

    The one choice between the substrates, made from counts: the sets
    are tag-unioned and counted per set in one Spark job. When they
    total at most ``LOCAL_MAX_ROWS`` rows, a second job collects them;
    otherwise nothing is collected and the query stays on Spark, whose
    passes start from the ``|ms(q)|`` counted here.
    """
    ids = p.node_ids()
    frames = [ctx.ms_node(p, q).select(F.col("id").alias("src"), F.col("id").alias("dst"))
              for q in ids]
    frames += [ctx.ms_edge(p, e) for e in p.edges]
    union = _tag_union(dict(enumerate(frames)))
    sizes = {r["_k"]: r["count"] for r in union.groupBy("_k").count().collect()}
    node_counts = {q: int(sizes.get(i, 0)) for i, q in enumerate(ids)}
    if sum(sizes.values()) > local.LOCAL_MAX_ROWS:
        return None, node_counts
    pdf = union.toPandas()
    k, src, dst = (pdf[c].to_numpy(np.int64) for c in ("_k", "src", "dst"))
    order = np.lexsort((dst, src, k))
    rows = np.stack([src[order], dst[order]], axis=1)
    bounds = np.searchsorted(k[order], np.arange(len(frames) + 1))
    parts = [rows[bounds[i]:bounds[i + 1]] for i in range(len(frames))]
    sets = LocalSets(
        {q: parts[i][:, 0] for i, q in enumerate(ids)},
        {e: parts[len(ids) + i] for i, e in enumerate(p.edges)},
    )
    return sets, node_counts


# A pass is a list of prune steps (edge, forward): forward keeps the
# FB(e.src) nodes with a partner in FB(e.dst) via ms(e); backward keeps
# the FB(e.dst) nodes with a partner in FB(e.src).
def _bas_steps(edges) -> list[tuple[PEdge, bool]]:
    """FBSimBas sweep: forward-prune every edge, then backward-prune every edge."""
    return [(e, True) for e in edges] + [(e, False) for e in edges]


def _dag_delta_steps(p: Pattern) -> list[tuple[PEdge, bool]]:
    """FBSim sweep: FBSimDag over the spanning DAG, then FBSimBas over the back edges."""
    dag_edges, back_edges = p.dag_decomposition()
    dag = p.with_edges(dag_edges)
    topo = dag.topological_order()
    return (
        [(e, True) for q in reversed(topo) for e in dag.out_edges(q)]  # bottom-up: forward
        + [(e, False) for q in topo for e in dag.in_edges(q)]  # top-down: backward
        + _bas_steps(back_edges)
    )


def _spark_prune(ctx: MatchContext, p: Pattern):
    def prune(fb: dict, e: PEdge, forward: bool) -> None:
        ms = ctx.ms_edge(p, e)
        keep, other = (e.src, e.dst) if forward else (e.dst, e.src)
        kcol, ocol = ("src", "dst") if forward else ("dst", "src")
        valid = ms.join(fb[other], ms[ocol] == fb[other]["id"], "leftsemi").select(kcol)
        fb[keep] = fb[keep].join(valid, fb[keep]["id"] == valid[kcol], "leftsemi")

    return prune


def _local_prune(fb: LocalSets, e: PEdge, forward: bool) -> None:
    rows = fb.ms_edges[e]
    keep, other = (e.src, e.dst) if forward else (e.dst, e.src)
    kcol, ocol = (0, 1) if forward else (1, 0)
    valid = rows[np.isin(rows[:, ocol], fb[other]), kcol]
    fb[keep] = fb[keep][np.isin(fb[keep], valid)]


def _local_counts(fb: LocalSets) -> tuple[LocalSets, dict[int, int]]:
    return fb, {q: len(ids) for q, ids in fb.items()}


def _run_passes(
    fb, counts, prune, materialize, steps, *, max_passes, guard: Guard | None
) -> SimResult:
    """Shared driver loop: apply ``steps`` per pass until FB stabilizes."""
    passes = 0
    converged = False
    while max_passes is None or passes < max_passes:
        if any(c == 0 for c in counts.values()):
            converged = True  # empty FB: early termination (§4.3 example)
            break
        for e, forward in steps:
            prune(fb, e, forward)
        fb, new_counts = materialize(fb)
        passes += 1
        if guard is not None:
            guard.tick(max(new_counts.values()))
        if new_counts == counts:
            converged = True
            break
        counts = new_counts
    return SimResult(fb=fb, counts=counts, passes=passes, converged=converged)


def fb_sim_bas(
    ctx: MatchContext, p: Pattern, *, max_passes: int | None = None,
    guard: Guard | None = None,
) -> SimResult:
    """FBSimBas (Algorithm 1) on Spark: edge-order forward then backward prunes."""
    fb, counts = checkpoint_and_count({q: ctx.ms_node(p, q) for q in p.node_ids()})
    return _run_passes(fb, counts, _spark_prune(ctx, p), checkpoint_and_count,
                       _bas_steps(p.edges), max_passes=max_passes, guard=guard)


def fb_sim(
    ctx: MatchContext, p: Pattern, *, max_passes: int | None = None,
    guard: Guard | None = None,
) -> SimResult:
    """FBSim (Algorithm 3), "Dag+Δ": a DAG-ordered sweep over the
    spanning-DAG edges, then a FBSimBas sweep over the back edges (none
    when Q is a DAG), repeated until FB stabilizes. Runs on the driver
    when :func:`collect_match_sets` brings the match sets there.
    """
    sets, counts = collect_match_sets(ctx, p)
    if sets is None:
        fb = {q: ctx.ms_node(p, q) for q in p.node_ids()}
        prune, materialize = _spark_prune(ctx, p), checkpoint_and_count
    else:
        fb, prune, materialize = sets, _local_prune, _local_counts
    return _run_passes(fb, counts, prune, materialize, _dag_delta_steps(p),
                       max_passes=max_passes, guard=guard)
