"""JM: the join-based baseline (paper §1, §7.1; R-Join style [12]).

JM decomposes the query into its edges and takes one node-pre-filtered
match relation per edge [11,63]: the ``cos(e)`` that
``repro.core.rig.expand_rig`` builds from the pre-filtered node sets, as
for GM-F. Pre-filtering and expansion run on the driver, after one
collect of the query's match sets (``repro.baselines.prefilter``), and
:func:`edge_relations` hands their ``cos(e)`` to Spark; the joins
themselves run on Spark. It picks an optimized *left-deep* plan
by exhaustive dynamic programming over edge orders, and evaluates it as
a sequence of binary (edge-at-a-time) joins. Its two documented
failure modes, which the guard surfaces as the paper's statuses:

* **OM** — intermediate join results explode (each step materializes
  the partial relation; ``guard.tick(rows)`` trips the row cap);
* **TO** — the DP planner enumerates exponentially many plans for
  queries with tens of nodes (the paper reports 2.4M plans for a
  24-node query), tripping the wall clock before evaluation starts.
"""
from __future__ import annotations

from functools import reduce
from operator import and_

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines.prefilter import prefilter_nodes
from repro.core.matchsets import MatchContext
from repro.core.rig import RIG, expand_rig
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern, PEdge
from repro.queries.sql import col_name


def plan_left_deep(
    p: Pattern, card: dict[PEdge, int], node_card: dict[int, int],
    *, guard: Guard | None = None,
) -> list[PEdge]:
    """Exhaustive DP over connected left-deep edge orders.

    Cost = sum of estimated intermediate cardinalities under an
    independence model (joining edge e multiplies by |rel(e)| and by
    1/|ms(endpoint)| per already-bound endpoint). O(2^m) subsets — for
    large queries this loop is where JM legitimately times out.
    """
    edges = list(p.edges)
    eidx = {e: i for i, e in enumerate(edges)}
    states: dict[int, tuple[float, float, tuple[PEdge, ...], frozenset]] = {}
    for e in edges:
        c = float(max(1, card[e]))
        states[1 << eidx[e]] = (c, c, (e,), frozenset({e.src, e.dst}))
    for _ in range(len(edges) - 1):
        nxt: dict[int, tuple[float, float, tuple[PEdge, ...], frozenset]] = {}
        for mask, (cost, crd, order, bound) in states.items():
            if guard is not None:
                guard.tick()
            for e in edges:
                b = 1 << eidx[e]
                if mask & b or (e.src not in bound and e.dst not in bound):
                    continue
                new_card = crd * max(1, card[e])
                for endpoint in (e.src, e.dst):
                    if endpoint in bound:
                        new_card /= max(1, node_card[endpoint])
                key = mask | b
                new_cost = cost + new_card
                if key not in nxt or new_cost < nxt[key][0]:
                    nxt[key] = (new_cost, new_card, order + (e,), bound | {e.src, e.dst})
        states = nxt
    return list(states[(1 << len(edges)) - 1][2])


def edge_relations(ctx: MatchContext, rig: RIG) -> dict[PEdge, DataFrame]:
    """Every ``cos(e)`` of ``rig`` as the ``(src, dst)`` DataFrame binary joins read.

    The non-empty ones go to Spark in one ``createDataFrame``, tagged by
    edge and split into filter views; an empty one becomes
    ``ms(e).limit(0)``: Catalyst folds every join over it, so those
    joins start no Spark job, where a zero-row ``createDataFrame`` would
    be scanned and joined.
    """
    p = rig.pattern
    rels = {e: ctx.ms_edge(p, e).limit(0) for e, n in rig.edge_counts.items() if n == 0}
    full = [(i, e) for i, e in enumerate(p.edges) if e not in rels]
    if full:
        rows = np.concatenate([rig.cos_edges[e] for _, e in full])
        tags = np.repeat([i for i, _ in full], [rig.edge_counts[e] for _, e in full])
        spark = ctx.graph.nodes.sparkSession
        tagged = spark.createDataFrame(
            pd.DataFrame({"_k": tags, "src": rows[:, 0], "dst": rows[:, 1]}),
            schema="_k INT, src LONG, dst LONG",
        )
        for i, e in full:
            rels[e] = tagged.where(F.col("_k") == i).select("src", "dst")
    return rels


def binary_join(
    p: Pattern, rels: dict[PEdge, DataFrame], order: list[PEdge],
    *, guard: Guard | None = None,
) -> DataFrame:
    """Edge-at-a-time binary joins of ``rels`` along ``order``.

    The partial relation is seeded from ``order[0]``; every later edge
    must touch a bound node and is joined on its bound endpoint(s), one
    or both. Each intermediate is materialized, and counted when guarded,
    which is exactly where JM, TM and Neo4j explode (guard -> OM/TO).
    Once a count is 0, every later intermediate is empty too: the rest
    of the plan reads ``limit(0)``, which Catalyst folds, and the guard
    is ticked with 0 per step without a job. Returns one column per node
    of ``p``, in ``p.node_ids()`` order.
    """
    first = order[0]
    partial = rels[first].select(
        F.col("src").alias(col_name(first.src)),
        F.col("dst").alias(col_name(first.dst)),
    )
    bound = {first.src, first.dst}
    empty = False
    for e in order[1:]:
        ends = ((e.src, "src"), (e.dst, "dst"))
        rel = rels[e].select(*[
            F.col(c).alias(f"_{c}" if q in bound else col_name(q)) for q, c in ends
        ])
        on = [partial[col_name(q)] == rel[f"_{c}"] for q, c in ends if q in bound]
        partial = partial.join(rel, reduce(and_, on)).drop("_src", "_dst")
        bound |= {e.src, e.dst}
        if empty:
            guard.tick(0)
            continue
        partial = partial.localCheckpoint(eager=True)
        if guard is not None:
            n = partial.count()
            guard.tick(n)
            if n == 0:
                partial, empty = partial.limit(0), True
    return partial.select(*[col_name(q) for q in p.node_ids()])


def jm(
    ctx: MatchContext,
    p: Pattern,
    *,
    limit: int | None = None,
    guard: Guard | None = None,
) -> DataFrame:
    """Evaluate Q with edge-at-a-time binary joins along the DP plan."""
    rig = expand_rig(p, *prefilter_nodes(ctx, p, guard=guard), guard=guard)
    plan = plan_left_deep(p, rig.edge_counts, ctx.ms_node_sizes(p), guard=guard)
    out = binary_join(p, edge_relations(ctx, rig), plan, guard=guard)
    return out if limit is None else out.limit(limit)
