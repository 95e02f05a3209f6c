"""JM: the join-based baseline (paper §1, §7.1; R-Join style [12]).

JM decomposes the query into its edges and takes one node-pre-filtered
match relation per edge [11,63]: the ``cos(e)`` that
``repro.core.rig.expand_rig`` builds from the pre-filtered node sets, as
for GM-F. After one collect of the query's match sets
(``repro.baselines.prefilter``), everything runs on the driver:
pre-filtering, expansion and the joins. It picks an optimized
*left-deep* plan by exhaustive dynamic programming over edge orders,
and evaluates it with :func:`binary_join`, a sequence of binary
(edge-at-a-time) joins that TM and the Neo4j simulator share. Its two
documented failure modes, which the guard surfaces as the paper's
statuses:

* **OM** — intermediate join results explode: each step builds the
  partial relation in full, and ``guard.tick(rows)`` trips the row cap
  with the step's exact size, counted before the step is built;
* **TO** — the DP planner enumerates exponentially many plans for
  queries with tens of nodes (the paper reports 2.4M plans for a
  24-node query), tripping the wall clock before evaluation starts.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from repro.baselines.prefilter import prefilter_nodes
from repro.core.local import answer_frame
from repro.core.matchsets import MatchContext
from repro.core.rig import expand_rig
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


def _join_size(partial: pd.DataFrame, rel: pd.DataFrame, on: list[str]) -> int:
    """The row count of ``partial ⋈ rel`` on ``on``, from the key counts of both sides."""
    left, right = partial.value_counts(on).align(rel.value_counts(on), join="inner")
    return int((left * right).sum())


def binary_join(
    p: Pattern, rels: dict[PEdge, np.ndarray], order: list[PEdge],
    *, limit: int | None = None, guard: Guard | None = None,
) -> DataFrame:
    """Edge-at-a-time binary joins of ``rels`` along ``order``, on the driver.

    Each relation is an ``(n, 2)`` int64 array of ``(src, dst)`` rows.
    The partial relation is seeded from ``order[0]``; every later edge
    must touch a bound node and is merged on its bound endpoint(s), one
    or both (with both, the step is a semi-join filter, since the rows
    of a relation are distinct). Each intermediate is built in full,
    which is exactly where JM, TM and Neo4j explode: the guard is
    ticked with its exact row count, taken from the key counts of both
    sides before the merge allocates it (guard -> OM/TO). The first
    ``limit`` answers, one column per node of ``p`` in ``p.node_ids()``
    order, come back through ``answer_frame``, so the frame's
    ``count()`` starts no Spark job.
    """
    def frame(e: PEdge) -> pd.DataFrame:
        return pd.DataFrame(rels[e], columns=[col_name(e.src), col_name(e.dst)])

    partial = frame(order[0])
    for e in order[1:]:
        rel = frame(e)
        on = [c for c in rel.columns if c in partial.columns]
        if guard is not None:
            guard.tick(_join_size(partial, rel, on))
        partial = partial.merge(rel, on=on)
    cols = [col_name(q) for q in p.node_ids()]
    return answer_frame(partial[cols].to_numpy(np.int64)[:limit], cols)


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
    return binary_join(p, rig.cos_edges, plan, limit=limit, guard=guard)
