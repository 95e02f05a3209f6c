"""MJoin (paper §5): multi-way intersection enumeration over a RIG.

Algorithm 5 extends partial occurrences one *query node* at a time: at
step i it intersects cos(q_i) with the RIG adjacency lists of every
already-bound neighbour, and only then binds q_i. The dataflow
analogue: the running partial-occurrence DataFrame is extended by
joining the first incident RIG edge relation (which introduces the new
column ``q{i}``) and then *constrained in the same step* by left-semi
joins against every other incident edge relation — a multi-way
intersection realized as one Catalyst stage per query node, never
materializing a partial result that violates any constraint among
bound nodes. This is the worst-case-optimal, node-at-a-time join style
(vs. JM's edge-at-a-time binary joins, repro.baselines.jm).

A RIG built on the driver (``rig.cos`` is a ``LocalSets``, see
repro.core.local) is enumerated there instead, as Algorithm 5 itself:
backtracking along the order, where the candidates of q_i are the
sorted intersection of the bound neighbours' RIG adjacency lists. It
stops after ``limit`` answers, so a capped run lists the same rows
every time, and returns them as a DataFrame. ``partial_cap`` bounds
each depth's partial matches there as the in-plan limit bounds each
partial relation on Spark.

Output columns are ``q{node_id}`` (one per pattern node), matching the
oracle SQL of repro.queries.sql, so results diff directly.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.local import LocalSets, answer_frame
from repro.core.rig import RIG
from repro.harness.runner import Guard
from repro.queries.sql import col_name

# Driver-side enumeration ticks the guard every this many extensions at
# one depth, so a time budget binds while a large answer is listed.
TICK_EVERY = 4096


def _edge_rel(rig: RIG, e, new_is_dst: bool) -> DataFrame:
    """cos(e) projected as (bound_col, new_col) in join orientation."""
    bound, new = ("src", "dst") if new_is_dst else ("dst", "src")
    return rig.cos_edges[e].select(
        F.col(bound).alias("_b"), F.col(new).alias("_n")
    )


def mjoin(
    rig: RIG,
    order: list[int],
    *,
    limit: int | None = None,
    guard: Guard | None = None,
    partial_cap: int | None = None,
) -> DataFrame:
    """Enumerate Q(G) from the RIG along ``order``; returns a DataFrame.

    Lazy by construction — the caller triggers execution (collect /
    count / limit). ``limit`` caps enumeration like the paper's 10^7
    match cap. ``guard.tick`` is called per extension step with the
    running partial-match cardinality when a guard is provided (guarded
    mode materializes each step; unguarded mode stays fully lazy and
    lets Catalyst pipeline the whole multi-way join).

    ``partial_cap`` bounds every partial-occurrence relation with an
    in-plan ``limit``: the set-oriented analogue of the paper's bounded
    backtracking enumeration (expansion stops once enough partial
    matches exist to fill the match limit), and the reason a lazy
    multi-way join over a near-complete reachability closure cannot
    blow up mid-plan. Only for capped-enumeration harness runs — with
    a cap the result is a subset of Q(G), never a superset;
    correctness tests must not set it. Driver-side enumeration stops
    once a depth has reached ``partial_cap`` partial matches, so at
    most ``len(order) * partial_cap`` extensions run.
    """
    p = rig.pattern
    assert sorted(order) == sorted(p.node_ids()), "order must permute query nodes"
    if isinstance(rig.cos, LocalSets):
        return _mjoin_local(rig, order, limit=limit, guard=guard, partial_cap=partial_cap)
    first = order[0]
    partial = rig.cos[first].select(F.col("id").alias(col_name(first)))
    bound = [first]
    for q in order[1:]:
        incident = [
            (e, e.src != q)  # new_is_dst: q is the head of e
            for e in p.incident(q)
            if (e.src if e.dst == q else e.dst) in bound
        ]
        if not incident:
            # No bound neighbour: q ranges over all of cos(q), a Cartesian
            # extension as in Algorithm 5 with empty N_i. JO, RI and BJ
            # orders are connected; a caller-supplied order need not be.
            partial = partial.crossJoin(
                rig.cos[q].select(F.col("id").alias(col_name(q)))
            )
            bound.append(q)
            continue
        (e0, new_is_dst0), rest = incident[0], incident[1:]
        other0 = e0.src if new_is_dst0 else e0.dst
        rel0 = _edge_rel(rig, e0, new_is_dst0)
        partial = (
            partial.join(rel0, partial[col_name(other0)] == rel0["_b"])
            .withColumnRenamed("_n", col_name(q))
            .drop("_b")
        )
        for e, new_is_dst in rest:
            other = e.src if new_is_dst else e.dst
            rel = _edge_rel(rig, e, new_is_dst)
            partial = partial.join(
                rel,
                (partial[col_name(other)] == rel["_b"])
                & (partial[col_name(q)] == rel["_n"]),
                "leftsemi",
            )
        bound.append(q)
        if partial_cap is not None:
            partial = partial.limit(partial_cap)  # lazy in-plan bound
        if guard is not None:
            partial = partial.localCheckpoint(eager=True)
            guard.tick(partial.count())
    cols = [col_name(q) for q in p.node_ids()]
    out = partial.select(*cols)
    if limit is not None:
        out = out.limit(limit)
    return out


def _adjacency(rows: np.ndarray, new_is_dst: bool) -> dict[int, np.ndarray]:
    """cos(e) as bound id -> sorted ids of its partners on the new side."""
    bound, new = (rows[:, 0], rows[:, 1]) if new_is_dst else (rows[:, 1], rows[:, 0])
    by_bound = np.lexsort((new, bound))
    bound, new = bound[by_bound], new[by_bound]
    keys, starts = np.unique(bound, return_index=True)
    ends = np.append(starts[1:], len(bound))
    return {k: new[a:b] for k, a, b in zip(keys.tolist(), starts.tolist(), ends.tolist())}


def _mjoin_local(rig: RIG, order: list[int], *, limit, guard, partial_cap) -> DataFrame:
    """Algorithm 5 on the driver: backtracking with sorted-array intersection.

    At depth i the candidates of q_i are the intersection of the
    adjacency lists of its bound neighbours (a node with none ranges
    over all of cos(q_i)). cos(e) is already semi-joined to cos(q_i), so
    no extra filter is needed. Enumeration stops after ``limit``
    answers, or once a depth has bound q_i ``partial_cap`` times: the
    Spark path's in-plan limit likewise keeps the first ``partial_cap``
    rows of each partial relation, and the answers are then a subset of
    Q(G). The guard is ticked every ``TICK_EVERY`` extensions at a depth
    and, at the end, once per depth with its partial-match count, as
    Spark's guarded MJoin ticks per step.
    """
    p = rig.pattern
    pos = {q: i for i, q in enumerate(order)}
    steps = []  # per depth: (adjacency, depth of the bound end) per incident edge
    for i, q in enumerate(order):
        steps.append([
            (_adjacency(rig.cos_edges[e], e.dst == q), pos[e.src if e.dst == q else e.dst])
            for e in p.incident(q)
            if pos[e.src if e.dst == q else e.dst] < i
        ])
    none = np.empty(0, dtype=np.int64)
    binding = [0] * len(order)
    partial = [0] * len(order)  # partial matches reached at each depth
    answers: list[list[int]] = []

    def extend(i: int) -> bool:
        """Bind depths i.. in every way; True once enumeration must stop."""
        if i == len(order):
            answers.append(binding.copy())
            return limit is not None and len(answers) >= limit
        if not steps[i]:
            cand = rig.cos[order[i]]
        else:
            (adj, j), *rest = steps[i]
            cand = adj.get(binding[j], none)
            for adj, j in rest:
                cand = np.intersect1d(cand, adj.get(binding[j], none), assume_unique=True)
        for v in cand.tolist():
            if partial_cap is not None and partial[i] >= partial_cap:
                return True  # every further answer needs one more binding here
            binding[i] = v
            partial[i] += 1
            if guard is not None and partial[i] % TICK_EVERY == 0:
                guard.tick(max(partial))
            if extend(i + 1):
                return True
        return False

    if limit != 0:
        extend(0)
    if guard is not None:
        for n in partial[1:]:
            guard.tick(n)
    rows = np.array(answers, dtype=np.int64).reshape(len(answers), len(order))
    return answer_frame(rows[:, [pos[q] for q in p.node_ids()]],
                        [col_name(q) for q in p.node_ids()])
