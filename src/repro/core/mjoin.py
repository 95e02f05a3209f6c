"""MJoin (paper §5): multi-way intersection enumeration over a RIG.

Algorithm 5 extends partial occurrences one *query node* at a time: at
step i it intersects cos(q_i) with the RIG adjacency lists of every
already-bound neighbour, and only then binds q_i. It runs on the
driver, over the RIG's sorted arrays (repro.core.rig), as backtracking
along the order: the candidates of q_i are the sorted intersection of
the bound neighbours' adjacency lists, so no partial result that
violates a constraint among bound nodes is ever formed. This is the
worst-case-optimal, node-at-a-time join style (vs. JM's edge-at-a-time
binary joins, repro.baselines.jm). It replaced a DataFrame multi-way
join once every RIG came to be built on the driver.

Enumeration stops after ``limit`` answers, so a capped run lists the
same rows every time, and ``partial_cap`` bounds each depth's partial
matches. Output columns are ``q{node_id}`` (one per pattern node),
matching the oracle SQL of repro.queries.sql, so results diff directly.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.core.local import answer_frame
from repro.core.rig import RIG
from repro.harness.runner import Guard
from repro.queries.sql import col_name

# Enumeration ticks the guard every this many extensions at one depth,
# so a time budget binds while a large answer is listed.
TICK_EVERY = 4096


def _adjacency(rows: np.ndarray, new_is_dst: bool) -> dict[int, np.ndarray]:
    """cos(e) as bound id -> sorted ids of its partners on the new side."""
    bound, new = (rows[:, 0], rows[:, 1]) if new_is_dst else (rows[:, 1], rows[:, 0])
    by_bound = np.lexsort((new, bound))
    bound, new = bound[by_bound], new[by_bound]
    keys, starts = np.unique(bound, return_index=True)
    ends = np.append(starts[1:], len(bound))
    return {k: new[a:b] for k, a, b in zip(keys.tolist(), starts.tolist(), ends.tolist())}


def mjoin(
    rig: RIG,
    order: list[int],
    *,
    limit: int | None = None,
    guard: Guard | None = None,
    partial_cap: int | None = None,
) -> DataFrame:
    """Enumerate Q(G) from the RIG along ``order``; returns a DataFrame.

    Algorithm 5 as backtracking with sorted-array intersection. At depth
    i the candidates of q_i are the intersection of the adjacency lists
    of its bound neighbours; a node with none (a caller-supplied order
    need not be connected; JO, RI and BJ orders are) ranges over all of
    cos(q_i), a Cartesian extension as in Algorithm 5 with empty N_i.
    cos(e) is already semi-joined to cos(q_i), so no extra filter is
    needed. ``limit`` caps enumeration like the paper's 10^7 match cap.

    ``partial_cap`` stops enumeration once a depth has bound q_i that
    many times: the paper's bounded backtracking (expansion stops once
    enough partial matches exist to fill the match limit), which keeps a
    run over a near-complete reachability closure from listing an
    astronomical number of partial matches. Only for capped-enumeration
    harness runs — with a cap the result is a subset of Q(G), never a
    superset; correctness tests must not set it. At most
    ``len(order) * partial_cap`` extensions run.

    The guard is ticked every ``TICK_EVERY`` extensions at a depth with
    the largest partial-match count so far and, at the end, once per
    depth after the first with its partial-match count. The answers are
    listed before this returns; the DataFrame's ``count()`` starts no job.
    """
    assert sorted(order) == sorted(rig.pattern.node_ids()), "order must permute query nodes"
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
