"""Search-order strategies for MJoin (paper §5.2, §7.4 "Search order").

* ``jo_order`` — JO: greedy join ordering [26] driven by RIG statistics:
  start at the query node with the smallest cos(q); repeatedly append
  the connected node with the smallest cos(q). Connectivity avoids
  Cartesian blowups; RIG cardinalities give better estimates than raw
  inverted lists (the paper's refinement of [26]).
* ``ri_order`` — RI [9]: purely topological. Start at the node of
  maximum degree; repeatedly append the node with the most edges into
  the ordered prefix, tie-broken by edges to neighbours of the prefix,
  then by degree. Data-independent by design.
* ``bj_order`` — BJ: exact dynamic programming over connected left-deep
  orders, minimizing :func:`estimated_cost` (estimated intermediate
  cardinalities under an independence model seeded with RIG node/edge
  counts). O(2^n) states — the paper's point is that this is unscalable
  for tens of nodes. A guard handed to ``gm`` bounds it with one tick
  per DP state; Table 4, the one harness table that orders with BJ,
  gives GM a guard without a budget, which only records rows.
"""
from __future__ import annotations

from collections.abc import Sequence

from repro.core.rig import RIG
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern


def jo_order(rig: RIG) -> list[int]:
    p = rig.pattern
    counts = rig.node_counts
    order = [min(p.node_ids(), key=lambda q: (counts[q], q))]
    remaining = set(p.node_ids()) - set(order)
    while remaining:
        frontier = [q for q in remaining if p.neighbors(q) & set(order)]
        nxt = min(frontier, key=lambda q: (counts[q], q))
        order.append(nxt)
        remaining.remove(nxt)
    return order


def ri_order(p: Pattern) -> list[int]:
    order = [max(p.node_ids(), key=lambda q: (p.undirected_degree(q), -q))]
    remaining = set(p.node_ids()) - set(order)
    while remaining:
        ordered = set(order)
        nb_of_ordered = set().union(*(p.neighbors(q) for q in order)) - ordered

        def score(q):
            vis = len(p.neighbors(q) & ordered)
            nig = len(p.neighbors(q) & nb_of_ordered)
            return (vis, nig, p.undirected_degree(q), -q)

        nxt = max(remaining, key=score)
        order.append(nxt)
        remaining.remove(nxt)
    return order


def _selectivity(rig: RIG) -> dict:
    """Per-edge selectivity |cos(e)| / (|cos(src)|*|cos(dst)|)."""
    sel = {}
    for e, ce in rig.edge_counts.items():
        denom = rig.node_counts[e.src] * rig.node_counts[e.dst]
        sel[e] = (ce / denom) if denom else 0.0
    return sel


def estimated_cost(rig: RIG, order: Sequence[int]) -> float:
    """Sum of estimated intermediate sizes of a left-deep order.

    Independence model: card(prefix+q) = card(prefix) * |cos(q)| *
    product of selectivities of edges newly covered by q.
    """
    sel = _selectivity(rig)
    card = 1.0
    total = 0.0
    bound: set[int] = set()
    for q in order:
        card *= max(1, rig.node_counts[q])
        for e in rig.pattern.incident(q):
            other = e.dst if e.src == q else e.src
            if other in bound:
                card *= sel[e]
        bound.add(q)
        total += card
    return total


def bj_order(rig: RIG, *, guard: Guard | None = None) -> list[int]:
    """Exact DP over connected left-deep orders (exponential in n).

    A prefix's cardinality depends only on its node set, so the cheapest
    order of each bound-node set extends to the cheapest full order.
    """
    p = rig.pattern
    ids = p.node_ids()
    # state: set of bound nodes -> (cost, order) of its cheapest prefix
    states = {frozenset({q}): (estimated_cost(rig, (q,)), (q,)) for q in ids}
    for _ in range(len(ids) - 1):
        nxt_states: dict[frozenset, tuple[float, tuple[int, ...]]] = {}
        for bound, (_, order) in states.items():
            if guard is not None:
                guard.tick()
            for q in ids:
                if q in bound or not p.neighbors(q) & bound:
                    continue
                key = bound | {q}
                cost = estimated_cost(rig, order + (q,))
                if key not in nxt_states or cost < nxt_states[key][0]:
                    nxt_states[key] = (cost, order + (q,))
        states = nxt_states
    return list(states[frozenset(ids)][1])


def pick_order(method: str, rig: RIG, *, guard: Guard | None = None) -> list[int]:
    if method == "jo":
        return jo_order(rig)
    if method == "ri":
        return ri_order(rig.pattern)
    if method == "bj":
        return bj_order(rig, guard=guard)
    raise ValueError(f"unknown order method {method!r}")
