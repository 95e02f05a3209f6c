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
  edge. Kept as the reference FBSim is checked against.
* :func:`fb_sim` — FBSim / "Dag+Δ" (Algorithm 3): decompose the pattern
  into a spanning DAG plus back edges; per pass, run the FBSimDag sweep
  (Algorithm 2: query nodes in reverse topological order for forward
  simulation, then in topological order for backward simulation) over
  the DAG edges, then a FBSimBas sweep over the back edges. A DAG
  pattern has no back edges, so there FBSim is exactly FBSimDag. Same
  fixpoint as FBSimBas, fewer passes in practice (paper §4.4).

Both first collect the query's match sets to the driver in one Spark
job (:func:`collect_match_sets`, see :mod:`repro.core.local`); the
passes then prune sorted numpy arrays, one ``np.isin`` per step.
Candidates shrink monotonically, so per-node cardinalities are a
sufficient convergence certificate. ``max_passes`` implements §4.5's
approximation (the paper fixes N=3: most redundant nodes die in the
first 2-3 passes); ``None`` runs to the exact fixpoint. Approximation
never loses answers — any superset of os(q) remains a valid RIG node
set (Def. 4.1).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import local
from repro.core.local import LocalSets
from repro.core.matchsets import MatchContext
from repro.harness.runner import Guard, RowCap
from repro.queries.pattern import Pattern, PEdge


@dataclass
class SimResult:
    """Final FB sets, per-node cardinalities, and passes to converge."""

    fb: LocalSets
    counts: dict[int, int]
    passes: int
    converged: bool

    @property
    def empty(self) -> bool:
        return any(c == 0 for c in self.counts.values())


def collect_match_sets(ctx: MatchContext, p: Pattern) -> LocalSets:
    """Every ``ms(q)`` and ``ms(e)`` of ``p`` as driver arrays.

    Sized from the counts the ``MatchContext`` took at set-up, with no
    Spark job: when the sets total more than ``LOCAL_MAX_ROWS`` rows,
    raises ``RowCap`` (OM). Otherwise one job ships the rows of each
    distinct key of ``p`` once, picked by their integer ``kid``, and the
    driver splits them by ``kid`` into sorted arrays; a key absent from
    the graph gets an empty one. Nodes or edges with the same key share
    one read-only array.
    """
    node_keys = {q: ctx.node_key(p, q) for q in p.node_ids()}
    edge_keys = {e: ctx.edge_key(p, e) for e in p.edges}
    total = sum(ctx.sizes[k] for k in [*node_keys.values(), *edge_keys.values()])
    if total > local.LOCAL_MAX_ROWS:
        raise RowCap(f"match sets of {total} rows > {local.LOCAL_MAX_ROWS} on the driver")
    keys = set(node_keys.values()) | set(edge_keys.values())
    pdf = ctx.tagged_rows(keys).toPandas()
    kid, src, dst = (pdf[c].to_numpy(np.int64) for c in ("kid", "src", "dst"))
    order = np.lexsort((dst, src, kid))
    kid = kid[order]
    rows = np.stack([src[order], dst[order]], axis=1)
    rows.setflags(write=False)
    ids, starts = np.unique(kid, return_index=True)
    ends = np.append(starts[1:], len(kid))
    by_kid = {k: rows[a:b] for k, a, b in zip(ids.tolist(), starts.tolist(), ends.tolist())}
    part = {key: by_kid.get(ctx.kids.get(key), rows[:0]) for key in keys}
    return LocalSets(
        {q: part[key][:, 0] for q, key in node_keys.items()},
        {e: part[key] for e, key in edge_keys.items()},
    )


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


def _prune(fb: LocalSets, e: PEdge, forward: bool) -> None:
    rows = fb.ms_edges[e]
    keep, other = (e.src, e.dst) if forward else (e.dst, e.src)
    kcol, ocol = (0, 1) if forward else (1, 0)
    valid = rows[np.isin(rows[:, ocol], fb[other]), kcol]
    fb[keep] = fb[keep][np.isin(fb[keep], valid)]


def _counts(fb: LocalSets) -> dict[int, int]:
    return {q: len(ids) for q, ids in fb.items()}


def _run_passes(fb: LocalSets, steps, *, max_passes, guard: Guard | None) -> SimResult:
    """Shared loop: apply ``steps`` per pass until FB stabilizes."""
    counts = _counts(fb)
    passes = 0
    converged = False
    while max_passes is None or passes < max_passes:
        if any(c == 0 for c in counts.values()):
            converged = True  # empty FB: early termination (§4.3 example)
            break
        for e, forward in steps:
            _prune(fb, e, forward)
        new_counts = _counts(fb)
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
    """FBSimBas (Algorithm 1): edge-order forward then backward prunes."""
    return _run_passes(collect_match_sets(ctx, p), _bas_steps(p.edges),
                       max_passes=max_passes, guard=guard)


def fb_sim(
    ctx: MatchContext, p: Pattern, *, max_passes: int | None = None,
    guard: Guard | None = None,
) -> SimResult:
    """FBSim (Algorithm 3), "Dag+Δ": a DAG-ordered sweep over the
    spanning-DAG edges, then a FBSimBas sweep over the back edges (none
    when Q is a DAG), repeated until FB stabilizes.
    """
    return _run_passes(collect_match_sets(ctx, p), _dag_delta_steps(p),
                       max_passes=max_passes, guard=guard)
