"""Double simulation (paper §4.2-§4.4) as DataFrame fixpoints.

The double simulation ``FB`` of a query Q by a graph G is the largest
relation S ⊆ V_Q × V_G whose pairs satisfy label equality plus forward
(every out-edge of q has a matching successor/descendant in S) and
backward (every in-edge has a matching predecessor/ancestor) conditions
— with edge-to-path matches for reachability edges (Def. 1).

We keep one candidate DataFrame ``FB(q) = (id)`` per query node and
prune it with semi-joins against ``ms(e)`` relations until a fixpoint:

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

Candidates shrink monotonically, so per-node cardinalities are a
sufficient convergence certificate; each pass materializes candidates
via ``localCheckpoint`` to keep Catalyst plans bounded. ``max_passes``
implements §4.5's approximation (the paper fixes N=3: most redundant
nodes die in the first 2-3 passes); ``None`` runs to the exact
fixpoint. Approximation never loses answers — any superset of os(q)
remains a valid RIG node set (Def. 4.1).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.matchsets import MatchContext
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern, PEdge


@dataclass
class SimResult:
    """Final FB sets, per-node cardinalities, and passes to converge."""

    fb: dict[int, DataFrame]
    counts: dict[int, int]
    passes: int
    converged: bool

    @property
    def empty(self) -> bool:
        return any(c == 0 for c in self.counts.values())


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
    keys = sorted(frames)
    combined = None
    for k in keys:
        tagged = frames[k].select(F.lit(k).alias("_k"), *frames[k].columns)
        combined = tagged if combined is None else combined.unionByName(tagged)
    combined = combined.localCheckpoint(eager=True)
    counted = {
        r["_k"]: r["n"]
        for r in combined.groupBy("_k").agg(F.count("*").alias("n")).collect()
    }
    views = {
        k: combined.where(F.col("_k") == k).select(*frames[k].columns) for k in keys
    }
    return views, {k: int(counted.get(k, 0)) for k in keys}


def _forward_prune(ctx: MatchContext, p: Pattern, fb: dict, e: PEdge) -> None:
    """Drop v from FB(e.src) lacking a partner in FB(e.dst) via ms(e)."""
    ms = ctx.ms_edge(p, e)
    valid = ms.join(fb[e.dst], ms["dst"] == fb[e.dst]["id"], "leftsemi").select("src")
    fb[e.src] = fb[e.src].join(
        valid, fb[e.src]["id"] == valid["src"], "leftsemi"
    )


def _backward_prune(ctx: MatchContext, p: Pattern, fb: dict, e: PEdge) -> None:
    """Drop v from FB(e.dst) lacking a partner in FB(e.src) via ms(e)."""
    ms = ctx.ms_edge(p, e)
    valid = ms.join(fb[e.src], ms["src"] == fb[e.src]["id"], "leftsemi").select("dst")
    fb[e.dst] = fb[e.dst].join(
        valid, fb[e.dst]["id"] == valid["dst"], "leftsemi"
    )


def _bas_sweep(ctx: MatchContext, p: Pattern, fb: dict, edges) -> None:
    """FBSimBas sweep: forward-prune every edge, then backward-prune every edge."""
    for e in edges:
        _forward_prune(ctx, p, fb, e)
    for e in edges:
        _backward_prune(ctx, p, fb, e)


def _dag_sweep(ctx: MatchContext, p: Pattern, fb: dict, dag: Pattern, topo) -> None:
    """FBSimDag sweep over the DAG pattern ``dag`` (``topo`` its order)."""
    for q in reversed(topo):  # bottom-up: forward simulation
        for e in dag.out_edges(q):
            _forward_prune(ctx, p, fb, e)
    for q in topo:  # top-down: backward simulation
        for e in dag.in_edges(q):
            _backward_prune(ctx, p, fb, e)


def _run_passes(ctx, p, one_pass, *, max_passes, guard: Guard | None) -> SimResult:
    """Shared driver loop: init, iterate ``one_pass`` until stable."""
    fb, counts = checkpoint_and_count({q: ctx.ms_node(p, q) for q in p.node_ids()})
    passes = 0
    converged = False
    while max_passes is None or passes < max_passes:
        if any(c == 0 for c in counts.values()):
            converged = True  # empty FB: early termination (§4.3 example)
            break
        one_pass(fb)
        fb, new_counts = checkpoint_and_count(fb)
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
    return _run_passes(
        ctx, p, lambda fb: _bas_sweep(ctx, p, fb, p.edges),
        max_passes=max_passes, guard=guard,
    )


def fb_sim(
    ctx: MatchContext, p: Pattern, *, max_passes: int | None = None,
    guard: Guard | None = None,
) -> SimResult:
    """FBSim (Algorithm 3), "Dag+Δ": a DAG-ordered sweep over the
    spanning-DAG edges, then a FBSimBas sweep over the back edges (none
    when Q is a DAG), repeated until FB stabilizes.
    """
    dag_edges, back_edges = p.dag_decomposition()
    p_dag = p.with_edges(dag_edges)
    topo = p_dag.topological_order()

    def one_pass(fb):
        _dag_sweep(ctx, p, fb, p_dag, topo)
        _bas_sweep(ctx, p, fb, back_edges)

    return _run_passes(ctx, p, one_pass, max_passes=max_passes, guard=guard)
