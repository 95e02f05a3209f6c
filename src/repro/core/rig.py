"""Runtime Index Graph (paper §4.1, §4.5).

A RIG of Q over G is a k-partite graph: one candidate occurrence node
set ``cos(q)`` per query node and one candidate edge set ``cos(e)`` per
query edge, with os ⊆ cos ⊆ ms (Def. 4.1). It losslessly encodes every
homomorphism from Q to G (Prop. 4.1) and is the search space MJoin
enumerates over.

``build_rig`` follows Algorithm 4: *node selection* computes the double
simulation and takes ``cos(q) = FB(q)``; *node expansion* connects the
selected nodes — here one hash-join per query edge, ``ms(e)``
semi-joined to both endpoint cos sets (the dataflow analogue of the
paper's batched bitmap intersections ``adj(v) ∩ cos(q)``, which replace
per-node binary searches). Variants used by the evaluation:

* ``sim=None``          -> match RIG G_Q^m (cos = ms; the GM-F/no-sim path)
* ``max_passes=3``      -> the paper's approximate FB (default)
* ``max_passes=None``   -> exact double simulation
"""
from __future__ import annotations

from dataclasses import dataclass
import time

from pyspark.sql import DataFrame

from repro.core.matchsets import MatchContext
from repro.core.simulation import SimResult, checkpoint_and_count, fb_sim, fb_sim_bas
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern, PEdge


@dataclass
class RIG:
    """k-partite candidate graph: node sets per query node, edge sets per query edge."""

    pattern: Pattern
    cos: dict[int, DataFrame]
    cos_edges: dict[PEdge, DataFrame]
    node_counts: dict[int, int]
    edge_counts: dict[PEdge, int]
    sim: SimResult | None
    build_seconds: float = 0.0

    @property
    def empty(self) -> bool:
        return any(c == 0 for c in self.node_counts.values()) or any(
            c == 0 for c in self.edge_counts.values()
        )

    def size(self) -> int:
        """Total nodes + edges — the paper's RIG-size metric (§7.4)."""
        return sum(self.node_counts.values()) + sum(self.edge_counts.values())


def build_rig(
    ctx: MatchContext,
    p: Pattern,
    *,
    sim: str | None = "auto",
    max_passes: int | None = 3,
    prefilter_fb: dict[int, DataFrame] | None = None,
    guard: Guard | None = None,
) -> RIG:
    """Algorithm 4 (BuildRIG): select nodes via FB, then expand edges.

    ``sim``: 'auto' (FBSim), 'bas' (FBSimBas) or None (skip simulation —
    cos(q)=ms(q), producing the match RIG; used by the GM-F variant).
    ``prefilter_fb``: externally pruned node sets to start from (the
    GM / GM-F node pre-filtering path).
    """
    t0 = time.perf_counter()
    # -- node selection ---------------------------------------------------
    if sim is None:
        cos = {
            q: (prefilter_fb[q] if prefilter_fb else ctx.ms_node(p, q))
            for q in p.node_ids()
        }
        node_counts = {q: df.count() for q, df in cos.items()}
        sim_res = None
    else:
        algo = fb_sim_bas if sim == "bas" else fb_sim
        sim_res = algo(ctx, p, max_passes=max_passes, guard=guard)
        cos = dict(sim_res.fb)
        node_counts = dict(sim_res.counts)
        if sim_res.empty:
            # One empty FB(q) empties the whole answer (Q is connected):
            # the RIG degenerates to the empty k-partite graph and query
            # evaluation terminates early (§4.3 example).
            cos = {q: df.limit(0) for q, df in cos.items()}
            node_counts = {q: 0 for q in node_counts}

    # -- node expansion ---------------------------------------------------
    cos_edges: dict[PEdge, DataFrame] = {}
    edge_counts: dict[PEdge, int] = {}
    if all(c > 0 for c in node_counts.values()):
        expanded = {}
        for i, e in enumerate(p.edges):
            ms = ctx.ms_edge(p, e)
            expanded[i] = (
                ms.join(cos[e.src], ms["src"] == cos[e.src]["id"], "leftsemi")
                .join(cos[e.dst], ms["dst"] == cos[e.dst]["id"], "leftsemi")
            )
        views, counts = checkpoint_and_count(expanded)
        for i, e in enumerate(p.edges):
            cos_edges[e] = views[i]
            edge_counts[e] = counts[i]
            if guard is not None:
                guard.tick(edge_counts[e])
    else:
        for e in p.edges:  # empty FB -> empty RIG, early termination
            cos_edges[e] = ctx.ms_edge(p, e).limit(0)
            edge_counts[e] = 0

    return RIG(
        pattern=p,
        cos=cos,
        cos_edges=cos_edges,
        node_counts=node_counts,
        edge_counts=edge_counts,
        sim=sim_res,
        build_seconds=time.perf_counter() - t0,
    )
