"""Runtime Index Graph (paper §4.1, §4.5).

A RIG of Q over G is a k-partite graph: one candidate occurrence node
set ``cos(q)`` per query node and one candidate edge set ``cos(e)`` per
query edge, with os ⊆ cos ⊆ ms (Def. 4.1). It losslessly encodes every
homomorphism from Q to G (Prop. 4.1) and is the search space MJoin
enumerates over.

Algorithm 4 has two halves. *Node selection* picks ``cos(q)``; *node
expansion* (:func:`expand_rig`) connects the selected nodes — here one
semi-join per query edge, ``cos(e) = ms(e) ⋉ cos(src) ⋉ cos(dst)`` (the
sorted-array analogue of the paper's batched bitmap intersections
``adj(v) ∩ cos(q)``, which replace per-node binary searches). Every
algorithm that turns node candidate sets into edge relations goes
through :func:`expand_rig`; they differ only in how ``cos(q)`` is
selected:

* :func:`build_rig` — ``cos(q) = FB(q)``, the double simulation (GM);
  ``max_passes=3`` is the paper's approximate FB, ``None`` the exact one
* ``prefilter_nodes`` — one-pass node pre-filtering (GM-F, JM, TM)
* ``cos(q) = ms(q)`` — the match RIG G_Q^m (the GF and EH simulators)

All three select and expand on the driver, over the numpy arrays of
the ``LocalSets`` that ``collect_match_sets`` returns with the query's
``ms(e)`` (see :mod:`repro.core.local`): expansion is one ``np.isin``
mask per endpoint of each ``ms(e)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.local import LocalSets
from repro.core.matchsets import MatchContext
# fb_sim_bas is unused here; tracers of this module patch it by this name.
from repro.core.simulation import fb_sim, fb_sim_bas
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern, PEdge


@dataclass
class RIG:
    """k-partite candidate graph: node sets per query node, edge sets per query edge.

    ``cos`` is a ``LocalSets`` of sorted id arrays and each ``cos(e)`` an
    ``(n, 2)`` array of ``(src, dst)`` rows.
    """

    pattern: Pattern
    cos: LocalSets
    cos_edges: dict[PEdge, np.ndarray]
    node_counts: dict[int, int]
    edge_counts: dict[PEdge, int]

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
    max_passes: int | None = 3,
    guard: Guard | None = None,
) -> RIG:
    """Algorithm 4 (BuildRIG): select nodes via FBSim, then expand edges."""
    sim = fb_sim(ctx, p, max_passes=max_passes, guard=guard)
    return expand_rig(p, sim.fb, sim.counts, guard=guard)


def expand_rig(
    p: Pattern,
    cos: LocalSets,
    node_counts: dict[int, int],
    *,
    guard: Guard | None = None,
) -> RIG:
    """Node expansion: ``cos(e) = ms(e) ⋉ cos(src) ⋉ cos(dst)`` for every edge.

    ``cos``/``node_counts`` are the selected node sets and their sizes.
    The guard is ticked with each edge count.
    """
    if any(c == 0 for c in node_counts.values()):
        # One empty cos(q) empties the whole answer (Q is connected):
        # the RIG degenerates to the empty k-partite graph and query
        # evaluation terminates early (§4.3 example).
        return RIG(
            pattern=p,
            cos=LocalSets({q: ids[:0] for q, ids in cos.items()}, cos.ms_edges),
            cos_edges={e: cos.ms_edges[e][:0] for e in p.edges},
            node_counts={q: 0 for q in node_counts},
            edge_counts={e: 0 for e in p.edges},
        )
    cos_edges = {}
    for e in p.edges:
        rows = cos.ms_edges[e]
        cos_edges[e] = rows[np.isin(rows[:, 0], cos[e.src]) & np.isin(rows[:, 1], cos[e.dst])]
    edge_counts = {e: len(rows) for e, rows in cos_edges.items()}
    if guard is not None:
        for n in edge_counts.values():
            guard.tick(n)
    return RIG(
        pattern=p,
        cos=cos,
        cos_edges=cos_edges,
        node_counts=node_counts,
        edge_counts=edge_counts,
    )
