"""TM: the tree-based baseline (paper §1, §7.1; [59]-style).

TM extracts a spanning tree of the query, evaluates the tree pattern
(joins in BFS discovery order — every join is a parent-child extension,
so tree evaluation itself never cross-joins), then post-filters the
tree solutions against every non-tree edge's match relation. Both are
``repro.baselines.jm.binary_join`` over the pre-filtered ``cos(e)``,
on the driver, along the tree edges and then the non-tree edges: a
non-tree edge has both endpoints bound, so its step is a semi-join
filter. Its failure mode (paper: mostly TO) is a huge tree-solution
set when the non-tree edges are the selective ones — all that work is
materialized before the filters apply; the guard reproduces it.
"""
from __future__ import annotations

from collections import deque

from repro.baselines.jm import binary_join
from repro.baselines.prefilter import prefilter_nodes
from repro.core.local import Answers
from repro.core.matchsets import MatchContext
from repro.core.rig import expand_rig
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern, PEdge


def spanning_tree(p: Pattern) -> tuple[list[PEdge], list[PEdge]]:
    """BFS spanning tree (undirected traversal, original edge kept).

    Root = max-undirected-degree node. Returns (tree edges in discovery
    order, non-tree edges).
    """
    root = max(p.node_ids(), key=lambda q: (p.undirected_degree(q), -q))
    seen = {root}
    tree: list[PEdge] = []
    queue = deque([root])
    while queue:
        q = queue.popleft()
        for e in sorted(p.incident(q), key=lambda e: (e.src, e.dst)):
            nb = e.dst if e.src == q else e.src
            if nb not in seen:
                seen.add(nb)
                tree.append(e)
                queue.append(nb)
    non_tree = [e for e in p.edges if e not in tree]
    return tree, non_tree


def tm(
    ctx: MatchContext,
    p: Pattern,
    *,
    limit: int | None = None,
    guard: Guard | None = None,
) -> Answers:
    """Evaluate the spanning tree, then filter by the missing edges; returns ``Answers``."""
    rig = expand_rig(p, *prefilter_nodes(ctx, p, guard=guard), guard=guard)
    tree, non_tree = spanning_tree(p)
    # The tree-solution relation is materialized in full before any
    # non-tree filter runs — TM's documented bottleneck.
    return binary_join(p, rig.cos_edges, tree + non_tree, limit=limit, guard=guard)
