"""Node pre-filtering [11, 63] (paper §7.1): one-pass structural pruning.

Retains a data node v in the candidate set of query node q only if, for
every edge incident to q, v has at least one label-compatible partner
in the *raw match set* of the adjacent query node. Unlike double
simulation this is a single sweep with no fixpoint — partners are taken
from ms(q'), not from the shrinking candidate sets — so it prunes
strictly less (the paper's GM-F vs GM comparison quantifies the gap).
The JM and TM baselines and the GM-F variant expand these sets into
edge relations with ``repro.core.rig.expand_rig``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame

from repro.core.matchsets import MatchContext
from repro.core.simulation import checkpoint_and_count
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern


def prefilter_nodes(
    ctx: MatchContext, p: Pattern, *, guard: Guard | None = None
) -> tuple[dict[int, DataFrame], dict[int, int]]:
    """One pass of existence checks against raw match sets.

    Returns ``(cos, counts)``: the pre-filtered node sets, materialized
    together in one checkpoint, and their sizes — the input of
    ``repro.core.rig.expand_rig``.
    """
    chains: dict[int, DataFrame] = {}
    for q in p.node_ids():
        cand = ctx.ms_node(p, q)
        for e in p.out_edges(q):
            ms = ctx.ms_edge(p, e)  # partners implicitly in ms(e.dst)
            cand = cand.join(ms, cand["id"] == ms["src"], "leftsemi")
        for e in p.in_edges(q):
            ms = ctx.ms_edge(p, e)
            cand = cand.join(ms, cand["id"] == ms["dst"], "leftsemi")
        chains[q] = cand
    cos, counts = checkpoint_and_count(chains)
    if guard is not None:
        for n in counts.values():
            guard.tick(n)
    return cos, counts
