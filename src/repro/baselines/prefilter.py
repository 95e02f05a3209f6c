"""Node pre-filtering [11, 63] (paper §7.1): one-pass structural pruning.

Retains a data node v in the candidate set of query node q only if, for
every edge incident to q, v has at least one label-compatible partner
in the *raw match set* of the adjacent query node. Unlike double
simulation this is a single sweep with no fixpoint — partners are taken
from ms(q'), not from the shrinking candidate sets — so it prunes
strictly less (the paper's GM-F vs GM comparison quantifies the gap).
The JM and TM baselines and the GM-F variant expand these sets into
edge relations with ``repro.core.rig.expand_rig``.

The sweep runs on the driver, over the match sets that
``collect_match_sets`` ships there in one Spark job
(``repro.core.local``): one ``np.isin`` cut per incident edge, and the
sets come back as a ``LocalSets``, so expansion runs on the driver too.
"""
from __future__ import annotations

import numpy as np

from repro.core.local import LocalSets
from repro.core.matchsets import MatchContext
from repro.core.simulation import collect_match_sets
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern


def prefilter_nodes(
    ctx: MatchContext, p: Pattern, *, guard: Guard | None = None
) -> tuple[LocalSets, dict[int, int]]:
    """One pass of existence checks against raw match sets.

    Returns ``(cos, counts)``: the pre-filtered node sets, sorted id
    arrays in a ``LocalSets``, and their sizes — the input of
    ``repro.core.rig.expand_rig``. The guard is ticked with each count,
    in node order.
    """
    sets = collect_match_sets(ctx, p)
    cand = {}
    for q in p.node_ids():
        ids = sets[q]
        for e in p.out_edges(q):
            ids = ids[np.isin(ids, sets.ms_edges[e][:, 0])]
        for e in p.in_edges(q):
            ids = ids[np.isin(ids, sets.ms_edges[e][:, 1])]
        cand[q] = ids
    counts = {q: len(ids) for q, ids in cand.items()}
    if guard is not None:
        for n in counts.values():
            guard.tick(n)
    return LocalSets(cand, sets.ms_edges), counts
