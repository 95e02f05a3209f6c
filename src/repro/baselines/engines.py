"""Engine simulators for the paper's §7.5 system comparison.

The real comparators (GraphflowDB, EmptyHeaded, Neo4j) are unavailable
JVM/C++ engines, so we simulate each with this repository's parts,
preserving the cost structure the paper attributes to it (see DESIGN.md
"Substitutions"). GF and EH collect the query's match sets to the driver
in one Spark job and build the match RIG and probe it there, as GM
does (sets too large to collect raise ``RowCap``: OM); Neo4j joins on
Spark:

* **GF** (GraphflowDB [38]) — must build a *catalog* of subgraph
  cardinalities before answering anything. We materialize the
  label-path statistics (timed) and model the catalog's memory
  footprint as ``L^2*|V| + L*|E|`` entries (per-vertex per-label-pair
  extension statistics — what GF's catalog stores); the entry count is
  checked against the guard's row cap, reproducing the paper's
  out-of-memory failures on many-label graphs (Fig. 16(a)). Query
  evaluation is a WCO join over the match RIG of the data graph's edges
  (no reachability support: D-queries require a caller-materialized
  transitive closure, exactly the paper's workaround).
* **EH** (EmptyHeaded [4]) — expensive precomputation (builds the
  match RIG, i.e. materializes every query-node and query-edge
  relation, timed separately) then a WCO probe over it, the same MJoin
  as GF; reported as EH (precompute + probe) and EH-probe (probe only),
  matching Table 5's two rows.
* **Neo4j** — binary joins in syntactic edge order: no global join
  optimizer, no pruning, reachability edges via the reach relation
  (the APOC-expansion analogue). Guarded per step -> TO on the queries
  Neo4j cannot finish.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.baselines.jm import binary_join
from repro.core.matchsets import MatchContext
from repro.core.mjoin import mjoin
from repro.core.ordering import jo_order
from repro.core.rig import RIG, expand_rig
from repro.core.simulation import collect_match_sets
from repro.harness.runner import Guard, RowCap
from repro.queries.pattern import CHILD, Pattern


def _match_rig(ctx: MatchContext, p: Pattern, *, guard: Guard | None = None) -> RIG:
    """The match RIG G_Q^m that GF and EH probe: cos(q) = ms(q), no pruning."""
    ms = collect_match_sets(ctx, p)
    return expand_rig(p, ms, {q: len(ids) for q, ids in ms.items()}, guard=guard)


# ---------------------------------------------------------------------------
# GF-like
# ---------------------------------------------------------------------------
@dataclass
class Catalog:
    """GF's precomputed subgraph-cardinality statistics."""

    label_pair_counts: dict
    entries_modeled: int
    build_seconds: float


def build_catalog(ctx: MatchContext, *, guard: Guard | None = None) -> Catalog:
    """Materialize label-path statistics; OM when the modeled footprint
    (L^2*V + L*E entries) exceeds the guard's row cap."""
    t0 = time.perf_counter()
    g = ctx.graph
    s = g.stats()
    n_v, n_e, n_l = s["V"], s["E"], s["L"]
    entries = n_l * n_l * n_v + n_l * n_e
    if guard is not None:
        guard.tick(entries)  # raises RowCap -> reported as OM

    lbl = g.nodes.select(F.col("id"), F.col("label"))
    e1 = (
        g.edges.join(lbl.withColumnsRenamed({"id": "src", "label": "ls"}), "src")
        .join(lbl.withColumnsRenamed({"id": "dst", "label": "ld"}), "dst")
    )
    pair_counts = {
        (r["ls"], r["ld"]): r["n"]
        for r in e1.groupBy("ls", "ld").agg(F.count("*").alias("n")).collect()
    }
    # 2-edge path statistics (the expensive part of a real catalog).
    p2 = (
        e1.alias("a")
        .join(g.edges.alias("b"), F.col("a.dst") == F.col("b.src"))
        .groupBy(F.col("a.ls"), F.col("a.ld"))
        .agg(F.count("*").alias("n"))
    )
    p2.collect()
    return Catalog(
        label_pair_counts=pair_counts,
        entries_modeled=entries,
        build_seconds=time.perf_counter() - t0,
    )


def gf(
    ctx: MatchContext,
    p: Pattern,
    *,
    limit: int | None = None,
    guard: Guard | None = None,
) -> DataFrame:
    """GF query evaluation: WCO join straight on the data graph.

    Child edges only — callers evaluating D-queries must hand in a
    MatchContext whose graph edges are the materialized transitive
    closure (with every pattern edge downgraded to CHILD).
    """
    if any(e.kind != CHILD for e in p.edges):
        raise ValueError("GF cannot map edges to paths; materialize the TC first")
    rig = _match_rig(ctx, p, guard=guard)
    return mjoin(rig, jo_order(rig), limit=limit, guard=guard)


def child_only_on_closure(p: Pattern) -> Pattern:
    """Rewrite every edge to CHILD — valid when edges are the closure."""
    return p.with_edges(
        [type(e)(e.src, e.dst, CHILD) for e in p.edges], name=p.name + "-tc"
    )


# ---------------------------------------------------------------------------
# EH-like
# ---------------------------------------------------------------------------
def eh(
    ctx: MatchContext,
    p: Pattern,
    *,
    limit: int | None = None,
    guard: Guard | None = None,
) -> tuple[DataFrame, float]:
    """EmptyHeaded: match-RIG precomputation, then WCO probe.

    Returns ``(answer_df, precompute_seconds)`` so Table 5 can report
    both EH (with precomputation) and EH-probe (without).
    """
    t0 = time.perf_counter()
    rig = _match_rig(ctx, p, guard=guard)
    pre = time.perf_counter() - t0
    return mjoin(rig, jo_order(rig), limit=limit, guard=guard), pre


# ---------------------------------------------------------------------------
# Neo4j-like
# ---------------------------------------------------------------------------
def neo4j(
    ctx: MatchContext,
    p: Pattern,
    *,
    limit: int | None = None,
    guard: Guard | None = None,
) -> DataFrame:
    """Binary joins in syntactic order, no reordering, no pruning."""
    # Cypher-style expansion: take the next edge touching the bound
    # prefix (Neo4j never reorders globally).
    order, pending = [p.edges[0]], list(p.edges[1:])
    bound = {p.edges[0].src, p.edges[0].dst}
    while pending:
        e = next(x for x in pending if x.src in bound or x.dst in bound)
        pending.remove(e)
        order.append(e)
        bound |= {e.src, e.dst}
    rels = {e: ctx.ms_edge(p, e) for e in p.edges}
    out = binary_join(p, rels, order, guard=guard)
    return out if limit is None else out.limit(limit)
