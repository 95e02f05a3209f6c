"""GM: the paper's end-to-end graph pattern matching pipeline (§7.1).

transitive reduction (§3) -> double simulation + RIG (§4) -> search
order (§5.2) -> MJoin enumeration (§5.1). Variants exercised by the
evaluation tables:

* ``gm``    — full pipeline (FBSim, pass cap 3, JO order by default).
* ``gm-f``  — no double simulation; RIG from pre-filtered match sets
  (one-pass node pre-filter [11,63]) — larger RIG, slower enumeration.
* ``gm-nr`` — skip the pattern transitive reduction (Fig. 15 ablation).

Every variant collects the query's match sets to the driver in one
Spark job, then selects its nodes (double simulation, or GM-F's
pre-filter), builds the RIG and enumerates there (repro.core.local).
Match sets too large to collect raise ``RowCap``, which a guarded run
reports as OM. ``timings["mjoin_build"]`` times the enumeration itself.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.baselines.prefilter import prefilter_nodes
from repro.core.matchsets import MatchContext
from repro.core.mjoin import mjoin
from repro.core.ordering import pick_order
from repro.core.rig import RIG, build_rig, expand_rig
from repro.harness.runner import Guard
from repro.queries.pattern import Pattern
from repro.queries.transitive_reduction import transitive_reduction

VARIANTS = ("gm", "gm-f", "gm-nr")


@dataclass
class GMResult:
    """Answer DataFrame plus the phase metrics the paper reports."""

    df: DataFrame
    rig: RIG
    order: list[int]
    pattern: Pattern
    timings: dict[str, float] = field(default_factory=dict)

    def count(self) -> int:
        """Count the answers; the seconds go to ``timings["count"]``.

        The answers are listed already, and no job runs.
        """
        t0 = time.perf_counter()
        n = self.df.count()
        self.timings["count"] = time.perf_counter() - t0
        return n


def gm(
    ctx: MatchContext,
    p: Pattern,
    *,
    variant: str = "gm",
    order_method: str = "jo",
    sim_passes: int | None = 3,
    limit: int | None = None,
    guard: Guard | None = None,
    partial_cap: int | None = None,
) -> GMResult:
    """Run GM (or a variant) and return its answers."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown GM variant {variant!r}; choose from {VARIANTS}")
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    if variant != "gm-nr":
        p = transitive_reduction(p)
    timings["reduce"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if variant == "gm-f":
        rig = expand_rig(p, *prefilter_nodes(ctx, p, guard=guard), guard=guard)
    else:
        rig = build_rig(ctx, p, max_passes=sim_passes, guard=guard)
    timings["rig"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    order = pick_order(order_method, rig, guard=guard)
    timings["order"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    df = mjoin(rig, order, limit=limit, guard=guard, partial_cap=partial_cap)
    timings["mjoin_build"] = time.perf_counter() - t0
    return GMResult(df=df, rig=rig, order=order, pattern=p, timings=timings)
