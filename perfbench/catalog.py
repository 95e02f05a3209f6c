"""Every metric the benchmark reports: unit, direction, layer, and the
end-to-end metric each layer metric should move, on which workload.

``BENCHMARK.json`` carries the names, units, directions and bounds; the
benchmark's tests check that the two agree. Layers are the repo's
modules under ``src/repro``.
"""
from __future__ import annotations

# name -> (unit, better, what it is)
END_TO_END: dict[str, tuple[str, str, str]] = {
    "setup_s": ("s", "lower",
                "median of 3 set-ups in one process: Spark session start (a cold JVM "
                "launch the first time, a context restart after), graph generation, "
                "MatchContext construction with the transitive closure"),
    "listing_s": ("s", "lower",
                  "query-listing time of one round: sum over the workload's listings of "
                  "the time from the call into gm() or a baseline until count() of the "
                  "capped answer returns; median over rounds"),
    "query_s_p50": ("s", "lower",
                    "median over a run's queries of the time to list one query with the "
                    "workload's algorithms (GM alone, or JM + TM + Neo4j)"),
    "peak_rss_mb": ("MB", "lower", "Spark JVM VmHWM at the end of the listing"),
}

# name -> (unit, better, layer, which end-to-end metric it should move, where).
# Every trace run traces GM and the baselines over the workload's queries,
# so each layer is measured on both workloads; "moves" names the workload
# whose end-to-end metrics the layer feeds.
PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    "graphs.load_s": ("s", "lower", "graphs", "setup_s on both workloads"),
    "reach.closure_s": ("s", "lower", "reach", "setup_s on both workloads"),
    "reach.closure_jobs": ("count", "lower", "reach", "setup_s on both workloads"),
    "reach.closure_rows": ("count", "lower", "reach",
                           "setup_s on both; listing_s on both, since descendant ms(e) "
                           "relations are read from the closure"),
    "queries.reduce_s": ("s", "lower", "queries", "control: near zero everywhere"),
    "matchsets.ms_edge_calls": ("count", "lower", "matchsets",
                                "the gap to ms_edge_distinct is shared work; lowers listing_s"),
    "matchsets.ms_edge_distinct": ("count", "lower", "matchsets",
                                   "ms(e) relations built; each costs jobs in listing_s"),
    "simulation.s": ("s", "lower", "simulation", "listing_s and query_s_p50 on hybrid-em"),
    "simulation.jobs": ("count", "lower", "simulation", "listing_s on hybrid-em"),
    "simulation.passes": ("count", "lower", "simulation", "listing_s on hybrid-em"),
    "simulation.prune_ratio": ("ratio", "lower", "simulation",
                               "sum |FB(q)| / sum |ms(q)|: smaller RIGs, listing_s on hybrid-em"),
    "rig.expand_s": ("s", "lower", "rig",
                     "build_rig self time (its simulation excluded); listing_s on hybrid-em"),
    "rig.expand_jobs": ("count", "lower", "rig", "listing_s on hybrid-em"),
    "rig.size": ("count", "lower", "rig", "MJoin input size; listing_s on hybrid-em"),
    "rig.empty_share": ("ratio", "higher", "rig",
                        "queries ended early by an empty RIG; lowers listing_s on hybrid-em"),
    "ordering.s": ("s", "lower", "ordering", "control under JO: near zero"),
    "mjoin.build_s": ("s", "lower", "mjoin", "listing_s on hybrid-em (plan construction)"),
    "mjoin.action_s": ("s", "lower", "mjoin",
                       "listing_s on hybrid-em (the count() that runs the lazy plan)"),
    "mjoin.jobs": ("count", "lower", "mjoin", "listing_s on hybrid-em"),
    "mjoin.answers": ("count", "higher", "mjoin", "fixed by correctness: a change is a bug"),
    "mjoin.capped_share": ("ratio", "higher", "mjoin", "answers at the listing cap"),
    "baselines.jm_s": ("s", "lower", "baselines", "listing_s on baselines-em only"),
    "baselines.tm_s": ("s", "lower", "baselines", "listing_s on baselines-em only"),
    "baselines.neo4j_s": ("s", "lower", "baselines", "listing_s on baselines-em only"),
    "baselines.jobs": ("count", "lower", "baselines", "listing_s on baselines-em only"),
    "baselines.peak_rows": ("count", "lower", "baselines",
                            "largest intermediate; peak_rss_mb and OM on baselines-em"),
    "baselines.om_count": ("count", "lower", "baselines",
                           "row-cap outcomes on baselines-em (designed, not failures)"),
    "spark.jobs": ("count", "lower", "spark",
                   "jobs in the traced round; with s_per_job it tells fewer jobs from "
                   "cheaper jobs, on both workloads"),
    "spark.s_per_job": ("s", "lower", "spark", "traced round seconds per Spark job"),
    "trace.overhead_s": ("s", "lower", "trace",
                         "traced minus untraced time of the workload's own listings"),
    "trace.top_span_gap": ("ratio", "lower", "trace",
                           "median over the workload's listings of |sum of top-level spans - "
                           "untraced listing time| / untraced listing time"),
}
