"""Turn a finished run into printed tables, metrics and the result line."""
from __future__ import annotations

import json
import statistics
from collections import Counter

from catalog import END_TO_END, PER_LAYER


def ms_key_repeat(queries) -> tuple[int, int]:
    """(repeats, requests): query edges whose ms(e) key an earlier edge already asked for."""
    seen, repeats, total = set(), 0, 0
    for p in queries:
        for e in p.edges:
            key = (e.kind, p.label_of(e.src), p.label_of(e.dst))
            total += 1
            repeats += key in seen
            seen.add(key)
    return repeats, total


def _share(num: int, den: int) -> str:
    return f"{num / den if den else 0.0:.3f} ({num}/{den})"


def print_properties(bench, queries, listings) -> None:
    """Input properties a later change can cite: per workload and seed."""
    n_v = len(bench.nodes_pdf)
    rows = {}  # query -> answer size, from its first listing that returned one
    for r in listings:
        if r.rows is not None:
            rows.setdefault(r.pattern.name, r.rows)
    empty = sum(n == 0 for n in rows.values())
    capped = sum(n == bench.cap for n in rows.values())
    rep, req = ms_key_repeat(queries)
    print(
        f"properties workload={bench.wl.name} seed={bench.args.seed} V={n_v} "
        f"queries={len(queries)} empty_share={_share(empty, len(rows))} "
        f"capped_share={_share(capped, len(rows))} "
        f"closure_density={bench.reach_rows / (n_v * n_v):.4f} ({bench.reach_rows}/{n_v}^2) "
        f"ms_key_repeat_share={_share(rep, req)}"
    )


def print_listings(label: str, listings) -> None:
    for r in listings:
        print(f"listing {label} alg={r.alg} query={r.pattern.name} "
              f"status={r.status} rows={r.rows} seconds={r.seconds:.4f}")


def query_seconds(rounds) -> list[float]:
    """Per round and query: the time to list it with the workload's algorithms."""
    out = []
    for r in rounds:
        per_query: dict[str, float] = {}
        for x in r:
            per_query[x.pattern.name] = per_query.get(x.pattern.name, 0.0) + x.seconds
        out += per_query.values()
    return out


def end_to_end(setups, rounds, peak_rss) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "listing_s": statistics.median(sum(x.seconds for x in r) for r in rounds),
        "query_s_p50": statistics.median(query_seconds(rounds)),
        "peak_rss_mb": peak_rss,
    }


def per_layer(bench, untraced, traced) -> dict[str, float]:
    tr = bench.tracer
    setup_spans = tr.spans[: bench.traced_from]
    round_spans = tr.spans[bench.traced_from :]
    gm_runs, bl_runs = traced["gm"], traced["baselines"]
    med = statistics.median

    closures = tr.named("transitive_closure", setup_spans)
    sims = tr.named("fb_sim", round_spans) + tr.named("fb_sim_bas", round_spans)
    rigs = tr.named("build_rig", round_spans)
    mjoins = tr.named("mjoin", round_spans)
    counts = tr.named("count", round_spans)

    label_sizes = Counter(bench.nodes_pdf["label"])
    ms_rows = sum(label_sizes[r.pattern.label_of(q)] for r in gm_runs
                  for q in r.pattern.node_ids())
    fb_rows = sum(s.attrs["fb_rows"] for s in sims)
    ok_gm = [r for r in gm_runs if r.rows is not None]

    # Overhead and span cover compare the workload's own listings,
    # untraced and traced, query by query.
    own = gm_runs if bench.wl.algs == ("gm",) else bl_runs
    gaps = []
    for a, b in zip(untraced, own):
        if b.span is not None and a.seconds > 0:
            top = sum(s.seconds for s in (tr.children(b.span) if b.alg == "gm" else [b.span]))
            gaps.append(abs(top - a.seconds) / a.seconds)
            print(f"span_cover alg={b.alg} query={b.pattern.name} top_spans_s={top:.4f} "
                  f"untraced_s={a.seconds:.4f} gap={gaps[-1]:.4f}")
    jobs = sum(s.jobs for s in round_spans)

    def alg_s(alg):
        return sum(r.seconds for r in bl_runs if r.alg == alg)

    return {
        "graphs.load_s": med(s.seconds for s in tr.named("graphs.load", setup_spans)),
        "reach.closure_s": med(s.seconds for s in closures),
        "reach.closure_jobs": med(s.jobs for s in closures),
        "reach.closure_rows": bench.reach_rows,
        "queries.reduce_s": sum(s.seconds for s in tr.named("transitive_reduction", round_spans)),
        "matchsets.ms_edge_calls": tr.ms_edge_calls,
        "matchsets.ms_edge_distinct": tr.ms_edge_distinct,
        "simulation.s": sum(s.seconds for s in sims),
        "simulation.jobs": sum(s.jobs for s in sims),
        "simulation.passes": sum(s.attrs["passes"] for s in sims),
        "simulation.prune_ratio": fb_rows / ms_rows if ms_rows else 0.0,
        "rig.expand_s": sum(tr.self_seconds(s) for s in rigs),
        "rig.expand_jobs": sum(s.jobs for s in rigs),
        "rig.size": sum(s.attrs["size"] for s in rigs),
        "rig.empty_share": sum(s.attrs["empty"] for s in rigs) / len(rigs) if rigs else 0.0,
        "ordering.s": sum(s.seconds for s in tr.named("pick_order", round_spans)),
        "mjoin.build_s": sum(s.seconds for s in mjoins),
        "mjoin.action_s": sum(s.seconds for s in counts),
        "mjoin.jobs": sum(s.jobs for s in mjoins + counts),
        "mjoin.answers": sum(r.rows for r in ok_gm),
        "mjoin.capped_share": (sum(r.rows == bench.cap for r in ok_gm) / len(ok_gm)
                               if ok_gm else 0.0),
        "baselines.jm_s": alg_s("jm"),
        "baselines.tm_s": alg_s("tm"),
        "baselines.neo4j_s": alg_s("neo4j"),
        "baselines.jobs": sum(r.span.jobs for r in bl_runs if r.span is not None),
        "baselines.peak_rows": max((r.peak_rows for r in bl_runs), default=0),
        "baselines.om_count": sum(r.status == "OM" for r in bl_runs),
        "spark.jobs": jobs,
        "spark.s_per_job": sum(r.seconds for r in gm_runs + bl_runs) / jobs if jobs else 0.0,
        "trace.overhead_s": sum(r.seconds for r in own) - sum(r.seconds for r in untraced),
        "trace.top_span_gap": med(gaps) if gaps else 0.0,
    }


def write_spans(bench) -> None:
    path = bench.work_dir / f"spans-{bench.wl.name}-seed{bench.args.seed}.json"
    path.write_text(json.dumps([
        {"id": s.sid, "name": s.name, "parent": s.parent, "start": s.start,
         "end": s.end, "jobs": s.jobs, "attrs": s.attrs}
        for s in bench.tracer.spans
    ]))
    print(f"spans written to {path}")


def report(bench, env, setups, queries, rounds, traced, failures, peak_rss) -> int:
    """Print everything; the last line is the JSON result."""
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for i, r in enumerate(rounds):
        print_listings(f"round={i}", r)
    for family, r in traced.items():
        print_listings(f"traced={family}", r)
    print_properties(bench, queries, rounds[0])
    for lst, why in failures:
        print(f"FAILED alg={lst.alg} query={lst.pattern.name}: {why}")
    attempted = sum(len(r) for r in rounds) + sum(len(r) for r in traced.values())
    print(f"metric failed_share = {len(failures) / attempted:.4f} "
          f"({len(failures)} failed of {attempted} attempted)")
    if not traced:
        om = sum(x.status == "OM" for r in rounds for x in r)
        print(f"metric baselines.om_count = {om} count (row-cap outcomes, not failures)")
    e2e = end_to_end(setups, rounds, peak_rss)
    notes = {
        "setup_s": f"median of {len(setups)}: " + ", ".join(f"{s:.3f}" for s in setups),
        "listing_s": f"median of {len(rounds)} round(s)",
        "query_s_p50": f"n={len(query_seconds(rounds))}",
        "peak_rss_mb": "Spark JVM VmHWM",
    }
    for name, value in e2e.items():
        print(f"metric {name} = {value:.4f} {END_TO_END[name][0]} ({notes[name]})")
    if traced:
        metrics = per_layer(bench, rounds[-1], traced)
        for name, value in metrics.items():
            print(f"metric {name} = {value} {PER_LAYER[name][0]}")
        write_spans(bench)
        units = {k: v[0] for k, v in PER_LAYER.items()}
    else:
        metrics = e2e
        units = {k: v[0] for k, v in END_TO_END.items()}
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0
