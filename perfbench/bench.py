"""One benchmark run: set-ups, listing rounds, the gate, then the report."""
from __future__ import annotations

import os
import platform
import shlex
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from pyspark.sql import SparkSession

from gate import Oracle
from report import report
from repro.baselines.engines import neo4j
from repro.baselines.jm import jm
from repro.baselines.tm import tm
from repro.core.gm import gm
from repro.core.matchsets import MatchContext
from repro.harness.runner import Guard, RowCap
from repro.harness.tables import MATCH_LIMIT, ROW_CAP
from repro.queries.pattern import Pattern
from tracing import Span, Tracer, patched
from workloads import make_graph, make_queries

# The run environment; printed with every result and identical on both
# sides of any comparison.
MASTER = f"local[{min(4, os.cpu_count() or 1)}]"
SHUFFLE_PARTITIONS = "4"
AQE = "true"
DRIVER_MEMORY = "1g"
SETUP_REPS = {"bench": 3, "test": 1}
BASELINES = {"jm": jm, "tm": tm, "neo4j": neo4j}


@dataclass
class Listing:
    """One query listed by one algorithm."""

    alg: str
    pattern: Pattern
    seconds: float = 0.0
    status: str = "ok"  # 'ok' | 'OM' (baseline row cap, by design) | 'error'
    rows: int | None = None
    df: object = None
    peak_rows: int = 0
    span: Span | None = None
    error: str = ""


def configure_process(work: Path) -> None:
    """Keep Spark's, the JVM's and Python's temp files inside ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    java_opts = shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {java_opts} "
        "--conf spark.driver.host=127.0.0.1 pyspark-shell"
    )


def start_session(work: Path) -> SparkSession:
    spark = (
        SparkSession.builder.appName("perfbench")
        .master(MASTER)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        # One em query at the repo's bench scale runs 841 jobs; keep every
        # job id so each span can count its own.
        .config("spark.ui.retainedJobs", "1000000")
        .config("spark.ui.retainedStages", "1000000")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.adaptive.enabled", AQE)
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.local.dir", str(work / "local"))
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown(spark: SparkSession) -> None:
    """Stop Spark and wait until the gateway JVM has exited."""
    gateway = spark.sparkContext._gateway
    proc = gateway.proc
    spark.stop()
    gateway.close()
    proc.stdin.close()  # the gateway JVM exits on EOF
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)


def jvm_peak_rss_mb(spark: SparkSession) -> float:
    with open(f"/proc/{spark.sparkContext._gateway.proc.pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("the Spark JVM reports no VmHWM")


class Bench:
    def __init__(self, args, wl, work: Path):
        self.args, self.wl, self.work_dir = args, wl, work
        self.cap, self.row_cap = MATCH_LIMIT, ROW_CAP
        self.tracer = Tracer() if args.trace else None
        self.spark = None
        configure_process(work)

    def span(self, name: str, tracer: Tracer | None, **attrs):
        return tracer.span(name, **attrs) if tracer is not None else nullcontext()

    def environment(self) -> dict:
        spark = self.spark
        return {
            "nproc": os.cpu_count(),
            "master": spark.sparkContext.master,
            "shuffle_partitions": spark.conf.get("spark.sql.shuffle.partitions"),
            "aqe": spark.conf.get("spark.sql.adaptive.enabled"),
            "driver_memory": DRIVER_MEMORY,
            "seed": self.args.seed,
            "python": platform.python_version(),
            "spark": spark.version,
            "java": spark.sparkContext._jvm.java.lang.System.getProperty("java.version"),
            "workload": self.wl.name,
            "scale": self.args.scale,
            "trace": self.args.trace,
        }

    # -- set-up ------------------------------------------------------------
    def setup_once(self) -> float:
        """Session start + graph generation + MatchContext; returns seconds."""
        t0 = time.perf_counter()
        if self.spark is not None:
            self.spark.stop()
        self.spark = start_session(self.work_dir)
        tr = self.tracer
        if tr is not None:
            tr.bind(self.spark.sparkContext)
            tr.spans.append(Span(len(tr.spans), "session.start", None, t0, time.perf_counter()))
        with self.span("graphs.load", tr):
            g, self.nodes_pdf, self.edges_pdf = make_graph(
                self.spark, self.args.scale, self.args.seed)
            g.nodes.count()
            g.edges.count()
        with self.span("MatchContext", tr):
            ctx = MatchContext(graph=g)
            self.reach_rows = ctx.reach.count()
        self.graph, self.ctx = g, ctx
        return time.perf_counter() - t0

    # -- listing -------------------------------------------------------------
    def list_gm(self, p, tr: Tracer | None) -> Listing:
        out = Listing("gm", p)
        t0 = time.perf_counter()
        try:
            with self.span("gm", tr, query=p.name) as s:
                res = gm(self.ctx, p, order_method="jo", sim_passes=3,
                         limit=self.cap, partial_cap=2 * self.cap)
                with self.span("count", tr):
                    out.rows = res.count()
            out.df, out.span = res.df, s
        except Exception:  # one failing query must not sink the run
            out.status, out.error = "error", traceback.format_exc()
        out.seconds = time.perf_counter() - t0
        return out

    def list_baseline(self, alg: str, p, tr: Tracer | None) -> Listing:
        out = Listing(alg, p)
        guard = Guard(row_cap=self.row_cap)
        t0 = time.perf_counter()
        try:
            with self.span(alg, tr, query=p.name) as s:
                try:
                    out.df = BASELINES[alg](self.ctx, p, limit=self.cap, guard=guard)
                    out.rows = out.df.count()
                except RowCap:
                    out.status, out.df = "OM", None
            out.span = s
        except Exception:
            out.status, out.error = "error", traceback.format_exc()
        out.seconds = time.perf_counter() - t0
        out.peak_rows = guard.max_rows_seen
        return out

    def list_round(self, queries, algs, tr: Tracer | None = None) -> list[Listing]:
        """List every query with each algorithm; ``ms(e)`` starts empty."""
        self.ctx.release()
        if tr is not None:
            tr.reset_ms_edge_keys()
        if algs == ("gm",):
            return [self.list_gm(p, tr) for p in queries]
        return [self.list_baseline(alg, p, tr) for p in queries for alg in algs]

    # -- the run -------------------------------------------------------------
    def run(self) -> int:
        args, tr = self.args, self.tracer
        try:
            with patched(tr) if tr is not None else nullcontext():
                setups = [self.setup_once() for _ in range(SETUP_REPS[args.scale])]
            queries = make_queries(args.scale, args.seed)
            rounds: list[list[Listing]] = []
            traced: dict[str, list[Listing]] = {}
            if tr is not None:
                # Untraced, traced, untraced: the second listing of a plan shape
                # runs 20-35% faster than the first, so the overhead is taken
                # against the last round, which follows the traced one.
                rounds.append(self.list_round(queries, self.wl.algs))
                self.traced_from = len(tr.spans)
                with patched(tr):
                    traced["gm"] = self.list_round(queries, ("gm",), tr)
                    traced["baselines"] = self.list_round(queries, tuple(BASELINES), tr)
                rounds.append(self.list_round(queries, self.wl.algs))
            else:
                t0 = time.perf_counter()
                while not rounds or time.perf_counter() - t0 < args.seconds:
                    rounds.append(self.list_round(queries, self.wl.algs))
            peak_rss = jvm_peak_rss_mb(self.spark)
            env = self.environment()
            listings = [x for r in rounds for x in r] + [x for r in traced.values() for x in r]
            failures = self.gate(listings)
        finally:
            if self.spark is not None:
                shutdown(self.spark)
        return report(self, env, setups, queries, rounds, traced, failures, peak_rss)

    def gate(self, listings: list[Listing]) -> list[tuple[Listing, str]]:
        """Check every listed answer against DuckDB; returns the failures."""
        oracle = Oracle(self.nodes_pdf, self.edges_pdf)
        failures = []
        try:
            for lst in listings:
                if lst.status == "error":
                    print(lst.error, file=sys.stderr)
                    failures.append((lst, lst.error.strip().splitlines()[-1]))
                    continue
                if lst.status != "ok":
                    continue
                answer = lst.df.toPandas()
                lst.df = None
                if len(answer) != lst.rows:
                    why = f"count() gave {lst.rows} rows, the collected answer {len(answer)}"
                else:
                    why = oracle.check(lst.pattern, answer, self.cap)
                if why is not None:
                    failures.append((lst, why))
        finally:
            oracle.close()
        return failures
