"""Benchmark workloads: which graph, which queries, which caps.

A workload fixes the *structure* of its inputs: the graph generator's
seed and the label seed of its query templates are constants here. The
run's ``--seed`` draws a random permutation of node ids and of label
names, applied to the graph and to the query labels alike, so each seed
gives a distinct input of identical shape and the same seed gives the
same input. The program receives only the relabelled graph and
patterns.

Why not draw a fresh graph per seed: at the sizes below, whether a
query's answer is empty, and after how many simulation passes that
shows, swings with the generator seed. Over five generator seeds one
run's GM listing time had a quartile spread of 0.28 of its median (0.37
per query), against about 0.1 between runs of one input, so the
benchmark would have measured the seed lottery rather than the program.

Graph sizes are far below the repo's ``bench`` scale (1,200 nodes for
em). On 4 cores with ``local[4]`` a Spark action costs 0.05-0.5 s,
so the closure and every simulation pass are dominated by job count,
not data volume: at bench scale one em H-query takes 16-131 s and the
closure 24-65 s, which does not fit a run. The sizes below keep each
workload's reason for existing (see ``why``) while a whole run, three
set-ups included, stays near one minute.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.graphs.datasets import PROFILES
from repro.graphs.generators import generate_graph
from repro.graphs.model import Graph, graph_from_pandas
from repro.queries.pattern import Pattern
from repro.queries.templates import instantiate

GRAPH_SEED = 12  # generator seed: fixes the graph's shape
LABEL_SEED = 12  # instantiate() seed: fixes which labels each query node shares
PROFILE = "em"  # repro.graphs.datasets.PROFILES key
QTYPE = "H"
N_NODES = {"bench": 40, "test": 24}  # scale -> data-graph nodes
# H-query templates 0, 2 and 6 (Tables 4 and 6), listed in this order; three
# keep a whole run near one minute.
TIDS = {"bench": (0, 2, 6), "test": (0,)}


@dataclass(frozen=True)
class Workload:
    """Both workloads list the same inputs; they differ in the algorithms."""

    name: str
    algs: tuple[str, ...]  # ('gm',) or baselines, listed in this order
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="hybrid-em", algs=("gm",),
            why="GM on em H-queries: half of each query's edges read the closure, so "
            "simulation and RIG expansion carry the time and MJoin is nearly idle",
        ),
        Workload(
            name="baselines-em", algs=("jm", "tm", "neo4j"),
            why="JM, TM and the Neo4j simulator on the hybrid-em graph and queries, "
            "under the row cap only, so the baselines layer is measured",
        ),
    )
}


class Relabel:
    """The seed's permutation of node ids and of label names."""

    def __init__(self, n_nodes: int, n_labels: int, seed: int):
        rng = np.random.default_rng(seed)
        self.ids = rng.permutation(n_nodes).astype(np.int64)
        self.labels = {f"L{i}": f"L{j}" for i, j in enumerate(rng.permutation(n_labels))}


def make_graph(spark, scale: str, seed: int) -> tuple[Graph, pd.DataFrame, pd.DataFrame]:
    """The data graph, relabelled by ``seed`` and cached, with its node and
    edge frames (the oracle's input)."""
    n = N_NODES[scale]
    base = generate_graph(spark, n_nodes=n, profile=PROFILES[PROFILE], seed=GRAPH_SEED)
    nodes, edges = base.to_pandas()
    r = Relabel(n, PROFILES[PROFILE].n_labels, seed)
    nodes = nodes.assign(id=r.ids[nodes["id"]], label=nodes["label"].map(r.labels))
    edges = edges.assign(src=r.ids[edges["src"]], dst=r.ids[edges["dst"]])
    g = graph_from_pandas(spark, nodes, edges, name=f"{PROFILE}-{n}n-s{seed}").cache()
    return g, nodes, edges


def make_queries(scale: str, seed: int) -> list[Pattern]:
    """The patterns in run order, labels relabelled by ``seed``."""
    n_labels = PROFILES[PROFILE].n_labels
    r = Relabel(N_NODES[scale], n_labels, seed)
    out = []
    for tid in TIDS[scale]:
        p = instantiate(tid, qtype=QTYPE, n_labels=n_labels, seed=LABEL_SEED)
        labels = {q: r.labels[p.label_of(q)] for q in p.node_ids()}
        out.append(Pattern.of(labels, p.edges, name=p.name))
    return out
