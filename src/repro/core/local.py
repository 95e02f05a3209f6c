"""The driver-side substrate: a query's match sets as numpy arrays.

The paper's GM (§4-§6) runs double simulation, BuildRIG and MJoin in
memory, over adjacency bitmaps of a RIG far smaller than the graph.
Here the reachability closure and every ``ms(e)`` stay Spark
DataFrames, since they are data-sized: filter views of the labelled
relation a ``MatchContext`` builds and counts per key at set-up. A
query's ``ms(q)`` and ``ms(e)`` reach the driver as a :class:`LocalSets`
in one Spark job, each distinct key once
(``repro.core.simulation.collect_match_sets``), and every later phase
works on numpy arrays: FBSim and FBSimBas, the baselines' node
pre-filter, RIG expansion, MJoin and the baselines' binary joins. When
the sets total more than :data:`LOCAL_MAX_ROWS` rows by the set-up
counts, the collect raises
``RowCap`` before any Spark job, and a guarded run reports OM. The
answers go back to Spark through :func:`answer_frame`, so every caller
gets a DataFrame.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.queries.pattern import PEdge

# The most rows a query's ms(q) and ms(e) may total and still be
# collected; above it the query counts as out of memory (OM). It bounds
# driver memory, not time. In a probe on 4 cores with the benchmark's
# Spark settings (1 GB driver), GM listed a 4-cycle C-query over 2-label
# random graphs (limit 20,000) with 1.2e5 / 5.8e5 / 1.2e6 match-set rows
# in 2.2-2.9 / 12.6 / 25 s on the driver; a Spark implementation of the
# same phases took 59-68 / 336 / 549 s. With 2.9e6 rows the driver took
# 68 s, the Python process peaking at 424 MB, about 85 bytes per row
# above the 1.2e5-row run. The next size, a 1.6e6-node graph, ran the
# 1 GB driver out of heap while it was loaded, before GM started. So the
# limit is the largest size measured.
LOCAL_MAX_ROWS = 3_000_000


class LocalSets(dict):
    """Candidate node sets on the driver, plus the query's ``ms(e)``.

    Maps each query node to its candidate ids, a sorted int64 array.
    ``ms_edges`` maps each query edge to ``ms(e)``: an ``(n, 2)`` int64
    array of ``(src, dst)`` rows in lexicographic order, from which RIG
    expansion selects ``cos(e)``. Nodes or edges with the same labels
    (and kind) may share one array, so the arrays are read-only: every
    step builds new ones.
    """

    def __init__(self, nodes: dict[int, np.ndarray], ms_edges: dict[PEdge, np.ndarray]):
        super().__init__(nodes)
        self.ms_edges = ms_edges


def answer_frame(rows: np.ndarray, cols: list[str]) -> DataFrame:
    """Answer rows held on the driver as a DataFrame of LONG ``cols``.

    The rows are already counted, so the frame's ``count()`` returns
    their number without running a Spark job.
    """
    spark = SparkSession.builder.getOrCreate()
    df = spark.createDataFrame(
        pd.DataFrame(rows, columns=cols), schema=", ".join(f"{c} LONG" for c in cols)
    )
    df.count = lambda: len(rows)
    return df
