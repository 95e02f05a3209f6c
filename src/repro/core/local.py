"""GM's driver-side substrate: a query's match sets as numpy arrays.

The paper's GM (§4-§6) runs double simulation, BuildRIG and MJoin in
memory, over adjacency bitmaps of a RIG far smaller than the graph.
Here the reachability closure and every ``ms(e)`` stay Spark
DataFrames, since they are data-sized. When a query's ``ms(q)`` and
``ms(e)`` total at most :data:`LOCAL_MAX_ROWS` rows, ``fb_sim`` collects
them into a :class:`LocalSets`; one Spark job counts them first, and a
second collects them only when they fit
(``repro.core.simulation.collect_match_sets``, the only place the
choice is made). From then
on the sets' type picks the implementation: ``fb_sim``, ``expand_rig``
and ``mjoin`` work on numpy arrays when handed a :class:`LocalSets` and
on DataFrames otherwise. The answers go back to Spark through
:func:`answer_frame`, so every caller gets a DataFrame either way.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.queries.pattern import PEdge

# The most rows a query's ms(q) and ms(e) may total and still go to the
# driver. It bounds driver memory, not time. In a probe on 4 cores with
# the benchmark's Spark settings (1 GB driver), GM listed a 4-cycle
# C-query over 2-label random graphs (limit 20,000) on both paths:
# with 1.2e5 / 5.8e5 / 1.2e6 match-set rows the driver path took
# 2.2-2.9 / 12.6 / 25 s and the Spark path 59-68 / 336 / 549 s, so no
# crossover showed. With 2.9e6 rows the driver path alone was run: 68 s,
# the Python process peaking at 424 MB, about 85 bytes per row above
# the 1.2e5-row run. The next size, a 1.6e6-node graph, ran the 1 GB
# driver out of heap while it was loaded, before GM started. So the limit
# is the largest size measured, not a measured crossover. Above it the
# sets stay in Spark, which scales with the executors, not the driver.
LOCAL_MAX_ROWS = 3_000_000


class LocalSets(dict):
    """Candidate node sets on the driver, plus the query's ``ms(e)``.

    Maps each query node to its candidate ids, a sorted int64 array.
    ``ms_edges`` maps each query edge to ``ms(e)``: an ``(n, 2)`` int64
    array of ``(src, dst)`` rows in lexicographic order, from which RIG
    expansion selects ``cos(e)``.
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
