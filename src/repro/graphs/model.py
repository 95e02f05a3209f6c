"""Data-graph model: directed node-labeled graphs as DataFrames.

The paper (Def. 2.1) assumes a directed node-labeled graph ``G=(V,E)``.
We hold ``G`` as two DataFrames — ``nodes(id BIGINT, label STRING)`` and
``edges(src BIGINT, dst BIGINT)`` — so every downstream operation
(inverted lists, match sets, simulation pruning, MJoin) is a Catalyst
plan over these relations.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

NODE_SCHEMA = "id LONG, label STRING"
EDGE_SCHEMA = "src LONG, dst LONG"


@dataclass
class Graph:
    """A directed node-labeled data graph held as two DataFrames.

    ``nodes``: one row per node, columns ``id`` (unique) and ``label``.
    ``edges``: one row per directed edge, columns ``src`` and ``dst``;
    deduplicated, no self-loops (generators enforce this).
    """

    nodes: DataFrame
    edges: DataFrame
    name: str = "graph"
    _label_cache: dict = field(default_factory=dict, repr=False)

    def cache(self) -> "Graph":
        """Cache both relations; the graph is re-read by every phase."""
        self.nodes.cache()
        self.edges.cache()
        return self

    def unpersist(self) -> None:
        """Free both relations and every cached inverted list."""
        self.nodes.unpersist()
        self.edges.unpersist()
        for ids in self._label_cache.values():
            ids.unpersist()
        self._label_cache.clear()

    def inverted_list(self, label: str) -> DataFrame:
        """``I_label``: ids of nodes carrying ``label`` (Def. 2.1)."""
        if label not in self._label_cache:
            self._label_cache[label] = (
                self.nodes.where(F.col("label") == label).select("id").cache()
            )
        return self._label_cache[label]

    def stats(self) -> dict:
        """Table-2 style statistics: |V|, |E|, |L| and average degrees.

        ``d_avg`` is the undirected average degree ``2|E|/|V|``;
        ``d_out`` is the average out-degree ``|E|/|V|``. Three Spark jobs.
        """
        v = self.nodes.count()
        e = self.edges.count()
        labels = self.nodes.select("label").distinct().count()
        return {
            "V": v,
            "E": e,
            "L": labels,
            "d_avg": round(2.0 * e / v, 2) if v else 0.0,
            "d_out": round(e / v, 2) if v else 0.0,
        }

    def to_pandas(self) -> tuple[pd.DataFrame, pd.DataFrame]:
        """Collect both relations — used to feed the DuckDB oracle."""
        return self.nodes.toPandas(), self.edges.toPandas()


def graph_from_pandas(
    spark: SparkSession,
    nodes: pd.DataFrame,
    edges: pd.DataFrame,
    name: str = "graph",
) -> Graph:
    """Build a :class:`Graph` from pandas frames (generator output)."""
    return Graph(
        nodes=spark.createDataFrame(nodes, schema=NODE_SCHEMA),
        edges=spark.createDataFrame(edges, schema=EDGE_SCHEMA),
        name=name,
    )
