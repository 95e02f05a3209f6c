"""Data-graph model: directed node-labeled graphs as DataFrames.

The paper (Def. 2.1) assumes a directed node-labeled graph ``G=(V,E)``.
We hold ``G`` as two DataFrames — ``nodes(id BIGINT, label STRING)`` and
``edges(src BIGINT, dst BIGINT)``. The reachability closure and the
labelled match relation (``repro.core.matchsets``) are Spark plans over
them.
"""
from __future__ import annotations

from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

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

    def cache(self) -> "Graph":
        """Cache both relations; the graph is re-read by every phase."""
        self.nodes.cache()
        self.edges.cache()
        return self

    def unpersist(self) -> None:
        """Free both relations."""
        self.nodes.unpersist()
        self.edges.unpersist()

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
