"""Match sets (paper §4.1) as filter views of one labelled relation.

``ms(q)`` of a pattern node is the inverted list of its label.
``ms(e)`` of a pattern edge (p,q) is the set of data-node pairs (u,v)
with matching labels such that (u,v) is an edge (child edge) or u ≺ v
(reachability edge). A :class:`MatchContext` owns the data graph and its
materialized reachability relation, and labels them once, when it is
built: one checkpointed relation ``labelled(kind, src, dst, ls, ld)`` holds
every edge (kind CHILD), every reachability pair (kind DESC) and every
node as the pair ``(id, id)`` (kind NODE), each with its endpoints'
labels. The same step counts its rows per ``(kind, ls, ld)`` key into
``sizes``, so every ``|ms(q)|`` and ``|ms(e)|`` is known without a
Spark job. Each ``ms(e)`` is a filter view of that relation, cached per
key and shared by simulation, RIG construction and the baselines — the
role the paper's shared inverted lists and reachability index play.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.model import Graph
from repro.queries.pattern import CHILD, DESC, PEdge, Pattern
from repro.reach.closure import transitive_closure

NODE = "node"  # the kind of a node's (id, id) row in the labelled relation


def label_relation(graph: Graph, reach: DataFrame) -> tuple[DataFrame, Counter]:
    """The checkpointed ``labelled(kind, src, dst, ls, ld)`` relation and its row count per key.

    Three Spark jobs: one broadcast of ``nodes`` labels both endpoints,
    and the count aggregation (a map stage and a result stage under
    AQE) materializes the checkpoint on its way. ``nodes`` is read
    through a checkpoint of its own so that the two joins share one
    broadcast; over the cached ``nodes`` each join starts its own. The
    relation is coalesced to the default parallelism, so a filter view
    scans that many partitions, not one per input partition of every
    closure round.
    """
    lab = F.broadcast(graph.nodes.select("id", "label").localCheckpoint(eager=False))
    a, b = lab.alias("a"), lab.alias("b")
    pairs = (
        graph.edges.select(F.lit(CHILD).alias("kind"), "src", "dst")
        .unionByName(reach.select(F.lit(DESC).alias("kind"), "src", "dst"))
    )
    labelled = (
        pairs.join(a, F.col("src") == F.col("a.id"))
        .join(b, F.col("dst") == F.col("b.id"))
        .select("kind", "src", "dst", F.col("a.label").alias("ls"), F.col("b.label").alias("ld"))
        .unionByName(graph.nodes.select(
            F.lit(NODE).alias("kind"), F.col("id").alias("src"), F.col("id").alias("dst"),
            F.col("label").alias("ls"), F.col("label").alias("ld"),
        ))
        .coalesce(graph.nodes.sparkSession.sparkContext.defaultParallelism)
        .localCheckpoint(eager=False)
    )
    sizes = Counter({
        (r["kind"], r["ls"], r["ld"]): r["count"]
        for r in labelled.groupBy("kind", "ls", "ld").count().collect()
    })
    return labelled, sizes


@dataclass
class MatchContext:
    """Data graph + reachability relation + their labelled relation."""

    graph: Graph
    reach: DataFrame = None
    labelled: DataFrame = field(init=False, repr=False)
    sizes: Counter = field(init=False, repr=False)  # rows per key; 0 for an absent key
    _edge_ms: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.reach is None:
            self.reach = transitive_closure(self.graph.edges).cache()
        self.labelled, self.sizes = label_relation(self.graph, self.reach)

    @staticmethod
    def node_key(p: Pattern, q: int) -> tuple[str, str, str]:
        return (NODE, p.label_of(q), p.label_of(q))

    @staticmethod
    def edge_key(p: Pattern, e: PEdge) -> tuple[str, str, str]:
        return (e.kind, p.label_of(e.src), p.label_of(e.dst))

    def ms_node(self, p: Pattern, q: int) -> DataFrame:
        """``ms(q)``: the inverted list of q's label, as ``(id)``."""
        return self.graph.inverted_list(p.label_of(q))

    def ms_node_sizes(self, p: Pattern) -> dict[int, int]:
        """``|ms(q)|`` of every node of ``p``, from the set-up counts."""
        return {q: self.sizes[self.node_key(p, q)] for q in p.node_ids()}

    def ms_edge(self, p: Pattern, e: PEdge) -> DataFrame:
        """``ms(e)``: label-filtered edge or reachability pairs ``(src,dst)``."""
        key = self.edge_key(p, e)
        if key not in self._edge_ms:
            self._edge_ms[key] = self.labelled.where(_is(key)).select("src", "dst")
        return self._edge_ms[key]

    def tagged_rows(self, keys: list[tuple[str, str, str]]) -> DataFrame:
        """The rows of ``keys`` as ``(_k, src, dst)``, ``_k`` the key's index in ``keys``."""
        cases = " ".join(f"WHEN {_is(key)} THEN {i}" for i, key in enumerate(keys))
        return (self.labelled.select(F.expr(f"CASE {cases} END").alias("_k"), "src", "dst")
                .where("_k IS NOT NULL"))

    def release(self) -> None:
        """Forget the ``ms(e)`` views; the labelled relation stays."""
        self._edge_ms.clear()


def _is(key: tuple[str, str, str]) -> str:
    """The SQL predicate that selects ``key``'s rows.

    A string, parsed once in the JVM: building the same predicate from
    ``Column`` objects costs one Py4J call per node, 0.2-0.3 s for a
    query's keys on a 4-core host, against 0.03 s for the whole collect.
    """
    return " AND ".join(f"{col} = {_sql_string(v)}" for col, v in zip(("kind", "ls", "ld"), key))


def _sql_string(s: str) -> str:
    """``s`` as a Spark SQL string literal, with its quotes and backslashes escaped."""
    return "'" + s.replace("\\", "\\\\").replace("'", "\\'") + "'"
