"""Match sets (paper §4.1) as filter views of one labelled relation.

``ms(q)`` of a pattern node is the inverted list of its label.
``ms(e)`` of a pattern edge (p,q) is the set of data-node pairs (u,v)
with matching labels such that (u,v) is an edge (child edge) or u ≺ v
(reachability edge). A :class:`MatchContext` owns the data graph and its
materialized reachability relation, and labels them once, when it is
built: one checkpointed relation ``labelled(kind, src, dst, ls, ld, kid)``
holds every edge (kind CHILD), every reachability pair (kind DESC) and
every node as the pair ``(id, id)`` (kind NODE), each with its
endpoints' labels. ``kid`` is the integer id of the row's
``(kind, ls, ld)`` key. The same step counts its rows per key into
``sizes`` and reads each present key's id into ``kids``, so every
``|ms(q)|`` and ``|ms(e)|`` is known without a Spark job. One filter,
``kid IN (…)`` (:meth:`MatchContext.tagged_rows`), picks a query's
``ms(q)`` and ``ms(e)`` out of that relation: collected in one Spark
job by ``repro.core.simulation.collect_match_sets``, or one key at a
time as a cached view by :meth:`MatchContext.ms_edge`. So one relation
serves every query and algorithm — the role the paper's shared inverted
lists and reachability index play.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graphs.model import Graph
from repro.queries.pattern import CHILD, DESC, PEdge, Pattern
from repro.reach.closure import transitive_closure

NODE = "node"  # the kind of a node's (id, id) row in the labelled relation


def label_relation(graph: Graph, reach: DataFrame) -> tuple[DataFrame, Counter, dict]:
    """The checkpointed ``labelled(kind, src, dst, ls, ld, kid)`` relation,
    its row count per key and each present key's ``kid``.

    Three Spark jobs: one broadcast of ``nodes`` labels both endpoints,
    and the count aggregation (a map stage and a result stage under
    AQE) materializes the checkpoint on its way. ``nodes`` is read
    through a checkpoint of its own so that the two joins share one
    broadcast; over the cached ``nodes`` each join starts its own. The
    relation is coalesced to the default parallelism, so a filter view
    scans that many partitions, not one per input partition of every
    closure round. ``kid`` hashes the key, so two keys may collide:
    then this raises ``ValueError``.
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
        .withColumn("kid", F.xxhash64("kind", "ls", "ld"))
        .coalesce(graph.nodes.sparkSession.sparkContext.defaultParallelism)
        .localCheckpoint(eager=False)
    )
    sizes, kids = Counter(), {}
    for r in labelled.groupBy("kind", "ls", "ld", "kid").count().collect():
        key = (r["kind"], r["ls"], r["ld"])
        sizes[key], kids[key] = r["count"], r["kid"]
    if len(set(kids.values())) < len(kids):
        raise ValueError("two match-set keys hash to one kid")
    return labelled, sizes, kids


@dataclass
class MatchContext:
    """Data graph + reachability relation + their labelled relation."""

    graph: Graph
    reach: DataFrame = None
    labelled: DataFrame = field(init=False, repr=False)
    sizes: Counter = field(init=False, repr=False)  # rows per key; 0 for an absent key
    kids: dict = field(init=False, repr=False)  # each present key's id; none for an absent key
    _edge_ms: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.reach is None:
            self.reach = transitive_closure(self.graph.edges).cache()
        self.labelled, self.sizes, self.kids = label_relation(self.graph, self.reach)

    @staticmethod
    def node_key(p: Pattern, q: int) -> tuple[str, str, str]:
        return (NODE, p.label_of(q), p.label_of(q))

    @staticmethod
    def edge_key(p: Pattern, e: PEdge) -> tuple[str, str, str]:
        return (e.kind, p.label_of(e.src), p.label_of(e.dst))

    def ms_node_sizes(self, p: Pattern) -> dict[int, int]:
        """``|ms(q)|`` of every node of ``p``, from the set-up counts."""
        return {q: self.sizes[self.node_key(p, q)] for q in p.node_ids()}

    def ms_edge(self, p: Pattern, e: PEdge) -> DataFrame:
        """``ms(e)``: label-filtered edge or reachability pairs ``(src,dst)``."""
        key = self.edge_key(p, e)
        if key not in self._edge_ms:
            self._edge_ms[key] = self.tagged_rows([key]).select("src", "dst")
        return self._edge_ms[key]

    def tagged_rows(self, keys: Iterable[tuple[str, str, str]]) -> DataFrame:
        """The rows of ``keys`` as ``(kid, src, dst)``; an absent key has none."""
        kids = [self.kids[k] for k in keys if k in self.kids]
        return self.labelled.where(F.col("kid").isin(kids)).select("kid", "src", "dst")

    def release(self) -> None:
        """Forget the ``ms(e)`` views; the labelled relation stays."""
        self._edge_ms.clear()

