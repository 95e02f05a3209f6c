"""Tests for synthetic graph generation and the dataset registry."""
import pytest
from pyspark.sql import functions as F

from repro.graphs.datasets import (
    PAPER_STATS,
    PROFILES,
    SCALES,
    dataset_names,
    load_dataset,
    load_email_variant,
)
from repro.graphs.generators import GraphProfile, generate_graph


def test_registry_covers_paper_table2():
    assert set(dataset_names()) == set("yt hu hp ep db em am bs go".split())
    assert set(PROFILES) == set(PAPER_STATS)
    for scale in SCALES.values():
        assert set(scale) == set(PAPER_STATS)


def test_unknown_dataset_rejected(spark):
    with pytest.raises(KeyError):
        load_dataset(spark, "nope")


@pytest.fixture(scope="module")
def em_graph(ctx_for):
    return ctx_for("em")[0]


class TestGraphShape:
    def test_node_count_matches_scale(self, em_graph):
        assert em_graph.nodes.count() == SCALES["test"]["em"]

    def test_ids_unique(self, em_graph):
        n = em_graph.nodes.count()
        assert em_graph.nodes.select("id").distinct().count() == n

    def test_no_self_loops(self, em_graph):
        assert em_graph.edges.where(F.col("src") == F.col("dst")).count() == 0

    def test_no_duplicate_edges(self, em_graph):
        e = em_graph.edges.count()
        assert em_graph.edges.distinct().count() == e

    def test_edges_reference_existing_nodes(self, em_graph):
        ids = em_graph.nodes.select("id")
        dangling = em_graph.edges.join(
            ids, em_graph.edges.src == ids.id, "left_anti"
        ).count()
        assert dangling == 0

    def test_label_alphabet(self, em_graph):
        labs = {r["label"] for r in em_graph.nodes.select("label").distinct().collect()}
        assert labs <= {f"L{i}" for i in range(PROFILES["em"].n_labels)}

    def test_weakly_connected(self, em_graph):
        # Union-find over collected edges (test graphs are tiny).
        edges = em_graph.edges.collect()
        n = em_graph.nodes.count()
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for r in edges:
            a, b = find(r["src"]), find(r["dst"])
            parent[a] = b
        assert len({find(i) for i in range(n)}) == 1

    def test_avg_degree_near_profile(self, em_graph):
        stats = em_graph.stats()
        target = PROFILES["em"].avg_out_degree
        assert 0.5 * target <= stats["d_out"] <= 1.6 * target


def test_generation_deterministic(spark):
    prof = GraphProfile(n_labels=5, avg_out_degree=2.0)
    a = generate_graph(spark, n_nodes=60, profile=prof, seed=9)
    b = generate_graph(spark, n_nodes=60, profile=prof, seed=9)
    assert sorted(map(tuple, a.edges.collect())) == sorted(map(tuple, b.edges.collect()))
    assert sorted(map(tuple, a.nodes.collect())) == sorted(map(tuple, b.nodes.collect()))


def test_powerlaw_has_hubs(spark):
    prof = GraphProfile(n_labels=5, avg_out_degree=4.0, degree_skew="powerlaw")
    g = generate_graph(spark, n_nodes=300, profile=prof, seed=3)
    degs = [
        r["n"] for r in g.edges.groupBy("src").agg(F.count("*").alias("n")).collect()
    ]
    assert max(degs) >= 5 * (sum(degs) / len(degs))


def test_uniform_has_no_extreme_hubs(spark):
    prof = GraphProfile(n_labels=5, avg_out_degree=4.0, degree_skew="uniform", label_skew=0)
    g = generate_graph(spark, n_nodes=300, profile=prof, seed=3)
    degs = [
        r["n"] for r in g.edges.groupBy("src").agg(F.count("*").alias("n")).collect()
    ]
    assert max(degs) <= 6 * (sum(degs) / len(degs))


def test_email_variant_labels_and_size(spark):
    g = load_email_variant(spark, n_nodes=120, n_labels=7)
    assert g.nodes.count() == 120
    labs = g.nodes.select("label").distinct().count()
    assert labs <= 7
    g.unpersist()


def test_stats_shape(em_graph):
    s = em_graph.stats()
    assert set(s) == {"V", "E", "L", "d_avg", "d_out"}
    assert s["V"] > 0 and s["E"] > 0 and s["L"] > 1
