"""Shared fixtures: cached graphs/MatchContexts and tiny brute-force graphs.

The root conftest provides the session-scoped ``spark`` fixture. Here we
add per-session caches so the expensive pieces (graph generation,
transitive closure) are computed once per (dataset, scale) across the
whole test session, plus small hand-rolled graphs for brute-force
comparisons.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.core.matchsets import MatchContext
from repro.graphs.datasets import load_dataset
from repro.graphs.model import Graph, graph_from_pandas

_CTX_CACHE: dict = {}


@pytest.fixture(scope="session")
def ctx_for(spark):
    """Factory: dataset name -> (Graph, MatchContext), memoized."""

    def get(name: str, scale: str = "test") -> tuple[Graph, MatchContext]:
        key = (name, scale)
        if key not in _CTX_CACHE:
            g = load_dataset(spark, name, scale=scale)
            _CTX_CACHE[key] = (g, MatchContext(graph=g))
        return _CTX_CACHE[key]

    return get


def tiny_graph(spark, *, n=40, n_labels=5, avg_deg=2.2, seed=0) -> Graph:
    """A tiny random labeled digraph for brute-force comparisons."""
    g = np.random.default_rng(seed)
    nodes = pd.DataFrame(
        {"id": np.arange(n, dtype=np.int64), "label": [f"L{i}" for i in g.integers(0, n_labels, n)]}
    )
    m = int(n * avg_deg)
    edges = pd.DataFrame(
        {"src": g.integers(0, n, m).astype(np.int64), "dst": g.integers(0, n, m).astype(np.int64)}
    )
    edges = edges[edges.src != edges.dst].drop_duplicates(ignore_index=True)
    return graph_from_pandas(spark, nodes, edges, name=f"tiny{n}-{seed}")


_TINY_CACHE: dict = {}


@pytest.fixture(scope="session")
def tiny_ctx_for(spark):
    """Factory: seed -> (Graph, MatchContext) over a tiny random graph."""

    def get(seed: int = 0, n: int = 40, n_labels: int = 5) -> tuple[Graph, MatchContext]:
        key = (seed, n, n_labels)
        if key not in _TINY_CACHE:
            g = tiny_graph(spark, n=n, n_labels=n_labels, seed=seed).cache()
            _TINY_CACHE[key] = (g, MatchContext(graph=g))
        return _TINY_CACHE[key]

    return get

