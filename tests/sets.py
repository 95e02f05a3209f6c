"""Candidate sets of either substrate as Python sets, for comparisons.

Spark sets are DataFrames; driver sets are numpy arrays — ``(id)``
columns become sorted id arrays, ``(src, dst)`` relations ``(n, 2)``
arrays.
"""
from __future__ import annotations

import numpy as np


def id_set(s) -> set[int]:
    if isinstance(s, np.ndarray):
        return set(s.tolist())
    return {r["id"] for r in s.collect()}


def pair_set(s) -> set[tuple[int, int]]:
    if isinstance(s, np.ndarray):
        return {(a, b) for a, b in s.tolist()}
    return {(r["src"], r["dst"]) for r in s.collect()}


def size(s) -> int:
    """Row count, duplicates included."""
    return len(s) if isinstance(s, np.ndarray) else s.count()
