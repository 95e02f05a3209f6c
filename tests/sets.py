"""Driver candidate sets as Python sets, for comparisons.

``(id)`` columns are sorted id arrays, ``(src, dst)`` relations
``(n, 2)`` arrays.
"""
from __future__ import annotations

import numpy as np


def id_set(s: np.ndarray) -> set[int]:
    return set(s.tolist())


def pair_set(s: np.ndarray) -> set[tuple[int, int]]:
    return {(a, b) for a, b in s.tolist()}
