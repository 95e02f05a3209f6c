"""The correctness gate accepts oracle answers and rejects altered ones."""
import pandas as pd
import pytest

from gate import Oracle
from repro.queries.pattern import CHILD, DESC, Pattern, PEdge

# 0 -> 1 -> 2 -> 3 and 0 -> 2; labels A B A B.
NODES = pd.DataFrame({"id": [0, 1, 2, 3], "label": ["A", "B", "A", "B"]})
EDGES = pd.DataFrame({"src": [0, 1, 2, 0], "dst": [1, 2, 3, 2]})
# A -child-> B: {(0,1), (2,3)}.  A -desc-> B: {(0,1), (0,3), (2,3)}.
CHILD_AB = Pattern.of({0: "A", 1: "B"}, [PEdge(0, 1, CHILD)])
DESC_AB = Pattern.of({0: "A", 1: "B"}, [PEdge(0, 1, DESC)])


@pytest.fixture
def oracle():
    o = Oracle(NODES, EDGES)
    yield o
    o.close()


def answer(rows):
    return pd.DataFrame(rows, columns=["q0", "q1"])


def test_exact_answer_passes(oracle):
    assert oracle.check(CHILD_AB, answer([(0, 1), (2, 3)]), cap=100) is None
    assert oracle.check(DESC_AB, answer([(0, 1), (0, 3), (2, 3)]), cap=100) is None


def test_altered_row_is_rejected(oracle):
    assert oracle.check(DESC_AB, answer([(0, 1), (0, 3), (2, 1)]), cap=100) is not None


def test_missing_and_duplicate_rows_are_rejected(oracle):
    assert oracle.check(DESC_AB, answer([(0, 1), (2, 3)]), cap=100) is not None
    assert oracle.check(CHILD_AB, answer([(0, 1), (0, 1)]), cap=100) is not None


def test_capped_answer_needs_valid_rows_and_full_count(oracle):
    assert oracle.check(DESC_AB, answer([(0, 3), (2, 3)]), cap=2) is None
    # Altered capped row: node 2 does not reach node 1.
    assert oracle.check(DESC_AB, answer([(0, 3), (2, 1)]), cap=2) is not None
    # A short capped listing (1 row while min(|Q(G)|, cap) = 2) fails.
    assert oracle.check(DESC_AB, answer([(0, 3)]), cap=2) is not None


def test_reachability_comes_from_duckdb(oracle):
    assert oracle.reach_rows() == 6  # 01 02 03 12 13 23
