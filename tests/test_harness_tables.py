"""Smoke tests of the table harnesses at test scale with tiny workloads.

The benchmarks run the full configurations; here we verify each harness
produces a well-formed table and sane statuses quickly.
"""
import pytest

from repro.harness import tables as T
from repro.harness.runner import Guard


def test_format_table_renders():
    t = T.TableResult("demo", ["a", "b"], rows=[[1, "x"], [22, "yy"]], seconds=1.0)
    s = T.format_table(t)
    assert "demo" in s and "22" in s and "|" in s


def test_format_empty_table():
    t = T.TableResult("empty", ["a"], rows=[])
    assert "empty" in T.format_table(t)


@pytest.fixture(scope="module")
def spark_(spark):
    return spark


def test_table2_shape(spark_):
    t = T.table2(spark_, scale="test")
    assert len(t.rows) == 9
    assert all(len(r) == len(t.headers) for r in t.rows)


def test_table3_small(spark_):
    t = T.table3(spark_, scale="test", datasets=("yt",), sizes=(4, 6), time_limit=6)
    assert len(t.rows) == 3  # JM, TM, GM
    gm_row = next(r for r in t.rows if r[1] == "GM")
    assert gm_row[4] == 2  # GM solves both


def test_table3_gm_budget_reaches_gm(spark_, monkeypatch):
    # The 60 s GM budget binds only if run_guarded's guard reaches gm().
    guards = []

    def fake_gm(ctx, p, *, guard=None, **kw):
        guards.append(guard)
        return type("Res", (), {"count": lambda self: 0})()

    monkeypatch.setattr(T, "gm", fake_gm)
    T.table3(spark_, scale="test", datasets=("yt",), sizes=(4,), time_limit=6)
    assert len(guards) == 1 and isinstance(guards[0], Guard)


def test_raising_query_gives_er_cell(spark_, monkeypatch):
    # One query raising inside GM leaves the table's other rows intact.
    real_gm = T.gm

    def gm_failing_on_hq6(ctx, p, **kw):
        if p.name.startswith("HQ6"):
            raise RuntimeError("injected failure")
        return real_gm(ctx, p, **kw)

    monkeypatch.setattr(T, "gm", gm_failing_on_hq6)
    t = T.table6(spark_, scale="test", tids=(0, 6))
    assert [r[0] for r in t.rows] == ["HQ0", "HQ6"]
    assert float(t.rows[0][2]) > 0
    assert t.rows[1][2] == "ER"


def test_table4_small(spark_):
    t = T.table4(spark_, scale="test", datasets=("em",), tids=(2,))
    assert len(t.rows) == 1
    assert all(float(x) > 0 for x in t.rows[0][2:])


def test_table5_small(spark_):
    t = T.table5(spark_, scale="test", datasets=("em",), tids=(0, 6))
    assert len(t.rows) == 2
    assert all(len(r) == 6 for r in t.rows)


def test_table16a_runs(spark_):
    t = T.table16a(spark_, scale="test")
    assert len(t.rows) == 8  # all datasets except db
    # Every row is either a build time or an OM status; the paper's
    # OM pattern (em/ep/hp) is asserted at bench scale in benchmarks/.
    for r in t.rows:
        assert r[1] == "OM" or float(r[1]) >= 0


def test_table18a_small(spark_):
    t = T.table18a(spark_, configs=((5, 80), (10, 80)))
    assert len(t.rows) == 2
    for r in t.rows:
        assert float(r[2]) > 0 and float(r[3]) > 0


def test_table18b_small(spark_):
    t = T.table18b(spark_, n_nodes=80, label_counts=(5, 10), tids=(4,))
    assert len(t.rows) == 3  # Neo4j, GF, GM rows for one query


def test_table6_small(spark_):
    t = T.table6(spark_, scale="test", tids=(0, 6))
    assert len(t.rows) == 2


def test_all_tables_registry():
    assert set(T.ALL_TABLES) == {
        "table2", "table3", "table4", "table5",
        "table16a", "table18a", "table18b", "table6",
    }
