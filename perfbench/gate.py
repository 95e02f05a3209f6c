"""Correctness gate: every answer is checked against DuckDB.

Reachability comes from DuckDB's own recursive CTE, never from the
Spark closure, so a broken closure fails the gate too.

* An answer with fewer rows than the listing cap must equal the
  oracle's answer set exactly (``repro.queries.sql.pattern_to_sql``).
* An answer that reaches the cap must hold only valid homomorphisms
  (labels, child edges and reachability checked row by row) and
  exactly ``min(|Q(G)|, cap)`` rows, counted by DuckDB over a
  ``LIMIT``-ed subquery.

A short capped listing therefore fails: it has fewer rows than the cap
while the oracle has more answers.
"""
from __future__ import annotations

import duckdb
import pandas as pd

from repro.queries.pattern import CHILD, Pattern
from repro.queries.sql import col_name, pattern_to_sql

_REACH = (
    "CREATE TABLE reach AS WITH RECURSIVE r(src, dst) AS ("
    " SELECT src, dst FROM edges"
    " UNION SELECT r.src, e.dst FROM r JOIN edges e ON r.dst = e.src"
    ") SELECT src, dst FROM r"
)


class Oracle:
    """DuckDB over one data graph's ``nodes`` and ``edges`` frames."""

    def __init__(self, nodes: pd.DataFrame, edges: pd.DataFrame):
        self.con = duckdb.connect()
        self.con.register("nodes", nodes)
        self.con.register("edges", edges)
        self.con.execute(_REACH)

    def close(self) -> None:
        self.con.close()

    def reach_rows(self) -> int:
        return self.con.execute("SELECT count(*) FROM reach").fetchone()[0]

    def _valid_rows(self, p: Pattern) -> int:
        """Rows of table ``ans`` that are homomorphisms of ``p``."""
        conds = [
            f"EXISTS (SELECT 1 FROM nodes n WHERE n.id = a.{col_name(q)} "
            f"AND n.label = '{p.label_of(q)}')"
            for q in p.node_ids()
        ]
        for e in p.edges:
            rel = "edges" if e.kind == CHILD else "reach"
            conds.append(
                f"EXISTS (SELECT 1 FROM {rel} x WHERE x.src = a.{col_name(e.src)} "
                f"AND x.dst = a.{col_name(e.dst)})"
            )
        sql = "SELECT count(*) FROM ans a WHERE " + " AND ".join(conds)
        return self.con.execute(sql).fetchone()[0]

    def check(self, p: Pattern, answer: pd.DataFrame, cap: int) -> str | None:
        """``None`` when ``answer`` is a correct capped listing of ``p``, else why not."""
        cols = [col_name(q) for q in p.node_ids()]
        if sorted(answer.columns) != sorted(cols):
            return f"columns {sorted(answer.columns)} != {sorted(cols)}"
        answer = answer[cols]
        if answer.duplicated().any():
            return "duplicate rows"
        n = len(answer)
        sql = f"SELECT count(*) FROM ({pattern_to_sql(p)}\nLIMIT {cap}) t"
        want_n = self.con.execute(sql).fetchone()[0]
        if n != want_n:
            return f"{n} rows listed, min(|Q(G)|, cap) = {want_n}"
        if n < cap:
            expected = self.con.execute(pattern_to_sql(p)).fetchdf()[cols]
            got = set(map(tuple, answer.itertuples(index=False)))
            want = set(map(tuple, expected.itertuples(index=False)))
            if got != want:
                return f"answer set differs from the oracle: {len(got - want)} rows wrong"
            return None
        self.con.register("ans", answer)
        try:
            valid = self._valid_rows(p)
        finally:
            self.con.unregister("ans")
        if valid != n:
            return f"{n - valid} of {n} capped rows are not homomorphisms"
        return None
