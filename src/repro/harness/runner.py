"""Execution guards: scaled-down versions of the paper's 10-minute
timeout and 16 GB JVM memory limit.

Every algorithm takes an optional :class:`Guard` and calls
``guard.tick(rows)`` after materializing an intermediate result. A
wall-clock overrun raises :class:`Timeout` (paper status ``TO``); an
intermediate-result explosion raises :class:`RowCap` (paper status
``OM`` — in the paper JM dies with out-of-memory precisely because it
materializes huge intermediate join results, so bounding intermediate
*rows* reproduces that failure mode deterministically and without
actually exhausting the driver).

:func:`run_guarded` wraps a thunk and returns a :class:`RunResult` with
status ok/TO/OM and elapsed seconds — the unit the paper's Table 3
aggregates. Any other exception gives status ``ER`` with its traceback,
so one failing query does not abort a whole table.
"""
from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field


class Timeout(Exception):
    """Wall-clock budget exceeded (paper: 'time out', TO)."""


class RowCap(Exception):
    """Intermediate-result budget exceeded (paper: 'out of memory', OM)."""


@dataclass
class Guard:
    """Budget tracker threaded through an algorithm's materializations."""

    time_limit_s: float | None = None
    row_cap: int | None = None
    started: float = field(default_factory=time.perf_counter)
    max_rows_seen: int = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def tick(self, rows: int | None = None) -> None:
        """Check budgets; call after each materialized intermediate."""
        if self.time_limit_s is not None and self.elapsed() > self.time_limit_s:
            raise Timeout(f"exceeded {self.time_limit_s}s")
        if rows is not None:
            self.max_rows_seen = max(self.max_rows_seen, rows)
            if self.row_cap is not None and rows > self.row_cap:
                raise RowCap(f"intermediate of {rows} rows > cap {self.row_cap}")


@dataclass
class RunResult:
    """Outcome of one guarded query evaluation."""

    status: str  # 'ok' | 'TO' | 'OM' | 'ER'
    seconds: float
    value: object = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_guarded(
    fn, *, time_limit_s: float | None = None, row_cap: int | None = None
) -> RunResult:
    """Run ``fn(guard)`` under budgets, mapping failures to TO/OM, others to ER."""
    guard = Guard(time_limit_s=time_limit_s, row_cap=row_cap)
    t0 = time.perf_counter()
    try:
        value = fn(guard)
        return RunResult("ok", time.perf_counter() - t0, value=value)
    except Timeout as e:
        return RunResult("TO", time.perf_counter() - t0, error=str(e))
    except RowCap as e:
        return RunResult("OM", time.perf_counter() - t0, error=str(e))
    except Exception:  # one failing query must not abort a table
        return RunResult("ER", time.perf_counter() - t0, error=traceback.format_exc())
