"""Tests for the guard/runner harness (driver-side)."""
import time

import pytest

from repro.harness.runner import Guard, RowCap, RunResult, Timeout, run_guarded


class TestGuard:
    def test_no_limits_never_raises(self):
        g = Guard()
        g.tick(10**12)
        assert g.max_rows_seen == 10**12

    def test_row_cap_raises(self):
        g = Guard(row_cap=100)
        g.tick(100)  # at cap: fine
        with pytest.raises(RowCap):
            g.tick(101)

    def test_time_limit_raises(self):
        g = Guard(time_limit_s=0.01)
        time.sleep(0.02)
        with pytest.raises(Timeout):
            g.tick()

    def test_elapsed_monotone(self):
        g = Guard()
        a = g.elapsed()
        b = g.elapsed()
        assert b >= a >= 0

    def test_tick_without_rows_checks_time_only(self):
        g = Guard(row_cap=1)
        g.tick()  # no rows given: cap not consulted


class TestRunGuarded:
    def test_ok(self):
        r = run_guarded(lambda g: 42)
        assert r.ok and r.value == 42 and r.status == "ok"

    def test_timeout_status(self):
        def slow(g):
            time.sleep(0.03)
            g.tick()

        r = run_guarded(slow, time_limit_s=0.01)
        assert r.status == "TO" and not r.ok
        assert r.seconds >= 0.01

    def test_rowcap_status(self):
        r = run_guarded(lambda g: g.tick(10), row_cap=5)
        assert r.status == "OM"

    def test_result_dataclass(self):
        r = RunResult("ok", 1.0, value="x")
        assert r.ok and r.value == "x"

    def test_unexpected_exception_gives_er(self):
        r = run_guarded(lambda g: 1 / 0)
        assert r.status == "ER" and not r.ok
        assert "ZeroDivisionError" in r.error
