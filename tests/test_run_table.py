"""The table entrypoint rejects bad arguments before Spark starts."""
import importlib.util
from pathlib import Path

import pytest

from repro.harness.tables import ALL_TABLES

_SPEC = importlib.util.spec_from_file_location(
    "run_table", Path(__file__).resolve().parents[1] / "jobs" / "run_table.py"
)
run_table = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_table)


def test_unknown_table_lists_all_tables():
    with pytest.raises(SystemExit) as exc:
        run_table.parse_args(["table99"])
    assert exc.value.code != 0
    assert all(name in str(exc.value.code) for name in ALL_TABLES)


def test_scale_rejected_for_table_without_one():
    with pytest.raises(SystemExit) as exc:
        run_table.parse_args(["table18a", "test"])
    assert exc.value.code != 0
    assert run_table.parse_args(["table5", "test"]) == ("table5", {"scale": "test"})
