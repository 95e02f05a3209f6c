"""BENCHMARK.json agrees with the benchmark's own metric and workload lists."""
import json
from pathlib import Path

from catalog import END_TO_END, PER_LAYER
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_metrics_match_the_catalog():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == {
        k: v[:2] for k, v in END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        k: v[:2] for k, v in PER_LAYER.items()
    }


def test_workloads_match():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
