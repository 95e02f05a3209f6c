"""End-to-end runs of the benchmark at test scale (a tiny graph, two queries)."""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from catalog import END_TO_END, PER_LAYER

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
LAYERS = ("graphs", "reach", "queries", "matchsets", "simulation", "rig", "ordering",
          "mjoin", "baselines")


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def bench(workload: str, trace: int) -> tuple[str, dict]:
    p = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--scale", "test")
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return p.stdout, result


def printed(stdout: str, name: str, unit: str) -> bool:
    return re.search(rf"^metric {re.escape(name)} = -?[0-9.e+-]+ {re.escape(unit)}\b",
                     stdout, re.M) is not None


@pytest.mark.parametrize("workload", ["hybrid-em", "baselines-em"])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    stdout, result = bench(workload, 0)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: v[0] for k, v in END_TO_END.items()
    }
    for name, (unit, *_) in END_TO_END.items():
        assert printed(stdout, name, unit), name
    assert re.search(r"^metric failed_share = 0\.0+ \(0 failed of \d+ attempted\)$", stdout, re.M)
    assert re.search(r"^env nproc=\d+ master=local\[\d+\] shuffle_partitions=\S+ aqe=\S+ "
                     r"driver_memory=\S+ seed=3 python=\S+ spark=\S+ java=\S+", stdout, re.M)
    assert re.search(r"^properties workload=\S+ seed=3 .*empty_share=.*capped_share=.*"
                     r"closure_density=.*ms_key_repeat_share=", stdout, re.M)


def test_trace_has_every_layer_and_non_negative_times():
    stdout, result = bench("hybrid-em", 1)
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {k: v[0] for k, v in PER_LAYER.items()}
    for name, (unit, *_) in PER_LAYER.items():
        assert printed(stdout, name, unit), name
    assert {name.split(".")[0] for name in metrics} >= set(LAYERS)
    for name, m in metrics.items():
        if m["unit"] in ("s", "count", "ratio") and name != "trace.overhead_s":
            assert m["value"] >= 0, name
    path = re.search(r"^spans written to (\S+)$", stdout, re.M).group(1)
    spans = json.loads(Path(path).read_text())
    names = {s["name"] for s in spans}
    assert names >= {"session.start", "graphs.load", "MatchContext", "transitive_closure",
                     "gm", "transitive_reduction", "build_rig", "fb_sim", "pick_order",
                     "mjoin", "count", "jm", "tm", "neo4j"}
    for s in spans:
        assert s["end"] >= s["start"] and s["jobs"] >= 0, s


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = run(tmp_path, "--workload", "hybrid-em", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert "{" not in p.stdout
