#!/usr/bin/env python3
"""GM query-listing benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload hybrid-em --seed 1 --seconds 10 --trace 0

One process, Spark ``local[k]`` with k = min(4, nproc), one
client in a closed loop: each query is sent when the previous one has
returned. A run

1. sets up three times (Spark session start, graph generation,
   ``MatchContext`` with its transitive closure) and reports the median
   as ``setup_s``; the last set-up serves the queries;
2. lists the workload's queries with the workload's algorithms in
   rounds until ``--seconds`` have passed (at least one round). The
   ``ms(e)`` cache is released before each round, so each starts empty
   as in a fresh session;
3. checks every answer against DuckDB (``gate.py``), outside the timed
   regions;
4. prints the environment, a workload-property table, every metric by
   name with its unit, and last a JSON line with ``correct``,
   ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones. With
``--trace 1`` the run lists one untraced round, traces GM and the
baselines over the same queries (``tracing.py``), lists one more
untraced round as the reference for ``trace.overhead_s``, and reports
the per-layer metrics of ``catalog.py``. Spans are written to
``.perfbench_work/`` in the checkout.

The exit code is 2, with no result line, when the checkout holds no
program sources (``src/repro``).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="GM query-listing benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "test"), default="bench",
                    help="'test': a tiny graph and two queries, for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return bench.Bench(args, WORKLOADS[args.workload], ROOT / ".perfbench_work").run()


if __name__ == "__main__":
    sys.exit(main())
