"""Dispatch-path overhead: inline vs pool → ``BENCH_dispatch.json``.

Measures what the adaptive executor's inline path buys on a sweep too
small to amortise a process pool:

* ``inline_first_result`` / ``pool_first_result`` — submit→first-shard
  latency of a small sweep run in-process vs through a cold 1-worker
  pool (1/latency, so the regression check gates it like a rate);
* ``inline_vs_pool_small_sweep`` — wall-time multiple of the forced
  1-worker pool over the inline executor on the same small sweep
  (acceptance gate: inline must win, i.e. > 1x).

Run directly (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_dispatch.py           # full
    PYTHONPATH=src python benchmarks/bench_dispatch.py --quick   # CI smoke

Regression gate (CI perf-smoke job)::

    PYTHONPATH=src python benchmarks/bench_dispatch.py --quick \
        --check BENCH_dispatch.json --tolerance 0.30
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet.planner import plan_matrix  # noqa: E402
from repro.fleet.pool import execute_plan  # noqa: E402
from repro.testbed.harness import HandlingMode  # noqa: E402

BENCH_PATH = REPO_ROOT / "BENCH_dispatch.json"


def _small_sweep_plan():
    """Two cheap single-task shards — the latency workload."""
    return plan_matrix(
        scenario_patterns=["cp_timeout_transient"],
        modes=[HandlingMode.SEED_R], replicas=2, master_seed=5, shard_size=1)


def _first_result_latency(plan, executor: str) -> tuple[float, float]:
    """(submit→first-shard seconds, total sweep seconds)."""
    landed = []

    def on_shard(shard_id, result):
        if not landed:
            landed.append(time.perf_counter())

    started = time.perf_counter()
    outcome = execute_plan(plan, workers=1, executor=executor,
                           on_shard=on_shard)
    wall = time.perf_counter() - started
    if outcome.failed or not landed:
        raise RuntimeError(f"sweep failed under executor={executor}: "
                           f"{outcome.failed}")
    return landed[0] - started, wall


def run_benches(quick: bool) -> dict:
    sweep_plan = _small_sweep_plan()

    metrics = {}
    inline_latency, inline_wall = _first_result_latency(sweep_plan, "inline")
    pool_latency, pool_wall = _first_result_latency(sweep_plan, "pool")
    metrics["inline_first_result"] = {
        "seconds": round(inline_latency, 4),
        "rate": round(1.0 / inline_latency, 2),
        "unit": "first-shards/s (1/latency, inline)",
    }
    metrics["pool_first_result"] = {
        "seconds": round(pool_latency, 4),
        "rate": round(1.0 / pool_latency, 2),
        "unit": "first-shards/s (1/latency, cold 1-worker pool)",
    }
    metrics["inline_vs_pool_small_sweep"] = {
        "rate": round(pool_wall / inline_wall, 2),
        "unit": "x pool wall over inline wall (small sweep)",
        "inline_wall_s": round(inline_wall, 4),
        "pool_wall_s": round(pool_wall, 4),
    }

    # Acceptance gate: inline must beat a 1-worker pool on a sweep too
    # small to amortise it.
    assert inline_wall < pool_wall, (
        f"inline {inline_wall:.3f}s must beat the 1-worker pool "
        f"{pool_wall:.3f}s on a small sweep")

    for name, values in metrics.items():
        print(f"{name:>28}: {values['rate']:>12,.1f} {values['unit']}")
    return {"quick": quick, "cpu_count": os.cpu_count(), "metrics": metrics}


def check_regression(report: dict, baseline_path: Path, tolerance: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, measured in report["metrics"].items():
        base = baseline.get("metrics", {}).get(name)
        if base is None or not base.get("rate"):
            continue
        ratio = measured["rate"] / base["rate"]
        status = "ok" if ratio >= 1.0 - tolerance else "REGRESSED"
        print(f"{name:>28}: {ratio:6.2f}x baseline  [{status}]")
        if ratio < 1.0 - tolerance:
            failures.append((name, ratio))
    if failures:
        print(f"\nperf regression: {len(failures)} metric(s) below "
              f"{1.0 - tolerance:.0%} of baseline: "
              + ", ".join(f"{n} ({r:.2f}x)" for n, r in failures))
        return 1
    print("\nperf smoke ok: no metric regressed beyond tolerance")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke (same workload; recorded in the "
                             "report)")
    parser.add_argument("--check", metavar="BASELINE", default=None,
                        help="compare against a baseline JSON instead of "
                             "overwriting it; exit 1 on regression")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional slowdown vs baseline "
                             "(default 0.30)")
    parser.add_argument("--out", default=str(BENCH_PATH),
                        help="output path for the measured rates")
    args = parser.parse_args(argv)

    report = run_benches(quick=args.quick)
    if args.check is not None:
        return check_regression(report, Path(args.check), args.tolerance)
    Path(args.out).write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
