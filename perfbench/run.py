"""The repository benchmark: SEED sweep performance, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table4-cold --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed,
timings scaled for the host's speed (``hostspeed.py``);
``--trace 1`` is a separate run that wraps each layer boundary, profiles
one unit with ``repro.profiling.profile_suite``, and reports per-layer
metrics plus the tracing overhead. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
A fuller record, host facts included, goes to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.
See ``perfbench/README.md`` for every metric and workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 3
#: Reference samples before set-up and after timing, beside those between
#: units, so a run of few long units still has a steady median.
CALIBRATION_REPEATS = 5

END_TO_END = {"setup_s": "s", "scenarios_per_s": "1/s", "job_s_p50": "s",
              "job_s_tail": "s", "peak_rss_mb": "MB"}


def host_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it. Below 21 samples that percentile would not be
    above the median, and the maximum is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def timed(workload, seconds: float, calibration) -> list:
    """Closed loop: the next unit starts when the previous one is done.
    Reference samples fall between units, outside their wall time."""
    units = []
    started = time.perf_counter()
    while not units or time.perf_counter() - started < seconds:
        units.append(workload.unit())
        calibration.sample_due()
    return units


def rate(units: list) -> float:
    """Median per-unit throughput, tasks per second of unit wall time."""
    return statistics.median(u.tasks / u.wall_s for u in units)


def peak_rss_mb() -> float:
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0     # ru_maxrss is in KiB on Linux


def end_to_end(workload, seconds: float, details: dict) -> dict:
    import workloads

    calibration = hostspeed.Calibration()
    try:
        calibration.sample(CALIBRATION_REPEATS)
        setups = []
        for _ in range(SETUP_REPEATS):
            imports = workloads.import_probe()
            started = time.perf_counter()
            workload.setup()
            setups.append(imports + time.perf_counter() - started)
        units = timed(workload, seconds, calibration)
        workload.close()
        calibration.sample(CALIBRATION_REPEATS)
        # Before the reference process is waited for, so that its
        # memory is not counted.
        peak_mb = peak_rss_mb()
    finally:
        calibration.close()
    walls = [u.wall_s for u in units]
    tail_s, tail_pct, n = tail(walls)
    raw = {
        "setup_s": statistics.median(setups),
        "scenarios_per_s": rate(units),
        "job_s_p50": statistics.median(walls),
        "job_s_tail": tail_s,
        "peak_rss_mb": peak_mb,
    }
    factor = calibration.factor()
    details.update(setup_samples_s=setups, units=n, tail_percentile=tail_pct,
                   unit_tasks=units[0].tasks, raw=raw, host_factor=factor,
                   reference_s=statistics.median(calibration.samples),
                   reference_samples=len(calibration.samples))
    calibrated = {key: value * factor for key, value in raw.items()
                  if END_TO_END[key] == "s"}
    calibrated["scenarios_per_s"] = raw["scenarios_per_s"] / factor
    return {**raw, **calibrated}


def per_layer(workload, seconds: float, details: dict) -> dict:
    import workloads
    from repro.profiling import profile_suite

    metrics = dict.fromkeys(layers.PER_LAYER, 0.0)
    workload.setup()
    serve = isinstance(workload, workloads.ServeBurst)

    plans = []
    for _ in range(5):
        started = time.perf_counter()
        built = workload.build_plans()
        plans.append((time.perf_counter() - started) / len(built))
    metrics["fleet.plan_ms"] = statistics.median(plans) * 1e3
    metrics["resultcache.fingerprint_ms"] = layers.fingerprint_ms()

    if not serve:
        # Simulation runs in this process only inline, so the profiled
        # unit is inline whatever executor the workload resolves to.
        profiled = layers.Recorder()
        box = []
        with profiled.installed():
            report = profile_suite(
                workload.name, lambda: box.append(workload.unit(inline=True)),
                top=10**9)
        scenarios = box[0].tasks
        metrics.update(layers.profile_rollup(report, scenarios))
        metrics["simkernel.events_per_scenario"] = profiled.events / scenarios
        metrics["simkernel.elided_per_scenario"] = profiled.elided / scenarios

    # Each untraced unit is followed by a traced unit on the same input,
    # so neither input mix nor drift in host speed biases the overhead.
    recorder = layers.Recorder()
    plain, traced, rtts = [], [], []
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        plain.append(workload.unit())
        with recorder.installed():
            traced.append(workload.rerun(plain[-1]))
        if serve:
            sent = time.perf_counter()
            workload.client.health()
            rtts.append(time.perf_counter() - sent)
    untraced_rate = rate(plain)
    metrics["trace.overhead_pct"] = (
        (untraced_rate - rate(traced)) / untraced_rate * 100.0)

    if serve:
        timings = [u.status["timings"] for u in traced]
        metrics["serve.http_rtt_ms"] = statistics.median(rtts) * 1e3
        metrics["serve.queue_wait_ms"] = statistics.median(
            t["queue_wait_s"] for t in timings) * 1e3
        metrics["serve.first_shard_ms"] = statistics.median(
            t["submit_to_first_shard_s"] for t in timings) * 1e3
        metrics["fleet.execute_s"] = statistics.median(
            t["run_wall_s"] for t in timings)
        metrics["fleet.pool_chosen"] = float(
            workload.client.health()["executor"] == "pool")
        metrics["pool.spawn_s"] = workload.first_job_s - statistics.median(
            u.wall_s for u in plain + traced)
    else:
        modes = recorder.executor_modes
        metrics["fleet.execute_s"] = recorder.median_ms("execute") / 1e3
        metrics["fleet.fold_ms"] = recorder.median_ms("fold")
        metrics["fleet.write_ms"] = recorder.median_ms("write")
        metrics["fleet.pool_chosen"] = modes.count("pool") / len(modes)
        probed = recorder.cache_hits + recorder.cache_misses
        metrics["resultcache.hit_ratio"] = recorder.cache_hits / probed
        metrics["resultcache.lookup_us"] = recorder.mean_us("lookup")
        # The profiled input once more, inline and unprofiled: the base
        # of the profiler's overhead and, when pool workers simulated
        # and stored out of sight, of the in-process timings.
        inline = layers.Recorder()
        with inline.installed():
            unprofiled = workload.rerun(box[0], inline=True)
        metrics["profile.overhead_pct"] = (
            (box[0].wall_s / unprofiled.wall_s - 1.0) * 100.0)
        simulated = inline if "pool" in modes else recorder
        if simulated.events:
            metrics["simkernel.us_per_event"] = (
                sum(simulated.seconds["simulate"]) / simulated.events * 1e6)
        metrics["resultcache.store_us"] = simulated.mean_us("store")
    workload.close()
    details.update(untraced_units=len(plain), traced_units=len(traced),
                   unit_tasks=traced[0].tasks)
    return metrics


def model_vs_paper(report) -> list[str]:
    """Simulated Table 4 cells next to the paper's (informational)."""
    from repro.experiments import table4

    result = table4.result_from_fleet(report)
    lines = ["  Table 4, simulated seconds vs paper (median, p90; not gated):"]
    for (failure_class, handling), cell in result.cells.items():
        paper_median, paper_p90 = table4.PAPER[(failure_class, handling)]
        lines.append(
            f"    {failure_class.value:>13} {handling.value:<7} "
            f"median {cell.median:8.1f} vs {paper_median:7.1f} "
            f"(x{cell.median / paper_median:5.2f})  "
            f"p90 {cell.p90:8.1f} vs {paper_p90:7.1f} "
            f"(x{cell.p90 / paper_p90:5.2f})  n={cell.samples}")
    return lines


def baseline_lines(name: str, trace: int, metrics: dict) -> list[str]:
    """Flag, never gate, a comparison with the recorded baseline."""
    path = HERE / "baseline.json"
    if trace or not path.is_file():
        return []
    baseline = json.loads(path.read_text())
    if baseline["host"] != host_facts():
        return ["  host differs from the baseline host "
                f"({baseline['host']}): figures are not comparable"]
    medians = baseline["medians"].get(name, {})
    return [f"  baseline median {key}: {value:.6g}"
            for key, value in sorted(medians.items()) if key in metrics]


def run_one(args) -> int:
    import inputs
    import workloads

    sizes = inputs.SMOKE if args.smoke else inputs.FULL
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes, scratch)
    details: dict = {}
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(workload, args.seconds, details)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    workload.check()
    attempted = sum(u.attempted for u in workload.units)
    failed = sum(u.failed for u in workload.units)
    declared = layers.PER_LAYER if args.trace else END_TO_END
    correct = failed == 0

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{details['unit_tasks']} tasks per unit, {workload.workers} "
          f"usable cores")
    for key, unit in declared.items():
        line = f"  {key:<36} {metrics[key]:14.6g} {unit}"
        if not args.trace and unit in ("s", "1/s"):
            line += f"  (raw {details['raw'][key]:.6g})"
        print(line)
    if not args.trace:
        print(f"  {'host factor':<36} {details['host_factor']:14.6g} "
              f"(reference loop median {details['reference_s'] * 1e3:.4g} "
              f"ms over {details['reference_samples']} samples)")
        print(f"  {'tail percentile':<36} {details['tail_percentile']:14.4g} "
              f"% of {details['units']} samples")
    print(f"  {'failed_frac':<36} {failed / attempted:14.6g} "
          f"({failed} of {attempted} "
          f"{'jobs' if args.workload == 'serve-burst' else 'shards'})")
    print(f"  aggregate check: {'ok' if correct else 'FAILED'} against the "
          f"{workload.expected_source} sha256 for seed {args.seed}")
    for note in dict.fromkeys(workload.notes):
        print(f"  ! {note}")
    if args.workload.startswith("table4"):
        print("\n".join(model_vs_paper(workload.units[-1].report)))
    lines = baseline_lines(args.workload, args.trace, metrics)
    if lines:
        print("\n".join(lines))

    results = SCRATCH / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "smoke": args.smoke, "host": host_facts(), "details": details,
              "expected_source": workload.expected_source,
              "notes": workload.notes, "metrics": metrics,
              "attempted": attempted, "failed": failed}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, sort_keys=True, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in declared.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in its own process, then one summary table."""
    import workloads

    summary = {}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            command.append("--smoke")
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=600)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        summary[name] = (json.loads(lines[-1])
                         if lines and lines[-1].startswith("{") else None)
    print("\nworkload            correct  failed_frac  " + "  ".join(
        f"{key} [{unit}]" for key, unit in END_TO_END.items()
        if not args.trace))
    ok = True
    for name, result in summary.items():
        if result is None:
            print(f"{name:<20}crashed")
            ok = False
            continue
        ok &= result["correct"]
        values = "  ".join(f"{m['value']:.6g}" for m in
                           result["metrics"].values()) if not args.trace else ""
        print(f"{name:<20}{str(result['correct']):<9}"
              f"{result['failed'] / result['attempted']:<13.3g}{values}")
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="table4-cold, cohort-mixed, serve-burst "
                             "(the BENCHMARK.json workloads), table4-warm, "
                             "or all")
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed (>= 0): generates the inputs")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="how long the timed part of a run lasts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal input sizes (the benchmark's own tests)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from the root "
              f"of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args)


# Pool workers start by spawning a fresh interpreter that re-imports this
# file as __mp_main__; without the guard each would rerun the benchmark.
if __name__ == "__main__":
    sys.exit(main())
