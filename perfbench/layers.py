"""Per-layer tracing from outside the program.

``Recorder`` wraps public functions at each layer boundary — fleet
execution, fold and aggregate write, result-cache lookup and store, and
the simulation entry points ``Testbed.run_scenario`` / ``Cohort.run`` —
and keeps timings and counts in memory. ``profile_rollup`` turns a
``repro.profiling.profile_suite`` report into per-package self-time and
call counts. Nothing here is installed during a timed, untraced run.
"""

from __future__ import annotations

import re
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGES = ("simkernel", "infra", "device", "transport", "crypto", "nas",
            "core", "sim_card", "testbed", "fleet", "analysis", "other")

#: Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {
    "simkernel.events_per_scenario": "count",
    "simkernel.elided_per_scenario": "count",
    "simkernel.us_per_event": "us",
    **{f"{package}.self_ms_per_scenario": "ms" for package in PACKAGES},
    "testbed.settled_polls_per_scenario": "count",
    "crypto.calls_per_scenario": "count",
    "nas.codec_calls_per_scenario": "count",
    "fleet.plan_ms": "ms",
    "fleet.execute_s": "s",
    "fleet.fold_ms": "ms",
    "fleet.write_ms": "ms",
    "fleet.pool_chosen": "ratio",
    "resultcache.hit_ratio": "ratio",
    "resultcache.lookup_us": "us",
    "resultcache.store_us": "us",
    "resultcache.fingerprint_ms": "ms",
    "serve.http_rtt_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.first_shard_ms": "ms",
    "pool.spawn_s": "s",
    "trace.overhead_pct": "%",
    "profile.overhead_pct": "%",
}

_FUNCTION = re.compile(r"^(?P<path>.*):(?P<line>\d+)\((?P<name>.*)\)$")


class Recorder:
    """Boundary timings and counts, kept in memory."""

    def __init__(self) -> None:
        self.seconds: dict[str, list[float]] = defaultdict(list)
        self.events = 0
        self.elided = 0
        self.executor_modes: list[str] = []
        self.cache_hits = 0
        self.cache_misses = 0

    def _timed(self, name: str, func):
        seconds = self.seconds[name]

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                seconds.append(time.perf_counter() - started)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the boundaries for the duration of the block."""
        import repro.fleet.runner as runner
        from repro.fleet.checkpoint import Checkpoint
        from repro.fleet.resultcache import ResultCache
        from repro.testbed.harness import Cohort, Testbed

        recorder = self
        execute = self._timed("execute", runner.execute_plan)

        def execute_plan(*args, **kwargs):
            outcome = execute(*args, **kwargs)
            recorder.executor_modes.append(outcome.executor_mode)
            recorder.cache_hits += outcome.cache_hits
            recorder.cache_misses += outcome.cache_misses
            return outcome

        run_scenario = Testbed.run_scenario
        cohort_run = Cohort.run

        def traced_run_scenario(testbed, *args, **kwargs):
            started = time.perf_counter()
            result = run_scenario(testbed, *args, **kwargs)
            recorder.seconds["simulate"].append(time.perf_counter() - started)
            recorder.events += testbed.sim.fired_events
            recorder.elided += result.meta.get("elided_events", 0)
            return result

        def traced_cohort_run(cohort, *args, **kwargs):
            started = time.perf_counter()
            outcome = cohort_run(cohort, *args, **kwargs)
            recorder.seconds["simulate"].append(time.perf_counter() - started)
            recorder.events += cohort.sim.fired_events
            recorder.elided += outcome.elided_events
            return outcome

        patches = [
            (runner, "execute_plan", execute_plan),
            (runner, "aggregate_records",
             self._timed("fold", runner.aggregate_records)),
            (Checkpoint, "write_aggregate",
             self._timed("write", Checkpoint.write_aggregate)),
            (ResultCache, "lookup", self._timed("lookup", ResultCache.lookup)),
            (ResultCache, "store", self._timed("store", ResultCache.store)),
            (Testbed, "run_scenario", traced_run_scenario),
            (Cohort, "run", traced_cohort_run),
        ]
        saved = [(owner, name, owner.__dict__[name])
                 for owner, name, _ in patches]
        try:
            for owner, name, value in patches:
                setattr(owner, name, value)
            yield self
        finally:
            for owner, name, value in saved:
                setattr(owner, name, value)

    def median_ms(self, name: str) -> float:
        values = self.seconds.get(name)
        return statistics.median(values) * 1e3 if values else 0.0

    def mean_us(self, name: str) -> float:
        values = self.seconds.get(name)
        return sum(values) / len(values) * 1e6 if values else 0.0


def profile_rollup(report, scenarios: int) -> dict[str, float]:
    """Per-scenario self-time per package and call counts of interest."""
    per = max(scenarios, 1)
    self_ms = dict.fromkeys(PACKAGES, 0.0)
    for package, stats in report.subsystems.items():
        bucket = package if package in self_ms else "other"
        self_ms[bucket] += stats["tottime"] * 1e3
    metrics = {f"{package}.self_ms_per_scenario": value / per
               for package, value in self_ms.items()}
    settled = crypto = codec = 0
    for entry in report.top_functions:
        match = _FUNCTION.match(entry["function"])
        if match is None:
            continue
        path = match["path"].replace("\\", "/")
        name = match["name"]
        if path.endswith("repro/testbed/measurement.py") and name == "settled":
            settled += entry["calls"]
        elif path.endswith("repro/nas/codec.py") and name in ("encode", "decode"):
            codec += entry["calls"]
        elif "/repro/crypto/" in path and not name.startswith(("_", "<")):
            crypto += entry["calls"]
    metrics["testbed.settled_polls_per_scenario"] = settled / per
    metrics["crypto.calls_per_scenario"] = crypto / per
    metrics["nas.codec_calls_per_scenario"] = codec / per
    return metrics


def fingerprint_ms(repeats: int = 3) -> float:
    """Median cost of computing the result cache's code fingerprint."""
    from repro.fleet.resultcache import code_fingerprint

    samples = []
    for _ in range(repeats):
        code_fingerprint.cache_clear()
        started = time.perf_counter()
        code_fingerprint()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1e3
