"""Typed views over a finished fleet run (throughput, cells, coverage).

The aggregate dict (see :mod:`repro.fleet.aggregate`) is the durable,
byte-stable artifact; this module is the ergonomic layer on top of it —
what the programmatic API and the benchmarks consume. Wall-clock
numbers live here and only here: they are real measurements of this
machine, so they never enter the deterministic aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.infra.failures import FailureClass
from repro.testbed.harness import HandlingMode


@dataclass
class FleetCell:
    """One (failure class, handling mode) disruption cell."""

    median: float
    p90: float
    samples: int


@dataclass
class FleetReport:
    """Everything a fleet run produced."""

    aggregate: dict
    records: list[dict] = field(default_factory=list)
    failed_shards: dict[int, str] = field(default_factory=dict)
    executed_shards: int = 0
    skipped_shards: int = 0
    wall_seconds: float = 0.0
    # Total heap events discarded by quiescent termination across all
    # records — the audit trail for run-length-control speedups. Like
    # wall_seconds it never enters the deterministic aggregate.
    elided_events: int = 0
    # Attempts used per shard executed this invocation (1 = first try).
    # Telemetry only, like wall_seconds.
    shard_attempts: dict[int, int] = field(default_factory=dict)
    # True when a stop/cancel request ended the run before completion;
    # the checkpoint keeps every finished shard, so it is resumable.
    cancelled: bool = False
    # Result-cache partition counters (tasks served from / missing in
    # the content-addressed cache). Telemetry like elided_events: they
    # never enter the deterministic aggregate or any fingerprint.
    cache_hits: int = 0
    cache_misses: int = 0
    # Where the shards ran (inline|pool) and why — the auto executor's
    # machine-local decision. Telemetry: never in the aggregate.
    executor_mode: str = "inline"
    executor_reason: str = ""

    @property
    def complete(self) -> bool:
        return not self.failed_shards and not self.cancelled

    @property
    def shard_retries(self) -> dict[int, int]:
        """Extra attempts per shard, for shards that needed any."""
        return {sid: attempts - 1
                for sid, attempts in sorted(self.shard_attempts.items())
                if attempts > 1}

    @property
    def total_retries(self) -> int:
        """Extra attempts summed across all shards of this invocation."""
        return sum(self.shard_retries.values())

    @property
    def scenarios_per_sec(self) -> float:
        """Throughput of the shards actually executed this invocation."""
        executed_tasks = len(self.records) if self.skipped_shards == 0 else None
        if executed_tasks is None:
            # Mixed resume: only count what we ran, not restored shards.
            executed_tasks = self.aggregate.get("tasks", len(self.records))
        if self.wall_seconds <= 0:
            return 0.0
        return executed_tasks / self.wall_seconds

    # ------------------------------------------------------------------
    def _cell(self, failure_class: FailureClass, handling: HandlingMode) -> dict:
        key = f"{failure_class.value}/{handling.value}"
        try:
            return self.aggregate["cells"][key]
        except KeyError:
            raise KeyError(f"no fleet cell for {key}") from None

    def cell(self, failure_class: FailureClass, handling: HandlingMode) -> FleetCell:
        raw = self._cell(failure_class, handling)
        return FleetCell(median=raw["median"], p90=raw["p90"],
                         samples=raw["timed_samples"])

    def coverage(self, failure_class: FailureClass, handling: HandlingMode) -> float:
        return self._cell(failure_class, handling)["coverage"]

    def durations(self, failure_class: FailureClass, handling: HandlingMode,
                  timed_only: bool = True) -> list[float]:
        """Per-task durations for a cell, in task order."""
        return [
            r["duration"] for r in sorted(self.records, key=lambda r: r["task_id"])
            if r["failure_class"] == failure_class.value
            and r["handling"] == handling.value
            and (r["timed"] or not timed_only)
        ]
