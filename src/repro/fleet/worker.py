"""Shard execution: one fresh ``Testbed`` per task, or one ``Cohort``.

``run_shard`` is the unit the process pool ships to workers; it takes
and returns plain JSON-safe dicts so it pickles cheaply and its output
can be appended verbatim to the checkpoint JSONL. Each task builds its
own simulator seeded from the task spec, so results depend only on the
spec — never on which worker ran it or in what order.

Cohort shards (``cohort_size > 1``) run all of the shard's tasks as a
single multi-UE simulator instance. Each UE keeps its task's seed as
its private stream seed, so the per-task records are byte-identical to
the one-testbed-per-task path — the only difference is the audit-only
``elided_events`` field, which reports the cohort-wide count.
"""

from __future__ import annotations

from repro.core.online_learning import merge_records
from repro.device.android import AndroidTimers
from repro.fleet.planner import Shard, TaskSpec
from repro.fleet.resultcache import ResultCache
from repro.testbed.harness import Cohort, CohortMember, HandlingMode, run_one
from repro.testbed.scenarios import scenario_by_name

#: Process-wide write-back target for the result cache (PR 10). Set by
#: the pool worker initializer (cold and warm executors alike) or by
#: the inline executor around its drain loop. Workers only ever *store*
#: through it — lookups happen pool-side, before dispatch — so a dead
#: or read-only cache can never fail a shard.
_CACHE: ResultCache | None = None


def configure_cache(cache: ResultCache | None) -> ResultCache | None:
    """Install the write-back cache for this process; returns the old one."""
    global _CACHE
    previous = _CACHE
    _CACHE = cache
    return previous


def _timers_from_spec(spec: dict | None) -> AndroidTimers | None:
    if spec is None:
        return None
    kwargs = dict(spec)
    if "ladder" in kwargs:
        kwargs["ladder"] = tuple(kwargs["ladder"])  # JSON turns it into a list
    return AndroidTimers(**kwargs)


def run_task(task: TaskSpec) -> tuple[dict, dict]:
    """Run one task; returns (record, wire-form learning state)."""
    scenario = scenario_by_name(task.scenario)
    result, testbed = run_one(
        scenario,
        HandlingMode(task.handling),
        seed=task.seed,
        android_timers=_timers_from_spec(task.android_timers),
        horizon=task.horizon,
    )
    record = _task_record(task, result, result.meta.get("elided_events", 0))
    learning = testbed.learning_records()
    if _CACHE is not None:
        _CACHE.store(task, record, learning)
    return record, learning


def _task_record(task: TaskSpec, result, elided_events: int) -> dict:
    """The checkpoint record for one completed task (shared by both
    execution paths — field-for-field identical)."""
    scenario = scenario_by_name(task.scenario)
    return {
        "task_id": task.task_id,
        "scenario": task.scenario,
        "handling": task.handling,
        "seed": task.seed,
        "failure_class": scenario.failure_class.value,
        "duration": result.duration,
        "recovered": result.recovered,
        "timed": result.timed,
        "notified_user": result.notified_user,
        "handled": result.timed and result.recovered,
        # Heap entries discarded by quiescent termination (0 under
        # REPRO_FULL_HORIZON). Audit data only: the aggregator reads
        # known keys, so this never enters aggregate.json.
        "elided_events": elided_events,
    }


def run_cohort_tasks(tasks: tuple[TaskSpec, ...]) -> tuple[list[dict], dict]:
    """Run a shard's tasks as one multi-UE cohort.

    Each task becomes one cohort member with the task's own seed, so
    its record matches the single-testbed path byte for byte. The
    cohort's simulator seed (``tasks[0].seed``) is inert: with every
    member isolated, no draw ever touches the shared stream set.
    """
    members = [
        CohortMember(
            scenario=scenario_by_name(task.scenario),
            handling=HandlingMode(task.handling),
            seed=task.seed,
            android_timers=_timers_from_spec(task.android_timers),
            horizon=task.horizon,
        )
        for task in tasks
    ]
    cohort = Cohort(members, seed=tasks[0].seed)
    outcome = cohort.run()
    records = []
    learning: dict[str, dict[str, int]] = {}
    for task, result, slot in zip(tasks, outcome.results, cohort.slots):
        record = _task_record(task, result, outcome.elided_events)
        records.append(record)
        wire = cohort.learning_records_for(slot)
        if _CACHE is not None:
            # Per-member write-back: the record and wire learning are
            # byte-identical to the single-testbed path (PR 7 parity),
            # so a cohort-produced entry satisfies any future sweep
            # regardless of its packing. elided_events is cohort-wide
            # audit data and never enters the aggregate.
            _CACHE.store(task, record, wire)
        merge_records(learning, wire)
    return records, learning


def run_shard(payload: dict) -> dict:
    """Execute one shard (as produced by ``Shard.to_json``)."""
    shard = Shard.from_json(payload)
    if shard.cohort_size > 1 and shard.tasks:
        records, learning = run_cohort_tasks(shard.tasks)
        return {"shard_id": shard.shard_id, "tasks": records,
                "learning": learning}
    records = []
    learning = {}
    for task in shard.tasks:
        record, task_learning = run_task(task)
        records.append(record)
        merge_records(learning, task_learning)
    return {"shard_id": shard.shard_id, "tasks": records, "learning": learning}
