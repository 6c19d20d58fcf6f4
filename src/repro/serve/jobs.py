"""Job queue and lifecycle for the resident fleet daemon.

A :class:`Job` is one submitted sweep spec moving through ``queued →
running → done|failed|cancelled``. The :class:`JobQueue` owns a single
executor thread that drains jobs in submission order — the warm worker
pool underneath provides the parallelism, so serving sweeps
sequentially keeps the determinism story trivial and the box fully
loaded.

Run directories are keyed by **plan fingerprint** (not job id): a
resubmitted spec binds to the same checkpoint directory, so a job
cancelled mid-sweep leaves a resumable checkpoint that the next
submission — or the batch CLI pointed at the same directory — picks up
where it stopped.

Progress is streamed through the shard-completion callback: every
landing shard is folded into an
:class:`repro.analysis.incremental.AggregateState`, the job's version
counter bumps, and long-poll watchers are woken. The final fold is the
aggregate (same computation as the batch path), rendered through
``canonical_json`` and recorded in the registry.

Timing fields are monotonic-clock durations (``time.perf_counter``),
legal on the deterministic surface; wall-clock timestamps exist only
in registry metadata.
"""

from __future__ import annotations

import enum
import logging
import queue
import threading
import time
from pathlib import Path
from typing import Callable

from repro.analysis.incremental import AggregateState
from repro.fleet.aggregate import canonical_json
from repro.fleet.checkpoint import Checkpoint, CheckpointMismatch
from repro.fleet.planner import FleetPlan, plan_from_spec
from repro.fleet.pool import WorkerPool, execute_plan
from repro.fleet.resultcache import ResultCache
from repro.fleet.worker import run_shard
from repro.serve.store import RunRegistry

log = logging.getLogger("repro.serve")


class JobState(enum.Enum):
    """Where a job is in its lifecycle."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class Job:
    """One submitted sweep and its observable progress."""

    def __init__(self, job_id: str, spec: dict, plan: FleetPlan) -> None:
        self.job_id = job_id
        self.spec = spec
        self.fingerprint = plan.fingerprint()
        self.shards_total = len(plan.shards)
        self.tasks_total = len(plan.tasks)
        self.state = JobState.QUEUED
        self.error: str | None = None
        self.shards_done = 0
        #: Result-cache partition counters for this job (telemetry,
        #: like timings — never part of the aggregate).
        self.cache_hits = 0
        self.cache_misses = 0
        #: Resolved executor and why (telemetry, set once the sweep ran).
        self.executor: str | None = None
        self.executor_reason: str | None = None
        self.stream = AggregateState()
        self.timings: dict[str, float] = {}   # perf_counter durations (s)
        self.registry_path: str | None = None
        #: Bumps on every observable change; watchers long-poll on it.
        self.version = 0
        self.cond = threading.Condition()
        self._cancel = threading.Event()
        self._submitted = time.perf_counter()

    # -- mutation (executor/daemon side) -------------------------------
    def _bump_locked(self) -> None:
        """Version bump + watcher wakeup; caller holds ``self.cond``."""
        self.version += 1
        self.cond.notify_all()

    def _bump(self) -> None:
        with self.cond:
            self._bump_locked()

    def mark(self, state: JobState, error: str | None = None) -> bool:
        """Transition atomically; returns whether it took effect.

        Terminal states are absorbing: once a job is done, failed, or
        cancelled, no later ``mark`` changes it — in particular, the
        executor thread racing ``mark(RUNNING)`` against a cancel can
        never resurrect a cancelled job (use :meth:`try_start` for the
        queued → running edge, which also refuses when a cancel has
        been requested but not yet marked).
        """
        with self.cond:
            if self.state.terminal:
                return False
            if state is JobState.RUNNING and self.state is not JobState.QUEUED:
                return False
            self.state = state
            if error is not None:
                self.error = error
            if state is JobState.RUNNING:
                self.timings["queue_wait_s"] = round(
                    time.perf_counter() - self._submitted, 6)
                self._started = time.perf_counter()
            elif state.terminal:
                self._stop_clock_locked()
            self._bump_locked()
            return True

    def try_start(self) -> bool:
        """The queued → running edge, atomic with cancellation.

        Returns False — leaving the job untouched — when the job is no
        longer queued or a cancel was requested first, so a job
        cancelled between dequeue and first shard dispatch reports
        ``cancelled`` immediately and is never started.
        """
        with self.cond:
            if self.state is not JobState.QUEUED or self._cancel.is_set():
                return False
            self.state = JobState.RUNNING
            self.timings["queue_wait_s"] = round(
                time.perf_counter() - self._submitted, 6)
            self._started = time.perf_counter()
            self._bump_locked()
            return True

    def _stop_clock_locked(self) -> None:
        """Fix ``run_wall_s`` now (idempotent); caller holds ``cond``."""
        started = getattr(self, "_started", self._submitted)
        self.timings.setdefault(
            "run_wall_s", round(time.perf_counter() - started, 6))

    def stop_clock(self) -> None:
        """Fix ``run_wall_s`` now (idempotent) — called before the
        registry snapshot so recorded timings include the run wall."""
        with self.cond:
            self._stop_clock_locked()

    def note_shard(self, shard_id: int, result: dict) -> None:
        """Fold one landed shard into the streaming aggregate.

        Runs on the executor thread; the fold, counters, and version
        bump happen under ``cond`` so a concurrent ``snapshot`` never
        observes a half-applied shard (CONC001 discipline).
        """
        with self.cond:
            if "submit_to_first_shard_s" not in self.timings:
                self.timings["submit_to_first_shard_s"] = round(
                    time.perf_counter() - self._submitted, 6)
            self.stream.fold_shard(result)
            self.shards_done += 1
            self._bump_locked()

    def note_cache(self, hits: int, misses: int) -> None:
        """Record the cache partition (fires once, before dispatch)."""
        with self.cond:
            self.cache_hits = hits
            self.cache_misses = misses
            self._bump_locked()

    def note_executor(self, mode: str, reason: str) -> None:
        """Record where the sweep ran (inline|pool) and why."""
        with self.cond:
            self.executor = mode
            self.executor_reason = reason
            self._bump_locked()

    def request_cancel(self) -> None:
        """Cancel: immediate for queued jobs, cooperative for running.

        The flag is raised *before* the state check, so a concurrent
        :meth:`try_start` either observes it and refuses, or wins the
        lock first — in which case the executor is committed and will
        observe ``cancel_requested`` at its next stop-check. Either
        way the job can never report ``running`` after this returns
        without eventually resolving to a terminal state.
        """
        self._cancel.set()
        with self.cond:
            if self.state is JobState.QUEUED:
                self.state = JobState.CANCELLED
                self._stop_clock_locked()
            self._bump_locked()

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    # -- observation (API side) ----------------------------------------
    def wait(self, version: int, timeout: float) -> None:
        """Block until the job advances past ``version`` (long-poll)."""
        with self.cond:
            self.cond.wait_for(
                lambda: self.version > version or self.state.terminal,
                timeout=timeout)

    def snapshot(self, aggregate: bool = True) -> dict:
        """JSON-safe status, optionally with the partial aggregate.

        Taken under ``cond``: handler threads must never see a state/
        version/aggregate combination that no single moment produced.
        """
        with self.cond:
            status = {
                "job_id": self.job_id,
                "fingerprint": self.fingerprint,
                "state": self.state.value,
                "error": self.error,
                "version": self.version,
                "shards_done": self.shards_done,
                "shards_total": self.shards_total,
                "tasks_done": self.stream.tasks,
                "tasks_total": self.tasks_total,
                "cache_hits": self.cache_hits,
                "cache_misses": self.cache_misses,
                "executor": self.executor,
                "executor_reason": self.executor_reason,
                "timings": dict(sorted(self.timings.items())),
                "registry_path": self.registry_path,
                "spec": self.spec,
            }
            if aggregate:
                status["aggregate"] = self.stream.result()
            return status


class JobQueue:
    """Submission queue + the single executor thread draining it."""

    def __init__(
        self,
        pool: WorkerPool | None,
        registry: RunRegistry,
        runs_root: str | Path,
        shard_fn: Callable[[dict], dict] = run_shard,
        retries: int = 2,
        executor: str = "auto",
        cache: ResultCache | None = None,
    ) -> None:
        self.pool = pool
        self.registry = registry
        self.runs_root = Path(runs_root)
        self.shard_fn = shard_fn
        self.retries = retries
        self.executor = executor
        #: One cache shared by every job of this daemon: a task any
        #: earlier job computed is never simulated again.
        self.cache = cache
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._pending: queue.Queue[Job | None] = queue.Queue()
        self._lock = threading.Lock()
        self._seq = 0
        self._thread: threading.Thread | None = None
        self._cache_hits_total = 0
        self._cache_misses_total = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._drain, name="repro-serve-jobs", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._pending.put(None)
        thread.join(timeout=60.0)

    # -- submission API ------------------------------------------------
    def submit(self, spec: dict) -> Job:
        """Validate a spec, enqueue it, and return the tracking job.

        Raises ``ValueError`` for malformed specs (surfaced as HTTP
        400 by the daemon) — a bad spec never reaches the executor.
        """
        plan = plan_from_spec(spec)
        with self._lock:
            self._seq += 1
            job = Job(f"job-{self._seq:04d}", spec, plan)
            self._jobs[job.job_id] = job
            self._order.append(job.job_id)
        self._pending.put(job)
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        """All known jobs, in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def cache_stats(self) -> dict:
        """Hit/miss totals across every job served so far (health())."""
        with self._lock:
            hits, misses = self._cache_hits_total, self._cache_misses_total
        probed = hits + misses
        return {
            "enabled": self.cache is not None,
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / probed, 4) if probed else None,
        }

    def cancel(self, job_id: str) -> Job | None:
        with self._lock:
            job = self._jobs.get(job_id)
        # The cancel itself happens outside _lock: request_cancel takes
        # the job's cond, and holding both here would order the two
        # locks against every other path for no benefit.
        if job is not None:
            job.request_cancel()
        return job

    # -- executor thread -----------------------------------------------
    def _drain(self) -> None:
        while True:
            job = self._pending.get()
            if job is None:
                return
            if not job.try_start():
                continue  # cancelled (or otherwise resolved) while queued
            try:
                self._run_job(job)
            except Exception as exc:
                log.exception("job %s failed in the executor", job.job_id)
                job.mark(JobState.FAILED, f"{type(exc).__name__}: {exc}")

    def job_dir(self, fingerprint: str) -> Path:
        return self.runs_root / fingerprint

    def _run_job(self, job: Job) -> None:
        # The queued → running transition already happened atomically in
        # _drain (try_start); from here every mark() is terminal-only.
        plan = plan_from_spec(job.spec)
        checkpoint = Checkpoint(self.job_dir(job.fingerprint))
        try:
            outcome = execute_plan(
                plan,
                retries=self.retries,
                checkpoint=checkpoint,
                shard_fn=self.shard_fn,
                pool=self.pool,
                on_shard=job.note_shard,
                stop=lambda: job.cancel_requested,
                executor=self.executor,
                cache=self.cache,
                on_cache=job.note_cache,
            )
        except CheckpointMismatch as exc:
            job.mark(JobState.FAILED, str(exc))
            return
        job.note_executor(outcome.executor_mode, outcome.executor_reason)
        with self._lock:
            self._cache_hits_total += outcome.cache_hits
            self._cache_misses_total += outcome.cache_misses
        if self.cache is not None:
            self.cache.prune()
        if outcome.stopped:
            # The checkpoint keeps every completed shard: resubmitting
            # the same spec (same fingerprint) resumes right here.
            job.mark(JobState.CANCELLED)
            return
        if outcome.failed:
            job.mark(JobState.FAILED,
                     f"shards failed after retries: {sorted(outcome.failed)}")
            return
        # The streaming fold IS the aggregate — same computation the
        # batch runner performs over the full record list.
        blob = canonical_json(job.stream.result())
        checkpoint.write_aggregate(blob)
        job.stop_clock()
        entry = self.registry.record(
            fingerprint=job.fingerprint,
            spec=job.spec,
            aggregate_json=blob,
            timings=dict(sorted(job.timings.items())),
            meta={"job_id": job.job_id,
                  "shards": job.shards_total,
                  "tasks": job.tasks_total},
        )
        job.registry_path = str(entry)
        job.mark(JobState.DONE)
