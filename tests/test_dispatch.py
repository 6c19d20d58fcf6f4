"""Dispatch: executor modes, cohort chunking, and the buffered
checkpoint writer.

The invariant every parity test pins: ``aggregate.json`` is
byte-identical across executor modes (inline vs cold or warm pool),
shard functions (stock vs custom), cohort chunkings (K ∈ {1, 2, 4}),
and worker counts — dispatch mechanics must never be observable in
results.
"""

import pytest

from repro.fleet import FleetRunner, WorkerPool, canonical_json
from repro.fleet import pool as pool_module
from repro.fleet.checkpoint import Checkpoint
from repro.fleet.planner import (
    Shard,
    chunk_cohorts,
    plan_from_spec,
    plan_matrix,
)
from repro.fleet.pool import execute_plan, resolve_executor
from repro.fleet.worker import run_shard
from repro.testbed.harness import HandlingMode


def cohort_plan(chunks=1, cohort_size=4):
    """8 tasks in cohort shards of 4 — the chunking/parity workload."""
    return plan_matrix(
        scenario_patterns=["cp_timeout_transient", "dp_transient"],
        modes=[HandlingMode.LEGACY, HandlingMode.SEED_R],
        replicas=2, master_seed=77, shard_size=4,
        cohort_size=cohort_size, cohort_chunks=chunks)


def tiny_plan():
    """One single-task shard (the cheapest real payload)."""
    return plan_matrix(
        scenario_patterns=["cp_timeout_transient"],
        modes=[HandlingMode.SEED_R], replicas=1, master_seed=5, shard_size=1)


def aggregate_bytes(tmp_path, name, plan, **runner_kwargs):
    out = tmp_path / name
    report = FleetRunner(plan, out_dir=str(out), **runner_kwargs).run()
    assert report.complete, report.failed_shards
    return (out / "aggregate.json").read_bytes()


def _proxy_shard(payload):
    """Picklable non-default shard_fn (bypasses the result cache)."""
    return run_shard(payload)


# ---------------------------------------------------------------------------
# The tentpole invariant: dispatch mechanics are invisible in results
# ---------------------------------------------------------------------------
class TestAggregateParity:
    def test_inline_chunking_invariant(self, tmp_path):
        reference = aggregate_bytes(tmp_path, "ref", cohort_plan(1), workers=1)
        for chunks in (2, 4):
            assert aggregate_bytes(
                tmp_path, f"k{chunks}", cohort_plan(chunks), workers=1,
            ) == reference

    def test_pool_and_chunking_match_inline(self, tmp_path):
        reference = aggregate_bytes(tmp_path, "ref", cohort_plan(1), workers=1)
        # forced pool, cold executors, 1 and 4 chunks
        assert aggregate_bytes(tmp_path, "p1", cohort_plan(1),
                               workers=2, executor="pool") == reference
        assert aggregate_bytes(tmp_path, "p4", cohort_plan(4),
                               workers=2, executor="pool") == reference
        # four workers, intermediate chunking
        assert aggregate_bytes(tmp_path, "w4", cohort_plan(2),
                               workers=4, executor="pool") == reference

    def test_custom_shard_fn_matches_inline(self, tmp_path):
        reference = aggregate_bytes(tmp_path, "ref", cohort_plan(1), workers=1)
        assert aggregate_bytes(tmp_path, "custom", cohort_plan(1), workers=2,
                               executor="pool", shard_fn=_proxy_shard,
                               ) == reference

    def test_warm_pool_matches_inline(self, tmp_path):
        reference = aggregate_bytes(tmp_path, "ref", cohort_plan(1), workers=1)
        with WorkerPool(2) as pool:
            assert aggregate_bytes(tmp_path, "warm", cohort_plan(4),
                                   pool=pool, executor="pool") == reference
            assert pool.executors_spawned == 1


def table4_plan(runs=8):
    """Table 4 at ``runs`` (17 shards, 133,920 cost units at 8)."""
    return plan_from_spec({"kind": "suite", "suite": "table4",
                           "runs": runs, "seed": 4000})


@pytest.fixture
def host(monkeypatch):
    """Pin the facts ``auto`` prices with: usable cores and start-ups.

    ``host(cores, fork=..., spawn=...)`` patches the usable core count
    and the recorded start-up seconds; the cold executor's start method
    gets the ``fork`` figure whatever this platform's default is.
    """
    def pin(cores, fork=0.017, spawn=0.53):
        monkeypatch.setattr(pool_module, "usable_cores", lambda: cores)
        startup = {"spawn": spawn}
        startup[pool_module._cold_start_method()] = fork
        monkeypatch.setattr(pool_module, "_STARTUP_S", startup)
    return pin


class TestExecutorResolution:
    def test_explicit_modes_pass_through(self):
        plan = tiny_plan()
        assert resolve_executor("inline", plan, 4) == (
            "inline", "inline: requested")
        assert resolve_executor("pool", plan, 1) == ("pool", "pool: requested")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_executor("turbo", tiny_plan(), 1)

    def test_auto_single_worker_is_inline(self):
        assert resolve_executor("auto", tiny_plan(), 1)[0] == "inline"

    def test_one_usable_core_is_inline_for_a_big_plan(self, host):
        host(cores=1)
        mode, reason = resolve_executor("auto", table4_plan(30), 4)
        assert mode == "inline"
        assert reason.startswith("inline: p=1 ")
        assert "usable cores 1" in reason

    def test_one_usable_core_is_inline_even_for_a_warm_pool(
            self, host, monkeypatch):
        host(cores=1)
        pool = WorkerPool(4)
        monkeypatch.setattr(pool, "is_warm", lambda: True)
        assert resolve_executor("auto", table4_plan(30), 4, pool)[0] == "inline"

    def test_two_cores_pool_table4(self, host):
        host(cores=2)
        mode, reason = resolve_executor("auto", table4_plan(8), 2)
        assert mode == "pool"
        assert reason.startswith("pool: p=2, inline≈0.34 s, start-up 0.017 s")

    def test_start_up_above_the_saving_is_inline(self, host):
        # 0.34 s inline at p=2 saves 0.17 s: a 0.2 s start-up loses.
        host(cores=2, fork=0.2)
        assert resolve_executor("auto", table4_plan(8), 2)[0] == "inline"

    def test_warm_pool_costs_nothing_to_start(self, host, monkeypatch):
        host(cores=2)
        small = cohort_plan()          # 2 shards, ~0.05 s inline
        pool = WorkerPool(2)
        assert resolve_executor("auto", small, 2, pool) == (
            "inline", "inline: p=2, inline≈0.05 s, start-up 0.530 s (spawn)")
        monkeypatch.setattr(pool, "is_warm", lambda: True)
        assert resolve_executor("auto", small, 2, pool) == (
            "pool", "pool: p=2, inline≈0.05 s, start-up 0 s (warm pool)")

    def test_single_shard_plan_is_inline(self, host, monkeypatch):
        host(cores=8)
        pool = WorkerPool(8)
        monkeypatch.setattr(pool, "is_warm", lambda: True)
        assert resolve_executor("auto", tiny_plan(), 8)[0] == "inline"
        assert resolve_executor("auto", tiny_plan(), 8, pool)[0] == "inline"

    def test_unmeasured_start_method_is_tried_then_measured(self, monkeypatch):
        monkeypatch.setattr(pool_module, "usable_cores", lambda: 2)
        monkeypatch.setattr(pool_module, "_STARTUP_S", {})
        method = pool_module._cold_start_method()
        mode, reason = resolve_executor("auto", cohort_plan(), 2)
        assert mode == "pool"
        assert reason.endswith(f"start-up unmeasured ({method})")

        outcome = execute_plan(cohort_plan(), workers=2, executor="auto")
        assert outcome.executor_mode == "pool" and not outcome.failed
        measured = pool_module._STARTUP_S[method]
        assert 0 < measured < 60
        # once per process: a second pooled sweep keeps the first figure
        execute_plan(cohort_plan(), workers=2, executor="pool")
        assert pool_module._STARTUP_S[method] == measured

    def test_outcome_reports_resolved_mode(self, tmp_path):
        outcome = execute_plan(tiny_plan(), workers=4, executor="auto")
        assert outcome.executor_mode == "inline"
        assert outcome.executor_reason.startswith("inline: p=1 ")

    def test_auto_matches_inline_bytes_on_table4(self, tmp_path, host):
        host(cores=2)
        reference = aggregate_bytes(tmp_path, "inline", table4_plan(8),
                                    workers=2, executor="inline")
        out = tmp_path / "auto"
        report = FleetRunner(table4_plan(8), workers=2, executor="auto",
                             out_dir=str(out)).run()
        assert report.complete, report.failed_shards
        assert report.executor_mode == "pool"
        assert (out / "aggregate.json").read_bytes() == reference

    def test_reason_stays_out_of_aggregate_and_fingerprints(
            self, tmp_path, host):
        plan = cohort_plan()
        runs = {}
        for name, fork in (("cheap", 0.0), ("dear", 100.0)):
            host(cores=2, fork=fork)
            out = tmp_path / name
            report = FleetRunner(plan, workers=2, out_dir=str(out)).run()
            assert report.complete, report.failed_shards
            runs[name] = (report, out)
        (cheap, cheap_out), (dear, dear_out) = runs["cheap"], runs["dear"]
        assert (cheap.executor_mode, dear.executor_mode) == ("pool", "inline")
        assert cheap.executor_reason != dear.executor_reason
        for name in ("aggregate.json", "manifest.json"):
            blob = (cheap_out / name).read_bytes()
            assert blob == (dear_out / name).read_bytes()
            assert b"executor" not in blob and b"start-up" not in blob
        assert plan.fingerprint() == cohort_plan().fingerprint()


# ---------------------------------------------------------------------------
# Cohort chunking
# ---------------------------------------------------------------------------
class TestChunkCohorts:
    def test_chunks_one_is_identity(self):
        plan = cohort_plan()
        assert chunk_cohorts(plan, 1) is plan

    def test_non_cohort_plans_pass_through(self):
        plan = tiny_plan()
        assert chunk_cohorts(plan, 4) is plan

    def test_invalid_chunks_rejected(self):
        with pytest.raises(ValueError):
            chunk_cohorts(cohort_plan(), 0)

    def test_split_preserves_tasks_and_renumbers_shards(self):
        plan = cohort_plan()
        chunked = chunk_cohorts(plan, 2)
        assert [s.shard_id for s in chunked.shards] == list(
            range(len(chunked.shards)))
        original = [t for s in plan.shards for t in s.tasks]
        split = [t for s in chunked.shards for t in s.tasks]
        assert split == original  # ids, seeds, and order all intact
        assert all(len(s.tasks) == 2 for s in chunked.shards)
        assert all(s.cohort_size == 4 for s in chunked.shards)

    def test_oversplit_degrades_to_singles(self):
        chunked = chunk_cohorts(cohort_plan(), 99)
        assert all(len(s.tasks) == 1 for s in chunked.shards)
        # a one-member "cohort" is just a single run
        assert all(s.cohort_size == 1 for s in chunked.shards)

    def test_spec_threading(self):
        spec = {"kind": "matrix", "scenarios": ["cp_timeout_transient"],
                "modes": ["seed_r"], "replicas": 4, "seed": 1,
                "shard_size": 4, "cohort_size": 4, "cohort_chunks": 2}
        plan = plan_from_spec(spec)
        assert len(plan.shards) == 2
        with pytest.raises(ValueError):
            plan_from_spec(dict(spec, cohort_chunks=0))
        with pytest.raises(ValueError):
            plan_from_spec({"kind": "suite", "suite": "table4", "runs": 2,
                            "seed": 1, "shard_size": 2, "cohort_chunks": 2})


# ---------------------------------------------------------------------------
# Buffered checkpoint writer
# ---------------------------------------------------------------------------
class TestBufferedCheckpoint:
    def _entries(self):
        return [(0, {"shard_id": 0, "tasks": [], "learning": {}}),
                (1, {"shard_id": 1, "tasks": [], "learning": {}})]

    def test_buffered_bytes_equal_unbuffered(self, tmp_path):
        direct = Checkpoint(tmp_path / "direct")
        buffered = Checkpoint(tmp_path / "buffered")
        buffered.begin_buffered()
        for sid, result in self._entries():
            direct.record_ok(sid, result, 1)
            buffered.record_ok(sid, result, 1)
        assert not buffered.shards_path.exists()  # nothing hit disk yet
        buffered.flush()
        assert (buffered.shards_path.read_bytes()
                == direct.shards_path.read_bytes())

    def test_flush_is_idempotent_and_incremental(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "run")
        checkpoint.begin_buffered()
        checkpoint.record_ok(0, {"shard_id": 0, "tasks": [], "learning": {}}, 1)
        checkpoint.flush()
        first = checkpoint.shards_path.read_bytes()
        checkpoint.flush()  # empty buffer: no-op
        assert checkpoint.shards_path.read_bytes() == first
        checkpoint.record_failed(1, "boom", 1)
        checkpoint.flush()
        lines = checkpoint.shards_path.read_text().splitlines()
        assert len(lines) == 2
        assert checkpoint.completed().keys() == {0}
        assert checkpoint.failures().keys() == {1}

    def test_begin_buffered_is_idempotent(self, tmp_path):
        checkpoint = Checkpoint(tmp_path / "run")
        checkpoint.begin_buffered()
        checkpoint.record_ok(0, {"shard_id": 0, "tasks": [], "learning": {}}, 1)
        checkpoint.begin_buffered()  # must not drop the pending record
        checkpoint.flush()
        assert checkpoint.completed().keys() == {0}

    def test_execute_plan_checkpoint_matches_inline_records(self, tmp_path):
        plan = tiny_plan()
        execute_plan(plan, checkpoint=Checkpoint(tmp_path / "a"),
                     executor="inline")
        execute_plan(plan, workers=2, executor="pool",
                     checkpoint=Checkpoint(tmp_path / "b"))
        read = lambda name: sorted(
            (tmp_path / name / "shards.jsonl").read_text().splitlines())
        assert read("a") == read("b")
