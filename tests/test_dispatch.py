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
from repro.fleet.checkpoint import Checkpoint
from repro.fleet.planner import (
    Shard,
    chunk_cohorts,
    estimated_plan_cost,
    plan_from_spec,
    plan_matrix,
)
from repro.fleet.pool import (
    INLINE_COST_THRESHOLD,
    execute_plan,
    resolve_executor,
)
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


class TestExecutorResolution:
    def test_explicit_modes_pass_through(self):
        plan = tiny_plan()
        assert resolve_executor("inline", plan, 4) == "inline"
        assert resolve_executor("pool", plan, 1) == "pool"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            resolve_executor("turbo", tiny_plan(), 1)

    def test_auto_single_worker_is_inline(self):
        assert resolve_executor("auto", tiny_plan(), 1) == "inline"

    def test_auto_uses_the_cost_model(self):
        small = cohort_plan()          # ~19k cost units
        assert estimated_plan_cost(small) < INLINE_COST_THRESHOLD
        assert resolve_executor("auto", small, 4) == "inline"

        big = plan_from_spec({"kind": "suite", "suite": "table4",
                              "runs": 30, "seed": 4000, "shard_size": 4})
        assert estimated_plan_cost(big) > INLINE_COST_THRESHOLD
        assert resolve_executor("auto", big, 4) == "pool"

    def test_outcome_reports_resolved_mode(self, tmp_path):
        outcome = execute_plan(tiny_plan(), workers=4, executor="auto")
        assert outcome.executor_mode == "inline"


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
