"""The four benchmark workloads, driven through the public APIs only.

Each workload has a ``setup`` (everything kept out of the timed part:
plan build, cache priming, daemon and pool warm-up) and a ``unit`` (one
timed piece of work: a sweep, or one served job). Every sweep or job a
workload runs, set-up ones included, lands in ``units`` with the sha256
of its aggregate; ``check`` compares them with the expected hashes once
timing is over, so computing a reference never perturbs a timed phase.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs

#: What a fresh interpreter imports to use the public sweep APIs; timed
#: as the import part of every set-up.
IMPORTS = ("import repro.fleet, repro.experiments.table4, "
           "repro.serve.client, repro.testbed")


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def child_env() -> dict:
    """Environment for child interpreters: the checkout's sources first."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def import_probe() -> float:
    """Seconds for a fresh interpreter to import the public APIs."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], env=child_env(),
                   check=True, timeout=120)
    return time.perf_counter() - started


@dataclass
class Unit:
    """One piece of work: a sweep, or one served job."""

    wall_s: float
    tasks: int
    attempted: int           # shards (fleet) or 1 job (serve)
    failed: int              # failed shards / jobs; mismatches added by check
    digest: str              # sha256 of the aggregate's canonical JSON
    index: int = 0           # which input (plan or spec) it ran
    report: object = None    # fleet: the FleetReport
    status: dict = field(default_factory=dict)  # serve: final job status


class Workload:
    """State shared by every workload: inputs, units, the final check."""

    name = ""
    family = ""

    def __init__(self, seed: int, sizes: inputs.Sizes, scratch: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.workers = usable_cores()
        self.units: list[Unit] = []
        self.notes: list[str] = []
        self.expected_source = ""
        self.count = 0      # units run so far: picks the next input

    def check(self) -> None:
        """Fail every unit whose aggregate differs from the expected one."""
        expected, self.expected_source = inputs.expected_hashes(
            self.family, self.seed, self.sizes)
        for unit in self.units:
            if unit.digest != expected[unit.index]:
                self.notes.append(
                    f"aggregate sha256 {unit.digest[:16]} != "
                    f"{self.expected_source} {expected[unit.index][:16]}")
                unit.failed = unit.attempted

    def rerun(self, unit: Unit, inline: bool = False) -> Unit:
        """Run the input of an earlier ``unit`` once more."""
        self.count = unit.index
        return self.unit(inline)

    def close(self) -> None:
        pass


class FleetWorkload(Workload):
    """Shared shape of the three in-process fleet sweeps."""

    executor = "auto"

    def __init__(self, seed: int, sizes: inputs.Sizes, scratch: Path) -> None:
        super().__init__(seed, sizes, scratch)
        self.plans: list = []
        self.cache = None   # a shared primed cache; None = fresh per sweep

    def setup(self) -> None:
        self.plans = self.build_plans()

    def unit(self, inline: bool = False) -> Unit:
        """One sweep, from submit to aggregate written; plans in turn."""
        from repro.fleet import FleetRunner, ResultCache

        index = self.count % len(self.plans)
        self.count += 1
        plan = self.plans[index]
        run_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        cache = (self.cache if self.cache is not None
                 else ResultCache(run_dir / "cache"))
        runner = FleetRunner(
            plan, workers=1 if inline else self.workers,
            executor="inline" if inline else self.executor,
            out_dir=str(run_dir / "run"), cache=cache)
        started = time.perf_counter()
        report = runner.run()
        wall = time.perf_counter() - started
        written = (run_dir / "run" / "aggregate.json").read_bytes()
        shutil.rmtree(run_dir)
        if self.units:
            # Only the newest report is read (Table 4 vs paper); holding
            # every one would show up in peak_rss_mb.
            self.units[-1].report = None
        unit = Unit(wall_s=wall, tasks=len(plan.tasks),
                    attempted=len(plan.shards),
                    failed=len(report.failed_shards),
                    digest=hashlib.sha256(written).hexdigest(), index=index,
                    report=report)
        self.units.append(unit)
        return unit


class Table4Cold(FleetWorkload):
    """Table 4 as the fleet CLI runs it: fresh checkpoint, empty cache."""

    name = "table4-cold"
    family = "cold"

    def build_plans(self) -> list:
        return inputs.cold_plans(self.seed, self.sizes)

    def setup(self) -> None:
        super().setup()
        # One untimed sweep lets first-use costs (bytecode, page cache,
        # lazy imports) land in set-up.
        self.unit()


class Table4Warm(FleetWorkload):
    """The same plan resubmitted against a cache primed in set-up."""

    name = "table4-warm"
    family = "warm"
    cache_dir = cold = None

    def build_plans(self) -> list:
        return [inputs.warm_plan(self.seed, self.sizes)]

    def setup(self) -> None:
        from repro.fleet import ResultCache

        super().setup()
        self.close()
        self.cache_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        self.cache = ResultCache(self.cache_dir)
        self.cold = self.unit()

    def unit(self, inline: bool = False) -> Unit:
        unit = super().unit(inline)
        if self.cold is None:
            return unit     # the priming sweep itself
        # The read side must reproduce the write side byte for byte,
        # and must not simulate anything.
        if unit.digest != self.cold.digest:
            self.notes.append("warm aggregate differs from the cold one")
            unit.failed = unit.attempted
        if unit.report.cache_hits != unit.tasks:
            self.notes.append(f"warm sweep missed the cache "
                              f"({unit.report.cache_hits}/{unit.tasks} hits)")
            unit.failed = unit.attempted
        return unit

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = self.cache = self.cold = None


class CohortMixed(FleetWorkload):
    """Every scenario x handling mode as one large cohort, inline."""

    name = "cohort-mixed"
    family = "cohort"
    executor = "inline"

    def build_plans(self) -> list:
        from repro.fleet import plan_from_spec

        return [plan_from_spec(inputs.cohort_spec(self.seed, self.sizes))]


class ServeBurst(Workload):
    """Closed loop of small sweeps through an out-of-process daemon."""

    name = "serve-burst"
    family = "serve"

    def __init__(self, seed: int, sizes: inputs.Sizes, scratch: Path) -> None:
        super().__init__(seed, sizes, scratch)
        self.specs = inputs.serve_specs(seed, sizes)
        self.proc: subprocess.Popen | None = None
        self.client = None
        self.first_job_s = 0.0

    def build_plans(self) -> list:
        from repro.fleet import plan_from_spec

        return [plan_from_spec(spec) for spec in self.specs]

    def setup(self) -> None:
        from repro.serve.client import ServeClient

        self.close()
        self.root = Path(tempfile.mkdtemp(dir=self.scratch))
        log_path = self.root / "daemon.log"
        with open(log_path, "w") as log:
            # --executor pool keeps every job on the warm-pool path
            # whatever auto would pick; --no-cache so a repeated spec is
            # simulated again rather than served from the result cache.
            self.proc = subprocess.Popen(
                [sys.executable, "-u", "-m", "repro.serve", "--port", "0",
                 "start", "--root", str(self.root / "service"),
                 "--workers", str(self.workers), "--executor", "pool",
                 "--no-cache"],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                start_new_session=True)
        self.client = ServeClient(port=self._wait_for_port(log_path))
        # The first job pays the lazy pool spawn: it belongs to set-up.
        self.first_job_s = self.unit().wall_s

    def _wait_for_port(self, log_path: Path) -> int:
        deadline = time.monotonic() + 60.0
        marker = "listening on http://127.0.0.1:"
        while time.monotonic() < deadline:
            text = log_path.read_text()
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0])
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited:\n{text}")
            time.sleep(0.02)
        raise RuntimeError("serve daemon did not start within 60 s")

    def unit(self, inline: bool = False) -> Unit:
        """One job, from submit to done as the client sees it."""
        index = self.count % len(self.specs)
        self.count += 1
        started = time.perf_counter()
        status = self.client.submit(self.specs[index])
        status = self.client.wait_done(status["job_id"])
        wall = time.perf_counter() - started
        digest = ""
        if status["state"] == "done":
            digest = inputs.aggregate_hash(
                self.client.job(status["job_id"])["aggregate"])
        else:
            self.notes.append(f"{status['job_id']} {status['state']}: "
                              f"{status['error']}")
        # Drop the finished run directory so the next submission of this
        # spec simulates again instead of resuming a complete checkpoint.
        shutil.rmtree(self.root / "service" / "jobs" / status["fingerprint"],
                      ignore_errors=True)
        unit = Unit(wall_s=wall, tasks=status["tasks_total"], attempted=1,
                    failed=int(status["state"] != "done"), digest=digest,
                    index=index, status=status)
        self.units.append(unit)
        return unit

    def close(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        # SIGINT runs the daemon's orderly close: HTTP socket, queue
        # thread, then the warm pool's workers are joined.
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)
        try:
            # Anything the daemon left in its session (a pool worker
            # after a kill) goes with it.
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


WORKLOADS = {cls.name: cls for cls in (Table4Cold, Table4Warm, CohortMixed,
                                       ServeBurst)}
