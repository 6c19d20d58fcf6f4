"""Smoke tests of the benchmark itself, at minimal input sizes.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q

Each test drives ``perfbench/run.py`` as a separate process, exactly as
the benchmark is invoked, so the Table 4 workloads spawn real pool
workers (on two or more usable cores) that re-import ``run.py`` as
``__mp_main__``: a missing ``__main__`` guard fails every pool shard.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
WORKLOADS = ("table4-cold", "table4-warm", "cohort-mixed", "serve-burst")


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0          # failed_frac == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_all_reported(workload):
    result = _result(workload, 0)
    declared = _declared("end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    declared = _declared("per_layer")
    assert {name: m["unit"] for name, m in first["metrics"].items()} == declared
    counts = [name for name, unit in declared.items()
              if unit in ("count", "ratio")]
    assert ({name: first["metrics"][name]["value"] for name in counts}
            == {name: second["metrics"][name]["value"] for name in counts})


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("table4-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_process_samples_and_stops():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import hostspeed

    calibration = hostspeed.Calibration()
    try:
        calibration.sample(2)
        calibration.sample_due()
    finally:
        calibration.close()
    assert len(calibration.samples) == 2
    assert calibration.factor() > 0
    assert calibration.proc.returncode == 0
