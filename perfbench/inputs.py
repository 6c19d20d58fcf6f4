"""Workload inputs and their reference aggregate hashes.

Every workload input is a pure function of the workload seed and the
size set, so the same seed always yields the same sweep plans. The
correctness oracle is the sha256 of ``canonical_json(aggregate)``:
recorded in ``golden.json`` for the seeds it covers, otherwise computed
here through the reference path — inline, one process, no result cache,
no cohorts — which the repository's central invariant says must give
the same bytes as every other execution choice.

Record the goldens of every seed in a range that ``golden.json`` does
not hold yet for the current sizes (only when an intended change moves
simulation output, never to make a failing run pass)::

    python3 perfbench/inputs.py --seeds 0-99
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")
MODES = ("legacy", "seed_u", "seed_r")
FAMILIES = ("cold", "warm", "cohort", "serve")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark measures."""

    cold_runs: int = 8
    cold_plans: int = 16
    warm_runs: int = 160
    cohort_scenarios: tuple[str, ...] = ("*",)
    cohort_size: int = 54
    serve_scenarios: tuple[str, ...] = ("cp_*", "dp_*")
    serve_specs: int = 16
    serve_replicas: int = 2

    def of(self, family: str) -> dict:
        """The sizes one input family depends on (JSON form)."""
        fields = {"cold": ("cold_runs", "cold_plans"), "warm": ("warm_runs",),
                  "cohort": ("cohort_scenarios", "cohort_size"),
                  "serve": ("serve_scenarios", "serve_specs",
                            "serve_replicas")}[family]
        return {name: (list(value) if isinstance(value, tuple) else value)
                for name in fields for value in [getattr(self, name)]}


FULL = Sizes()
# 20 runs is past the auto executor's pool threshold, so on two or more
# usable cores the smoke test spawns pool workers in both Table 4
# workloads.
SMOKE = Sizes(cold_runs=20, cold_plans=2, warm_runs=20,
              cohort_scenarios=("cp_*",), cohort_size=24,
              serve_scenarios=("cp_timeout_transient", "dp_transient"),
              serve_specs=2, serve_replicas=1)


def cold_plans(seed: int, sizes: Sizes) -> list:
    from repro.experiments import table4

    # Table 4 run seeds are plan_seed + index: plans stay disjoint while
    # runs < 100.
    return [table4.fleet_plan(runs=sizes.cold_runs,
                              seed=4000 + 100 * (sizes.cold_plans * seed + k))
            for k in range(sizes.cold_plans)]


def warm_plan(seed: int, sizes: Sizes):
    from repro.experiments import table4

    return table4.fleet_plan(runs=sizes.warm_runs, seed=4000 + 1000 * seed)


def cohort_spec(seed: int, sizes: Sizes, cohort_size: int | None = None) -> dict:
    return {"kind": "matrix", "scenarios": list(sizes.cohort_scenarios),
            "modes": list(MODES), "replicas": 1, "seed": seed,
            "cohort_size": sizes.cohort_size if cohort_size is None
            else cohort_size}


def serve_specs(seed: int, sizes: Sizes) -> list[dict]:
    return [{"kind": "matrix", "scenarios": list(sizes.serve_scenarios),
             "modes": list(MODES), "replicas": sizes.serve_replicas,
             "seed": sizes.serve_specs * seed + index}
            for index in range(sizes.serve_specs)]


def aggregate_hash(aggregate: dict) -> str:
    from repro.fleet import canonical_json

    return hashlib.sha256(canonical_json(aggregate).encode()).hexdigest()


def _reference(plan) -> str:
    from repro.fleet import FleetRunner

    report = FleetRunner(plan, workers=1, executor="inline").run()
    if report.failed_shards:
        raise RuntimeError(f"reference run failed: {report.failed_shards}")
    return aggregate_hash(report.aggregate)


def reference_hashes(family: str, seed: int, sizes: Sizes) -> list[str]:
    """Recompute the expected hashes of one input family."""
    from repro.fleet import plan_from_spec

    if family == "cold":
        return [_reference(plan) for plan in cold_plans(seed, sizes)]
    if family == "warm":
        return [_reference(warm_plan(seed, sizes))]
    if family == "cohort":
        # A cohort of N is byte-identical to N single runs (cohort
        # parity), so the singles plan is an independent oracle.
        return [_reference(plan_from_spec(cohort_spec(seed, sizes, 1)))]
    if family == "serve":
        return [_reference(plan_from_spec(spec))
                for spec in serve_specs(seed, sizes)]
    raise ValueError(f"unknown input family {family!r}")


def _load_golden() -> dict:
    try:
        with open(GOLDEN_PATH) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def expected_hashes(family: str, seed: int, sizes: Sizes) -> tuple[list[str], str]:
    """(hashes, source) — recorded when golden.json covers the seed."""
    entry = _load_golden().get(family, {})
    if entry.get("sizes") == sizes.of(family):
        recorded = entry["seeds"].get(str(seed))
        if recorded is not None:
            return recorded, "recorded"
    return reference_hashes(family, seed, sizes), "recomputed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99",
                        help="inclusive workload-seed range (default 0-99)")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    low, _, high = args.seeds.partition("-")
    golden = _load_golden()
    for family in FAMILIES:
        entry = golden.get(family, {})
        if entry.get("sizes") != FULL.of(family):
            entry = golden[family] = {"sizes": FULL.of(family), "seeds": {}}
        for seed in range(int(low), int(high or low) + 1):
            if str(seed) not in entry["seeds"]:
                entry["seeds"][str(seed)] = reference_hashes(family, seed, FULL)
                print(f"{family} seed {seed} recorded", flush=True)
    with open(GOLDEN_PATH, "w") as handle:
        json.dump(golden, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
