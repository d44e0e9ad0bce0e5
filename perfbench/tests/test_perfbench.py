"""Tests of the benchmark itself (not part of the esnkit test suite).

    python3 -m pytest -q perfbench/tests

The output-check tests are fast. The smoke test runs every workload once
untraced and once traced (memory_n400 at ensemble size 1), through the one
command that runs them all; that takes about a minute on two cores.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, load_reference  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Per-layer metrics each workload exists to exercise; a traced run must
#: see work in every one of them.
EXERCISED = {
    "memory_n400": ["spectral.eig_calls", "reservoirs.generated",
                    "esn.neuron_steps", "metrics.delays_evaluated",
                    "metrics.memory_capacity_s"],
    "classify_pool": ["esn.runs", "esn.ridge_solves", "tasks.bundle_s",
                      "benchmarks.evaluations", "cli.payload_bytes",
                      "cli.pool_efficiency"],
    "adapt_mg": ["esn.free_runs", "esn.ridge_solves", "signals.response_trials",
                 "adapt.table_points", "adapt.cache_misses",
                 "adapt.table_bytes_written", "adapt.configs_evaluated",
                 "benchmarks.evaluations", "tasks.bundle_s"],
}


def reference_outputs(workload, case, reference):
    """The outputs one iteration of ``case`` wrote at the reference commit."""
    if workload.name == "memory_n400":
        return {unit: {"members": reference[unit]["members"]}
                for unit in workload._units(case)}
    entry = dict(reference[workload.key(case)])
    del entry["warned"]
    return entry


def perturb(workload, outputs):
    """The same outputs with one stored float changed in its 5th digit."""
    out = copy.deepcopy(outputs)
    if workload.name == "memory_n400":
        out[next(iter(out))]["members"][0]["total"] *= 1 + 1e-5
    elif workload.name == "classify_pool":
        out["rows"]["0:0"]["avg_modulus"] *= 1 + 1e-5
    else:
        key = next(iter(out["candidate_medians"]))
        out["candidate_medians"][key] *= 1 + 1e-5
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_check_accepts_reference_and_rejects_perturbed_output(name):
    workload = WORKLOADS[name]()
    stored = load_reference(name)
    assert stored["params"] == workload.params
    reference = stored["cases"]
    case = workload.draw(np.random.default_rng(0))
    good = reference_outputs(workload, case, reference)

    attempted, failed, _ = workload.check(case, good, reference)
    assert attempted > 0 and failed == 0

    _, failed, _ = workload.check(case, perturb(workload, good), reference)
    assert failed == 1

    attempted, failed, _ = workload.check(case, {}, reference)
    assert failed == attempted


def test_new_nonfinite_score_is_a_failure():
    workload = WORKLOADS["classify_pool"]()
    reference = load_reference(workload.name)["cases"]
    case = workload.pool()[0]
    outputs = reference_outputs(workload, case, reference)
    outputs = copy.deepcopy(outputs)
    outputs["rows"]["1:0"]["performance"] = float("inf")
    _, failed, silent = workload.check(case, outputs, reference)
    assert silent["nonfinite_scores"] == 1
    assert failed == 2  # the mismatch itself, plus the new silent outcome


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_draws_same_cases(name):
    workload = WORKLOADS[name]()
    draws = [[workload.draw(np.random.default_rng(seed)) for _ in range(5)]
             for seed in (7, 7, 8)]
    assert draws[0] == draws[1]
    assert draws[0] != draws[2]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric(trace, section):
    proc = run_bench(ROOT, "--workload", "all", "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS)
    expected = {f"{name}.{m['name']}": m["unit"]
                for name in WORKLOADS for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for m in SPEC[section]:
        # Every metric is also printed by name, with its unit and samples.
        assert proc.stdout.count(f"\n{m['name']} = ") == len(WORKLOADS)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for name, exercised in EXERCISED.items():
            for metric in exercised:
                assert metrics[f"{name}.{metric}"] > 0, (name, metric)
            assert metrics[f"{name}.trace.overhead_s"] == pytest.approx(
                metrics[f"{name}.trace.traced_wall_s"]
                - metrics[f"{name}.trace.untraced_wall_s"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "memory_n400", "--seed", "0",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
