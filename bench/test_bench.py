"""Self-test of the benchmark on its smoke size.

    python3 -m pytest bench -q

Runs each workload through ``bench/run.py --size smoke``: once untimed to
check the result line against BENCHMARK.json, and twice traced with the
same seed to check that the layer counts repeat exactly.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEED = 11
WORKLOADS = ("trajectory", "sweep", "identities")
EXACT = ("ode.steps", "ode.rhs_calls", "schrodinger.builds",
         "schrodinger.evals", "reduced_action.s0p_calls", "jets.ops",
         "trajectory.samples")
# layers each workload must reach, and layers it must leave alone
REACHES = {"trajectory": ("ode.steps", "schrodinger.evals", "jets.ops",
                          "trajectory.samples", "rootfind.calls"),
           "sweep": ("ode.steps", "schrodinger.builds", "jets.ops"),
           "identities": ("jets.ops", "kinetic_series.master_us",
                          "mechanics.momenta_us", "mechanics.canonical_us")}
AVOIDS = {"trajectory": ("kinetic_series.master_us", "mechanics.momenta_us"),
          "sweep": ("kinetic_series.master_us", "mechanics.momenta_us",
                    "trajectory.write_ms"),
          "identities": ("ode.steps", "schrodinger.builds",
                         "schrodinger.evals", "trajectory.samples")}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(workload, trace):
    proc = _run("--workload", workload, "--seed", str(SEED), "--seconds",
                "1", "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0, proc.stdout
    assert out["attempted"] >= 1
    return out["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_result_has_every_end_to_end_metric(workload):
    metrics = _result(workload, 0)
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == spec
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    spec = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == spec
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name
    for name in REACHES[workload]:
        assert first[name]["value"] > 0, name
    for name in AVOIDS[workload]:
        assert first[name]["value"] == 0, name
    assert first["trace.self_coverage"]["value"] >= 0.9


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "trajectory", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
