"""Self-test of the benchmark: every workload once at its smallest run
(one cycle), traced and untraced, plus the outcome checks on doctored
outcomes.

    python3 -m pytest -q perfbench/test_benchmark.py
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
with open(os.path.join(HERE, "reference.json")) as _fh:
    REFERENCE = json.load(_fh)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace):
    done = bench("--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    detail, last = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1, detail
    assert detail["manifest"]["traced"] == bool(trace)
    return last["metrics"]


def test_spec_matches_harness():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(workload):
    metrics = result(workload, 0)
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_layers(workload):
    metrics = result(workload, 1)
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(tracing.PER_LAYER)
    busy = {k.rsplit(".", 1)[0]: v["value"] for k, v in metrics.items() if k.endswith(".busy_s")}
    macrospin = any(v > 0 for k, v in busy.items() if k.startswith("macrospin."))
    assert macrospin == (workload == "macrospin_calibrate")
    assert (busy["trainer.train"] > 0) == (workload == "xor_bench")


def test_run_without_sources_fails_without_result():
    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "xor_bench", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_compare_applies_tolerances():
    ref = REFERENCE["xor_bench"]["train_seed=1"]
    near = copy.deepcopy(ref)
    near["onsets_ns"][0] += 1e-8
    assert workloads.compare(near, ref) == []
    far = copy.deepcopy(ref)
    far["onsets_ns"][0] += 1e-3
    far["exit"] = 0
    assert len(workloads.compare(far, ref)) == 2


def test_spike_train_properties_reject_wrong_spikes(tmp_path):
    (op,) = workloads.spike_train_simulate(ROOT, str(tmp_path), 7, {})
    outcome = copy.deepcopy(REFERENCE["spike_train_simulate"]["seed=1"])
    assert op.properties(outcome)           # another seed's spikes do not fit
    outcome["spikes_ns"] = {}
    outcome["exit"] = 3
    assert op.properties(outcome) == ["exit 3"]


def test_other_seeds_keep_the_shipped_epoch_profile():
    pool = REFERENCE["xor_bench"]
    epochs = [pool[f"train_seed={s}"]["epochs"] for s in workloads.SHIPPED_TRAINING_SEEDS]
    assert workloads.training_seeds(workloads.DEFAULT_SEED, pool) == [1, 2, 3, 4, 5]
    for seed in (2, 3, 99):
        picks = workloads.training_seeds(seed, pool)
        assert len(set(picks)) == 5
        assert [pool[f"train_seed={s}"]["epochs"] for s in picks] == epochs
        assert picks == workloads.training_seeds(seed, pool)
