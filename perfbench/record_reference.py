"""Record the outcomes that benchmark runs are checked against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: for each workload, the outcome of every
operation of the default workload seed.  For ``xor_bench`` it also records
the pool that other workload seeds draw their training seeds from: every
seed up to ``POOL_MAX_SEED`` that converges in the same number of epochs as
one of the shipped seeds and passes the property checks.  Run it only
where the program's outputs are known to be right.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import yaml

import run  # sets the thread variables before numpy is imported

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402
from mtjsnn import cli  # noqa: E402

POOL_MAX_SEED = 400
TRAIN_EPOCH_CAP = 20


def record(op, reference: dict) -> dict | None:
    outcome = op.outcome(op.call())
    failures = op.properties(outcome)
    if failures:
        print(f"skipped {op.key}: {'; '.join(failures)}", file=sys.stderr)
        return None
    reference[op.key] = outcome
    return outcome


def epochs_to_converge(work: str, train_seed: int) -> int | None:
    """Epochs ``mtjsnn train`` needs on the shipped config, if at most the cap."""
    config = os.path.join(work, "capped.yaml")
    if not os.path.exists(config):
        with open(run.XOR_CONFIG) as fh:
            document = yaml.safe_load(fh)
        document["train"]["max_epochs"] = TRAIN_EPOCH_CAP
        with open(config, "w") as fh:
            yaml.safe_dump(document, fh)
    out_dir = workloads.fresh_dir(os.path.join(work, "train"))
    if workloads.run_cli(["train", "--config", config, "--out", out_dir,
                          "--seed", str(train_seed)]) != cli.EXIT_OK:
        return None
    with open(os.path.join(out_dir, "history.csv")) as fh:
        return sum(1 for _ in fh) - 1


def dumps(reference: dict) -> str:
    """JSON with one line per recorded operation."""
    workload_blocks = []
    for name, ops in sorted(reference.items()):
        lines = [f"  {json.dumps(key)}: {json.dumps(ops[key], sort_keys=True)}"
                 for key in sorted(ops, key=lambda k: (len(k), k))]
        workload_blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(lines) + "\n }")
    return "{\n" + ",\n".join(workload_blocks) + "\n}\n"


def main() -> int:
    os.makedirs(os.path.join(run.ROOT, ".perfbench_out"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=os.path.join(run.ROOT, ".perfbench_out"))
    reference: dict[str, dict] = {}
    try:
        for name, make in workloads.WORKLOADS.items():
            reference[name] = {}
            for op in make(run.ROOT, work, workloads.DEFAULT_SEED, {}):
                if record(op, reference[name]) is None:
                    return run.fail(f"{name}: the default input fails its checks")
        pool = reference["xor_bench"]
        wanted = {pool[f"train_seed={s}"]["epochs"] for s in workloads.SHIPPED_TRAINING_SEEDS}
        for seed in range(1, POOL_MAX_SEED + 1):
            if f"train_seed={seed}" not in pool and epochs_to_converge(work, seed) in wanted:
                record(workloads.xor_op(run.ROOT, work, seed), pool)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w") as fh:
        fh.write(dumps(reference))
    print(f"wrote {path}: {len(pool)} xor_bench training seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
