"""Benchmark of the mtjsnn package, one workload per run.

    python3 perfbench/run.py --workload xor_bench --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run repeats the workload's cycle of operations until
``--seconds`` have passed (whole cycles only), checks every outcome, and
prints as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds the run manifest and
the samples behind each metric.

Operation times are reported in reference seconds: each wall time is
scaled by the machine's speed at that moment, measured by a fixed probe
computation run just before and just after it (see ``probe``).  On a shared
machine whose speed drifts by tens of percent within seconds, this keeps
the figures of one program comparable from run to run; raw wall seconds are
in the detail line.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs each operation twice, untraced then traced, and reports
the per-layer metrics from the traced copies' spans plus the tracing
overhead; the spans are written to ``.perfbench_out/`` in the checkout.
``--seconds 0`` runs one cycle, which is what the self-test uses.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
XOR_CONFIG = os.path.join(ROOT, "configs", "xor.yaml")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# One process, no extra threads: BLAS pools are read from these at numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

# The probe's wall time at the reference speed: its fastest on a 2 GHz Xeon VM.
PROBE_REFERENCE_S = 0.018

SETUP_SAMPLES = 3
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mtjsnn.cli
mtjsnn.cli.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
"""


def probe() -> float:
    """Wall seconds of a fixed computation in the program's own mix: small
    numpy vector updates in a Python loop, as in the macrospin integrator,
    and float formatting, as in the CSV writers."""
    t0 = perf_counter()
    m = np.array([0.6, 0.8, 0.0])
    axis = np.array([1.0, 0.0, 0.0])
    acc = 0.0
    for _ in range(300):
        m = m + 1e-3 * np.cross(m, np.cross(m, axis))
        m = m / np.linalg.norm(m)
        acc += float(m[2])
    ",".join(repr(k * 0.1 + acc) for k in range(5000))
    return perf_counter() - t0


class Sample:
    """A wall time, and the same time in reference seconds given the probe
    times taken just before and just after it."""

    def __init__(self, wall: float, before: float, after: float):
        self.wall = wall
        self.scaled = wall * PROBE_REFERENCE_S / ((before + after) / 2)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_samples() -> list[float]:
    """Wall seconds to import mtjsnn and load configs/xor.yaml in fresh
    processes, as each process measures it.  The first process warms the
    file cache and bytecode and is not counted.  These are not scaled by the
    probe: import work is file and loader work, which the probe does not
    track (scaling widened their spread)."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, XOR_CONFIG],
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip()))
    return samples[1:]


def summary(samples: list[Sample]) -> dict:
    """Sample count, median, and the highest percentile with at least ten
    samples beyond it, in reference seconds; and the median wall seconds."""
    ordered = sorted(s.scaled for s in samples)
    out = {"n": len(ordered), "median": statistics.median(ordered),
           "median_wall": statistics.median(s.wall for s in samples)}
    k = len(ordered) - 11
    if k >= 0:
        out[f"p{100 * (k + 1) // len(ordered)}"] = ordered[k]
    return out


def manifest(args, package) -> dict:
    import scipy
    import yaml

    try:  # the ceiling keeps git from reporting an enclosing repository
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)},
                             ).stdout.strip() or None
    except OSError:
        sha = None
    source = hashlib.sha256()
    package_dir = os.path.dirname(package.__file__)
    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            with open(os.path.join(package_dir, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "mtjsnn": package.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
    }


def main(argv=None) -> int:
    # On SIGTERM, unwind so that the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "mtjsnn", "__init__.py")):
        return fail(f"no mtjsnn package under {SRC}")
    sys.path.insert(0, SRC)
    import mtjsnn
    if os.path.dirname(os.path.dirname(os.path.abspath(mtjsnn.__file__))) != SRC:
        return fail(f"imported mtjsnn from {mtjsnn.__file__}, not from {SRC}")
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(REFERENCE):
        return fail(f"missing {REFERENCE}")
    with open(REFERENCE) as fh:
        reference = json.load(fh).get(args.workload, {})

    setup = setup_samples()
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=os.path.join(ROOT, ".perfbench_out"))
    try:
        ops = workloads.WORKLOADS[args.workload](ROOT, work, args.seed, reference)
        tracer = tracing.Tracer(mtjsnn) if args.trace else None
        run = measure(ops, args.seconds, tracer, reference, workloads.compare)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(run["untraced"]) < len(ops) or (tracer and not run["overhead"]):
        print("\n".join(run["failures"]), file=sys.stderr)
        return fail("some input never completed")
    op_s = {key: summary(samples) for key, samples in run["untraced"].items()}

    detail = {
        "manifest": manifest(args, mtjsnn),
        "setup_s": {"n": len(setup), "median_wall": statistics.median(setup)},
        "op_s": op_s,
        "identical_to_reference": run["identical"],
        "failures": run["failures"][:20],
    }
    if tracer:
        detail["traced_op_s"] = summary(run["traced"])
        detail["spans"] = os.path.join(".perfbench_out", f"spans-{args.workload}.csv")
        tracer.write(os.path.join(ROOT, detail["spans"]))
        layers = tracing.layer_metrics(tracer.spans, len(run["traced"]) // len(ops),
                                       statistics.median(run["overhead"]))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cycle_s": {"value": sum(s["median"] for s in op_s.values()), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps(detail))
    print(json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


def measure(ops, seconds, tracer, reference, compare) -> dict:
    """Run whole cycles of ``ops`` until ``seconds`` have passed.

    With a tracer each operation runs untraced, then traced.  An operation
    fails when it raises, when a property check fails, when it misses its
    recorded reference, or when it is not byte-identical to its first run.
    """
    run = {"untraced": {}, "traced": [], "overhead": [], "attempted": 0, "failed": 0,
           "failures": []}
    first = {}
    matched = compared = 0
    start = perf_counter()
    while True:
        for op in ops:
            untraced = None
            for traced in ((False, True) if tracer else (False,)):
                run["attempted"] += 1
                try:
                    before = probe()
                    if traced:
                        tracer.begin(run["attempted"])
                    t0 = perf_counter()
                    try:
                        raw = op.call()
                    finally:
                        t1 = perf_counter()
                        if traced:
                            tracer.end()
                    sample = Sample(t1 - t0, before, probe())
                    outcome = op.outcome(raw)
                except Exception:  # a crash is one failed operation; the run goes on
                    run["failed"] += 1
                    run["failures"].append(f"{op.key}: {traceback.format_exc(limit=3)}")
                    continue
                if traced:
                    run["traced"].append(sample)
                    if untraced is not None:
                        run["overhead"].append(sample.scaled - untraced.scaled)
                else:
                    run["untraced"].setdefault(op.key, []).append(sample)
                    untraced = sample
                failures = op.properties(outcome)
                ref = reference.get(op.key)
                if ref is not None:
                    failures += compare(outcome, ref)
                    compared += 1
                    matched += outcome["digests"] == ref["digests"]
                if op.key in first and outcome["digests"] != first[op.key]:
                    failures.append("not byte-identical to the first run of this input")
                first.setdefault(op.key, outcome["digests"])
                if failures:
                    run["failed"] += 1
                    run["failures"].append(f"{op.key}: " + "; ".join(failures))
        if perf_counter() - start >= seconds:
            break
    run["identical"] = f"{matched}/{compared}"
    return run


if __name__ == "__main__":
    sys.exit(main())
