"""The benchmark's workloads: inputs made from a workload seed, the timed
call into mtjsnn, and the outcome read back from what the call produced.

Each workload is a cycle of operations.  An operation's ``key`` names its
input; ``reference.json`` holds the outcome recorded for a key, and a run
compares every outcome with the reference (within ``TOLERANCES``) and with
the first outcome of the same key in the run (byte for byte).  Property
checks that hold for any seed run on every operation.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from mtjsnn import cli, defaults, macrospin, network, xorbench

DEFAULT_SEED = 1

# train.seeds of configs/xor.yaml: the seeds of the paper's XOR experiment.
SHIPPED_TRAINING_SEEDS = (1, 2, 3, 4, 5)

MACROSPIN_DT = 0.005                              # ns, the integrator's default step
CALIBRATE = {"horizon": 3.5}                      # ns; the slowest grid latency is 3.2 ns
THRESHOLD = {"v_lo": 0.75, "v_hi": 1.0, "horizon": 3.5, "tol": 0.05}
SINGLE = {"weight": 1.5, "duration": 4.9, "horizon": 4.0}   # it switches at 2.9 ns
SPIKE_TRAIN = {"rounds": 5, "slot_ns": 8.0, "jitter_ns": 0.5, "dt": 0.001}
DECODE_TOL_NS = 0.1                               # run_xor_eval's row tolerance

# Absolute tolerances on recorded numbers; other fields must match exactly.
TOLERANCES = {
    "onsets_ns": 1e-6,        # xor_report.txt prints onsets to 1e-6 ns
    "weights": 1e-6,
    "latencies_ns": 1e-6,
    "fit": 1e-4,              # i_threshold (V), q_switch (V*ns), latency_floor (ns), residual
    "spikes_ns": 1e-6,
    "threshold_v": THRESHOLD["tol"],   # any search to this tolerance may land here
}


@dataclass
class Op:
    key: str
    call: Callable[[], Any]                  # the timed call into the program
    outcome: Callable[[Any], dict]           # reads the result; not timed
    properties: Callable[[dict], list[str]]  # seed-independent checks


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def file_digests(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = digest(fh.read())
    return out


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def run_cli(argv: list[str]) -> int:
    """``mtjsnn`` in-process, with its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def close(a: Any, b: Any, tol: float) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(close(x, y, tol) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return a is not None and b is not None and abs(a - b) <= tol
    return a == b


def compare(outcome: dict, ref: dict) -> list[str]:
    """Fields of the reference that the outcome misses beyond tolerance."""
    failures = []
    for field, expected in ref.items():
        if field == "digests":
            continue
        tol = TOLERANCES.get(field, 0.0)
        if not close(outcome.get(field), expected, tol):
            failures.append(f"{field}: {outcome.get(field)!r} != reference {expected!r}")
    return failures


# --------------------------------------------------------------------- xor_bench

def training_seeds(seed: int, reference: dict) -> list[int]:
    """The shipped seeds for the default workload seed; otherwise, for each
    shipped seed, a recorded seed that trains for the same number of epochs,
    so the amount of work stays that of the paper's experiment."""
    if seed == DEFAULT_SEED:
        return list(SHIPPED_TRAINING_SEEDS)
    pool = {int(k.split("=")[1]): v["epochs"] for k, v in reference.items()}
    rng = np.random.default_rng(seed)
    picks: list[int] = []
    for shipped in SHIPPED_TRAINING_SEEDS:
        same = sorted(s for s, e in pool.items() if e == pool[shipped] and s not in picks)
        picks.append(int(rng.choice(same)))
    return picks


def xor_outcome(out_dir: str, rc: int) -> dict:
    rows = []
    with open(os.path.join(out_dir, "xor_report.txt")) as fh:
        for line in fh:
            if line.startswith("row "):
                rows.append(dict(part.split("=") for part in line.split()[1:]))
    with open(os.path.join(out_dir, "weights.out")) as fh:
        weights = [float(line.split()[1]) for line in fh]
    with open(os.path.join(out_dir, "history.csv")) as fh:
        epochs = sum(1 for _ in fh) - 1
    return {
        "exit": rc,
        "epochs": epochs,
        "decoded": [int(r["decoded"]) if r["decoded"] != "-" else None for r in rows],
        "rows_pass": [r["pass"] == "yes" for r in rows],
        "onsets_ns": [float(r["onset_ns"]) if r["onset_ns"] != "-" else None for r in rows],
        "weights": weights,
        "digests": file_digests(out_dir),
    }


def xor_properties(outcome: dict) -> list[str]:
    """Acceptance criterion 1 for a converged seed: every row decodes to XOR.
    Exit 6 is accepted: it also flags a failed mechanism check (seeds 1, 5)."""
    failures = []
    if outcome["exit"] not in (cli.EXIT_OK, cli.EXIT_MECHANISM):
        failures.append(f"exit {outcome['exit']}")
    if outcome["decoded"] != [0, 1, 1, 0] or not all(outcome["rows_pass"]):
        failures.append(f"decoded {outcome['decoded']}, pass {outcome['rows_pass']}")
    return failures


def xor_op(root: str, work: str, train_seed: int) -> Op:
    """One ``mtjsnn bench-xor`` on the shipped config for one training seed."""
    config = os.path.join(root, "configs", "xor.yaml")
    out_dir = os.path.join(work, "xor_bench")
    argv = ["bench-xor", "--config", config, "--out", out_dir, "--seed", str(train_seed)]

    def outcome(rc):
        try:
            return xor_outcome(out_dir, rc)
        finally:
            fresh_dir(out_dir)

    return Op(f"train_seed={train_seed}", lambda: run_cli(argv), outcome, xor_properties)


def xor_bench(root: str, work: str, seed: int, reference: dict) -> list[Op]:
    return [xor_op(root, work, s) for s in training_seeds(seed, reference)]


# ------------------------------------------------------------------ macrospin

def macrospin_calibrate(root: str, work: str, seed: int, reference: dict) -> list[Op]:
    """Characterise the default device: fit TLR parameters, find the switching
    threshold, then simulate it as a single neuron."""
    return [calibrate_op(), threshold_op(), single_neuron_op()]


def calibrate_op() -> Op:
    grid = list(defaults.CALIBRATION_GRID)
    params = macrospin.MacrospinParams()

    def call():
        return macrospin.calibrate_tlr(params, grid, dt=MACROSPIN_DT, **CALIBRATE)

    def outcome(result):
        tlr = result.tlr_params
        fit = [tlr.i_threshold, tlr.q_switch, tlr.latency_floor, result.max_rel_residual]
        return {
            "drives": result.drives,
            "latencies_ns": result.latencies,
            "fit": fit,
            "digests": {"calibration": digest(repr((result.latencies, fit)).encode())},
        }

    def properties(outcome):
        failures = []
        if outcome["drives"] != grid:
            failures.append(f"switched only at {outcome['drives']}")
        if outcome["fit"][3] > 0.15:
            failures.append(f"latency-law residual {outcome['fit'][3]} > 0.15")
        return failures

    return Op("calibrate_tlr", call, outcome, properties)


def threshold_op() -> Op:
    params = macrospin.MacrospinParams()

    def call():
        return macrospin.find_switching_threshold(params, dt=MACROSPIN_DT, **THRESHOLD)

    def outcome(v):
        return {"threshold_v": v, "digests": {"threshold": digest(repr(v).encode())}}

    def properties(outcome):
        v = outcome["threshold_v"]
        if not THRESHOLD["v_lo"] < v < THRESHOLD["v_hi"]:
            return [f"threshold {v} outside the bracket"]
        return []

    return Op("find_switching_threshold", call, outcome, properties)


def single_neuron_op() -> Op:
    """One macrospin neuron driven by one source pulse through the network layer."""
    net = network.Network(
        neurons=(network.Neuron("m", "macrospin", macrospin.MacrospinParams()),),
        synapses=(network.Synapse("src", "m", SINGLE["weight"]),),
        sources=(network.Source("src", spike_times=(0.0,), amplitude=1.0,
                                duration=SINGLE["duration"]),),
    )
    sim = network.SimConfig(dt=MACROSPIN_DT, horizon=SINGLE["horizon"])

    def call():
        return network.simulate_network(net, sim)

    def outcome(trace):
        return {
            "onsets_ns": trace.spike_onsets["m"],
            "digests": {k: digest(v.tobytes()) for k, v in trace.signals.items()},
        }

    def properties(outcome):
        if len(outcome["onsets_ns"]) != 1:
            return [f"expected one switch, got {outcome['onsets_ns']}"]
        return []

    return Op("simulate_network", call, outcome, properties)


# -------------------------------------------------------- spike_train_simulate

def spike_train_stimulus(seed: int) -> tuple[list[xorbench.XorRow], list[float]]:
    """Rounds of all four XOR rows in seeded order, one row per slot, each
    presented at a seeded offset into its slot."""
    rng = np.random.default_rng(seed)
    rows = [xorbench.XOR_ROWS[i]
            for _ in range(SPIKE_TRAIN["rounds"]) for i in rng.permutation(4)]
    onsets = [round(k * SPIKE_TRAIN["slot_ns"] + rng.uniform(0.0, SPIKE_TRAIN["jitter_ns"]), 3)
              for k in range(len(rows))]
    return rows, onsets


def parse_spikes(path: str) -> dict[str, list[float]]:
    out = {}
    with open(path) as fh:
        for line in fh:
            nid, _, times = line.partition(":")
            out[nid] = [] if times.strip() == "-" else [float(t) for t in times.split()]
    return out


def spike_train_simulate(root: str, work: str, seed: int, reference: dict) -> list[Op]:
    rows, onsets = spike_train_stimulus(seed)
    horizon = SPIKE_TRAIN["slot_ns"] * len(rows)
    stimulus = {
        "A": [t for t, r in zip(onsets, rows) if r.a],
        "B": [t for t, r in zip(onsets, rows) if r.b],
        "bias": onsets,
    }
    config = os.path.join(work, "spike_train.yaml")
    with open(config, "w") as fh:
        fh.write("schema_version: 1\n")
        fh.write(f"sim: {{dt: {SPIKE_TRAIN['dt']}, horizon: {horizon}}}\n")
        fh.write("network: {preset: xor}\n")
        fh.write("stimulus:\n")
        for sid, times in stimulus.items():
            fh.write(f"  {sid}: [{', '.join(repr(t) for t in times)}]\n")
    out_dir = os.path.join(work, "spike_train")
    argv = ["simulate", "--config", config, "--out", out_dir]

    def outcome(rc):
        try:
            if rc != cli.EXIT_OK:
                return {"exit": rc, "spikes_ns": {}, "digests": {}}
            return {"exit": rc,
                    "spikes_ns": parse_spikes(os.path.join(out_dir, "spikes.txt")),
                    "digests": file_digests(out_dir)}
        finally:
            fresh_dir(out_dir)

    def properties(outcome):
        """Per presentation: i1 fires iff a or b, i2 fires unless a and b
        (threshold gating), and o1 fires once at the XOR code time."""
        if outcome["exit"] != cli.EXIT_OK:
            return [f"exit {outcome['exit']}"]
        failures = []
        for t0, row in zip(onsets, rows):
            fired = {nid: [t - t0 for t in outcome["spikes_ns"].get(nid, [])
                           if t0 <= t < t0 + SPIKE_TRAIN["slot_ns"]]
                     for nid in ("i1", "i2", "o1")}
            o1 = fired["o1"]
            if (len(fired["i1"]) != int(row.a or row.b)
                    or len(fired["i2"]) != int(not (row.a and row.b))
                    or len(o1) != 1 or abs(o1[0] - row.target_time) > DECODE_TOL_NS):
                failures.append(f"row ({row.a},{row.b}) at {t0} ns: {fired}")
        return failures

    return [Op(f"seed={seed}", lambda: run_cli(argv), outcome, properties)]


WORKLOADS = {
    "xor_bench": xor_bench,
    "macrospin_calibrate": macrospin_calibrate,
    "spike_train_simulate": spike_train_simulate,
}
