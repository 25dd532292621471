"""Command-line interface: simulate | train | bench-xor | sweep-latency.

Exit codes:
    0  success
    2  config error (the offending key is named)
    3  simulation failure
    4  training epoch budget exhausted
    5  training divergence guard tripped
    6  bench-xor decode or mechanism-check failure

All output files are written atomically (write to a temporary file in the
same directory, then rename), so a crashed run never leaves a truncated
CSV behind.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

import numpy as np

from .config import Config, TrainSpec, load_config
from .errors import ConfigError, DivergenceError, InvalidInputError, MtjsnnError
from .macrospin import measure_latency
from .network import Network, SimConfig, atomic_write, simulate_network
from .tlr import TlrParams, run_tlr
from .trainer import TrainHistory, train
from .xorbench import run_xor_eval, write_row_traces, xor_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3
EXIT_EPOCHS_EXHAUSTED = 4
EXIT_DIVERGENCE = 5
EXIT_MECHANISM = 6


def write_text(path: str, text: str) -> None:
    def writer(tmp: str) -> None:
        with open(tmp, "w") as fh:
            fh.write(text)
    atomic_write([path], writer)


def _weights_text(net: Network) -> str:
    lines = [f"{s.pre}->{s.post} {repr(float(s.weight))}" for s in net.synapses]
    return "\n".join(lines) + "\n"


def initial_weights(net: Network, spec: TrainSpec, seed: int) -> Network:
    """Config weights perturbed by the seeded uniform initialization jitter."""
    if spec.init_jitter == 0:
        return net
    rng = np.random.default_rng(seed)
    base = net.weight_vector()
    return net.with_weights(base + rng.uniform(-spec.init_jitter, spec.init_jitter, base.size))


def cmd_simulate(cfg: Config, out_dir: str, seed: int) -> int:
    net = cfg.network
    if cfg.stimulus is not None:
        net = net.with_schedules(cfg.stimulus)
    try:
        trace = simulate_network(net, cfg.sim)
    except MtjsnnError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    atomic_write([os.path.join(out_dir, "trace.csv")], trace.to_csv)
    write_text(os.path.join(out_dir, "spikes.txt"), trace.spikes_text())
    return EXIT_OK


def _run_training(cfg: Config, seed: int) -> tuple[Network, TrainHistory]:
    try:
        train_sim = SimConfig(dt=cfg.train.dt, horizon=cfg.sim.horizon)
    except InvalidInputError as exc:   # sim.horizon off the train.dt grid
        raise ConfigError(str(exc), key="train.dt") from exc
    net0 = initial_weights(cfg.network, cfg.train, seed)
    dataset = xor_dataset(cfg.encoding, cfg.sim.horizon)
    return train(net0, dataset, cfg.train, sim=train_sim)


def _train_and_write(cfg: Config, out_dir: str, seed: int) -> tuple[int, Optional[Network]]:
    """Train, write weights.out and history.csv, and return the exit code
    with the trained network (None when training raised)."""
    try:
        net, history = _run_training(cfg, seed)
    except ConfigError:
        raise
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE, None
    except MtjsnnError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION, None
    write_text(os.path.join(out_dir, "weights.out"), _weights_text(net))
    atomic_write([os.path.join(out_dir, "history.csv")], history.to_csv)
    if not history.converged:
        print(f"epoch budget exhausted after {history.epochs} epochs", file=sys.stderr)
        return EXIT_EPOCHS_EXHAUSTED, net
    return EXIT_OK, net


def cmd_train(cfg: Config, out_dir: str, seed: int) -> int:
    return _train_and_write(cfg, out_dir, seed)[0]


def cmd_bench_xor(cfg: Config, out_dir: str, seed: int) -> int:
    code, net = _train_and_write(cfg, out_dir, seed)
    if code != EXIT_OK:
        return code
    try:
        report = run_xor_eval(net, cfg.sim, cfg.encoding)
    except MtjsnnError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    write_row_traces(report.traces, out_dir)
    write_text(os.path.join(out_dir, "xor_report.txt"), report.text())
    print(report.text(), end="")
    if not report.all_rows_pass:
        for r in report.rows:
            if not r.passed:
                print(f"decode failure on row (a={r.row.a}, b={r.row.b})", file=sys.stderr)
        return EXIT_MECHANISM
    if not report.mechanisms_ok:
        for name, ok in (("threshold_gate", report.threshold_gate_ok),
                         ("latency_shift", report.latency_shift_ok),
                         ("refraction", report.refraction_ok)):
            if not ok:
                print(f"mechanism check failed: {name}", file=sys.stderr)
        return EXIT_MECHANISM
    return EXIT_OK


def _tlr_latency(params: TlrParams, drive: float, dt: float, horizon: float) -> Optional[float]:
    n = int(round(horizon / dt))
    run = run_tlr(params, np.full(n + 1, drive), dt)
    return run.onsets[0] if run.onsets else None


def cmd_sweep_latency(cfg: Config, out_dir: str, seed: int) -> int:
    sweep = cfg.sweep
    if sweep is None:
        raise ConfigError("missing sweep section", key="sweep")
    rows = ["drive,latency_ns"]
    try:
        for drive in sweep.drives:
            if sweep.backend == "tlr":
                latency = _tlr_latency(sweep.params, drive, sweep.dt, sweep.horizon)
            else:
                latency = measure_latency(sweep.params, drive, sweep.dt, sweep.horizon)
            rows.append(f"{repr(float(drive))},{'' if latency is None else repr(float(latency))}")
    except MtjsnnError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    write_text(os.path.join(out_dir, "latency.csv"), "\n".join(rows) + "\n")
    return EXIT_OK


COMMANDS = {
    "simulate": cmd_simulate,
    "train": cmd_train,
    "bench-xor": cmd_bench_xor,
    "sweep-latency": cmd_sweep_latency,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mtjsnn",
        description="Deterministic simulator and trainer for latency-coded spiking networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a YAML config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the training seed from the config")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        os.makedirs(args.out, exist_ok=True)
        seed = args.seed if args.seed is not None else cfg.train.seed
        return COMMANDS[args.command](cfg, args.out, seed)
    except ConfigError as exc:
        print(f"config error: {exc.key or '<root>'}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidInputError as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
