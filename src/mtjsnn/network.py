"""Feedforward spiking network on a shared fixed time grid.

Synapses are memoryless voltage amplifiers: the drive delivered to a
postsynaptic neuron is the weighted sum of its presynaptic output voltages
at the same instant.  Sources (encoding and bias neurons) have no dynamics;
they emit the standard pulse at scheduled onset times.  Neurons may use the
phenomenological TLR backend or the macrospin physics backend.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from . import macrospin as ms
from . import tlr
from .errors import InvalidInputError, NumericalFailureError

TLR_BACKEND = "tlr"
MACROSPIN_BACKEND = "macrospin"
_CSV_CHUNK_ROWS = 2048


@dataclass(frozen=True)
class Source:
    id: str
    spike_times: tuple[float, ...] = ()
    amplitude: float = 1.0   # volts
    duration: float = 1.2    # ns

    def __post_init__(self):
        if not 0 < self.duration < math.inf:
            raise InvalidInputError("duration must be > 0 and finite", key="duration")


@dataclass(frozen=True)
class Neuron:
    id: str
    backend: str = TLR_BACKEND
    params: Union[tlr.TlrParams, ms.MacrospinParams] = field(default_factory=tlr.TlrParams)


@dataclass(frozen=True)
class Synapse:
    pre: str
    post: str
    weight: float  # drive-units per volt


@dataclass(frozen=True)
class Network:
    neurons: tuple[Neuron, ...]
    synapses: tuple[Synapse, ...]
    sources: tuple[Source, ...]

    def neuron(self, nid: str) -> Neuron:
        for n in self.neurons:
            if n.id == nid:
                return n
        raise InvalidInputError(f"unknown neuron {nid!r}")

    def with_weights(self, weights: np.ndarray) -> "Network":
        """Copy with the synapse weight vector replaced (same edge order)."""
        if len(weights) != len(self.synapses):
            raise InvalidInputError("weight vector length mismatch")
        new = tuple(replace(s, weight=float(w)) for s, w in zip(self.synapses, weights))
        return replace(self, synapses=new)

    def weight_vector(self) -> np.ndarray:
        return np.array([s.weight for s in self.synapses], dtype=float)

    def with_schedules(self, schedules: dict[str, list[float]]) -> "Network":
        """Copy with source spike schedules replaced by id."""
        ids = {src.id for src in self.sources}
        unknown = [sid for sid in schedules if sid not in ids]
        if unknown:
            raise InvalidInputError(f"unknown source {unknown[0]!r}")
        new = []
        for src in self.sources:
            if src.id in schedules:
                new.append(replace(src, spike_times=tuple(schedules[src.id])))
            else:
                new.append(src)
        return replace(self, sources=tuple(new))


def _check_dt(dt: float) -> None:
    """The step rule of every simulation grid."""
    if not 0 < dt <= 0.01:
        raise InvalidInputError("dt must be in (0, 0.01] ns", key="dt")


@dataclass(frozen=True)
class SimConfig:
    """A grid of ``round(horizon / dt)`` steps, so ``horizon`` must be a
    whole number of steps (within a relative 1e-9) or the run would be cut."""

    dt: float = 0.001    # ns
    horizon: float = 5.0  # ns

    def __post_init__(self):
        _check_dt(self.dt)
        if not 10 * self.dt <= self.horizon < math.inf:
            raise InvalidInputError("horizon must be finite and >= 10*dt", key="horizon")
        steps = self.horizon / self.dt
        if not (steps < math.inf and abs(steps - round(steps)) <= 1e-9 * steps):
            raise InvalidInputError(f"horizon must be a whole number of dt = {self.dt!r} ns steps",
                                    key="horizon")


@dataclass
class Trace:
    time: np.ndarray
    signals: dict[str, np.ndarray]
    spike_onsets: dict[str, list[float]]

    def to_csv(self, path) -> None:
        _write_csvs(self.time, [(path, self.signals)])

    def spikes_text(self) -> str:
        lines = []
        for nid, onsets in self.spike_onsets.items():
            if onsets:
                lines.append(f"{nid}: " + " ".join(repr(float(t)) for t in onsets))
            else:
                lines.append(f"{nid}: -")
        return "\n".join(lines) + "\n"


def _format_column(seg: np.ndarray) -> list[str]:
    """``repr`` of each float in ``seg``.  The signals are mostly exact
    zeros, so only the other cells are formatted; ``-0.0``, nan and inf
    are among them."""
    cells = ["0.0"] * seg.size
    nz = np.flatnonzero((seg != 0) | np.signbit(seg))
    for k, value in zip(nz.tolist(), seg[nz].tolist()):
        cells[k] = repr(value)
    return cells


def _write_csvs(time: np.ndarray, files: list[tuple[object, dict[str, np.ndarray]]]) -> None:
    """Write one CSV per ``(path, signals)`` pair: a ``time_ns`` column, then
    one column per signal, each float as its ``repr``.  The files share the
    time column, which is formatted once."""
    time = np.asarray(time, dtype=float)
    with contextlib.ExitStack() as stack:
        tables = []
        for path, signals in files:
            fh = stack.enter_context(open(path, "w"))
            fh.write("time_ns," + ",".join(signals) + "\n")
            tables.append((fh, [np.asarray(c, dtype=float) for c in signals.values()]))
        # a few thousand rows at a time: whole columns as strings would
        # cost far more memory than the arrays
        for lo in range(0, time.size, _CSV_CHUNK_ROWS):
            time_cells = _format_column(time[lo : lo + _CSV_CHUNK_ROWS])
            for fh, cols in tables:
                cells = [time_cells] + [_format_column(c[lo : lo + _CSV_CHUNK_ROWS]) for c in cols]
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def atomic_write(paths: list, writer: Callable[..., None]) -> None:
    """Run ``writer(*tmp_paths)`` on one temporary file beside each of
    ``paths``; once it returns, rename each onto its path.  On any exception
    every temporary file left is removed, so a failed write leaves neither a
    truncated file nor a temporary one behind."""
    tmps = []
    try:
        for path in paths:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".tmp-", suffix="~")
            os.close(fd)
            tmps.append(tmp)
        writer(*tmps)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def validate_topology(net: Network) -> list[str]:
    """Return a list of invariant violations; empty means the network is valid."""
    violations = []
    neuron_ids = [n.id for n in net.neurons]
    source_ids = [s.id for s in net.sources]
    all_ids = neuron_ids + source_ids
    seen = set()
    for nid in all_ids:
        if nid in seen:
            violations.append(f"duplicate id {nid!r}")
        seen.add(nid)

    for s in net.synapses:
        if s.post not in neuron_ids:
            violations.append(f"synapse {s.pre!r}->{s.post!r}: post is not a neuron")
        if s.pre not in neuron_ids and s.pre not in source_ids:
            violations.append(f"synapse {s.pre!r}->{s.post!r}: unknown pre id")
        if not math.isfinite(s.weight):
            violations.append(f"synapse {s.pre!r}->{s.post!r}: non-finite weight")

    # cycle check on the neuron-to-neuron subgraph (source edges cannot cycle)
    order = _topo_order(net, neuron_ids)
    if order is None:
        violations.append("synapse graph contains a cycle (network must be feedforward)")
    return violations


def _topo_order(net: Network, neuron_ids: list[str]) -> Optional[list[str]]:
    deps = {nid: set() for nid in neuron_ids}
    for s in net.synapses:
        if s.pre in deps and s.post in deps:
            deps[s.post].add(s.pre)
    order = []
    ready = [nid for nid in neuron_ids if not deps[nid]]
    while ready:
        nid = ready.pop(0)
        order.append(nid)
        for other, d in deps.items():
            if nid in d:
                d.discard(nid)
                if not d and other not in order and other not in ready:
                    ready.append(other)
    if len(order) != len(neuron_ids):
        return None
    return order


def simulate_network(net: Network, sim: SimConfig) -> Trace:
    """Advance all neurons on the shared grid in topological order.

    Feedforward topology plus instantaneous synapses let each neuron be
    integrated over the full horizon once all its presynaptic voltage
    series are known.  Deterministic: identical inputs give identical traces.
    """
    violations = validate_topology(net)
    if violations:
        raise InvalidInputError("invalid network: " + "; ".join(violations))
    time, signals, onsets = _simulate(net, net.weight_vector()[None, :], sim)
    return Trace(
        time=time,
        signals={key: v if v.ndim == 1 else v[0] for key, v in signals.items()},
        spike_onsets={nid: row_onsets[0] for nid, row_onsets in onsets.items()},
    )


def _simulate(
    net: Network, weights: np.ndarray, sim: SimConfig
) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, list[list[float]]]]:
    """Simulate ``net`` once per row of the ``(B, E)`` weight array.

    The rows share the network's neurons, sources and grid, and every
    source schedule entry must lie in ``[0, horizon]``.  Returns the
    grid, the signals and one onset list per batch row for every id.  Source
    voltages are ``(N+1,)`` arrays.  Batch rows whose in-edge weights and
    presynaptic rows agree give a neuron the same output, so each neuron is
    simulated once per distinct row and its drive, voltage and state arrays
    hold those rows only (a single row when B = 1).  Each drive sums its
    in-edges in synapse order starting from zeros, so a row gets the same
    floats as a one-row run.
    """
    n_rows = weights.shape[0]
    n_steps = int(round(sim.horizon / sim.dt))
    time = sim.dt * np.arange(n_steps + 1)

    signals: dict[str, np.ndarray] = {}
    onsets: dict[str, list[list[float]]] = {}
    voltages: dict[str, np.ndarray] = {}
    row_of: dict[str, np.ndarray] = {}   # neuron id -> its array row per batch row

    for src in net.sources:
        for t_spk in src.spike_times:
            if not 0 <= t_spk <= sim.horizon:
                raise InvalidInputError(
                    f"source {src.id!r} schedule entry {t_spk} outside [0, horizon]")
        v = tlr.source_waveform(time, list(src.spike_times), src.amplitude, src.duration)
        voltages[src.id] = v
        signals[f"{src.id}.v"] = v
        onsets[src.id] = [[float(t) for t in src.spike_times]] * n_rows

    order = _topo_order(net, [n.id for n in net.neurons])
    for nid in order:
        neuron = net.neuron(nid)
        edges = [e for e, s in enumerate(net.synapses) if s.post == nid]
        upstream = [row_of[net.synapses[e].pre] for e in edges if net.synapses[e].pre in row_of]
        key = np.column_stack([weights[:, edges]] + upstream)
        distinct: dict[bytes, int] = {}
        row = np.array([distinct.setdefault(k.tobytes(), len(distinct)) for k in key])
        first = np.unique(row, return_index=True)[1]
        drive = np.zeros((first.size, time.size))
        for e in edges:
            pre = net.synapses[e].pre
            v_pre = voltages[pre] if pre not in row_of else voltages[pre][row_of[pre][first]]
            drive += weights[first, e, None] * v_pre
        try:
            if neuron.backend == TLR_BACKEND:
                _, v_out, state_series, n_onsets = tlr._run_batch(neuron.params, drive, sim.dt)
            elif neuron.backend == MACROSPIN_BACKEND:
                p = neuron.params
                traces = [
                    ms.integrate_macrospin(ms.initial_state(p), p, d, sim.dt, sim.horizon)
                    for d in drive
                ]
                v_out = np.array([p.v_dd - trace.v_node for trace in traces])
                state_series = np.array([trace.alignment() for trace in traces])
                n_onsets = [trace.switching_times() for trace in traces]
            else:
                raise InvalidInputError(f"unknown backend {neuron.backend!r}")
        except NumericalFailureError as exc:
            raise NumericalFailureError(f"neuron {nid!r}: {exc}") from exc
        voltages[nid] = v_out
        row_of[nid] = row
        signals[f"{nid}.drive"] = drive
        signals[f"{nid}.v"] = v_out
        signals[f"{nid}.state"] = state_series
        n_onsets = [[float(t) for t in d] for d in n_onsets]
        onsets[nid] = [n_onsets[r] for r in row]

    return time, signals, onsets


def first_spike_time(trace: Trace, nid: str) -> Optional[float]:
    """Earliest recorded spike onset for the given id, or None if silent."""
    if nid not in trace.spike_onsets:
        raise InvalidInputError(f"unknown id {nid!r}")
    times = trace.spike_onsets[nid]
    return min(times) if times else None
