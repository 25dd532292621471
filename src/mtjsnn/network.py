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
import stat
import tempfile
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from . import macrospin as ms
from . import tlr
from .errors import InvalidInputError, NumericalFailureError

TLR_BACKEND = "tlr"
MACROSPIN_BACKEND = "macrospin"
BACKEND_PARAMS = {TLR_BACKEND: tlr.TlrParams, MACROSPIN_BACKEND: ms.MacrospinParams}
# (params, (B, N+1) drive, dt, *, v=None, state=None) -> onsets per row.  A
# kernel writes the output voltage into ``v`` and its state into ``state``,
# zero-filled (B, N+1) arrays from the caller, and computes neither when it
# gets None; both backends are called with the same arguments
_KERNELS = {TLR_BACKEND: tlr._run_batch, MACROSPIN_BACKEND: ms._run_batch}
_CSV_CHUNK_ROWS = 512


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

    def __post_init__(self):
        if self.backend not in BACKEND_PARAMS:
            raise InvalidInputError(f"unknown backend {self.backend!r}", key="backend")
        expected = BACKEND_PARAMS[self.backend]
        if not isinstance(self.params, expected):
            raise InvalidInputError(f"the {self.backend} backend needs {expected.__name__},"
                                    f" not {type(self.params).__name__}", key="params")


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
    time column.  Each distinct chunk of a column is formatted once: columns
    of the same rows with the same bytes there, in any of the files, reuse
    its cells."""
    time = np.asarray(time, dtype=float)
    with contextlib.ExitStack() as stack:
        tables = []
        for path, signals in files:
            fh = stack.enter_context(open(path, "w"))
            fh.write("time_ns," + ",".join(signals) + "\n")
            tables.append((fh, [time] + [np.asarray(c, dtype=float) for c in signals.values()]))
        # a few hundred rows at a time: whole columns as strings would cost
        # far more memory than the arrays.  Bytes, not float equality, pick
        # the chunks to share, so 0.0 and -0.0 keep their own repr.
        for lo in range(0, time.size, _CSV_CHUNK_ROWS):
            memo: dict[bytes, list[str]] = {}
            for fh, cols in tables:
                cells = []
                for c in cols:
                    seg = c[lo : lo + _CSV_CHUNK_ROWS]
                    key = seg.tobytes()
                    if key not in memo:
                        memo[key] = _format_column(seg)
                    cells.append(memo[key])
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _link_backup(path: str) -> str:
    """Hard-link ``path`` to a fresh hidden name in its directory."""
    while True:
        backup = os.path.join(os.path.dirname(os.path.abspath(path)),
                              f".bak-{os.urandom(6).hex()}~")
        try:
            os.link(path, backup, follow_symlinks=False)
            return backup
        except FileExistsError:
            continue


def atomic_write(paths: list, writer: Callable[..., None]) -> None:
    """Run ``writer(*tmp_paths)`` on one temporary file beside each of
    ``paths``, then commit them all or none.  Once the writer returns, each
    existing path is hard-linked to a backup name beside it, and each
    temporary file is renamed onto its path.  On any exception the replaced
    paths get their backups back, the paths that did not exist before are
    removed, and every temporary and backup file is removed, so a failed
    write or rename leaves the outputs as they were, with no file added.  On
    success the backups are removed.  The files get the mode
    ``open(path, "w")`` would give them, ``0o666`` less the umask."""
    umask = os.umask(0)
    os.umask(umask)
    tmps, backups, replaced = [], {}, []
    try:
        for path in paths:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".tmp-", suffix="~")
            os.close(fd)
            tmps.append(tmp)
            os.chmod(tmp, 0o666 & ~umask)
        writer(*tmps)
        for path in paths:   # renaming a file onto a directory fails, so none needs a backup
            if os.path.lexists(path) and not stat.S_ISDIR(os.lstat(path).st_mode):
                backups[path] = _link_backup(path)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
            replaced.append(path)
    except BaseException:
        for path in replaced:
            if path in backups:
                os.replace(backups.pop(path), path)
            else:
                os.unlink(path)
        for leftover in tmps + list(backups.values()):
            if os.path.lexists(leftover):
                os.unlink(leftover)
        raise
    for backup in backups.values():
        os.unlink(backup)


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


class _Buffers:
    """The arrays one neuron reuses from one ``_simulate`` call to the next,
    one per role."""

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}

    def get(self, role: str, rows: int, size: int) -> np.ndarray:
        """A view of the first ``rows`` rows of the role's ``(R, size)``
        array.  The array is allocated only on a miss: the first use of the
        role, ``R < rows`` or another ``size``."""
        array = self.arrays.get(role)
        if array is None or array.shape[0] < rows or array.shape[1] != size:
            array = self.arrays[role] = np.empty((rows, size))
        return array[:rows]


def _simulate(
    net: Network, weights: np.ndarray, sim: SimConfig,
    workspace: Optional[dict[str, _Buffers]] = None,
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

    ``workspace`` is private to one caller, the trainer: an empty dict on
    the first call, then passed back unchanged on every later one.  It maps
    each neuron id to its ``_Buffers``: the drive, the product temporary,
    the gathered presynaptic rows and the output voltage.  With it the call
    writes into those buffers, which the next call overwrites, and computes
    only the onsets and the output voltages that a synapse reads: a kernel
    gets a zeroed voltage buffer only for a neuron that a synapse reads,
    and no state array.  The returned signals leave out the state series and
    the voltage of each neuron no synapse reads, and the drives and voltages
    they hold are views of the buffers.  Without a workspace every kernel
    fills fresh zeroed voltage and state arrays.  The onsets are those of a
    call without it, bit for bit.
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

    read = {s.pre for s in net.synapses}
    order = _topo_order(net, [n.id for n in net.neurons])
    for nid in order:
        neuron = net.neuron(nid)
        edges = [e for e, s in enumerate(net.synapses) if s.post == nid]
        upstream = [row_of[net.synapses[e].pre] for e in edges if net.synapses[e].pre in row_of]
        key = np.column_stack([weights[:, edges]] + upstream)
        distinct: dict[bytes, int] = {}
        row = np.array([distinct.setdefault(k.tobytes(), len(distinct)) for k in key])
        first = np.unique(row, return_index=True)[1]
        shape = (first.size, time.size)
        buffers = None
        if workspace is None:
            drive, tmp = np.zeros(shape), None
            v, state = np.zeros(shape), np.zeros(shape)
        else:
            buffers = workspace.get(nid)
            if buffers is None:
                buffers = workspace[nid] = _Buffers()
            drive, tmp = buffers.get("drive", *shape), buffers.get("product", *shape)
            drive.fill(0)
            v = state = None
            if nid in read:
                v = buffers.get("v", *shape)
                v.fill(0)
        for e in edges:
            pre = net.synapses[e].pre
            v_pre = voltages[pre]
            if pre in row_of:
                # "clip" never buffers ``out``; the rows are in range
                v_pre = np.take(v_pre, row_of[pre][first], axis=0, mode="clip",
                                out=None if buffers is None else buffers.get("gathered", *shape))
            np.add(drive, np.multiply(weights[first, e, None], v_pre, out=tmp), out=drive)
        try:
            n_onsets = _KERNELS[neuron.backend](neuron.params, drive, sim.dt, v=v, state=state)
        except NumericalFailureError as exc:
            raise NumericalFailureError(f"neuron {nid!r}: {exc}") from exc
        row_of[nid] = row
        signals[f"{nid}.drive"] = drive
        if v is not None:
            voltages[nid] = v
            signals[f"{nid}.v"] = v
        if state is not None:
            signals[f"{nid}.state"] = state
        onsets[nid] = [n_onsets[r] for r in row]

    return time, signals, onsets


def first_spike_time(trace: Trace, nid: str) -> Optional[float]:
    """Earliest recorded spike onset for the given id, or None if silent."""
    if nid not in trace.spike_onsets:
        raise InvalidInputError(f"unknown id {nid!r}")
    times = trace.spike_onsets[nid]
    return min(times) if times else None
