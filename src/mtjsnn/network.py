"""Feedforward spiking network on a shared fixed time grid.

Synapses are memoryless voltage amplifiers: the drive delivered to a
postsynaptic neuron is the weighted sum of its presynaptic output voltages
at the same instant.  Sources (encoding and bias neurons) have no dynamics;
they emit the standard pulse at scheduled onset times.  Neurons may use the
phenomenological TLR backend or the macrospin physics backend.
"""

from __future__ import annotations

import contextlib
import graphlib
import math
import os
import stat
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from . import macrospin as ms
from . import tlr
from .errors import InvalidInputError, NumericalFailureError
from .tlr import SimConfig

TLR_BACKEND = "tlr"
MACROSPIN_BACKEND = "macrospin"
BACKEND_PARAMS = {TLR_BACKEND: tlr.TlrParams, MACROSPIN_BACKEND: ms.MacrospinParams}
# kernel(params, (B, N+1) drive, dt, *, v=None, state=None) -> onsets per
# row, one signature for both backends.  A kernel writes the output voltage
# into ``v`` and its state into ``state``, zero-filled (B, N+1) arrays from
# the caller, and computes neither when it gets None
_KERNELS = {TLR_BACKEND: tlr._run_batch, MACROSPIN_BACKEND: ms._run_batch}
_CSV_CHUNK_ROWS = 512


@dataclass(frozen=True)
class Source:
    id: str
    spike_times: tuple[float, ...] = ()
    amplitude: float = 1.0   # volts
    duration: float = 1.2    # ns

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise InvalidInputError("amplitude must be finite", key="amplitude")
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


def _fresh(path: str, prefix: str, make: Callable[[str], None]) -> str:
    """Run ``make(name)`` on a fresh hidden name ``.<prefix>-<12 hex>~``
    beside ``path``, drawing again while the name exists; return it."""
    while True:
        name = os.path.join(os.path.dirname(os.path.abspath(path)),
                            f".{prefix}-{os.urandom(6).hex()}~")
        try:
            make(name)
            return name
        except FileExistsError:
            continue


def atomic_write(paths: list, writer: Callable[..., None]) -> None:
    """Run ``writer(*tmp_paths)`` on one temporary file beside each of
    ``paths``, then commit them all or none.  Each temporary is created as
    ``open(path, "w")`` creates a file, so the kernel gives it ``0o666``
    less the file-creation mask.  Once the writer returns, each existing
    path that is not a directory is hard-linked to a backup name beside
    it, and each temporary file is renamed onto its path.  On any
    exception the replaced paths get their backups back and the paths that
    did not exist before are removed, so a failed write or rename leaves
    the outputs as they were.  Either way, every temporary and backup file
    left is removed."""
    tmps, backups, replaced = [], {}, []
    try:
        for path in paths:
            tmps.append(_fresh(path, "tmp", lambda name: open(name, "x").close()))
        writer(*tmps)
        for path in paths:   # renaming a file onto a directory fails, so none needs a backup
            if os.path.lexists(path) and not stat.S_ISDIR(os.lstat(path).st_mode):
                backups[path] = _fresh(
                    path, "bak", lambda name: os.link(path, name, follow_symlinks=False))
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
            replaced.append(path)
    except BaseException:
        for path in replaced:
            if path in backups:
                os.replace(backups.pop(path), path)
            else:
                os.unlink(path)
        raise
    finally:
        for leftover in tmps + list(backups.values()):
            if os.path.lexists(leftover):
                os.unlink(leftover)


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
    """The neurons in dependency order, or None on a cycle.  Ties go first
    to the neurons listed first: the ones ready at the start in
    ``neuron_ids`` order, then each as its last predecessor is placed."""
    # seeded in neuron_ids order, so that graphlib breaks ties that way too
    sorter = graphlib.TopologicalSorter({nid: () for nid in neuron_ids})
    for nid in neuron_ids:
        sorter.add(nid, *(s.pre for s in net.synapses if s.post == nid and s.pre in neuron_ids))
    try:
        return list(sorter.static_order())
    except graphlib.CycleError:
        return None


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
        signals={key: v[0] for key, v in signals.items()},
        spike_onsets={nid: row_onsets[0] for nid, row_onsets in onsets.items()},
    )


def _nonzero_rows(v: np.ndarray, row_of: np.ndarray) -> np.ndarray:
    """Per batch row, 1 + its row of ``v`` where that row holds a nonzero,
    else 0."""
    return np.where(v.any(axis=1), np.arange(1, len(v) + 1), 0)[row_of]


def _simulate(
    net: Network, weights: np.ndarray, sim: SimConfig, steps: Optional[int] = None,
    schedules: Optional[list[dict[str, list[float]]]] = None, *, lean: bool = False,
) -> tuple[np.ndarray, dict[str, np.ndarray], dict[str, list[list[float]]]]:
    """Simulate ``net`` once per row of the ``(B, E)`` weight array.

    The rows share the network's neurons and grid.  ``schedules``, when
    given, holds one dict per batch row that maps source ids to that row's
    spike times, as ``Network.with_schedules`` takes them; a source a dict
    leaves out keeps its own schedule, and without ``schedules`` every row
    keeps them all.  Every schedule entry must lie in ``[0, horizon]``.
    Returns the grid, the signals and one onset list per batch row for every
    id.  Sources are treated like neurons: each is computed once per
    distinct schedule among the rows, and its voltage is an ``(S, N+1)``
    array of those rows only, with a map from batch row to array row.  Each
    drive sums, in synapse order and starting from zeros, the ``w * v``
    products of the in-edges, so a row gets the same floats as a one-row run
    of its own weights and schedules.  An edge adds ``w * 0 = +-0.0`` where
    its presynaptic row is zero, which changes no bit of a drive that starts
    at ``+0.0``.  Batch rows whose weights and presynaptic rows agree on
    every edge whose presynaptic row is nonzero for them therefore give a
    neuron the same output, so each neuron is simulated once per distinct
    row and its drive, voltage and state arrays hold those rows only (a
    single row when B = 1).  Every weight must be finite.

    ``steps``, when given, simulates only the first ``steps`` steps of
    ``sim``'s grid (at most ``sim.steps``); the schedules are still
    checked against ``sim.horizon``.  Both kernels are causal, so each
    onset list is then the list prefix of the full grid's onsets whose
    crossings lie inside the prefix.

    ``lean`` is for the trainer, which reads only onsets: the call then
    computes only the onsets and the voltages that synapses read.  A kernel
    gets a voltage array only for a neuron that a synapse reads, and no
    state array, and the returned signals leave out the state series and
    the voltage of each neuron no synapse reads.  The onsets are those of a
    full call, bit for bit.  Every returned array is fresh.
    """
    if not np.isfinite(weights).all():
        raise InvalidInputError("weights must be finite")
    n_rows = weights.shape[0]
    if schedules is None:
        schedules = [{}] * n_rows
    # rows that share a schedule dict share its conversion; the trainer
    # passes one dict per dataset row
    index: dict[int, int] = {}
    stimulus_of = np.array([index.setdefault(id(s), len(index)) for s in schedules])
    stimuli = list({id(s): s for s in schedules}.values())
    unknown = set().union(*stimuli).difference(src.id for src in net.sources)
    if unknown:
        raise InvalidInputError(f"unknown source {sorted(unknown)[0]!r}")
    time = sim.dt * np.arange((sim.steps if steps is None else steps) + 1)

    signals: dict[str, np.ndarray] = {}
    onsets: dict[str, list[list[float]]] = {}
    row_of: dict[str, np.ndarray] = {}   # id -> its array row per batch row
    keyed: dict[str, np.ndarray] = {}    # id -> its _nonzero_rows

    for src in net.sources:
        # one row per distinct schedule, keyed by its float bytes, so that
        # -0.0 and 0.0 keep rows of their own
        distinct: dict[bytes, int] = {}
        of_stimulus = np.array([
            distinct.setdefault(np.array(s.get(src.id, src.spike_times), dtype=float).tobytes(),
                                len(distinct))
            for s in stimuli])
        per_row = [np.frombuffer(key).tolist() for key in distinct]
        v = np.zeros((len(per_row), time.size))
        for r, spike_times in enumerate(per_row):
            for t_spk in spike_times:
                if not 0 <= t_spk <= sim.horizon:
                    raise InvalidInputError(
                        f"source {src.id!r} schedule entry {t_spk} outside [0, horizon]")
            v[r] = tlr.source_waveform(time, spike_times, src.amplitude, src.duration)
        row_of[src.id] = of_stimulus[stimulus_of]
        signals[f"{src.id}.v"] = v
        onsets[src.id] = [per_row[r] for r in row_of[src.id].tolist()]
        keyed[src.id] = _nonzero_rows(v, row_of[src.id])

    read = {s.pre for s in net.synapses}
    # the w * v products of every edge, in turn
    scratch = np.empty(n_rows * time.size)
    order = _topo_order(net, [n.id for n in net.neurons])
    for nid in order:
        neuron = net.neuron(nid)
        edges = [e for e, s in enumerate(net.synapses) if s.post == nid]
        # a batch row keys each edge by its weight and presynaptic row, or
        # by (0.0, 0) where that row is zero and the edge adds nothing
        pre_rows = np.array([keyed[net.synapses[e].pre] for e in edges],
                            dtype=float).reshape(len(edges), n_rows).T
        key = np.hstack([np.where(pre_rows > 0, weights[:, edges], 0.0), pre_rows])
        distinct = {}
        row = np.array([distinct.setdefault(k.tobytes(), len(distinct)) for k in key])
        first = np.unique(row, return_index=True)[1]
        shape = (first.size, time.size)
        drive = np.zeros(shape)
        v = None if lean and nid not in read else np.zeros(shape)
        state = None if lean else np.zeros(shape)
        product = scratch[: drive.size].reshape(shape)
        # a sum that overflows is left to the kernel's finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            for e in edges:
                pre = net.synapses[e].pre
                # the indices are in range; the default mode would copy via a buffer
                np.take(signals[f"{pre}.v"], row_of[pre][first], axis=0, out=product, mode="clip")
                product *= weights[first, e, None]
                drive += product
        try:
            n_onsets = _KERNELS[neuron.backend](neuron.params, drive, sim.dt, v=v, state=state)
        except (InvalidInputError, NumericalFailureError) as exc:
            # named in place, so the type and the key stay
            exc.args = (f"neuron {nid!r}: {exc}",) + exc.args[1:]
            raise
        row_of[nid] = row
        signals[f"{nid}.drive"] = drive
        if v is not None:
            signals[f"{nid}.v"] = v
            keyed[nid] = _nonzero_rows(v, row)
        if state is not None:
            signals[f"{nid}.state"] = state
        onsets[nid] = [n_onsets[r] for r in row.tolist()]

    return time, signals, onsets


def first_spike_time(trace: Trace, nid: str) -> Optional[float]:
    """Earliest recorded spike onset for the given id, or None if silent."""
    if nid not in trace.spike_onsets:
        raise InvalidInputError(f"unknown id {nid!r}")
    times = trace.spike_onsets[nid]
    return min(times) if times else None
