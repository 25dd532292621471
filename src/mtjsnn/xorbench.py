"""End-to-end XOR experiment: network construction, encoding, decoding,
and the three mechanism checks (threshold gating, latency shift, refraction).

Output convention: a spike of the output neuron at 2.0 ns encodes logical 0,
at 2.5 ns logical 1.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import InvalidInputError, MtjsnnError
from .network import (
    Network,
    Neuron,
    SimConfig,
    Source,
    Synapse,
    Trace,
    _write_csvs,
    atomic_write,
    first_spike_time,
    simulate_network,
)
from .tlr import TlrParams

T_ZERO = 2.0  # ns, output spike time encoding logical 0
T_ONE = 2.5   # ns, output spike time encoding logical 1

SOURCE_IDS = ("A", "B", "bias")
NEURON_IDS = ("i1", "i2", "o1")
OUTPUT_ID = "o1"


@dataclass(frozen=True)
class XorRow:
    a: int
    b: int
    bias: int = 1

    def __post_init__(self):
        if self.a not in (0, 1) or self.b not in (0, 1):
            raise InvalidInputError("bits must be 0 or 1")
        if self.bias != 1:
            raise InvalidInputError("bias input is always 1")

    @property
    def target_bit(self) -> int:
        return self.a ^ self.b

    @property
    def target_time(self) -> float:
        return T_ONE if self.target_bit else T_ZERO


XOR_ROWS = (XorRow(0, 0), XorRow(0, 1), XorRow(1, 0), XorRow(1, 1))


@dataclass(frozen=True)
class EncodingConfig:
    mode: str = "presence"   # "presence" or "timing"
    t_spike: float = 0.0     # onset of a presence-coded spike
    t_bit0: float = 0.5      # timing mode: onset encoding bit 0
    t_bit1: float = 0.0      # timing mode: onset encoding bit 1
    bias_period: Optional[float] = None  # recur bias spikes with this period

    def __post_init__(self):
        if self.mode not in ("presence", "timing"):
            raise InvalidInputError(f"unknown encoding mode {self.mode!r}", key="mode")
        if self.bias_period is not None and not self.bias_period > 0:
            raise InvalidInputError("bias_period must be > 0", key="bias_period")


def encode_inputs(
    row: XorRow,
    encoding: EncodingConfig = EncodingConfig(),
    horizon: float = 5.0,
) -> dict[str, list[float]]:
    """Spike schedules for sources A, B and bias for one truth-table row."""
    def bit_schedule(bit: int) -> list[float]:
        if encoding.mode == "presence":
            return [encoding.t_spike] if bit else []
        return [encoding.t_bit1 if bit else encoding.t_bit0]

    bias = [encoding.t_spike]
    if encoding.bias_period:
        t = encoding.t_spike + encoding.bias_period
        while t <= horizon:
            bias.append(t)
            t += encoding.bias_period
    return {"A": bit_schedule(row.a), "B": bit_schedule(row.b), "bias": bias}


def build_xor_network(
    params: Union[TlrParams, dict[str, TlrParams]] = TlrParams(),
    weights: Optional[dict[str, float]] = None,
    bias_to_output: bool = True,
    source_amplitude: float = 1.0,
    source_duration: Optional[float] = None,
) -> Network:
    """Two-layer network: sources {A, B, bias} -> {i1, i2} -> o1.

    ``params`` is either one parameter set shared by all three neurons or a
    mapping from neuron id to its own parameters (heterogeneous layers).
    Edge keys are "pre->post".  Missing weights default to 0.  The direct
    bias->o1 edge is present by default and can be disabled.  Source pulses
    default to the first neuron's spike duration unless given explicitly.
    """
    weights = weights or {}
    if isinstance(params, TlrParams):
        params = {nid: params for nid in NEURON_IDS}
    missing = [nid for nid in NEURON_IDS if nid not in params]
    if missing:
        raise InvalidInputError(f"missing neuron params for {missing}")
    if source_duration is None:
        source_duration = params[NEURON_IDS[0]].spike_duration
    edges = []
    for pre in SOURCE_IDS:
        for post in ("i1", "i2"):
            edges.append((pre, post))
    edges.append(("i1", "o1"))
    edges.append(("i2", "o1"))
    if bias_to_output:
        edges.append(("bias", "o1"))

    synapses = tuple(
        Synapse(pre, post, float(weights.get(f"{pre}->{post}", 0.0)))
        for pre, post in edges
    )
    sources = tuple(
        Source(sid, spike_times=(), amplitude=source_amplitude, duration=source_duration)
        for sid in SOURCE_IDS
    )
    neurons = tuple(Neuron(nid, "tlr", params[nid]) for nid in NEURON_IDS)
    return Network(neurons=neurons, synapses=synapses, sources=sources)


def decode_output(onset: Optional[float]) -> Optional[int]:
    """Nearest-target decoding; None (failure) for a silent output or exact tie."""
    if onset is None:
        return None
    d0 = abs(onset - T_ZERO)
    d1 = abs(onset - T_ONE)
    if d0 == d1:
        return None
    return 0 if d0 < d1 else 1


@dataclass
class RowResult:
    row: XorRow
    onset: Optional[float]
    decoded: Optional[int]
    passed: bool


@dataclass
class XorReport:
    rows: list[RowResult] = field(default_factory=list)
    threshold_gate_ok: bool = False
    latency_shift_ok: bool = False
    refraction_ok: bool = False
    traces: list[Trace] = field(default_factory=list)   # one per row, XOR_ROWS order

    @property
    def all_rows_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def mechanisms_ok(self) -> bool:
        return self.threshold_gate_ok and self.latency_shift_ok and self.refraction_ok

    def text(self) -> str:
        lines = ["xor_report"]
        for r in self.rows:
            onset = "-" if r.onset is None else f"{r.onset:.6f}"
            decoded = "-" if r.decoded is None else str(r.decoded)
            lines.append(
                f"row a={r.row.a} b={r.row.b} target={r.row.target_bit}"
                f" onset_ns={onset} decoded={decoded}"
                f" pass={'yes' if r.passed else 'no'}"
            )
        lines.append(f"check threshold_gate={'yes' if self.threshold_gate_ok else 'no'}")
        lines.append(f"check latency_shift={'yes' if self.latency_shift_ok else 'no'}")
        lines.append(f"check refraction={'yes' if self.refraction_ok else 'no'}")
        return "\n".join(lines) + "\n"


def _suprathreshold_intervals(time: np.ndarray, drive: np.ndarray, threshold: float) -> list[tuple[float, float]]:
    """Contiguous intervals where the drive exceeds the firing threshold."""
    above = drive > threshold
    intervals = []
    start = None
    for k, flag in enumerate(above):
        if flag and start is None:
            start = time[k]
        elif not flag and start is not None:
            intervals.append((float(start), float(time[k - 1])))
            start = None
    if start is not None:
        intervals.append((float(start), float(time[-1])))
    return intervals


def run_xor_eval(
    net: Network,
    sim: SimConfig = SimConfig(),
    encoding: EncodingConfig = EncodingConfig(),
    tol: float = 0.1,
) -> XorReport:
    """Simulate all four truth-table rows and evaluate the mechanism checks.

    Mechanisms: (1) threshold gating: on row (0,0) exactly one input-layer
    neuron fires; (2) latency shift: row (1,0) output trails row (0,0) by
    about the 0.5 ns code separation; (3) refraction: on row (0,1) the
    output neuron's drive goes suprathreshold again after its spike onset,
    yet only one spike is emitted.
    """
    report = XorReport()
    traces: dict[tuple[int, int], Trace] = {}
    for row in XOR_ROWS:
        stimulus = encode_inputs(row, encoding, sim.horizon)
        try:
            trace = simulate_network(net.with_schedules(stimulus), sim)
        except MtjsnnError as exc:
            message = exc.args[0] if exc.args else ""
            exc.args = (f"row (a={row.a}, b={row.b}): {message}",) + exc.args[1:]
            raise
        traces[(row.a, row.b)] = trace
        report.traces.append(trace)
        onset = first_spike_time(trace, OUTPUT_ID)
        decoded = decode_output(onset)
        passed = (
            decoded == row.target_bit
            and onset is not None
            and abs(onset - row.target_time) <= tol
        )
        report.rows.append(RowResult(row=row, onset=onset, decoded=decoded, passed=passed))

    # (1) threshold gating on row (0,0)
    t00 = traces[(0, 0)]
    fired = [nid for nid in ("i1", "i2") if t00.spike_onsets.get(nid)]
    report.threshold_gate_ok = len(fired) == 1

    # (2) latency shift between rows (0,0) and (1,0)
    on00 = first_spike_time(traces[(0, 0)], OUTPUT_ID)
    on10 = first_spike_time(traces[(1, 0)], OUTPUT_ID)
    if on00 is not None and on10 is not None:
        shift = on10 - on00
        report.latency_shift_ok = abs(shift - (T_ONE - T_ZERO)) <= 0.15
    else:
        report.latency_shift_ok = False

    # (3) refraction on row (0,1): late suprathreshold drive, single onset
    t01 = traces[(0, 1)]
    o1_params = net.neuron(OUTPUT_ID).params
    onsets = t01.spike_onsets.get(OUTPUT_ID, [])
    if onsets:
        first_crossing = onsets[0] - getattr(o1_params, "latency_floor", 0.0)
        intervals = _suprathreshold_intervals(
            t01.time, t01.signals[f"{OUTPUT_ID}.drive"], o1_params.i_threshold
        )
        late_pulse = any(start > first_crossing for start, _ in intervals[1:])
        report.refraction_ok = late_pulse and len(onsets) == 1
    else:
        report.refraction_ok = False

    return report


def xor_dataset(
    encoding: EncodingConfig = EncodingConfig(),
    horizon: float = 5.0,
) -> list[tuple[dict[str, list[float]], float]]:
    """(stimulus, target time) pairs for the four truth-table rows."""
    return [
        (encode_inputs(row, encoding, horizon), row.target_time)
        for row in XOR_ROWS
    ]


def write_row_traces(traces: list[Trace], out_dir) -> list:
    """Per-row trace CSVs named row<k>_<signal>.csv (drive, voltage, state),
    from the row traces of ``run_xor_eval`` (``XorReport.traces``).  A row's
    three files are written atomically, in one pass."""
    paths = []
    for k, trace in enumerate(traces, start=1):
        files = {}
        for kind, suffix in (("drive", "drive"), ("v", "voltage"), ("state", "state")):
            path = os.path.join(out_dir, f"row{k}_{suffix}.csv")
            files[path] = {n: s for n, s in trace.signals.items() if n.endswith("." + kind)}
        atomic_write(list(files),
                     lambda *tmps: _write_csvs(trace.time, list(zip(tmps, files.values()))))
        paths.extend(files)
    return paths
