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
    TLR_BACKEND,
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
    t_spike: float = 0.0   # onset of each input spike and of the bias spike


def encode_inputs(
    row: XorRow,
    encoding: EncodingConfig = EncodingConfig(),
) -> dict[str, list[float]]:
    """Spike schedules for sources A, B and bias for one truth-table row:
    one spike at ``t_spike`` for each 1 bit and for the bias, none for a 0 bit."""
    t = encoding.t_spike
    return {"A": [t] if row.a else [], "B": [t] if row.b else [], "bias": [t]}


def build_xor_network(
    params: Union[TlrParams, dict[str, TlrParams]] = TlrParams(),
    weights: Optional[dict[str, float]] = None,
    source_amplitude: float = 1.0,
    source_duration: Optional[float] = None,
) -> Network:
    """Two-layer network: sources {A, B, bias} -> {i1, i2} -> o1, and bias -> o1.

    ``params`` is either one parameter set shared by all three neurons or a
    mapping from neuron id to its own parameters (heterogeneous layers).
    Edge keys are "pre->post".  Missing weights default to 0.  Source pulses
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
    edges = [(pre, post) for pre in SOURCE_IDS for post in ("i1", "i2")]
    edges += [("i1", "o1"), ("i2", "o1"), ("bias", "o1")]

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
    yet only one spike is emitted.  Check (3) reads the TLR threshold and
    latency floor, so an output neuron of another backend raises
    ``InvalidInputError``.
    """
    report = XorReport()
    for row in XOR_ROWS:
        stimulus = encode_inputs(row, encoding)
        try:
            trace = simulate_network(net.with_schedules(stimulus), sim)
        except MtjsnnError as exc:
            message = exc.args[0] if exc.args else ""
            exc.args = (f"row (a={row.a}, b={row.b}): {message}",) + exc.args[1:]
            raise
        report.traces.append(trace)
        onset = first_spike_time(trace, OUTPUT_ID)
        decoded = decode_output(onset)
        passed = decoded == row.target_bit and abs(onset - row.target_time) <= tol
        report.rows.append(RowResult(row=row, onset=onset, decoded=decoded, passed=passed))
    t00, t01 = report.traces[:2]   # rows (0,0) and (0,1)

    # (1) threshold gating on row (0,0)
    fired = [nid for nid in ("i1", "i2") if t00.spike_onsets.get(nid)]
    report.threshold_gate_ok = len(fired) == 1

    # (2) latency shift between rows (0,0) and (1,0)
    on00, on10 = report.rows[0].onset, report.rows[2].onset
    if on00 is not None and on10 is not None:
        report.latency_shift_ok = abs(on10 - on00 - (T_ONE - T_ZERO)) <= 0.15

    # (3) refraction on row (0,1): a suprathreshold interval other than the
    # first starts after the first crossing, yet only one onset follows
    o1 = net.neuron(OUTPUT_ID)
    if o1.backend != TLR_BACKEND:
        raise InvalidInputError(f"the refraction check needs a {TLR_BACKEND} output neuron;"
                                f" {OUTPUT_ID!r} uses the {o1.backend} backend")
    onsets = t01.spike_onsets.get(OUTPUT_ID, [])
    if len(onsets) == 1:
        above = t01.signals[f"{OUTPUT_ID}.drive"] > o1.params.i_threshold
        starts = t01.time[above & ~np.r_[False, above[:-1]]]
        report.refraction_ok = bool(np.any(starts[1:] > onsets[0] - o1.params.latency_floor))

    return report


def xor_dataset(
    encoding: EncodingConfig = EncodingConfig(),
) -> list[tuple[dict[str, list[float]], float]]:
    """(stimulus, target time) pairs for the four truth-table rows."""
    return [(encode_inputs(row, encoding), row.target_time) for row in XOR_ROWS]


def write_row_traces(traces: list[Trace], out_dir) -> list:
    """Per-row trace CSVs named row<k>_<signal>.csv (drive, voltage, state),
    from the row traces of ``run_xor_eval`` (``XorReport.traces``), which
    must share one time grid.  All the files are written in one pass before
    any is replaced, so a failure while writing replaces none of them."""
    time = np.asarray(traces[0].time, dtype=float) if traces else np.zeros(0)
    if any(np.asarray(t.time, dtype=float).tobytes() != time.tobytes() for t in traces):
        raise InvalidInputError("row traces must share one time grid")
    files = {}
    for k, trace in enumerate(traces, start=1):
        for kind, suffix in (("drive", "drive"), ("v", "voltage"), ("state", "state")):
            path = os.path.join(out_dir, f"row{k}_{suffix}.csv")
            files[path] = {n: s for n, s in trace.signals.items() if n.endswith("." + kind)}
    atomic_write(list(files), lambda *tmps: _write_csvs(time, list(zip(tmps, files.values()))))
    return list(files)
