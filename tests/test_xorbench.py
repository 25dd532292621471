"""XOR benchmark: encoding, decoding, network construction, mechanism checks."""

import filecmp
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtjsnn import xorbench
from mtjsnn.defaults import xor_reference_network
from mtjsnn.errors import ConfigError, InvalidInputError, NumericalFailureError
from mtjsnn.macrospin import MacrospinParams
from mtjsnn.network import (
    MACROSPIN_BACKEND,
    Neuron,
    SimConfig,
    Trace,
    first_spike_time,
    simulate_network,
    validate_topology,
)
from mtjsnn.tlr import TlrParams
from mtjsnn.xorbench import (
    XOR_ROWS,
    EncodingConfig,
    XorRow,
    build_xor_network,
    decode_output,
    encode_inputs,
    run_xor_eval,
    write_row_traces,
    xor_dataset,
)

SIM = SimConfig(dt=0.001, horizon=5.0)


class TestXorRow:
    def test_targets(self):
        assert XorRow(0, 0).target_bit == 0 and XorRow(0, 0).target_time == 2.0
        assert XorRow(0, 1).target_bit == 1 and XorRow(0, 1).target_time == 2.5
        assert XorRow(1, 0).target_time == 2.5
        assert XorRow(1, 1).target_time == 2.0

    def test_invalid_bits(self):
        with pytest.raises(InvalidInputError):
            XorRow(2, 0)
        with pytest.raises(InvalidInputError):
            XorRow(0, 0, bias=0)


class TestEncoding:
    def test_presence_rows(self):
        assert encode_inputs(XorRow(0, 0)) == {"A": [], "B": [], "bias": [0.0]}
        assert encode_inputs(XorRow(1, 0)) == {"A": [0.0], "B": [], "bias": [0.0]}
        assert encode_inputs(XorRow(1, 1)) == {"A": [0.0], "B": [0.0], "bias": [0.0]}

    def test_spikes_at_t_spike(self):
        enc = EncodingConfig(t_spike=1.5)
        assert encode_inputs(XorRow(0, 1), enc) == {"A": [], "B": [1.5], "bias": [1.5]}
        assert xor_dataset(enc)[3][0] == {"A": [1.5], "B": [1.5], "bias": [1.5]}

    def test_dataset_covers_rows(self):
        data = xor_dataset()
        assert [t for _, t in data] == [2.0, 2.5, 2.5, 2.0]


class TestBuildNetwork:
    def test_default_shape(self):
        net = build_xor_network()
        assert len(net.sources) == 3 and len(net.neurons) == 3
        assert len(net.synapses) == 9  # 3 sources x 2 inputs + i1,i2,bias -> o1
        assert validate_topology(net) == []

    def test_per_neuron_params(self):
        p = {nid: TlrParams(latency_floor=0.1 * k)
             for k, nid in enumerate(("i1", "i2", "o1"))}
        net = build_xor_network(params=p)
        assert net.neuron("i2").params.latency_floor == pytest.approx(0.1)

    def test_missing_neuron_params_rejected(self):
        with pytest.raises(InvalidInputError):
            build_xor_network(params={"i1": TlrParams()})


class TestDecode:
    def test_examples(self):
        assert decode_output(2.0) == 0
        assert decode_output(2.52) == 1
        assert decode_output(None) is None
        assert decode_output(2.25) is None  # exact tie is a failure

    @given(st.one_of(st.none(), st.floats(min_value=0.0, max_value=5.0)))
    def test_idempotent_and_total(self, onset):
        first = decode_output(onset)
        assert decode_output(onset) == first
        assert first in (0, 1, None)


class TestRunXorEval:
    def test_reference_network_passes_everything(self):
        report = run_xor_eval(xor_reference_network(), SIM)
        assert report.all_rows_pass
        assert report.threshold_gate_ok
        assert report.latency_shift_ok
        assert report.refraction_ok
        decoded = [r.decoded for r in report.rows]
        assert decoded == [0, 1, 1, 0]
        # row (1,1) output ~ 2 ns
        assert report.rows[3].onset == pytest.approx(2.0, abs=0.1)

    def test_all_zero_weights_report_well_formed(self):
        net = build_xor_network(weights={})
        report = run_xor_eval(net, SIM)
        assert not report.all_rows_pass
        assert all(r.onset is None and r.decoded is None for r in report.rows)
        assert not report.mechanisms_ok

    def test_threshold_gate_row00(self):
        # on (0,0) exactly one input-layer neuron fires (bias-driven i2)
        net = xor_reference_network()
        trace = simulate_network(
            net.with_schedules(encode_inputs(XorRow(0, 0))), SIM)
        assert first_spike_time(trace, "i1") is None
        assert first_spike_time(trace, "i2") is not None

    def test_latency_shift_row10_vs_row00(self):
        net = xor_reference_network()
        t00 = first_spike_time(simulate_network(
            net.with_schedules(encode_inputs(XorRow(0, 0))), SIM), "o1")
        t10 = first_spike_time(simulate_network(
            net.with_schedules(encode_inputs(XorRow(1, 0))), SIM), "o1")
        assert abs((t10 - t00) - 0.5) <= 0.15

    def test_refraction_row01_single_onset_with_late_pulse(self):
        net = xor_reference_network()
        trace = simulate_network(
            net.with_schedules(encode_inputs(XorRow(0, 1))), SIM)
        onsets = trace.spike_onsets["o1"]
        assert len(onsets) == 1
        p = net.neuron("o1").params
        drive = trace.signals["o1.drive"]
        first_crossing = onsets[0] - p.latency_floor
        late = trace.time > first_crossing + 0.1
        assert np.any(drive[late] > p.i_threshold)

    def test_winner_take_all_first_crossing(self):
        # o1's onset equals what its first suprathreshold crossing produces
        from mtjsnn.tlr import run_tlr
        net = xor_reference_network()
        for row in XOR_ROWS:
            trace = simulate_network(net.with_schedules(encode_inputs(row)), SIM)
            onsets = trace.spike_onsets["o1"]
            assert len(onsets) == 1
            p = net.neuron("o1").params
            isolated = run_tlr(p, trace.signals["o1.drive"], SIM.dt)
            assert isolated.onsets[0] == pytest.approx(onsets[0], abs=1e-12)

    def test_linear_inseparability_negative_control(self):
        # no single linear threshold over (a, b, 1) reproduces XOR
        rows = [(a, b, 1, a ^ b) for a in (0, 1) for b in (0, 1)]
        for wa in np.linspace(-2, 2, 9):
            for wb in np.linspace(-2, 2, 9):
                for wc in np.linspace(-2, 2, 9):
                    outs = [int(wa * a + wb * b + wc * c > 0) for a, b, c, _ in rows]
                    assert outs != [t for _, _, _, t in rows]


def reference_suprathreshold_intervals(time: np.ndarray, drive: np.ndarray, threshold: float) -> list[tuple[float, float]]:
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


def reference_refraction_ok(trace, params):
    """The refraction verdict built on the interval helper that
    ``run_xor_eval`` replaced with a rising-edge scan."""
    onsets = trace.spike_onsets.get("o1", [])
    if onsets:
        first_crossing = onsets[0] - params.latency_floor
        intervals = reference_suprathreshold_intervals(
            trace.time, trace.signals["o1.drive"], params.i_threshold
        )
        late_pulse = any(start > first_crossing for start, _ in intervals[1:])
        return late_pulse and len(onsets) == 1
    return False


class TestRefractionMatchesIntervalHelper:
    """``refraction_ok`` on o1 drives and onsets fed to ``run_xor_eval`` in
    place of a simulation.  The times are multiples of 0.25 ns, so an onset
    less the latency floor can land exactly on an interval start, and the
    drive levels include the threshold itself."""

    @staticmethod
    def verdict(monkeypatch, params, time, drive, onsets):
        trace = Trace(time, {"o1.drive": drive}, {"i1": [], "i2": [], "o1": onsets})
        monkeypatch.setattr(xorbench, "simulate_network", lambda net, sim: trace)
        got = run_xor_eval(build_xor_network(params), SIM).refraction_ok
        assert type(got) is bool
        assert got == reference_refraction_ok(trace, params)
        return got

    def test_random_drives(self, monkeypatch):
        rng = np.random.default_rng(5)
        levels = np.array([0.0, 0.5, 1.0, 1.0, 1.5])   # the threshold is 1.0
        verdicts = set()
        for case in range(400):
            n = int(rng.integers(2, 30))
            drive = rng.choice(levels, n)
            drive[0] = drive[-1] = [0.0, 1.5][case % 2]   # above or not at both ends
            if case % 7 == 0:
                drive[:] = [0.0, 1.5][case % 2]   # above at no sample or at all
            time = 0.25 * np.arange(n)
            params = TlrParams(latency_floor=float(rng.choice([0.0, 0.25, 0.5])))
            grid = time + params.latency_floor
            onsets = sorted(float(t) for t in rng.choice(grid, int(rng.integers(0, 3))))
            verdicts.add(self.verdict(monkeypatch, params, time, drive, onsets))
        assert verdicts == {False, True}

    @pytest.mark.parametrize("drive,onsets,expected", [
        ([1.5, 1.5, 0.0, 1.5], [0.75], False),   # the second start is at the first crossing
        ([1.5, 1.5, 0.0, 1.5], [0.5], True),
        ([0.0, 1.0, 0.0, 1.5], [0.0], False),    # at the threshold is not above it
        ([0.0, 1.5, 1.5, 1.5], [0.0], False),    # one interval, starting after the crossing
        ([0.0, 1.5, 0.0, 1.5], [0.25, 0.5], False),
    ])
    def test_edge_cases(self, monkeypatch, drive, onsets, expected):
        params = TlrParams(latency_floor=0.0)
        drive = np.array(drive)
        time = 0.25 * np.arange(drive.size)
        assert self.verdict(monkeypatch, params, time, drive, onsets) is expected


class TwoArgumentError(NumericalFailureError):
    """Its constructor takes two arguments, so it cannot be rebuilt from a message."""

    def __init__(self, message, detail):
        super().__init__(message, detail)


class TestRowErrors:
    """A simulation error of one row is re-raised as the same object, with
    the row named in its message."""

    def raise_in_row_01(self, monkeypatch, exc):
        real = xorbench.simulate_network

        def failing(net, sim):
            if {s.id: s.spike_times for s in net.sources}["B"]:
                raise exc
            return real(net, sim)

        monkeypatch.setattr(xorbench, "simulate_network", failing)

    def test_config_error_keeps_key(self, monkeypatch):
        exc = ConfigError("bad value", key="k")
        self.raise_in_row_01(monkeypatch, exc)
        with pytest.raises(ConfigError) as e:
            run_xor_eval(xor_reference_network(), SIM)
        assert e.value is exc
        assert e.value.key == "k"
        assert str(e.value) == "row (a=0, b=1): bad value"

    def test_two_argument_exception_propagates_as_itself(self, monkeypatch):
        exc = TwoArgumentError("boom", 7)
        self.raise_in_row_01(monkeypatch, exc)
        with pytest.raises(TwoArgumentError) as e:
            run_xor_eval(xor_reference_network(), SIM)
        assert e.value is exc
        assert e.value.args == ("row (a=0, b=1): boom", 7)

    def test_other_exceptions_untouched(self, monkeypatch):
        exc = KeyError("x")
        self.raise_in_row_01(monkeypatch, exc)
        with pytest.raises(KeyError) as e:
            run_xor_eval(xor_reference_network(), SIM)
        assert e.value is exc
        assert e.value.args == ("x",)


def macrospin_output_network():
    """The reference network with a default macrospin o1, which fires on row (0,1)."""
    net = xor_reference_network()
    neurons = tuple(Neuron("o1", MACROSPIN_BACKEND, MacrospinParams()) if n.id == "o1" else n
                    for n in net.neurons)
    synapses = tuple(replace(s, weight=3.0) if (s.pre, s.post) == ("bias", "o1") else s
                     for s in net.synapses)
    return replace(net, neurons=neurons, synapses=synapses)


class TestNonTlrOutputNeuron:
    def test_macrospin_output_neuron_rejected_by_backend(self):
        sim = SimConfig(dt=0.005, horizon=5.0)
        net = macrospin_output_network()
        assert first_spike_time(simulate_network(
            net.with_schedules(encode_inputs(XorRow(0, 1))), sim), "o1") is not None
        with pytest.raises(InvalidInputError, match="'o1' uses the macrospin backend"):
            run_xor_eval(net, sim)


class TestWriteRowTraces:
    def test_each_row_simulated_once(self, tmp_path, monkeypatch):
        net = xor_reference_network()
        calls = []
        real = xorbench.simulate_network

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(xorbench, "simulate_network", counting)
        report = run_xor_eval(net, SIM)
        write_row_traces(report.traces, tmp_path)
        assert len(calls) == 4
        monkeypatch.undo()

        fresh = simulate_network(net.with_schedules(encode_inputs(XorRow(0, 0))), SIM)
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        write_row_traces([fresh], fresh_dir)
        assert filecmp.cmp(tmp_path / "row1_voltage.csv", fresh_dir / "row1_voltage.csv",
                           shallow=False)

    @pytest.mark.parametrize("which", ["first", "middle", "last"])
    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch, which):
        from mtjsnn import network

        traces = run_xor_eval(xor_reference_network(), SIM).traces
        calls = []
        fail_at = None
        real = network._format_column

        def failing(seg):
            calls.append(1)
            if len(calls) == fail_at:
                raise OSError("disk full")
            return real(seg)

        monkeypatch.setattr(network, "_format_column", failing)
        (tmp_path / "count").mkdir()
        write_row_traces(traces, tmp_path / "count")
        fail_at = {"first": 1, "middle": len(calls) // 2, "last": len(calls)}[which]
        calls.clear()
        out = tmp_path / "out"
        out.mkdir()
        (out / "row1_drive.csv").write_text("old\n")
        with pytest.raises(OSError, match="disk full"):
            write_row_traces(traces, out)
        # the twelve files are replaced together, so a failure at any call
        # leaves no temporary file, no new file and the old file as it was
        assert len(calls) == fail_at
        assert [p.name for p in out.iterdir()] == ["row1_drive.csv"]
        assert (out / "row1_drive.csv").read_text() == "old\n"

    # the twelve row files in the order write_row_traces renames them
    ROW_FILES = [f"row{k}_{s}.csv" for k in range(1, 5) for s in ("drive", "voltage", "state")]

    def old_outputs(self, out, names):
        out.mkdir()
        for name in names:
            (out / name).write_text(f"old {name}\n")

    def assert_old_outputs(self, out, names):
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        for name in names:
            if (out / name).is_file():
                assert (out / name).read_text() == f"old {name}\n"

    def test_directory_in_place_of_last_row_file_replaces_nothing(self, tmp_path):
        traces = run_xor_eval(xor_reference_network(), SIM).traces
        out = tmp_path / "out"
        self.old_outputs(out, self.ROW_FILES[:-1])
        (out / self.ROW_FILES[-1]).mkdir()
        with pytest.raises(IsADirectoryError):
            write_row_traces(traces, out)
        self.assert_old_outputs(out, self.ROW_FILES)
        assert (out / self.ROW_FILES[-1]).is_dir()

    @pytest.mark.parametrize("fail_at", range(1, 13))
    def test_failed_rename_restores_every_old_file(self, tmp_path, monkeypatch, fail_at):
        from mtjsnn import network

        traces = run_xor_eval(xor_reference_network(), SIM).traces
        out = tmp_path / "out"
        self.old_outputs(out, self.ROW_FILES)
        calls = []
        real = network.os.replace

        def failing(src, dst):
            calls.append(dst)
            if len(calls) == fail_at:
                raise OSError("rename failed")
            return real(src, dst)

        monkeypatch.setattr(network.os, "replace", failing)
        with pytest.raises(OSError, match="rename failed"):
            write_row_traces(traces, out)
        monkeypatch.undo()
        assert [os.path.basename(p) for p in calls[:fail_at]] == self.ROW_FILES[:fail_at]
        self.assert_old_outputs(out, self.ROW_FILES)

    def test_failed_rename_removes_new_files(self, tmp_path, monkeypatch):
        from mtjsnn import network

        traces = run_xor_eval(xor_reference_network(), SIM).traces
        out = tmp_path / "out"
        self.old_outputs(out, self.ROW_FILES[::2])
        real = network.os.replace

        def failing(src, dst):
            if os.path.basename(dst) == self.ROW_FILES[-1]:
                raise OSError("rename failed")
            return real(src, dst)

        monkeypatch.setattr(network.os, "replace", failing)
        with pytest.raises(OSError, match="rename failed"):
            write_row_traces(traces, out)
        self.assert_old_outputs(out, self.ROW_FILES[::2])

    def test_overwrite_leaves_no_backup_file(self, tmp_path):
        traces = run_xor_eval(xor_reference_network(), SIM).traces
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        fresh.mkdir()
        write_row_traces(traces, fresh)
        self.old_outputs(out, self.ROW_FILES)
        write_row_traces(traces, out)
        assert sorted(p.name for p in out.iterdir()) == sorted(self.ROW_FILES)
        for name in self.ROW_FILES:
            assert filecmp.cmp(fresh / name, out / name, shallow=False)
