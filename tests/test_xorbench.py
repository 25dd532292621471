"""XOR benchmark: encoding, decoding, network construction, mechanism checks."""

import filecmp

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtjsnn import xorbench
from mtjsnn.defaults import xor_reference_network
from mtjsnn.errors import ConfigError, InvalidInputError, NumericalFailureError
from mtjsnn.network import SimConfig, first_spike_time, simulate_network, validate_topology
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

    def test_timing_mode(self):
        enc = EncodingConfig(mode="timing", t_bit0=0.5, t_bit1=0.0)
        assert encode_inputs(XorRow(1, 0), enc) == {"A": [0.0], "B": [0.5], "bias": [0.0]}

    def test_recurring_bias(self):
        enc = EncodingConfig(bias_period=2.0)
        sched = encode_inputs(XorRow(0, 0), enc, horizon=5.0)
        assert sched["bias"] == [0.0, 2.0, 4.0]

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInputError):
            EncodingConfig(mode="morse")

    @pytest.mark.parametrize("period", [0.0, -1.0, float("nan")])
    def test_non_positive_bias_period_rejected(self, period):
        with pytest.raises(InvalidInputError) as e:
            EncodingConfig(bias_period=period)
        assert e.value.key == "bias_period"

    def test_dataset_covers_rows(self):
        data = xor_dataset()
        assert [t for _, t in data] == [2.0, 2.5, 2.5, 2.0]


class TestBuildNetwork:
    def test_default_shape(self):
        net = build_xor_network()
        assert len(net.sources) == 3 and len(net.neurons) == 3
        assert len(net.synapses) == 9  # 3 sources x 2 inputs + i1,i2,bias -> o1
        assert validate_topology(net) == []

    def test_bias_to_output_disabled(self):
        net = build_xor_network(bias_to_output=False)
        assert len(net.synapses) == 8
        assert not any(s.pre == "bias" and s.post == "o1" for s in net.synapses)

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

        fresh = simulate_network(net.with_schedules(encode_inputs(XorRow(0, 0), horizon=5.0)), SIM)
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        write_row_traces([fresh], fresh_dir)
        assert filecmp.cmp(tmp_path / "row1_voltage.csv", fresh_dir / "row1_voltage.csv",
                           shallow=False)

    # each row formats 3 chunks of 13 columns (time plus 3 drive, 6 voltage
    # and 3 state signals), so call 40 is the first of row 2
    @pytest.mark.parametrize("fail_at, rows_done", [(1, 0), (6, 0), (40, 1)])
    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch, fail_at,
                                                   rows_done):
        from mtjsnn import network

        traces = run_xor_eval(xor_reference_network(), SIM).traces
        (tmp_path / "row1_drive.csv").write_text("old\n")
        calls = []
        real = network._format_column

        def failing(seg):
            calls.append(1)
            if len(calls) == fail_at:
                raise OSError("disk full")
            return real(seg)

        monkeypatch.setattr(network, "_format_column", failing)
        with pytest.raises(OSError, match="disk full"):
            write_row_traces(traces, tmp_path)
        # the failing row left neither its temporary files nor new contents;
        # only the rows written completely before it were replaced
        done = [f"row{k}_{s}.csv" for k in range(1, rows_done + 1)
                for s in ("drive", "voltage", "state")]
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(done or ["row1_drive.csv"])
        assert ((tmp_path / "row1_drive.csv").read_text() == "old\n") == (rows_done == 0)
