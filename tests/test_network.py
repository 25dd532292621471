"""Network engine: topology validation, drive superposition, simulation,
the batched core behind it and the trace CSV writer."""

import math

import numpy as np
import pytest

from mtjsnn.config import load_config
from mtjsnn.errors import InvalidInputError
from mtjsnn.network import (
    Network,
    Neuron,
    SimConfig,
    Source,
    Synapse,
    Trace,
    _simulate,
    first_spike_time,
    simulate_network,
    validate_topology,
)
from mtjsnn.tlr import TlrParams, constant_drive_latency
from mtjsnn.xorbench import build_xor_network


def chain_network(weight=3.0, **neuron_kwargs):
    """One source driving one TLR neuron."""
    return Network(
        neurons=(Neuron("n", "tlr", TlrParams(**neuron_kwargs)),),
        synapses=(Synapse("src", "n", weight),),
        sources=(Source("src", spike_times=(0.0,), amplitude=1.0, duration=2.0),),
    )


class TestSimConfig:
    def test_defaults(self):
        sim = SimConfig()
        assert sim.dt == 0.001 and sim.horizon == 5.0

    @pytest.mark.parametrize("kwargs", [
        {"dt": 0.0}, {"dt": -0.001}, {"dt": 0.02}, {"dt": 0.01, "horizon": 0.05},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidInputError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,key", [
        ({"dt": 0.02}, "dt"),
        ({"dt": 0.01, "horizon": 0.05}, "horizon"),
        ({"horizon": math.inf}, "horizon"),
        ({"dt": 0.001, "horizon": 5.0004}, "horizon"),
        ({"dt": 0.003, "horizon": 1.0}, "horizon"),
    ])
    def test_invalid_names_field(self, kwargs, key):
        with pytest.raises(InvalidInputError) as e:
            SimConfig(**kwargs)
        assert e.value.key == key


class TestWithSchedules:
    def test_unknown_source_rejected(self):
        net = chain_network()
        with pytest.raises(InvalidInputError, match="unknown source 'A'"):
            net.with_schedules({"src": [1.0], "A": [0.0], "B": [0.0]})


class TestValidateTopology:
    def test_xor_topology_valid(self):
        assert validate_topology(build_xor_network()) == []

    def test_cycle_reported(self):
        net = build_xor_network()
        net = Network(
            neurons=net.neurons,
            synapses=net.synapses + (Synapse("o1", "i1", 1.0),),
            sources=net.sources,
        )
        assert any("cycle" in v for v in validate_topology(net))

    def test_unknown_ids_reported(self):
        net = Network(
            neurons=(Neuron("n"),),
            synapses=(Synapse("ghost", "n", 1.0), Synapse("n", "nowhere", 1.0)),
            sources=(),
        )
        violations = validate_topology(net)
        assert any("unknown pre" in v for v in violations)
        assert any("post is not a neuron" in v for v in violations)

    def test_non_finite_weight_reported(self):
        net = Network(
            neurons=(Neuron("n"),),
            synapses=(Synapse("n", "n2", math.nan), Synapse("n", "n", math.inf)),
            sources=(),
        )
        assert sum("non-finite weight" in v for v in validate_topology(net)) == 2

    def test_duplicate_id_reported(self):
        net = Network(
            neurons=(Neuron("x"), Neuron("x")),
            synapses=(),
            sources=(),
        )
        assert any("duplicate id" in v for v in validate_topology(net))


class TestSynapticDrive:
    """The ``<neuron>.drive`` signal of a simulation is the weighted sum of
    its presynaptic voltages."""

    SIM = SimConfig(dt=0.005, horizon=3.0)

    def test_single_edge(self):
        trace = simulate_network(chain_network(weight=2.0), self.SIM)
        assert trace.signals["src.v"].max() > 0
        np.testing.assert_allclose(trace.signals["n.drive"], 2.0 * trace.signals["src.v"])

    def test_zero_voltages(self):
        trace = simulate_network(chain_network().with_schedules({"src": []}), self.SIM)
        assert not trace.signals["n.drive"].any()

    def test_superposition(self):
        net = Network(
            neurons=(Neuron("n"),),
            synapses=(Synapse("a", "n", 1.5), Synapse("b", "n", -0.5)),
            sources=(Source("a"), Source("b")),
        )

        def drive(a, b):
            trace = simulate_network(net.with_schedules({"a": a, "b": b}), self.SIM)
            return trace.signals["n.drive"]

        only_a, only_b = drive([0.2], []), drive([], [0.7])
        assert only_a.any() and only_b.any()
        np.testing.assert_allclose(drive([0.2], [0.7]), only_a + only_b)


class TestSimulateNetwork:
    def test_quiescent_without_stimulus(self):
        net = build_xor_network()
        trace = simulate_network(net, SimConfig())
        assert all(not v for v in trace.spike_onsets.values())
        for name, series in trace.signals.items():
            if name.endswith(".v"):
                assert np.all(series == 0.0)

    def test_chain_onset_matches_constant_drive_oracle(self):
        # strong weight: effective drive ~ w * V(t); near the source peak the
        # drive is ~constant, so onset is close to the closed-form latency of
        # the peak-equivalent drive.
        w = 40.0
        net = chain_network(weight=w, latency_floor=0.3, q_switch=0.1)
        sim = SimConfig(dt=0.001, horizon=5.0)
        trace = simulate_network(net, sim)
        onset = first_spike_time(trace, "n")
        assert onset is not None
        # oracle: integrate the actual drive waveform through the latency law
        p = net.neuron("n").params
        t = trace.time
        drive = trace.signals["n.drive"]
        excess = np.maximum(drive - p.i_threshold, 0.0)
        cum = np.cumsum(excess[:-1] * sim.dt)
        k = int(np.argmax(cum >= p.q_switch))
        predicted = t[k + 1] + p.latency_floor
        assert abs(onset - predicted) <= 2 * sim.dt

    def test_layer_causality(self):
        net = build_xor_network(
            weights={"A->i1": 6.0, "i1->o1": 6.0},
        ).with_schedules({"A": [0.0], "B": [], "bias": []})
        trace = simulate_network(net, SimConfig())
        i1 = first_spike_time(trace, "i1")
        o1 = first_spike_time(trace, "o1")
        assert i1 is not None and o1 is not None
        assert o1 > i1

    def test_weight_linearity_of_drive(self):
        base = chain_network(weight=0.2)  # subthreshold
        doubled = chain_network(weight=0.4)
        sim = SimConfig(dt=0.005, horizon=3.0)
        d1 = simulate_network(base, sim).signals["n.drive"]
        d2 = simulate_network(doubled, sim).signals["n.drive"]
        assert np.allclose(d2, 2.0 * d1, atol=1e-12)

    def test_determinism_bit_identical(self):
        net = build_xor_network(weights={"A->i1": 6.0, "i1->o1": 6.0})
        net = net.with_schedules({"A": [0.0], "bias": [0.0]})
        sim = SimConfig()
        t1 = simulate_network(net, sim)
        t2 = simulate_network(net, sim)
        for name in t1.signals:
            assert np.array_equal(t1.signals[name], t2.signals[name])
        assert t1.spike_onsets == t2.spike_onsets

    def test_schedule_outside_horizon_rejected(self):
        net = chain_network().with_schedules({"src": [99.0]})
        with pytest.raises(InvalidInputError):
            simulate_network(net, SimConfig())

    def test_invalid_network_rejected(self):
        net = Network(neurons=(Neuron("n"),), synapses=(Synapse("ghost", "n", 1.0),), sources=())
        with pytest.raises(InvalidInputError):
            simulate_network(net, SimConfig())

    def test_macrospin_backend_in_network(self):
        from mtjsnn.macrospin import MacrospinParams
        net = Network(
            neurons=(Neuron("m", "macrospin", MacrospinParams()),),
            synapses=(Synapse("src", "m", 1.5),),
            sources=(Source("src", spike_times=(0.0,), amplitude=1.0, duration=4.9),),
        )
        trace = simulate_network(net, SimConfig(dt=0.005, horizon=5.0))
        assert "m.state" in trace.signals
        assert isinstance(trace.spike_onsets["m"], list)


class TestFirstSpikeTime:
    def test_earliest_and_silent(self):
        from mtjsnn.network import Trace
        trace = Trace(
            time=np.arange(3.0),
            signals={},
            spike_onsets={"a": [2.5], "b": [], "c": [4.0, 2.0]},
        )
        assert first_spike_time(trace, "a") == 2.5
        assert first_spike_time(trace, "b") is None
        assert first_spike_time(trace, "c") == 2.0
        with pytest.raises(InvalidInputError):
            first_spike_time(trace, "zz")


class TestTraceCsv:
    def test_round_trip_full_precision(self, tmp_path):
        net = chain_network(weight=5.0)
        trace = simulate_network(net, SimConfig(dt=0.005, horizon=1.0))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "time_ns"
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(data[:, 0], trace.time)
        for j, name in enumerate(header[1:], start=1):
            assert np.array_equal(data[:, j], trace.signals[name])


class TestScheduleInHorizon:
    @pytest.mark.parametrize("times", [(6.0,), (0.0, -0.5)])
    def test_simulate_network_rejects(self, times):
        net = chain_network().with_schedules({"src": list(times)})
        with pytest.raises(InvalidInputError, match="outside \\[0, horizon\\]"):
            simulate_network(net, SimConfig(dt=0.005, horizon=5.0))

    def test_batched_core_rejects(self):
        net = chain_network().with_schedules({"src": [7.5]})
        with pytest.raises(InvalidInputError, match="outside \\[0, horizon\\]"):
            _simulate(net, np.ones((3, 1)), SimConfig(dt=0.005, horizon=5.0))


class TestBatchedCore:
    """``_simulate`` over B weight vectors equals B runs of ``simulate_network``."""

    def assert_rows_match(self, net, weights, sim):
        _, _, onsets = _simulate(net, weights, sim)
        for b, w in enumerate(weights):
            trace = simulate_network(net.with_weights(w), sim)
            for nid, expected in trace.spike_onsets.items():
                assert onsets[nid][b] == expected, (b, nid)
        return onsets

    def test_xor_rows_with_shared_upstream(self, xor_config_path):
        net = load_config(xor_config_path).network
        net = net.with_schedules({"A": [0.0], "B": [], "bias": [0.0]})
        sim = SimConfig(dt=0.002, horizon=5.0)
        base = net.weight_vector()
        rng = np.random.default_rng(4)
        weights = np.repeat(base[None, :], 8, axis=0)
        weights[1:4, 6:] += rng.uniform(-0.3, 0.3, (3, 3))   # o1 edges: i1, i2 shared
        weights[4:7] += rng.uniform(-0.3, 0.3, (3, base.size))
        onsets = self.assert_rows_match(net, weights, sim)
        assert sum(bool(row) for row in onsets["o1"]) >= 4

    def test_macrospin_rows(self):
        from mtjsnn.macrospin import MacrospinParams
        net = Network(
            neurons=(Neuron("m", "macrospin", MacrospinParams()),),
            synapses=(Synapse("src", "m", 1.5),),
            sources=(Source("src", spike_times=(0.0,), amplitude=1.0, duration=2.4),),
        )
        weights = np.array([[1.5], [0.2], [1.5]])
        onsets = self.assert_rows_match(net, weights, SimConfig(dt=0.005, horizon=2.5))
        assert onsets["m"][0] == onsets["m"][2]


def reference_to_csv(trace, path):
    """The per-cell writer ``Trace.to_csv`` replaced."""
    names = list(trace.signals)
    with open(path, "w") as fh:
        fh.write("time_ns," + ",".join(names) + "\n")
        cols = [trace.signals[n] for n in names]
        for k in range(trace.time.size):
            row = [repr(float(trace.time[k]))]
            row.extend(repr(float(c[k])) for c in cols)
            fh.write(",".join(row) + "\n")


class TestTraceCsvBytes:
    def test_matches_per_cell_writer(self, tmp_path):
        n = 5000   # spans several write chunks
        rng = np.random.default_rng(5)
        special = np.array([-0.0, 0.0, 1e-5, 1e16, 5e-324, 2.2e-308, -1.5e-310, 0.1])
        a = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        a[:special.size] = special
        trace = Trace(
            time=0.001 * np.arange(n),
            signals={"x.v": a, "y.drive": np.roll(a, 3), "z.state": np.zeros(n)},
            spike_onsets={},
        )
        trace.to_csv(tmp_path / "new.csv")
        reference_to_csv(trace, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_empty_and_integer_series(self, tmp_path):
        for trace in (Trace(np.zeros(0), {"a.v": np.zeros(0)}, {}),
                      Trace(np.arange(4), {"a.v": np.array([0, -2, 3, 7])}, {})):
            trace.to_csv(tmp_path / "new.csv")
            reference_to_csv(trace, tmp_path / "old.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def assert_matches_reference(self, trace, tmp_path):
        trace.to_csv(tmp_path / "new.csv")
        reference_to_csv(trace, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_negative_zero_in_zero_row(self, tmp_path):
        a, b = np.zeros(6), np.zeros(6)
        a[2] = -0.0
        b[4] = -0.0
        self.assert_matches_reference(Trace(0.25 * np.arange(6), {"a.v": a, "b.v": b}, {}),
                                      tmp_path)

    def test_zero_rows_at_chunk_edges(self, tmp_path):
        n = 4100
        rng = np.random.default_rng(6)
        signals = {name: rng.standard_normal(n) for name in ("a.v", "b.drive", "c.state")}
        for col in signals.values():
            col[[0, 2047, 2048, 4095, n - 1]] = 0.0
            col[[2046, 2049, 4094, 4096]] = -0.0
        self.assert_matches_reference(Trace(0.001 * np.arange(n), signals, {}), tmp_path)

    def test_all_zero_and_no_zero_columns(self, tmp_path):
        n = 3000
        signals = {"zero.v": np.zeros(n), "dense.v": 1.0 + np.arange(n) / 7.0}
        self.assert_matches_reference(Trace(0.001 * np.arange(n), signals, {}), tmp_path)

    def test_nan_and_inf_cells(self, tmp_path):
        a = np.array([np.nan, 0.0, np.inf, -np.inf, 0.0, -np.nan, 1.5])
        self.assert_matches_reference(
            Trace(np.array([np.nan, 0.0, 1.0, np.inf, 2.0, 3.0, -np.inf]),
                  {"a.v": a, "b.v": np.roll(a, 2)}, {}),
            tmp_path)

    def test_row_trace_files_match_reference(self, tmp_path):
        from mtjsnn.defaults import xor_reference_network
        from mtjsnn.xorbench import run_xor_eval, write_row_traces

        traces = run_xor_eval(xor_reference_network(), SimConfig(dt=0.001, horizon=5.0)).traces
        paths = write_row_traces(traces, tmp_path)
        assert len(paths) == 12
        for k, trace in enumerate(traces, start=1):
            for kind, suffix in (("drive", "drive"), ("v", "voltage"), ("state", "state")):
                sub = Trace(trace.time, {n: s for n, s in trace.signals.items()
                                         if n.endswith("." + kind)}, {})
                reference_to_csv(sub, tmp_path / "old.csv")
                new = tmp_path / f"row{k}_{suffix}.csv"
                assert str(new) in paths
                assert new.read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [f"row{k}_{s}.csv" for k in range(1, 5) for s in ("drive", "voltage", "state")]
            + ["old.csv"])
