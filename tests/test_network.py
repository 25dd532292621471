"""Network engine: topology validation, drive superposition, simulation,
the batched core behind it and the trace CSV writer."""

import errno
import hashlib
import inspect
import math
import os
import pickle
import select
import signal
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_macrospin import reference_switching_times
from test_tlr import reference_run_tlr, time_limit
from test_xorbench import uniform_network

from mtjsnn import macrospin, network
from mtjsnn.config import load_config
from mtjsnn.errors import ConfigError, InvalidInputError, NumericalFailureError
from mtjsnn.macrospin import (
    MacrospinParams,
    MacrospinState,
    calibrate_tlr,
    find_switching_threshold,
    initial_state,
    integrate_macrospin,
)
from mtjsnn.network import (
    Network,
    Neuron,
    SimConfig,
    Source,
    Synapse,
    Trace,
    _KERNELS,
    _simulate,
    _topo_order,
    atomic_write,
    first_spike_time,
    simulate_network,
    validate_topology,
)
from mtjsnn.tlr import TlrParams, run_tlr, source_waveform
from mtjsnn.trainer import TrainConfig, train
from mtjsnn.xorbench import NEURON_IDS, XorRow, build_xor_network, xor_dataset


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

    @pytest.mark.parametrize("dt,horizon", [
        (0.01, 1e8), (0.01, 1e300), (0.001, 1000.001), (0.0001, 100.0002),
    ])
    def test_grid_over_step_cap_names_horizon(self, dt, horizon):
        with pytest.raises(InvalidInputError, match="at most 1000000 steps") as e:
            SimConfig(dt=dt, horizon=horizon)
        assert e.value.key == "horizon"

    @pytest.mark.parametrize("dt,horizon", [(0.01, 10000.0), (0.001, 1000.0), (0.001, 160.0)])
    def test_grid_at_step_cap_accepted(self, dt, horizon):
        assert SimConfig(dt=dt, horizon=horizon).horizon == horizon


class TestNetworkChecks:
    def test_unknown_neuron_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown neuron 'zz'"):
            chain_network().neuron("zz")

    @pytest.mark.parametrize("weights", [[], [1.0, 2.0]])
    def test_weight_vector_of_wrong_length_rejected(self, weights):
        with pytest.raises(InvalidInputError, match="weight vector length mismatch"):
            chain_network().with_weights(np.array(weights))

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
    def test_non_finite_source_amplitude_rejected(self, amplitude):
        with pytest.raises(InvalidInputError) as e:
            Source("s", (0.0,), amplitude=amplitude)
        assert e.value.key == "amplitude"

    def test_negative_source_amplitude_accepted(self):
        assert Source("s", (0.0,), amplitude=-1.0).amplitude == -1.0


class TestWithSchedules:
    def test_unknown_source_rejected(self):
        net = chain_network()
        with pytest.raises(InvalidInputError, match="unknown source 'A'"):
            net.with_schedules({"src": [1.0], "A": [0.0], "B": [0.0]})


class TestValidateTopology:
    def test_xor_topology_valid(self):
        assert validate_topology(uniform_network()) == []

    def test_cycle_reported(self):
        net = uniform_network()
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


    def test_duplicate_id_is_no_cycle(self):
        # the hand-rolled sort reported a cycle here too: it placed one x
        # for two ids
        net = Network(neurons=(Neuron("y"), Neuron("x"), Neuron("x")),
                      synapses=(Synapse("y", "x", 1.0),), sources=())
        assert validate_topology(net) == ["duplicate id 'x'"]


class TestTopoOrder:
    """Ties go to the neurons listed first: those ready at the start in list
    order, then each neuron as its last predecessor is placed.  The
    simulation order sets the column order of ``trace.csv``."""

    @staticmethod
    def order(ids, edges):
        net = Network(neurons=tuple(Neuron(nid) for nid in ids),
                      synapses=tuple(Synapse(pre, post, 1.0) for pre, post in edges),
                      sources=())
        return _topo_order(net, list(ids))

    @pytest.mark.parametrize("ids,edges,expected", [
        (("n3", "n0", "n2", "n1"), [("n2", "n3")], ["n0", "n2", "n1", "n3"]),
        (("n0", "n1", "n2"), [("n2", "n0")], ["n1", "n2", "n0"]),
        (("n4", "n1", "n5", "n2", "n0", "n3", "n6"),
         [("n5", "n6"), ("n0", "n1"), ("n4", "n2"), ("n0", "n3"), ("n2", "n6"), ("n4", "n1"),
          ("n2", "n1")],
         ["n4", "n5", "n0", "n2", "n3", "n1", "n6"]),
        (("a", "b"), [("a", "b"), ("a", "b")], ["a", "b"]),
    ], ids=["one-edge", "edge-to-the-first", "seven-neurons", "duplicate-edge"])
    def test_tie_order(self, ids, edges, expected):
        assert self.order(ids, edges) == expected

    @pytest.mark.parametrize("edges", [[("a", "a")], [("a", "b"), ("b", "c"), ("c", "a")]],
                             ids=["self-loop", "three-cycle"])
    def test_cycle_gives_none(self, edges):
        assert self.order(("a", "b", "c"), edges) is None

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
        net = uniform_network()
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
        net = uniform_network(
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
        net = uniform_network(weights={"A->i1": 6.0, "i1->o1": 6.0})
        net = net.with_schedules({"A": [0.0], "bias": [0.0]})
        sim = SimConfig()
        t1 = simulate_network(net, sim)
        t2 = simulate_network(net, sim)
        for name in t1.signals:
            assert np.array_equal(t1.signals[name], t2.signals[name])
        assert t1.spike_onsets == t2.spike_onsets

    def test_returned_arrays_never_reused(self):
        net = uniform_network().with_schedules({"A": [0.0], "B": [0.5], "bias": [0.0]})
        sim = SimConfig(dt=0.002, horizon=5.0)
        first = simulate_network(net, sim)
        _simulate(net, np.repeat(net.weight_vector()[None, :], 3, axis=0), sim, lean=True)
        later = simulate_network(net.with_weights(1.1 * net.weight_vector()), sim)
        arrays = [first.time, *first.signals.values()]
        assert not any(np.shares_memory(a, b)
                       for a in arrays for b in [later.time, *later.signals.values()])

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

    def test_overflowing_macrospin_neuron_named(self):
        # unchecked, the integrator's ZeroDivisionError escaped unnamed
        net = Network(
            neurons=(Neuron("m", "macrospin", MacrospinParams(gamma=1e308)),),
            synapses=(Synapse("src", "m", 1.5),),
            sources=(Source("src", spike_times=(0.0,), amplitude=1.0, duration=4.9),),
        )
        with pytest.raises(NumericalFailureError,
                           match="neuron 'm': macrospin step overflowed the float range"):
            simulate_network(net, SimConfig(dt=0.005, horizon=1.0))


class TestNeuronBackend:
    @pytest.mark.parametrize("backend, params, key", [
        ("spiking", TlrParams(), "backend"),
        ("tlr", MacrospinParams(), "params"),
        ("macrospin", TlrParams(), "params"),
        ("tlr", None, "params"),
    ])
    def test_mismatch_rejected_when_built(self, backend, params, key):
        with pytest.raises(InvalidInputError) as e:
            Neuron("n", backend, params)
        assert e.value.key == key

    def test_default_params_are_tlr(self):
        assert isinstance(Neuron("n").params, TlrParams)
        with pytest.raises(InvalidInputError) as e:
            Neuron("m", "macrospin")
        assert e.value.key == "params"
        assert str(e.value) == "the macrospin backend needs MacrospinParams, not TlrParams"


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


def reference_simulate(net, sim):
    """Network oracle for one weight row.  Each drive is summed from zeros
    in synapse order, then each neuron runs alone: ``reference_run_tlr``
    for TLR, the integrator and the per-sample crossing loop for macrospin."""
    time = sim.dt * np.arange(int(round(sim.horizon / sim.dt)) + 1)
    voltages = {src.id: source_waveform(time, list(src.spike_times), src.amplitude, src.duration)
                for src in net.sources}
    signals = {f"{sid}.v": v for sid, v in voltages.items()}
    onsets = {src.id: list(src.spike_times) for src in net.sources}
    pending = list(net.neurons)
    while pending:
        neuron = next(n for n in pending
                      if all(s.pre in voltages for s in net.synapses if s.post == n.id))
        pending.remove(neuron)
        drive = np.zeros(time.size)
        for s in net.synapses:
            if s.post == neuron.id:
                drive += s.weight * voltages[s.pre]
        p = neuron.params
        if neuron.backend == "tlr":
            run = reference_run_tlr(p, drive, sim.dt)
            v, state, spikes = run.v_out, run.accumulation, run.onsets
        else:
            trace = integrate_macrospin(initial_state(p), p, drive, sim.dt)
            v, state = p.v_dd - trace.v_node, trace.alignment()
            spikes = reference_switching_times(trace)
        voltages[neuron.id] = v
        signals.update({f"{neuron.id}.drive": drive, f"{neuron.id}.v": v,
                        f"{neuron.id}.state": state})
        onsets[neuron.id] = spikes
    return signals, onsets


@st.composite
def batched_networks(draw, macrospin=False):
    """A random feedforward network, a grid and a ``(B, E)`` weight array.

    1-3 sources and 1-6 neurons; each neuron takes in-edges from a random
    subset of the sources and the neurons drawn before it, and the neuron
    and synapse tuples are shuffled, so neither is in topological order.
    Weights include 0 and negative values.  Each weight row copies an
    earlier row and changes a few of its entries, or none, so rows repeat
    in full or only on some neurons' in-edges.

    With ``macrospin`` one neuron is a default macrospin neuron on a 1.5 ns
    grid at 5 ps.  It always takes an in-edge from source ``s0``, a 1.5 ns
    pulse at 0, weighted 5-8 in the first row: a weaker or later drive
    cannot switch it before the horizon, and no crossing would be checked."""
    def uniform(lo, hi):
        return draw(st.floats(lo, hi))

    if macrospin:
        dt, n_steps = 0.005, 300
    else:
        dt, n_steps = draw(st.sampled_from([0.005, 0.01])), draw(st.integers(100, 300))
    sim = SimConfig(dt=dt, horizon=n_steps * dt)
    on_grid = st.integers(0, n_steps).map(lambda k: k * dt)
    sources = [
        Source(f"s{k}", tuple(sorted(draw(st.lists(on_grid, min_size=1, max_size=3)))),
               amplitude=uniform(0.5, 1.5), duration=uniform(0.2, 1.5))
        for k in range(draw(st.integers(1, 3)))
    ]
    n_neurons = draw(st.integers(1, 6))
    neurons, edges = [], []
    for k in range(n_neurons):
        neurons.append(Neuron(f"n{k}", "tlr", TlrParams(
            i_threshold=uniform(0.2, 1.2),
            q_switch=uniform(0.01, 0.2),
            latency_floor=uniform(0.0, 0.5),
            spike_amplitude=uniform(0.5, 1.5),
            spike_duration=uniform(0.2, 1.5),
            # 0 ablates refraction; a short window re-arms inside the horizon
            t_refractory=draw(st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.just(5.0))),
        )))
        pres = [src.id for src in sources] + [f"n{j}" for j in range(k)]
        edges += [(pre, f"n{k}") for pre in draw(st.lists(st.sampled_from(pres), unique=True))]
    if macrospin:
        k = draw(st.integers(0, n_neurons - 1))
        neurons[k] = Neuron(f"n{k}", "macrospin", MacrospinParams())
        sources[0] = Source("s0", (0.0,), amplitude=1.0, duration=1.5)
        if ("s0", f"n{k}") not in edges:
            edges.append(("s0", f"n{k}"))
    edges = draw(st.permutations(edges))
    # weight values come from a drawn seed: full-precision floats, whose
    # sums round differently in another order
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def weight():
        return [0.0, rng.uniform(-2.0, 0.0), rng.uniform(0.0, 8.0 if macrospin else 4.0)][
            rng.integers(3)]

    rows = [[weight() for _ in edges]]
    if macrospin:
        rows[0][edges.index(("s0", f"n{k}"))] = uniform(5.0, 8.0)
    for _ in range(draw(st.integers(0, 19))):
        row = list(rows[draw(st.integers(0, len(rows) - 1))])
        if edges:
            for e in draw(st.lists(st.integers(0, len(edges) - 1), max_size=3)):
                row[e] = weight()
        rows.append(row)
    net = Network(neurons=tuple(draw(st.permutations(neurons))),
                  synapses=tuple(Synapse(pre, post, 0.0) for pre, post in edges),
                  sources=tuple(sources))
    return net, np.array(rows, dtype=float), sim


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedCoreDifferential:
    """``_simulate`` over random feedforward networks and weight batches:
    each row is bitwise equal to ``simulate_network`` on that row's weights
    and to the per-row oracle ``reference_simulate``."""

    def check(self, net, weights, sim):
        time, signals, onsets = _simulate(net, weights, sim)
        assert same_bits(time, sim.dt * np.arange(time.size))
        assert all(np.all(np.isfinite(v)) for v in signals.values())
        assert all(row == sorted(row) for rows in onsets.values() for row in rows)
        per_row = {n.id: set() for n in net.neurons}   # (drive, v, state) bytes of each row
        for b, w in enumerate(weights):
            row_net = net.with_weights(w)
            trace = simulate_network(row_net, sim)
            ref_signals, ref_onsets = reference_simulate(row_net, sim)
            assert set(trace.signals) == set(ref_signals) == set(signals)
            for key, ref in ref_signals.items():
                assert same_bits(trace.signals[key], ref), (b, key)
            for nid, ref in ref_onsets.items():
                assert onsets[nid][b] == trace.spike_onsets[nid] == ref, (b, nid)
            for nid in per_row:
                per_row[nid].add(tuple(trace.signals[f"{nid}.{kind}"].tobytes()
                                       for kind in ("drive", "v", "state")))
        # one schedule per source: one voltage row each
        for src in net.sources:
            assert same_bits(signals[f"{src.id}.v"], trace.signals[f"{src.id}.v"][None, :])
        # the deduplicated rows of each neuron are exactly the rows' own arrays
        for nid, expected in per_row.items():
            arrays = [signals[f"{nid}.{kind}"] for kind in ("drive", "v", "state")]
            assert {tuple(a[r].tobytes() for a in arrays)
                    for r in range(arrays[0].shape[0])} == expected, nid

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(batched_networks())
    def test_tlr_networks(self, case):
        self.check(*case)

    @settings(max_examples=6, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(batched_networks(macrospin=True))
    def test_with_a_macrospin_neuron(self, case):
        self.check(*case)


class TestKernelContract:
    """Each ``_KERNELS`` entry returns the same onsets whichever of ``v`` and
    ``state`` it is handed, and fills each one it gets, row by row, with the
    one-row oracle's voltage and state, bit for bit."""

    DT = 0.005

    def oracle(self, backend, params, row):
        if backend == "tlr":
            run = reference_run_tlr(params, row, self.DT)
            return run.v_out, run.accumulation, run.onsets
        trace = integrate_macrospin(initial_state(params), params, row, self.DT)
        return params.v_dd - trace.v_node, trace.alignment(), reference_switching_times(trace)

    @pytest.mark.parametrize("backend", sorted(_KERNELS))
    def test_fills_only_what_it_is_handed(self, backend):
        t = self.DT * np.arange(601)
        if backend == "tlr":
            params = TlrParams(t_refractory=1.0)
            drive = np.stack([np.where(t < 2.0, level, 0.0) for level in (0.5, 1.3, 2.5)])
        else:
            params = MacrospinParams()
            drive = np.stack([np.full(t.size, level) for level in (0.0, 1.5, 2.0)])
        refs = [self.oracle(backend, params, row) for row in drive]
        assert sum(len(ref[2]) for ref in refs) >= 2
        for with_v in (False, True):
            for with_state in (False, True):
                v = np.zeros(drive.shape) if with_v else None
                state = np.zeros(drive.shape) if with_state else None
                onsets = _KERNELS[backend](params, drive, self.DT, v=v, state=state)
                assert onsets == [ref[2] for ref in refs]
                for r, (ref_v, ref_state, _) in enumerate(refs):
                    assert v is None or same_bits(v[r], ref_v), r
                    assert state is None or same_bits(state[r], ref_state), r

    def test_one_signature(self):
        positional = inspect.Parameter.POSITIONAL_OR_KEYWORD
        keyword = inspect.Parameter.KEYWORD_ONLY
        expected = [("params", positional), ("drive", positional), ("dt", positional),
                    ("v", keyword), ("state", keyword)]
        for backend, kernel in _KERNELS.items():
            parameters = inspect.signature(kernel).parameters.values()
            assert [(p.name, p.kind) for p in parameters] == expected, backend


@pytest.mark.parametrize("call", [
    lambda: run_tlr(TlrParams(), np.full(11, 2.0), 0.005, t0=1.3),
    lambda: MacrospinState(np.array([-1.0, 0.0, 0.0]), t=0.75),
    lambda: TrainConfig(no_spike_penalty_time=1.0),
    lambda: uniform_network(bias_to_output=False),
    lambda: XorRow(0, 0, bias=1),
    lambda: train(uniform_network(), xor_dataset(), TrainConfig(max_epochs=1), output_id="o1"),
    lambda: find_switching_threshold(MacrospinParams(), tilt_deg=1.0),
    lambda: calibrate_tlr(MacrospinParams(), (1.0,), tilt_deg=1.0),
    lambda: build_xor_network(TlrParams(), source_duration=1.2),
    lambda: build_xor_network({nid: TlrParams() for nid in NEURON_IDS}),
], ids=["run_tlr-t0", "MacrospinState-t", "TrainConfig-no_spike_penalty_time",
        "build_xor_network-bias_to_output", "XorRow-bias", "train-output_id",
        "find_switching_threshold-tilt_deg", "calibrate_tlr-tilt_deg",
        "build_xor_network-shared_params", "build_xor_network-source_duration"])
def test_fixed_choices_take_no_argument(call):
    # every grid starts at 0, a silent output scores sim.horizon, the XOR
    # preset always has its bias->o1 edge and its bias input always on,
    # training always reads o1, the threshold search and the calibration
    # probe from measure_latency's default tilt, and the XOR network takes
    # per-neuron params and its source pulse length from the caller
    with pytest.raises(TypeError):
        call()


class TestWorkspaceDifferential:
    """``_simulate`` in lean mode, as in training, against a full call.  Two
    lean calls follow each other, as across training epochs: a
    finite-difference batch of 2E + 1 rows, then at most 2E drawn rows with
    other weights and repeated rows.  Every onset and every voltage a
    synapse reads is bitwise equal; the state series and the voltages no
    synapse reads are left out."""

    def check(self, net, weights, sim):
        n_edges = len(net.synapses)
        fd = np.repeat(weights[:1], 2 * n_edges + 1, axis=0)
        fd[2 * np.arange(n_edges) + 1, np.arange(n_edges)] += 1e-3
        fd[2 * np.arange(n_edges) + 2, np.arange(n_edges)] -= 1e-3
        read = {s.pre for s in net.synapses}
        backend = {n.id: n.backend for n in net.neurons}

        def computed(key):
            nid, kind = key.rsplit(".", 1)
            return nid not in backend or kind == "drive" or kind == "v" and nid in read

        for batch in (fd, weights[: max(2 * n_edges, 1)]):
            time, signals, onsets = _simulate(net, batch, sim, lean=True)
            ref_time, ref_signals, ref_onsets = _simulate(net, batch, sim)
            assert same_bits(time, ref_time)
            assert onsets == ref_onsets
            kept = {key for key in ref_signals if computed(key)}
            assert set(signals) == kept
            for key in kept:
                assert same_bits(signals[key], ref_signals[key]), key

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(batched_networks())
    def test_tlr_networks(self, case):
        self.check(*case)

    @settings(max_examples=3, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(batched_networks(macrospin=True))
    def test_with_a_macrospin_neuron(self, case):
        self.check(*case)


@st.composite
def scheduled_networks(draw, macrospin=False):
    """``batched_networks`` with one schedule dict per batch row.  The dicts
    come from a pool of 1-3, each giving a random subset of the sources
    spike times of their own, none among them (a source silent on those
    rows only) or ``-0.0``.  Rows share a dict, or hold equal copies."""
    net, weights, sim = draw(batched_networks(macrospin))
    n_steps = int(round(sim.horizon / sim.dt))
    on_grid = st.one_of(st.just(-0.0), st.integers(0, n_steps).map(lambda k: k * sim.dt))
    ids = [src.id for src in net.sources]
    pool = [{sid: sorted(draw(st.lists(on_grid, max_size=3)))
             for sid in draw(st.lists(st.sampled_from(ids), unique=True))}
            for _ in range(draw(st.integers(1, 3)))]
    picks = draw(st.lists(st.integers(0, len(pool) - 1),
                          min_size=len(weights), max_size=len(weights)))
    copies = draw(st.booleans())
    schedules = [dict(pool[k]) if copies and b % 2 else pool[k] for b, k in enumerate(picks)]
    return net, weights, sim, schedules


class TestScheduleDifferential:
    """``_simulate`` with a schedule per batch row: each row's onsets, in
    full and in lean mode, are those of ``simulate_network`` on that row's
    weights and schedules, down to the sign of a zero, and the rows of
    every full-mode signal are exactly the rows' own signals."""

    def check(self, net, weights, sim, schedules):
        _, signals, onsets = _simulate(net, weights, sim, schedules=schedules)
        lean = _simulate(net, weights, sim, schedules=schedules, lean=True)[2]
        per_row = {key: set() for key in signals}
        for b, (w, schedule) in enumerate(zip(weights, schedules)):
            trace = simulate_network(net.with_weights(w).with_schedules(schedule), sim)
            for nid, expected in trace.spike_onsets.items():
                assert repr(onsets[nid][b]) == repr(lean[nid][b]) == repr(expected), (b, nid)
            assert set(trace.signals) == set(signals)
            for key, signal in trace.signals.items():
                per_row[key].add(signal.tobytes())
        for key, expected in per_row.items():
            assert {row.tobytes() for row in signals[key]} == expected, key

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(scheduled_networks())
    def test_tlr_networks(self, case):
        self.check(*case)

    @settings(max_examples=3, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(scheduled_networks(macrospin=True))
    def test_with_a_macrospin_neuron(self, case):
        self.check(*case)

    def test_unknown_source_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown source 'zz'"):
            _simulate(chain_network(), np.ones((2, 1)), SimConfig(dt=0.005, horizon=1.0),
                      schedules=[{"src": [0.0]}, {"zz": [0.0]}])


class TestPrefixGrid:
    """Both kernels are causal: the first m steps of a grid give each row a
    list prefix of the full grid's onsets.  ``_simulate(..., steps=m)``
    relies on it, and the trainer's prefix grid relies on that."""

    DT = 0.005

    @pytest.mark.parametrize("backend", sorted(_KERNELS))
    def test_kernel_onsets_of_a_drive_prefix(self, backend):
        t = self.DT * np.arange(601)
        if backend == "tlr":
            params = TlrParams(t_refractory=0.4, latency_floor=0.1)
            drive = np.stack([np.where(t < 2.5, level, 0.0) for level in (0.5, 1.3, 2.5, 40.0)])
        else:
            params = MacrospinParams()
            drive = np.stack([np.full(t.size, level) for level in (0.0, 1.5, 2.0)])
        full = _KERNELS[backend](params, drive, self.DT)
        assert sum(len(row) for row in full) >= 2
        cut = 0
        for m in (1, 2, 37, 100, 173, 250, 331, 480, 599, 600):
            part = _KERNELS[backend](params, drive[:, : m + 1], self.DT)
            for p_row, f_row in zip(part, full):
                assert p_row == f_row[: len(p_row)], m
                cut += len(f_row) - len(p_row)
        assert part == full
        assert cut > 0   # some prefixes end before some onsets

    @settings(max_examples=30, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(batched_networks(), st.floats(0.0, 1.0))
    def test_random_networks(self, case, fraction):
        """On random networks, in full mode and in lean mode followed by a
        lean full-grid call (as in training): the prefix grid is the full
        grid's start, and every onset list a list prefix."""
        net, weights, sim = case
        n_steps = int(round(sim.horizon / sim.dt))
        m = max(1, int(fraction * n_steps))
        full_time, full_signals, full = _simulate(net, weights, sim)
        for lean in (False, True):
            time, signals, part = _simulate(net, weights, sim, m, lean=lean)
            assert same_bits(time, full_time[: m + 1])
            for src in net.sources:
                key = f"{src.id}.v"
                assert same_bits(signals[key], full_signals[key][:, : m + 1])
            for nid, rows in full.items():
                for b, row in enumerate(rows):
                    assert part[nid][b] == row[: len(part[nid][b])], (nid, b)
            if lean:
                assert _simulate(net, weights, sim, lean=True)[2] == full


class TestSilentEdges:
    """An edge whose presynaptic signal is zero in a row adds
    ``w * 0 = +-0.0`` there to a drive that starts at ``+0.0``, which changes
    no bit, and keys that row as ``(0.0, 0)`` in the dedup, so rows that
    differ only in such weights share one kernel row."""

    SIM = SimConfig(dt=0.005, horizon=4.0)

    def network(self):
        # "off" has no spike; "mute" sees 0.5 < i_threshold and never fires;
        # "gate" fires only in the last row, so its edge to "o" is live
        return Network(
            neurons=(Neuron("o"), Neuron("mute"), Neuron("gate")),
            synapses=(Synapse("on", "o", 0.0), Synapse("off", "o", 0.0),
                      Synapse("on", "mute", 0.0), Synapse("mute", "o", 0.0),
                      Synapse("off", "mute", 0.0), Synapse("on", "gate", 0.0),
                      Synapse("gate", "o", 0.0)),
            sources=(Source("on", (0.5,), 1.0, 1.2), Source("off", (), 1.0, 1.2)),
        )

    def weights(self):
        rows = np.array([[3.0, -2.0, 0.5, 1.5, 4.0, 0.5, 1.0]] * 7)
        rows[1, 1] = 7.25          # off -> o
        rows[2, 3] = -0.125        # mute -> o
        rows[3, 4] = -3.5          # off -> mute
        rows[4, [1, 3, 4]] = 0.0
        rows[5, 0] = 2.5           # on -> o
        rows[6, 5] = 3.0           # on -> gate: gate fires
        return rows

    def test_rows_match_the_one_row_oracle(self):
        net, weights = self.network(), self.weights()
        for lean in (False, True):
            _, signals, onsets = _simulate(net, weights, self.SIM, lean=lean)
            # rows that differ only in silent edges share one kernel row
            assert signals["o.drive"].shape[0] == 3
            assert signals["mute.drive"].shape[0] == 1
            assert signals["gate.drive"].shape[0] == 2
            for b, w in enumerate(weights):
                ref_signals, ref_onsets = reference_simulate(net.with_weights(w), self.SIM)
                for nid in ("o", "mute", "gate"):
                    assert onsets[nid][b] == ref_onsets[nid], (b, nid)
                    assert any(same_bits(row, ref_signals[f"{nid}.drive"])
                               for row in signals[f"{nid}.drive"]), (b, nid)
            assert all(onsets["o"]) and onsets["mute"] == [[]] * 7
            assert [bool(row) for row in onsets["gate"]] == [False] * 6 + [True]

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_weight_on_a_silent_edge_rejected(self, bad):
        weights = self.weights()
        weights[2, 1] = bad        # off -> o
        for lean in (False, True):
            with pytest.raises(InvalidInputError, match="weights must be finite"):
                _simulate(self.network(), weights, self.SIM, lean=lean)


class TestNeverStopsFiring:
    """A TLR neuron with neither refraction nor a latency floor re-arms at its
    own onset, and under a huge drive would fire without end: at 1e10 its
    onsets pass the kernel's budget, at 1e300 they stop advancing.  Either
    raises NumericalFailureError naming the neuron, in well under 1 s."""

    @pytest.mark.parametrize("weight,reason", [(1e10, "more than 2048 spike onsets"),
                                               (1e300, "spike onsets stopped advancing")])
    def test_fails_fast_naming_the_neuron(self, weight, reason):
        net = chain_network(weight, t_refractory=0.0, latency_floor=0.0)
        start = time.process_time()
        with time_limit(10), pytest.raises(NumericalFailureError, match=f"neuron 'n': {reason}"):
            simulate_network(net, SimConfig(dt=0.01, horizon=5.0))
        assert time.process_time() - start < 1.0


class TestOverflowingDrive:
    def test_names_the_neuron_without_a_warning(self):
        # two finite in-edges whose sum overflows to inf
        net = Network(neurons=(Neuron("n"),),
                      synapses=(Synapse("s", "n", 1e308), Synapse("s", "n", 1e308)),
                      sources=(Source("s", (0.0,)),))
        with pytest.raises(InvalidInputError, match="neuron 'n': drive must be finite"):
            simulate_network(net, SimConfig(dt=0.01, horizon=5.0))

    def test_macrospin_names_the_neuron_before_any_step(self, monkeypatch):
        # the gate samples are checked once, before the first RK4 step
        calls = []
        monkeypatch.setattr(macrospin, "_integrate", lambda *a, **k: calls.append(a))
        net = Network(neurons=(Neuron("n", "macrospin", MacrospinParams()),),
                      synapses=(Synapse("s", "n", 1e308), Synapse("s", "n", 1e308)),
                      sources=(Source("s", (0.0,)),))
        with pytest.raises(InvalidInputError, match="neuron 'n': v_gate must be finite"):
            simulate_network(net, SimConfig(dt=0.005, horizon=1.0))
        assert calls == []

    @pytest.mark.parametrize("backend,params,message,key", [
        ("tlr", TlrParams(), "neuron 'n': drive must be finite", "drive"),
        ("macrospin", MacrospinParams(), "neuron 'n': v_gate must be finite", "v_gate"),
    ], ids=["tlr", "macrospin"])
    def test_named_error_keeps_its_type_and_key(self, backend, params, message, key):
        # unchecked, naming the neuron built a new error and dropped the key
        net = Network(neurons=(Neuron("n", backend, params),),
                      synapses=(Synapse("s", "n", 1e308), Synapse("s", "n", 1e308)),
                      sources=(Source("s", (0.0,)),))
        with pytest.raises(InvalidInputError) as e:
            simulate_network(net, SimConfig(dt=0.005, horizon=1.0))
        assert type(e.value) is InvalidInputError
        assert str(e.value) == message
        assert e.value.key == key


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


def assert_matches_reference(trace, tmp_path):
    trace.to_csv(tmp_path / "new.csv")
    reference_to_csv(trace, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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

    def test_negative_zero_in_zero_row(self, tmp_path):
        a, b = np.zeros(6), np.zeros(6)
        a[2] = -0.0
        b[4] = -0.0
        assert_matches_reference(Trace(0.25 * np.arange(6), {"a.v": a, "b.v": b}, {}), tmp_path)

    def test_zero_rows_at_chunk_edges(self, tmp_path):
        n = 4100
        rng = np.random.default_rng(6)
        signals = {name: rng.standard_normal(n) for name in ("a.v", "b.drive", "c.state")}
        for col in signals.values():
            col[[0, 2047, 2048, 4095, n - 1]] = 0.0
            col[[2046, 2049, 4094, 4096]] = -0.0
        assert_matches_reference(Trace(0.001 * np.arange(n), signals, {}), tmp_path)

    def test_all_zero_and_no_zero_columns(self, tmp_path):
        n = 3000
        signals = {"zero.v": np.zeros(n), "dense.v": 1.0 + np.arange(n) / 7.0}
        assert_matches_reference(Trace(0.001 * np.arange(n), signals, {}), tmp_path)

    def test_nan_and_inf_cells(self, tmp_path):
        a = np.array([np.nan, 0.0, np.inf, -np.inf, 0.0, -np.nan, 1.5])
        assert_matches_reference(
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


class TestCsvChunkMemo:
    """``_write_csvs`` formats each distinct (row block, bytes) chunk once."""

    def test_each_distinct_chunk_formatted_once(self, tmp_path, monkeypatch, xor_config_path):
        from collections import Counter

        from mtjsnn.cli import _run_training
        from mtjsnn.xorbench import run_xor_eval, write_row_traces

        cfg = load_config(xor_config_path)
        net, _ = _run_training(cfg, 2)
        traces = run_xor_eval(net, cfg.sim, cfg.encoding).traces
        log = tmp_path / "formatted.log"
        real = network._format_column

        def digest(seg):
            return hashlib.sha256(seg.tobytes()).hexdigest()

        def recording(seg):
            # one O_APPEND write per call, so the forked writer's calls count too
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            try:
                os.write(fd, (digest(seg) + "\n").encode())
            finally:
                os.close(fd)
            return real(seg)

        monkeypatch.setattr(network, "_format_column", recording)
        write_row_traces(traces, tmp_path)
        monkeypatch.undo()
        formatted = log.read_text().split()

        n, size = network._CSV_CHUNK_ROWS, traces[0].time.size
        columns = [traces[0].time] + [s for t in traces for s in t.signals.values()]
        distinct = Counter()
        for lo in range(0, size, n):
            distinct.update({digest(c[lo : lo + n]) for c in columns})
        assert Counter(formatted) == distinct
        assert len(formatted) < len(columns) * math.ceil(size / n) / 2
        for k, trace in enumerate(traces, start=1):
            for kind, suffix in (("drive", "drive"), ("v", "voltage"), ("state", "state")):
                sub = Trace(trace.time, {name: s for name, s in trace.signals.items()
                                         if name.endswith("." + kind)}, {})
                reference_to_csv(sub, tmp_path / "old.csv")
                assert ((tmp_path / f"row{k}_{suffix}.csv").read_bytes()
                        == (tmp_path / "old.csv").read_bytes())

    def test_columns_differing_in_one_signed_zero_or_nan_cell(self, tmp_path):
        n = 700   # two write chunks: signed zeros in the first, nans in the second
        base = np.random.default_rng(7).standard_normal(n)
        base[3] = 0.0
        base[[600, 650]] = np.nan
        neg_zero, payload, neg_nan = base.copy(), base.copy(), base.copy()
        neg_zero[3] = -0.0
        payload.view(np.uint64)[600] ^= 1   # another nan payload
        neg_nan[650] = -np.nan
        assert np.isnan(payload[600]) and np.signbit(neg_nan[650])
        signals = {"a.v": base, "b.v": neg_zero, "c.v": payload, "d.v": neg_nan}
        trace = Trace(0.001 * np.arange(n), signals, {})
        trace.to_csv(tmp_path / "new.csv")
        reference_to_csv(trace, tmp_path / "old.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        rows = (tmp_path / "new.csv").read_text().splitlines()
        assert rows[4].split(",")[1:3] == ["0.0", "-0.0"]

    @pytest.mark.parametrize("other_time", [0.002 * np.arange(11), 0.001 * np.arange(12)])
    def test_row_traces_on_two_grids_rejected(self, tmp_path, other_time):
        from mtjsnn.xorbench import write_row_traces

        (tmp_path / "row1_drive.csv").write_text("old\n")
        traces = [Trace(0.001 * np.arange(11), {"n.v": np.ones(11)}, {}),
                  Trace(other_time, {"n.v": np.ones(other_time.size)}, {})]
        with pytest.raises(InvalidInputError, match="one time grid"):
            write_row_traces(traces, tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["row1_drive.csv"]
        assert (tmp_path / "row1_drive.csv").read_text() == "old\n"


def random_signals(n, names, seed=8):
    """Signals of ``n`` rows, mostly exact zeros, with some signed zeros."""
    rng = np.random.default_rng(seed)
    signals = {}
    for name in names:
        col = rng.standard_normal(n) * (rng.random(n) < 0.3)
        col[rng.random(n) < 0.05] = -0.0
        signals[name] = col
    return signals


def no_space():
    raise OSError(errno.ENOSPC, "No space left on device", "tail")


class TestCsvSplit:
    """A write of more than one chunk: a forked child writes the last half of
    the chunks into unnamed tail files, which are appended to the targets."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("rows", [1, 512, 513, 1025, 1537])
    def test_bytes_match_reference(self, tmp_path, rows):
        trace = Trace(0.001 * np.arange(rows), random_signals(rows, ("a.v", "b.drive")), {})
        assert_matches_reference(trace, tmp_path)

    def test_three_files_match_reference(self, tmp_path):
        n = 1537
        time = 0.001 * np.arange(n)
        signals = random_signals(n, ("a.v", "b.v", "c.v", "d.v"))
        parts = [{"a.v": signals["a.v"]}, {"b.v": signals["b.v"], "a.v": signals["a.v"]},
                 {"c.v": signals["c.v"], "d.v": signals["d.v"]}]
        paths = [tmp_path / f"new{k}.csv" for k in range(3)]
        network._write_csvs(time, list(zip(paths, parts)))
        for path, part in zip(paths, parts):
            reference_to_csv(Trace(time, part, {}), tmp_path / "old.csv")
            assert path.read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("rows", [1, 1537])
    def test_failed_fork_writes_serially(self, tmp_path, monkeypatch, rows):
        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        trace = Trace(0.001 * np.arange(rows), random_signals(rows, ("a.v", "b.drive")), {})
        assert_matches_reference(trace, tmp_path)

    @staticmethod
    def in_child(monkeypatch, action):
        """Make ``_format_column`` run ``action()`` first when it runs in a
        forked child."""
        parent, real = os.getpid(), network._format_column

        def formatting(seg):
            if os.getpid() != parent:
                action()
            return real(seg)

        monkeypatch.setattr(network, "_format_column", formatting)

    @pytest.mark.parametrize("action, expected", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         OSError(f"the CSV writer's second process was killed by signal {int(signal.SIGKILL)}")),
        (lambda: os._exit(7), OSError("the CSV writer's second process exited with status 7")),
        (no_space, OSError(errno.ENOSPC, "No space left on device", "tail")),
    ], ids=["sigkill", "exit-status", "child-raises"])
    def test_child_failure_fails_the_write(self, tmp_path, monkeypatch, action, expected):
        from mtjsnn.defaults import xor_reference_network
        from mtjsnn.xorbench import run_xor_eval, write_row_traces

        traces = run_xor_eval(xor_reference_network(), SimConfig(dt=0.001, horizon=5.0)).traces
        (tmp_path / "row1_drive.csv").write_text("old\n")
        self.in_child(monkeypatch, action)
        with pytest.raises(OSError) as e:
            write_row_traces(traces, tmp_path)
        assert (str(e.value), e.value.errno) == (str(expected), expected.errno)
        # the twelve files are replaced together: none is, and none is left
        assert [p.name for p in tmp_path.iterdir()] == ["row1_drive.csv"]
        assert (tmp_path / "row1_drive.csv").read_text() == "old\n"

    def test_child_that_dies_exits_3(self, tmp_path, monkeypatch, capsys, xor_config_path):
        from mtjsnn.cli import EXIT_SIMULATION, main

        self.in_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        out = tmp_path / "out"
        assert main(["simulate", "--config", xor_config_path, "--out", str(out)]) \
            == EXIT_SIMULATION
        assert capsys.readouterr().err == (
            "output error: the CSV writer's second process was killed by signal "
            f"{int(signal.SIGKILL)}\n")
        assert os.listdir(out) == []

    @pytest.mark.parametrize("message, escapes", [
        ("This process (pid=4242) is multi-threaded, use of fork() may lead to deadlocks in "
         "the child.", False),
        ("fork is deprecated", True),
    ], ids=["threads", "other"])
    def test_only_the_fork_thread_warning_is_ignored(self, tmp_path, monkeypatch, message,
                                                     escapes):
        real_fork = os.fork

        def warning_fork():
            warnings.warn(message, DeprecationWarning, stacklevel=2)
            return real_fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        trace = Trace(0.001 * np.arange(1025), random_signals(1025, ("a.v",)), {})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert_matches_reference(trace, tmp_path)
        assert [str(w.message) for w in caught] == ([message] if escapes else [])


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle")


class NeedsTwoArguments(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} {b}")


class TestWriteTails:
    """The forked child's work, run in this process."""

    def tables(self, n=1025):
        time = 0.001 * np.arange(n)
        return time, [(None, [time, random_signals(n, ("a.v",))["a.v"]])]

    def test_writes_the_given_chunks_and_flushes(self, tmp_path):
        time, tables = self.tables()
        with tempfile.TemporaryFile("w+") as tail:
            assert network._write_tails(tables, [tail], range(512, 1025, 512)) == b""
            assert os.fstat(tail.fileno()).st_size > 0
            tail.seek(0)
            lines = tail.read().splitlines()
        assert len(lines) == 1025 - 512
        assert lines[0].split(",")[0] == repr(float(time[512]))

    @pytest.mark.parametrize("exc, expected", [
        (ConfigError("bad", key="a.b"), ConfigError),
        (Unpicklable("no"), OSError),
        (NeedsTwoArguments(1, 2), OSError),
        (RuntimeError("x" * 10000), OSError),
    ], ids=["picklable", "unpicklable", "does-not-load", "longer-than-pipe-buf"])
    def test_exception_sent_pickled(self, monkeypatch, exc, expected):
        def failing(seg):
            raise exc

        monkeypatch.setattr(network, "_format_column", failing)
        _, tables = self.tables()
        with tempfile.TemporaryFile("w") as tail:
            payload = network._write_tails(tables, [tail], range(512, 1025, 512))
        assert 0 < len(payload) <= select.PIPE_BUF
        sent = pickle.loads(payload)
        assert type(sent) is expected
        if expected is OSError:
            assert str(sent) == f"the CSV writer's second process raised {type(exc).__name__}"
        else:
            assert (str(sent), sent.key) == ("bad", "a.b")


def write_each(text):
    """An ``atomic_write`` writer that puts ``text`` in each temporary."""
    def writer(*tmps):
        for tmp in tmps:
            with open(tmp, "w") as fh:
                fh.write(text)
    return writer


class TestAtomicWrite:
    @pytest.mark.parametrize("kind, draws", [
        ("tmp", [b"\0" * 6, b"\1" * 6, b"\2" * 6]),   # the temporary's first name
        ("bak", [b"\1" * 6, b"\0" * 6, b"\2" * 6]),   # the backup's first name
    ])
    def test_taken_name_draws_again(self, tmp_path, monkeypatch, kind, draws):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        taken = tmp_path / f".{kind}-000000000000~"
        taken.write_text("taken\n")
        names = iter(draws)
        monkeypatch.setattr(os, "urandom", lambda n: next(names))
        atomic_write([str(target)], write_each("new\n"))
        assert next(names, None) is None   # each draw was used
        assert target.read_text() == "new\n"
        assert taken.read_text() == "taken\n"
        assert sorted(os.listdir(tmp_path)) == [taken.name, "out.txt"]

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_mode_follows_the_umask_without_reading_it(self, tmp_path, monkeypatch, umask,
                                                       mode):
        def no_umask(mask):
            raise AssertionError("os.umask called")

        paths = [str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]
        (tmp_path / "b.txt").write_text("old\n")
        old = os.umask(umask)
        try:
            with monkeypatch.context() as m:
                m.setattr(os, "umask", no_umask)
                atomic_write(paths, write_each("new\n"))
        finally:
            os.umask(old)
        assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]
        assert {os.stat(p).st_mode & 0o777 for p in paths} == {mode}
