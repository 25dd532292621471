"""Network engine: topology validation, drive superposition, simulation,
the batched core behind it and the trace CSV writer."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_macrospin import reference_switching_times
from test_tlr import reference_run_tlr

from mtjsnn.config import load_config
from mtjsnn.errors import InvalidInputError
from mtjsnn.macrospin import MacrospinParams, initial_state, integrate_macrospin
from mtjsnn.network import (
    Network,
    Neuron,
    SimConfig,
    Source,
    Synapse,
    Trace,
    _KERNELS,
    _simulate,
    first_spike_time,
    simulate_network,
    validate_topology,
)
from mtjsnn.tlr import TlrParams, constant_drive_latency, source_waveform
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

    def test_returned_arrays_never_reused(self):
        net = build_xor_network().with_schedules({"A": [0.0], "B": [0.5], "bias": [0.0]})
        sim = SimConfig(dt=0.002, horizon=5.0)
        first = simulate_network(net, sim)
        _simulate(net, np.repeat(net.weight_vector()[None, :], 3, axis=0), sim, {})
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
            rel_refraction_beta=draw(st.one_of(st.just(0.0), st.floats(0.01, 2.0))),
            rel_refraction_tau=uniform(0.1, 3.0),
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
        for src in net.sources:
            assert same_bits(signals[f"{src.id}.v"], trace.signals[f"{src.id}.v"])
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


class TestWorkspaceDifferential:
    """``_simulate`` with a training workspace against ``_simulate`` without
    one.  One workspace serves two calls, as across training epochs: a
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

        workspace = {}
        for batch in (fd, weights[: max(2 * n_edges, 1)]):
            time, signals, onsets = _simulate(net, batch, sim, workspace)
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


class TestCsvChunkMemo:
    """``_write_csvs`` formats each distinct (row block, bytes) chunk once."""

    def test_each_distinct_chunk_formatted_once(self, tmp_path, monkeypatch, xor_config_path):
        from collections import Counter

        from mtjsnn import network
        from mtjsnn.cli import _run_training
        from mtjsnn.xorbench import run_xor_eval, write_row_traces

        cfg = load_config(xor_config_path)
        net, _ = _run_training(cfg, 2)
        traces = run_xor_eval(net, cfg.sim, cfg.encoding).traces
        formatted = []
        real = network._format_column

        def recording(seg):
            formatted.append(seg.tobytes())
            return real(seg)

        monkeypatch.setattr(network, "_format_column", recording)
        write_row_traces(traces, tmp_path)
        monkeypatch.undo()

        n, size = network._CSV_CHUNK_ROWS, traces[0].time.size
        columns = [traces[0].time] + [s for t in traces for s in t.signals.values()]
        distinct = Counter()
        for lo in range(0, size, n):
            distinct.update({c[lo : lo + n].tobytes() for c in columns})
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
