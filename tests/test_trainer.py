"""Trainer: loss arithmetic, FD jacobians, descent behavior, and the batched
FD epoch against the per-simulation FD rule."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mtjsnn import trainer
from mtjsnn.errors import DivergenceError, InvalidInputError
from mtjsnn.network import (
    Network,
    Neuron,
    SimConfig,
    Source,
    Synapse,
    first_spike_time,
    simulate_network,
)
from mtjsnn.tlr import TlrParams
from mtjsnn.trainer import (
    TrainConfig,
    loss,
    loss_gradient_time,
    train,
    weight_update,
)

finite_times = st.floats(min_value=-10.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False)


def chain_network(weight):
    return Network(
        neurons=(Neuron("o1", "tlr", TlrParams()),),
        synapses=(Synapse("src", "o1", weight),),
        sources=(Source("src", amplitude=1.0, duration=2.0),),
    )


class TestLoss:
    def test_examples(self):
        assert loss(2.5, 2.5) == 0.0
        assert loss(2.0, 2.5) == 0.125

    @given(finite_times, finite_times)
    def test_symmetric_and_nonnegative(self, a, b):
        assert loss(a, b) == loss(b, a)
        assert loss(a, b) >= 0.0
        if a == b:
            assert loss(a, b) == 0.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            loss(float("nan"), 1.0)


class TestLossGradient:
    def test_examples(self):
        assert loss_gradient_time(2.5, 2.0) == 0.5
        assert loss_gradient_time(2.0, 2.0) == 0.0

    @pytest.mark.parametrize("delta", [1e-3, 0.05, 0.3, 1.0])
    def test_matches_central_fd(self, delta):
        t_des = 2.0
        t_act = t_des + delta
        h = 1e-5
        fd = (loss(t_act + h, t_des) - loss(t_act - h, t_des)) / (2 * h)
        grad = loss_gradient_time(t_act, t_des)
        assert abs(grad - fd) <= 1e-9 * max(1.0, abs(grad))


class TestWeightUpdate:
    def test_eq2_arithmetic(self):
        assert weight_update(0.5, -1.0, 0.1) == pytest.approx(0.05)
        assert weight_update(0.0, 3.0, 0.1) == 0.0

    @given(finite_times, finite_times, st.floats(min_value=0.0, max_value=5.0))
    def test_bilinear(self, g, j, eta):
        assert weight_update(2 * g, j, eta) == pytest.approx(2 * weight_update(g, j, eta))
        assert weight_update(g, 2 * j, eta) == pytest.approx(2 * weight_update(g, j, eta))
        assert weight_update(g, j, 2 * eta) == pytest.approx(2 * weight_update(g, j, eta))


class TestJacobianFd:
    STIM = {"src": [0.0]}
    SIM = SimConfig(dt=0.002, horizon=5.0)

    def test_negative_for_stronger_drive(self):
        # latency law is decreasing: more weight, earlier spike
        net = chain_network(5.0)
        jac = spike_time_jacobian_fd(net, self.STIM, 0, 1e-3, sim=self.SIM)
        assert jac < 0

    def test_no_path_zero(self):
        net = Network(
            neurons=(Neuron("o1"), Neuron("other")),
            synapses=(Synapse("src", "o1", 5.0), Synapse("src", "other", 0.0)),
            sources=(Source("src", amplitude=1.0, duration=2.0),),
        )
        jac = spike_time_jacobian_fd(net, self.STIM, 1, 1e-3, sim=self.SIM)
        assert jac == 0.0

    def test_richardson_consistency(self):
        net = chain_network(5.0)
        j1 = spike_time_jacobian_fd(net, self.STIM, 0, 2e-3, sim=self.SIM)
        j2 = spike_time_jacobian_fd(net, self.STIM, 0, 1e-3, sim=self.SIM)
        assert abs(j1 - j2) <= 0.01 * abs(j2)

    def test_silent_both_sides_zero(self):
        net = chain_network(0.01)  # far below threshold
        jac = spike_time_jacobian_fd(net, self.STIM, 0, 1e-3, sim=self.SIM)
        assert jac == 0.0

    def test_one_sided_at_firing_boundary(self, monkeypatch):
        eps = 1e-3

        def t_out(weight):
            net = chain_network(weight).with_schedules(self.STIM)
            return first_spike_time(simulate_network(net, self.SIM), "o1")

        # bisect the firing boundary; at the last silent weight w, w - eps
        # stays silent while w + eps fires
        lo, hi = 0.0, 5.0
        assert t_out(lo) is None and t_out(hi) is not None
        while hi - lo > eps / 2:
            mid = 0.5 * (lo + hi)
            if t_out(mid) is None:
                lo = mid
            else:
                hi = mid
        t_plus = t_out(lo + eps)
        assert t_out(lo - eps) is None and t_out(lo) is None and t_plus is not None
        t_base = self.SIM.horizon  # silent base counts as the no-spike penalty
        expected = (t_plus - t_base) / eps

        calls = []
        real = simulate_network

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setitem(globals(), "simulate_network", counting)
        net = chain_network(lo)
        assert spike_time_jacobian_fd(net, self.STIM, 0, eps, sim=self.SIM) == expected
        assert len(calls) == 3   # +eps, -eps, then the unperturbed base
        calls.clear()
        jac = spike_time_jacobian_fd(net, self.STIM, 0, eps, sim=self.SIM, t_base=t_base)
        assert jac == expected
        assert len(calls) == 2   # a given t_base spares the base simulation

    def test_bad_edge_index(self):
        with pytest.raises(InvalidInputError):
            spike_time_jacobian_fd(chain_network(5.0), self.STIM, 7, 1e-3, sim=self.SIM)


class TestTrain:
    SIM = SimConfig(dt=0.002, horizon=5.0)

    def one_weight_problem(self, weight=4.0, target=1.5):
        net = chain_network(weight)
        dataset = [({"src": [0.0]}, target)]
        return net, dataset

    def test_already_satisfied_is_fixed_point(self):
        net, dataset = self.one_weight_problem()
        from mtjsnn.network import first_spike_time, simulate_network
        t0 = first_spike_time(
            simulate_network(net.with_schedules(dataset[0][0]), self.SIM), "o1")
        dataset = [(dataset[0][0], t0)]
        out, hist = train(net, dataset, TrainConfig(eta=0.1, tol=0.05), sim=self.SIM)
        assert hist.converged and hist.epochs == 1
        assert np.array_equal(out.weight_vector(), net.weight_vector())

    def test_one_dimensional_descent_converges(self):
        # target 1.0 ns sits inside the reachable latency range of this toy
        net, dataset = self.one_weight_problem(weight=4.0, target=1.0)
        out, hist = train(net, dataset, TrainConfig(eta=2.0, tol=0.02, max_epochs=500),
                          sim=self.SIM)
        assert hist.converged
        assert abs(hist.output_times[-1][0] - 1.0) <= 0.02

    def test_loss_non_increasing_small_eta(self):
        net, dataset = self.one_weight_problem(weight=4.0, target=1.5)
        _, hist = train(net, dataset, TrainConfig(eta=1e-3, tol=1e-6, max_epochs=20),
                        sim=self.SIM)
        assert all(b <= a + 1e-12 for a, b in zip(hist.losses, hist.losses[1:]))

    def test_eta_zero_freezes_weights(self):
        net, dataset = self.one_weight_problem(weight=4.0, target=1.5)
        out, hist = train(net, dataset, TrainConfig(eta=0.0, tol=1e-9, max_epochs=4),
                          sim=self.SIM)
        assert not hist.converged
        for w in hist.weights:
            assert np.array_equal(w, net.weight_vector())
        assert len(set(hist.losses)) == 1

    def test_history_losses_reevaluable(self):
        net, dataset = self.one_weight_problem(weight=4.0, target=1.5)
        _, hist = train(net, dataset, TrainConfig(eta=0.3, tol=0.02, max_epochs=50),
                        sim=self.SIM)
        from mtjsnn.network import first_spike_time, simulate_network
        for w, recorded in zip(hist.weights, hist.losses):
            trace = simulate_network(
                net.with_weights(w).with_schedules(dataset[0][0]), self.SIM)
            t = first_spike_time(trace, "o1")
            t = self.SIM.horizon if t is None else t
            assert loss(t, dataset[0][1]) == pytest.approx(recorded, abs=1e-12)

    def test_divergence_guard(self):
        # start almost converged so the 1000x bound is tiny, then overshoot
        net, dataset = self.one_weight_problem(weight=4.0)
        from mtjsnn.network import first_spike_time, simulate_network
        t0 = first_spike_time(
            simulate_network(net.with_schedules(dataset[0][0]), self.SIM), "o1")
        near_dataset = [(dataset[0][0], t0 + 1e-3)]
        with pytest.raises(DivergenceError):
            train(net, near_dataset, TrainConfig(eta=5000.0, tol=1e-9, max_epochs=100),
                  sim=self.SIM)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InvalidInputError):
            train(chain_network(4.0), [], TrainConfig())

    def test_history_csv_format(self, tmp_path):
        net, dataset = self.one_weight_problem()
        _, hist = train(net, dataset, TrainConfig(eta=0.1, tol=0.05, max_epochs=3),
                        sim=self.SIM)
        path = tmp_path / "history.csv"
        hist.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,total_loss_ns2,t_row1"
        assert len(lines) == 1 + hist.epochs


def spike_time_jacobian_fd(net, stimulus, edge_index, eps, output_id="o1", sim=None,
                           penalty=None, t_base=None):
    """Finite-difference sensitivity of the output spike time to one weight:
    the FD rule ``train`` batches, one weight and two simulations at a time.

    Central difference over two full simulations.  When the output is silent
    on one side, a one-sided difference against the unperturbed spike time
    ``t_base`` is used instead (firing boundary); a silent base counts as the
    no-spike penalty.  Silent on both sides gives 0.  Without ``t_base`` the
    one-sided case runs a third simulation of the unperturbed network.
    """
    sim = sim or SimConfig()
    if penalty is None:
        penalty = sim.horizon
    w = net.weight_vector()
    if not 0 <= edge_index < w.size:
        raise InvalidInputError(f"edge index {edge_index} out of range")

    def t_at(delta):
        wp = w.copy()
        wp[edge_index] += delta
        trace = simulate_network(net.with_weights(wp).with_schedules(stimulus), sim)
        return first_spike_time(trace, output_id)

    t_plus = t_at(+eps)
    t_minus = t_at(-eps)
    if t_base is None and (t_plus is None) != (t_minus is None):
        t0 = t_at(0.0)
        t_base = penalty if t0 is None else t0
    return trainer._fd_slope(t_plus, t_minus, t_base, eps)


def reference_train(net, dataset, config, sim, output_id="o1"):
    """Per-simulation FD training: the loop ``train`` batched.  One
    ``spike_time_jacobian_fd`` call per (row, edge), with ``t_base`` the
    row's output time, summed into ``delta`` in the same order."""
    penalty = sim.horizon if config.no_spike_penalty_time is None else config.no_spike_penalty_time
    history = trainer.TrainHistory()
    weights = net.weight_vector()
    for epoch in range(config.max_epochs):
        current = net.with_weights(weights)
        times, spiked = [], []
        for stimulus, _t_des in dataset:
            t = first_spike_time(simulate_network(current.with_schedules(stimulus), sim),
                                 output_id)
            spiked.append(t is not None)
            times.append(penalty if t is None else t)
        history.losses.append(sum(loss(t, t_des) for t, (_, t_des) in zip(times, dataset)))
        history.output_times.append([t if ok else None for t, ok in zip(times, spiked)])
        history.weights.append(weights.copy())
        history.epochs = epoch + 1
        if all(ok and abs(t - t_des) <= config.tol
               for t, ok, (_, t_des) in zip(times, spiked, dataset)):
            history.converged = True
            break
        delta = np.zeros(weights.size)
        for (stimulus, t_des), t_act in zip(dataset, times):
            grad = loss_gradient_time(t_act, t_des)
            for j in range(weights.size):
                jac = spike_time_jacobian_fd(current, stimulus, j, config.fd_epsilon,
                                             output_id, sim, t_base=t_act)
                delta[j] += weight_update(grad, jac, config.eta)
        weights = weights + delta
    return net.with_weights(weights), history


def assert_same_history(a, b):
    assert a.losses == b.losses
    assert a.output_times == b.output_times
    assert [w.tobytes() for w in a.weights] == [w.tobytes() for w in b.weights]
    assert (a.converged, a.epochs) == (b.converged, b.epochs)


class TestBatchedFdMatchesPerSimulation:
    """Batched FD update equals per-simulation FD update."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_xor_seeds(self, xor_config_path, seed):
        from mtjsnn import cli
        from mtjsnn.config import load_config
        from mtjsnn.xorbench import xor_dataset

        cfg = load_config(xor_config_path)
        net = cli.initial_weights(cfg.network, cfg.train, seed)
        dataset = xor_dataset(cfg.encoding, cfg.sim.horizon)
        sim = SimConfig(dt=cfg.train.dt, horizon=cfg.sim.horizon)
        config = dataclasses.replace(cfg.train, max_epochs=2)
        out, hist = train(net, dataset, config, sim=sim)
        ref_out, ref_hist = reference_train(net, dataset, config, sim)
        assert_same_history(hist, ref_hist)
        assert out.weight_vector().tobytes() == ref_out.weight_vector().tobytes()

    def test_firing_boundary(self):
        # o1 sits just below its firing boundary: the base row and -eps are
        # silent, +eps fires, so epoch 0 takes the one-sided slope
        sim = TestJacobianFd.SIM
        stim = TestJacobianFd.STIM
        lo, hi = 0.0, 5.0
        while hi - lo > 1e-4:
            mid = 0.5 * (lo + hi)
            fires = first_spike_time(
                simulate_network(chain_network(mid).with_schedules(stim), sim), "o1")
            lo, hi = (lo, mid) if fires is not None else (mid, hi)
        net = Network(
            neurons=(Neuron("o1", "tlr", TlrParams()), Neuron("i1", "tlr", TlrParams())),
            synapses=(Synapse("src", "o1", lo), Synapse("src", "i1", 5.0),
                      Synapse("i1", "o1", 0.0)),
            sources=(Source("src", amplitude=1.0, duration=2.0),),
        )
        dataset = [(stim, 3.0), ({"src": [0.5]}, 3.5)]
        config = TrainConfig(eta=0.5, fd_epsilon=1e-3, tol=1e-3, max_epochs=2)
        _, hist = train(net, dataset, config, sim=sim)
        _, ref_hist = reference_train(net, dataset, config, sim)
        assert hist.output_times[0] == [None, None]
        assert_same_history(hist, ref_hist)


class TestOneBatchPerRow:
    """Each epoch simulates each dataset row once: the current weights and
    their 2E finite-difference perturbations in one batch."""

    def xor_problem(self, xor_config_path, seed):
        from mtjsnn import cli
        from mtjsnn.config import load_config
        from mtjsnn.xorbench import xor_dataset

        cfg = load_config(xor_config_path)
        net = cli.initial_weights(cfg.network, cfg.train, seed)
        dataset = xor_dataset(cfg.encoding, cfg.sim.horizon)
        return net, dataset, cfg.train, SimConfig(dt=cfg.train.dt, horizon=cfg.sim.horizon)

    def test_one_simulation_call_per_row_and_epoch(self, xor_config_path, monkeypatch):
        from mtjsnn import network

        net, dataset, config, sim = self.xor_problem(xor_config_path, 2)
        config = dataclasses.replace(config, max_epochs=3)
        rows = []
        real = trainer._simulate

        def counting(net, weights, sim):
            rows.append(weights.shape[0])
            return real(net, weights, sim)

        def forbidden(*args, **kwargs):
            raise AssertionError("train called simulate_network")

        monkeypatch.setattr(trainer, "_simulate", counting)
        monkeypatch.setattr(network, "simulate_network", forbidden)
        _, hist = train(net, dataset, config, sim=sim)
        n_edges = net.weight_vector().size
        assert hist.epochs == 3 and not hist.converged
        assert rows == [2 * n_edges + 1] * (len(dataset) * hist.epochs)
        assert not hasattr(trainer, "simulate_network")
        assert not hasattr(trainer, "first_spike_time")

    def test_converged_run_matches_reference(self, xor_config_path):
        net, dataset, config, sim = self.xor_problem(xor_config_path, 1)
        out, hist = train(net, dataset, config, sim=sim)
        ref_out, ref_hist = reference_train(net, dataset, config, sim)
        assert hist.converged and hist.epochs == 7
        assert_same_history(hist, ref_hist)
        assert out.weight_vector().tobytes() == ref_out.weight_vector().tobytes()

    def test_schedule_outside_horizon_rejected(self):
        net = chain_network(4.0)
        sim = SimConfig(dt=0.002, horizon=5.0)
        for stimulus in ({"src": [6.0]}, {"src": [-0.5]}):
            with pytest.raises(InvalidInputError, match="outside"):
                train(net, [(stimulus, 1.5)], TrainConfig(max_epochs=1), sim=sim)

    def test_unknown_output_id_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown id 'zz'"):
            train(chain_network(4.0), [({"src": [0.0]}, 1.5)], TrainConfig(max_epochs=1),
                  sim=SimConfig(dt=0.002, horizon=5.0), output_id="zz")
