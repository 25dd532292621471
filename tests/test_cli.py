"""CLI: exit codes, output files, determinism of cheap commands.

The full bench-xor path is exercised by the acceptance suite; here the
focus is argument/config handling and the simulate/train/sweep commands
with small budgets.
"""

import filecmp
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
import yaml
from test_tlr import time_limit

from mtjsnn import cli
from mtjsnn.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_EPOCHS_EXHAUSTED,
    EXIT_MECHANISM,
    EXIT_OK,
    EXIT_SIMULATION,
    main,
)
from mtjsnn.errors import (
    ConfigError,
    DivergenceError,
    InsufficientDataError,
    InvalidInputError,
    InvalidStateError,
    NumericalFailureError,
)


# an in-plane easy axis off the coordinate axes, whose projections differ
# between BLAS and elementwise float arithmetic
TILTED_POLARIZER = [0.6, 0.8, 0.0]
# an in-plane easy axis along -y: the sign of an exact-zero projection shows
# in a CSV cell
AXIS_POLARIZER = [0.0, -1.0, 0.0]


def write_config(tmp_path, doc, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def xor_doc(**overrides):
    doc = {"schema_version": 1, "network": {"preset": "xor"}}
    doc.update(overrides)
    return doc


class TestSimulate:
    def test_happy_path_writes_trace_and_spikes(self, tmp_path):
        cfg = write_config(tmp_path, xor_doc(stimulus={"A": [0.0], "bias": [0.0]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "trace.csv").exists()
        assert (out / "spikes.txt").exists()
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header.startswith("time_ns,")

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, xor_doc(stimulus={"A": [0.0], "bias": [0.0]}))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["simulate", "--config", cfg, "--out", str(out1)])
        main(["simulate", "--config", cfg, "--out", str(out2)])
        assert filecmp.cmp(out1 / "trace.csv", out2 / "trace.csv", shallow=False)
        assert filecmp.cmp(out1 / "spikes.txt", out2 / "spikes.txt", shallow=False)

    def test_columns_in_dependency_order(self, tmp_path):
        # neurons listed out of dependency order: a and d are ready first,
        # in list order, then b, then c (header recorded before the order
        # moved to graphlib)
        cfg = write_config(tmp_path, {
            "schema_version": 1,
            "sim": {"dt": 0.01, "horizon": 2.0},
            "network": {
                "sources": [{"id": "s", "spike_times": [0.0]}],
                "neurons": [{"id": "c"}, {"id": "a"}, {"id": "d"}, {"id": "b"}],
                "synapses": [{"pre": "b", "post": "c", "weight": 1.0},
                             {"pre": "s", "post": "a", "weight": 2.0},
                             {"pre": "a", "post": "b", "weight": 2.0},
                             {"pre": "s", "post": "d", "weight": 2.0},
                             {"pre": "a", "post": "c", "weight": 1.0}],
            },
        })
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "trace.csv").read_text().splitlines()[0] == (
            "time_ns,s.v,a.drive,a.v,a.state,d.drive,d.v,d.state,b.drive,b.v,b.state,"
            "c.drive,c.v,c.state")

    def test_infinite_refractory_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, xor_doc(
            network={"preset": "xor", "neurons": {"i1": {"t_refractory": float("inf")}}},
            stimulus={"A": [0.0], "bias": [0.0]}))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error: network.neurons.i1.t_refractory:" in capsys.readouterr().err

    def test_config_error_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, xor_doc(sim={"dt": -0.001}))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("sim,key", [
        ({"dt": 0.02}, "sim.dt"),
        ({"dt": 0.001, "horizon": 0.005}, "sim.horizon"),
        ({"dt": 0.001, "horizon": 5.0004}, "sim.horizon"),
    ])
    def test_bad_grid_exit_2_names_key(self, tmp_path, capsys, sim, key):
        cfg = write_config(tmp_path, xor_doc(sim=sim))
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"config error: {key}:" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_bad_source_duration_exit_2(self, tmp_path, capsys, duration):
        cfg = write_config(tmp_path, xor_doc(
            network={"preset": "xor", "source_duration": duration}))
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "config error: network.source_duration:" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    def test_simulate_does_not_import_scipy(self, tmp_path, xor_config_path):
        src = os.path.join(os.path.dirname(os.path.dirname(xor_config_path)), "src")
        code = (
            "import sys\n"
            "import mtjsnn.cli\n"
            f"mtjsnn.cli.load_config({xor_config_path!r})\n"
            f"assert mtjsnn.cli.main(['simulate', '--config', {xor_config_path!r},"
            f" '--out', {str(tmp_path)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
        assert (tmp_path / "trace.csv").exists()

    def test_unknown_key_exit_2_names_key(self, tmp_path, capsys):
        doc = xor_doc()
        doc["network"]["bogus"] = 1
        cfg = write_config(tmp_path, doc)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "network.bogus" in capsys.readouterr().err

    def test_duplicate_key_exit_2_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "dup.yaml"
        cfg.write_text("schema_version: 1\nnetwork: {preset: xor}\ntrain: {eta: 0.2, eta: 50.0}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: train.eta: duplicate key 'eta'\n"
        assert not out.exists()

    def test_missing_config_exit_2(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        cfg.write_bytes(b"\xff\xfe\x00bad")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (f"config error: <file>: cannot read config file {cfg}:"
                                " not UTF-8 text (invalid start byte)\n")
        assert captured.out == ""
        assert not out.exists()

    def test_simulation_failure_exit_3(self, tmp_path, capsys):
        # a cyclic topology passes config validation but fails in the simulator
        network = {
            "sources": [{"id": "s"}],
            "neurons": [{"id": "a"}, {"id": "b"}],
            "synapses": [{"pre": "s", "post": "a", "weight": 1.0},
                         {"pre": "a", "post": "b", "weight": 1.0},
                         {"pre": "b", "post": "a", "weight": 1.0}],
        }
        cfg = write_config(tmp_path, {"schema_version": 1, "network": network})
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_SIMULATION
        assert "simulation failed: invalid network:" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", [
        (xor_doc(stimulus={"A": [6.0]}), "stimulus.A[0]"),
        (xor_doc(stimulus={"A": [0.0], "B": [1.0, -0.5]}), "stimulus.B[1]"),
        ({"schema_version": 1,
          "network": {"sources": [{"id": "s", "spike_times": [0.0, 7.5]}],
                      "neurons": [{"id": "n"}],
                      "synapses": [{"pre": "s", "post": "n", "weight": 5.0}]}},
         "network.sources[0].spike_times[1]"),
    ])
    def test_schedule_outside_horizon_exit_2(self, tmp_path, capsys, doc, key):
        cfg = write_config(tmp_path, dict(doc, sim={"dt": 0.001, "horizon": 5.0}))
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config error: {key}: spike time" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out" / "trace.csv")

    @pytest.mark.parametrize("command, doc, key", [
        ("simulate", xor_doc(sim={"dt": 0.01, "horizon": 1e8}), "sim.horizon"),
        ("train", xor_doc(sim={"dt": 0.01, "horizon": 10000.0}, train={"dt": 0.002}),
         "train.dt"),
        ("bench-xor", xor_doc(sim={"dt": 0.01, "horizon": 10000.0}, train={"dt": 0.005}),
         "train.dt"),
        ("sweep-latency", xor_doc(sweep={"drives": [1.5], "dt": 0.01, "horizon": 1e8}),
         "sweep.horizon"),
    ])
    def test_grid_over_step_cap_exit_2(self, tmp_path, capsys, command, doc, key):
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        with time_limit(10):
            code = main([command, "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: {key}: horizon must be at most 1000000 steps")
        assert not out.exists() or not os.listdir(out)

    @pytest.mark.parametrize("weight", [1e10, 1e300])
    def test_neuron_that_never_stops_firing_exit_3(self, tmp_path, capsys, weight):
        network = {
            "sources": [{"id": "s", "spike_times": [0.0]}],
            "neurons": [{"id": "n", "params": {"t_refractory": 0.0, "latency_floor": 0.0}}],
            "synapses": [{"pre": "s", "post": "n", "weight": weight}],
        }
        cfg = write_config(tmp_path, {"schema_version": 1, "sim": {"dt": 0.01, "horizon": 5.0},
                                      "network": network})
        with time_limit(10):
            code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_SIMULATION
        assert capsys.readouterr().err.startswith("simulation failed: neuron 'n': ")

    @pytest.mark.parametrize("amplitude", [1e308, -1e308])
    @pytest.mark.parametrize("weight, code", [(1.0, EXIT_OK), (2.0, EXIT_SIMULATION)],
                             ids=["finite-drive", "overflowing-drive"])
    def test_source_amplitude_near_the_float_maximum(self, tmp_path, capsys, amplitude,
                                                     weight, code):
        # the pulse draws without a warning; only a drive past the float range fails
        network = {
            "sources": [{"id": "s", "spike_times": [0.0], "amplitude": amplitude}],
            "neurons": [{"id": "n"}],
            "synapses": [{"pre": "s", "post": "n", "weight": weight}],
        }
        cfg = write_config(tmp_path, {"schema_version": 1, "sim": {"dt": 0.01, "horizon": 5.0},
                                      "network": network})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        if code == EXIT_OK:
            assert err == ""
        else:
            assert err == "simulation failed: neuron 'n': drive must be finite\n"


class TestTrain:
    def test_epoch_budget_exhausted_exit_4(self, tmp_path):
        cfg = write_config(tmp_path, xor_doc(train={"max_epochs": 1, "seed": 2}))
        out = tmp_path / "out"
        code = main(["train", "--config", cfg, "--out", str(out)])
        assert code == EXIT_EPOCHS_EXHAUSTED
        # partial history still written
        assert (out / "history.csv").exists()
        assert (out / "weights.out").exists()

    def test_eta_zero_constant_loss_exit_4(self, tmp_path):
        cfg = write_config(tmp_path, xor_doc(
            train={"eta": 0.0, "max_epochs": 3, "seed": 2}))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_EPOCHS_EXHAUSTED
        rows = (out / "history.csv").read_text().splitlines()[1:]
        losses = {r.split(",")[1] for r in rows}
        assert len(rows) == 3 and len(losses) == 1

    @pytest.mark.parametrize("network", [
        {"preset": "xor", "neurons": {"o1": {"latency_floor": 1e200}}},
        {"preset": "xor", "neurons": {"o1": {"latency_floor": 1e308}}},
    ], ids=["latency-floor-1e200", "latency-floor-1e308"])
    def test_overflowing_loss_exit_3(self, tmp_path, capsys, network):
        cfg = write_config(tmp_path, xor_doc(network=network, train={"seed": 2}))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_SIMULATION
        assert capsys.readouterr().err == "simulation failed: loss overflowed the float range\n"
        assert not out.exists() or not os.listdir(out)

    def test_topology_without_o1_exit_3(self, tmp_path, capsys):
        # training always reads o1's first spike
        network = {"sources": [{"id": sid} for sid in ("A", "B", "bias")],
                   "neurons": [{"id": "n"}],
                   "synapses": [{"pre": "A", "post": "n", "weight": 6.0}]}
        cfg = write_config(tmp_path, xor_doc(network=network))
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_SIMULATION
        assert capsys.readouterr().err == "simulation failed: unknown id 'o1'\n"
        assert not out.exists() or not os.listdir(out)

    def test_divergence_exit_5(self, tmp_path):
        cfg = write_config(tmp_path, xor_doc(
            train={"eta": 50.0, "init_jitter": 0.0, "tol": 1e-4, "seed": 2}))
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_DIVERGENCE

    @pytest.mark.parametrize("train", [{"parallel": False}, {"max_epochs": "abc"}])
    def test_bad_train_key_exit_2_names_key(self, tmp_path, capsys, train):
        cfg = write_config(tmp_path, xor_doc(train=train))
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config error: train.{next(iter(train))}:" in capsys.readouterr().err

    @pytest.mark.parametrize("train", [{"fd_epsilon": 0}, {"tol": 0}, {"dt": 0.02},
                                       {"max_epochs": 0}, {"seed": -1},
                                       {"init_jitter": 1.0e308}])
    def test_out_of_range_train_value_exit_2(self, tmp_path, capsys, train):
        cfg = write_config(tmp_path, xor_doc(train=train))
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"config error: train.{next(iter(train))}:" in err
        assert "simulation failed" not in err

    def test_non_finite_value_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, xor_doc(train={"eta": float("nan")}))
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error: train.eta:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "bench-xor"])
    def test_horizon_off_training_grid_exit_2(self, tmp_path, capsys, command):
        # on the 0.001 ns sim grid, but not on the 0.002 ns training grid
        cfg = write_config(tmp_path, xor_doc(sim={"dt": 0.001, "horizon": 5.001},
                                             train={"dt": 0.002}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "config error: train.dt: horizon must be a whole number of dt = 0.002 ns steps" \
            in capsys.readouterr().err
        assert not (out / "history.csv").exists()

    @pytest.mark.parametrize("command", ["train", "bench-xor"])
    def test_topology_without_xor_sources_exit_3(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"schema_version": 1, "network": {
            "sources": [{"id": "s", "spike_times": [0.0]}],
            "neurons": [{"id": "o1"}],
            "synapses": [{"pre": "s", "post": "o1", "weight": 3.0}]}})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_SIMULATION
        assert "simulation failed: unknown source 'A'" in capsys.readouterr().err
        assert not (out / "history.csv").exists()

    def test_encoding_outside_horizon_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, xor_doc(sim={"dt": 0.001, "horizon": 5.0},
                                             encoding={"t_spike": 6.0}))
        code = main(["train", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error: encoding.t_spike: spike time 6.0 outside" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("mode", "presence"), ("mode", "timing"), ("t_bit0", 0.5), ("t_bit1", 0.0),
        ("bias_period", 2.0),
    ])
    def test_removed_encoding_key_exit_2(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, xor_doc(encoding={key: value}))
        out = tmp_path / "out"
        assert main(["bench-xor", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: encoding.{key}: unknown key '{key}'\n"
        assert not out.exists()

    def test_negative_seed_flag_exit_2(self, tmp_path, capsys, xor_config_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as e:
            main(["train", "--config", xor_config_path, "--out", str(out), "--seed", "-3"])
        assert e.value.code == 2
        assert capsys.readouterr().err.endswith(
            "mtjsnn train: error: argument --seed: must be >= 0, got -3\n")
        assert not out.exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        doc = xor_doc(train={"max_epochs": 1, "seed": 2})
        cfg = write_config(tmp_path, doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg, "--out", str(out1)])
        main(["train", "--config", cfg, "--out", str(out2), "--seed", "3"])
        assert (out1 / "weights.out").read_text() != (out2 / "weights.out").read_text()


class TestSweepLatency:
    def test_tlr_sweep_blanks_then_decreasing(self, tmp_path):
        cfg = write_config(tmp_path, xor_doc(
            sweep={"backend": "tlr", "drives": [0.5, 0.9, 1.2, 1.5, 2.0],
                   "dt": 0.005, "horizon": 15.0}))
        out = tmp_path / "out"
        assert main(["sweep-latency", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "latency.csv").read_text().splitlines()
        assert lines[0] == "drive,latency_ns"
        cells = [ln.split(",")[1] for ln in lines[1:]]
        assert cells[0] == "" and cells[1] == ""
        values = [float(c) for c in cells[2:]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_single_point(self, tmp_path):
        cfg = write_config(tmp_path, xor_doc(
            sweep={"backend": "tlr", "drives": [2.0]}))
        out = tmp_path / "out"
        assert main(["sweep-latency", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert len((out / "latency.csv").read_text().splitlines()) == 2

    @pytest.mark.parametrize("sweep,key", [
        ({"horizon": -1.0}, "sweep.horizon"),
        ({"dt": 0.02}, "sweep.dt"),
        ({"backend": "macrospin", "params": {"transistor_k": -1.0}},
         "sweep.params.transistor_k"),
        ({"backend": "macrospin", "params": {"polarizer": [0.48, 0.6, 0.64]}},
         "sweep.params.polarizer"),
    ])
    def test_out_of_range_sweep_value_exit_2(self, tmp_path, capsys, sweep, key):
        cfg = write_config(tmp_path, xor_doc(sweep={"drives": [1.5], **sweep}))
        code = main(["sweep-latency", "--config", cfg, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert f"config error: {key}:" in err

    def test_off_grid_horizon_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, xor_doc(
            sweep={"drives": [1.5], "dt": 0.005, "horizon": 15.001}))
        out = tmp_path / "out"
        code = main(["sweep-latency", "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "config error: sweep.horizon:" in capsys.readouterr().err
        assert not (out / "latency.csv").exists()

    def test_polarizer_of_two_values_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, xor_doc(
            sweep={"backend": "macrospin", "params": {"polarizer": [1.0, 0.0]}, "drives": [1.5]}))
        code = main(["sweep-latency", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error: sweep.params.polarizer: expected 3 values, got 2" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("params", [{"gamma": 1.0e308}, {"stt_coefficient": -1.0e200}])
    def test_overflowing_macrospin_sweep_exit_3(self, tmp_path, capsys, params):
        # unchecked, a ZeroDivisionError traceback and exit 1
        cfg = write_config(tmp_path, xor_doc(
            sweep={"backend": "macrospin", "params": params, "drives": [1.3], "horizon": 1.0}))
        out = tmp_path / "out"
        assert main(["sweep-latency", "--config", cfg, "--out", str(out)]) == EXIT_SIMULATION
        assert capsys.readouterr().err == (
            "simulation failed: macrospin step overflowed the float range\n")
        assert not (out / "latency.csv").exists()

    def test_missing_sweep_section_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, xor_doc())
        assert main(["sweep-latency", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG

    def test_macrospin_sweep_decreasing(self, tmp_path):
        cfg = write_config(tmp_path, xor_doc(
            sweep={"backend": "macrospin", "drives": [1.0, 1.5, 2.0],
                   "dt": 0.005, "horizon": 15.0}))
        out = tmp_path / "out"
        assert main(["sweep-latency", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "latency.csv").read_text().splitlines()[1:]
        values = [float(ln.split(",")[1]) for ln in lines]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_macrospin_sweep_bytes_pinned(self, tmp_path):
        # SHA-256 recorded with the integrator that ran every drive over the
        # whole horizon; 0.5 and 0.8 V never switch within it
        cfg = write_config(tmp_path, xor_doc(
            sweep={"backend": "macrospin", "drives": [0.5, 0.8, 0.85, 1.0, 1.3, 2.5],
                   "dt": 0.005, "horizon": 5.0}))
        out = tmp_path / "out"
        assert main(["sweep-latency", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = (out / "latency.csv").read_bytes()
        assert b"\n0.5,\n0.8,\n" in data
        assert hashlib.sha256(data).hexdigest() == (
            "afd58505620e7592d757fba85c9f081eba360e60decbd252f7994d6b4a65135a")

    def test_tilted_polarizer_sweep_bytes_pinned(self, tmp_path):
        # every easy-axis projection is elementwise float arithmetic, so these
        # bytes do not depend on the CPU's BLAS kernel
        cfg = write_config(tmp_path, xor_doc(
            sweep={"backend": "macrospin", "params": {"polarizer": TILTED_POLARIZER},
                   "drives": [0.5, 0.8, 0.85, 1.0, 1.3, 2.5], "dt": 0.005, "horizon": 5.0}))
        out = tmp_path / "out"
        assert main(["sweep-latency", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = (out / "latency.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "e73cf40aa5f36a4752e1277be96325f221271348ef8a3304f5164e46f9a65e17")

    def test_axis_polarizer_sweep_bytes_pinned(self, tmp_path):
        # the default run turned by 90 degrees in the plane: the same latencies
        cfg = write_config(tmp_path, xor_doc(
            sweep={"backend": "macrospin", "params": {"polarizer": AXIS_POLARIZER},
                   "drives": [0.5, 0.8, 0.85, 1.0, 1.3, 2.5], "dt": 0.005, "horizon": 5.0}))
        out = tmp_path / "out"
        assert main(["sweep-latency", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = (out / "latency.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "afd58505620e7592d757fba85c9f081eba360e60decbd252f7994d6b4a65135a")


class TestSimulatePinned:
    def test_tilted_polarizer_neuron_bytes_pinned(self, tmp_path):
        # the state column is the alignment, computed as the integrator's
        # stop rule computes it, so these bytes do not depend on the CPU's
        # BLAS kernel
        cfg = write_config(tmp_path, {
            "schema_version": 1, "sim": {"dt": 0.005, "horizon": 4.0},
            "network": {
                "sources": [{"id": "s", "spike_times": [0.0], "duration": 4.9}],
                "neurons": [{"id": "m", "backend": "macrospin",
                             "params": {"polarizer": TILTED_POLARIZER}}],
                "synapses": [{"pre": "s", "post": "m", "weight": 1.5}]}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "trace.csv").read_text().splitlines()[0] == (
            "time_ns,s.v,m.drive,m.v,m.state")
        data = (out / "trace.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "8307099870c8f9f06b335ab583ce5f5ebf175908c62b4c2fa05459c38e0b04a5")

    def test_axis_polarizer_neuron_bytes_pinned(self, tmp_path):
        cfg = write_config(tmp_path, {
            "schema_version": 1, "sim": {"dt": 0.005, "horizon": 4.0},
            "network": {
                "sources": [{"id": "s", "spike_times": [0.0], "duration": 4.9}],
                "neurons": [{"id": "m", "backend": "macrospin",
                             "params": {"polarizer": AXIS_POLARIZER}}],
                "synapses": [{"pre": "s", "post": "m", "weight": 1.5}]}})
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        data = (out / "trace.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "89f0531e9b4aee45e73b2e9162926eb44294b5c9ac14c9619c07176b85533c42")

    def test_two_row_stimulus_bytes_pinned(self, tmp_path):
        # rows (1,0) then (0,1): A at 0 ns, B at 8 ns, o1 fires at 2.4984...
        # and 10.4984... ns
        cfg = write_config(tmp_path, xor_doc(
            sim={"dt": 0.001, "horizon": 16.0},
            stimulus={"A": [0.0], "B": [8.0], "bias": [0.0, 8.0]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "spikes.txt").read_text().splitlines()[-1].startswith(
            "o1: 2.4984166957449983 10.4984166957449")
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("trace.csv", "spikes.txt")}
        assert digests == {
            "trace.csv": "f810bf994ec1b153960d63103f12a450f4c4d2dddec14adab926b688ae1c3fec",
            "spikes.txt": "518e8652bdd0915fb882bc378cf978c9d8441ebeaaf4f2242cdf64498dec8250",
        }


class TestOutputModes:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_bench_xor_outputs_follow_umask(self, tmp_path, xor_config_path, umask, mode):
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            code = main(["bench-xor", "--config", xor_config_path, "--out", str(out),
                         "--seed", "2"])
        finally:
            os.umask(old)
        assert code == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert len(names) == 15 and "xor_report.txt" in names
        assert {oct(os.stat(out / name).st_mode & 0o777) for name in names} == {oct(mode)}


# Every package error a command's callee raises maps to one exit code and
# one stderr line.  The trainer is where divergence and config errors arise,
# so those two are injected there only.
_SIMULATION_FAILURES = [
    (InvalidInputError, EXIT_SIMULATION, "simulation failed: "),
    (InvalidStateError, EXIT_SIMULATION, "simulation failed: "),
    (NumericalFailureError, EXIT_SIMULATION, "simulation failed: "),
    (InsufficientDataError, EXIT_SIMULATION, "simulation failed: "),
]
_TRAINER_FAILURES = _SIMULATION_FAILURES + [
    (DivergenceError, EXIT_DIVERGENCE, "training diverged: "),
    (ConfigError, EXIT_CONFIG, "config error: train.eta: "),
]
_SWEEP = {"drives": [1.5, 2.0], "dt": 0.005, "horizon": 2.0}
# (command, config document or None for configs/xor.yaml, callee, files left)
_CALLEES = [
    ("simulate", xor_doc(stimulus={"A": [0.0], "bias": [0.0]}), "simulate_network", []),
    ("train", xor_doc(), "train", []),
    ("bench-xor", xor_doc(), "train", []),
    ("bench-xor", None, "run_xor_eval", ["history.csv", "weights.out"]),
    ("sweep-latency", xor_doc(sweep=dict(_SWEEP, backend="tlr")), "run_tlr", []),
    ("sweep-latency", xor_doc(sweep=dict(_SWEEP, backend="macrospin")), "measure_latency", []),
]


def _exit_code_cases():
    for command, doc, callee, files in _CALLEES:
        failures = _TRAINER_FAILURES if callee == "train" else _SIMULATION_FAILURES
        for error, code, prefix in failures:
            yield pytest.param(command, doc, callee, files, error, code, prefix,
                               id=f"{command}-{callee}-{error.__name__}")


class TestExitCodeTable:
    @pytest.mark.parametrize("command, doc, callee, files, error, code, prefix",
                             list(_exit_code_cases()))
    def test_callee_failure_maps_to_exit_code(self, tmp_path, capsys, monkeypatch,
                                              xor_config_path, command, doc, callee,
                                              files, error, code, prefix):
        def fail(*args, **kwargs):
            if error is ConfigError:
                raise ConfigError("injected failure", key="train.eta")
            raise error("injected failure")

        monkeypatch.setattr(cli, callee, fail)
        cfg = xor_config_path if doc is None else write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err == prefix + "injected failure\n"
        assert captured.out == ""
        assert sorted(os.listdir(out)) == files


class TestOutOfMemory:
    @pytest.mark.parametrize("error, line", [
        (MemoryError("injected failure"), "out of memory: injected failure\n"),
        (MemoryError(), "out of memory: allocation failed\n"),
    ], ids=["message", "bare"])
    def test_memory_error_exit_3(self, tmp_path, capsys, monkeypatch, error, line):
        # unchecked, a MemoryError traceback and exit 1
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "simulate_network", fail)
        cfg = write_config(tmp_path, xor_doc(stimulus={"A": [0.0], "bias": [0.0]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_SIMULATION
        captured = capsys.readouterr()
        assert captured.err == line
        assert captured.out == ""
        assert os.listdir(out) == []


class TestBenchXorExits:
    def test_epoch_budget_exhausted_exit_4_skips_evaluation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, xor_doc(train={"max_epochs": 1}))
        out = tmp_path / "out"
        assert main(["bench-xor", "--config", cfg, "--out", str(out)]) == EXIT_EPOCHS_EXHAUSTED
        captured = capsys.readouterr()
        assert captured.err == "epoch budget exhausted after 1 epochs\n"
        assert captured.out == ""
        # no row traces and no report
        assert sorted(os.listdir(out)) == ["history.csv", "weights.out"]

    def test_decode_failure_exit_6_names_each_row(self, tmp_path, capsys):
        # a weak bias->o1 weight: training converges at once under a 10 ns
        # tolerance, and o1 misdecodes every row but (0, 0)
        cfg = write_config(tmp_path, xor_doc(
            network={"preset": "xor", "weights": {"bias->o1": 1.0}},
            train={"init_jitter": 0.0, "tol": 10.0}))
        out = tmp_path / "out"
        assert main(["bench-xor", "--config", cfg, "--out", str(out)]) == EXIT_MECHANISM
        assert capsys.readouterr().err == "".join(
            f"decode failure on row (a={a}, b={b})\n" for a, b in ((0, 1), (1, 0), (1, 1)))


class TestBenchXorOutputBackend:
    def test_macrospin_output_neuron_exit_3_names_backend(self, tmp_path, capsys, monkeypatch):
        from dataclasses import replace

        from mtjsnn.defaults import xor_reference_network
        from mtjsnn.macrospin import MacrospinParams
        from mtjsnn.network import MACROSPIN_BACKEND, Neuron
        from mtjsnn.trainer import TrainHistory

        net = xor_reference_network()
        net = replace(net, neurons=tuple(
            Neuron("o1", MACROSPIN_BACKEND, MacrospinParams()) if n.id == "o1" else n
            for n in net.neurons))
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: (net, TrainHistory(converged=True)))
        cfg = write_config(tmp_path, xor_doc(sim={"dt": 0.005, "horizon": 5.0}))
        out = tmp_path / "out"
        assert main(["bench-xor", "--config", cfg, "--out", str(out)]) == EXIT_SIMULATION
        err = capsys.readouterr().err
        assert err.startswith("simulation failed: ") and "macrospin" in err
        assert sorted(os.listdir(out)) == ["history.csv", "weights.out"]


class TestOsErrors:
    """An OSError on the config exits 2 and one on the outputs exits 3, each
    with one stderr line; a failed commit adds and changes no output file."""

    @staticmethod
    def rename_error(out, name):
        """The stderr line of renaming a temporary file onto the directory ``name``."""
        return re.compile(re.escape("output error: [Errno 21] Is a directory: '")
                          + re.escape(str(out)) + r"/\.tmp-\w+~' -> '"
                          + re.escape(str(out / name)) + "'\n")

    def test_config_directory_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(tmp_path), "--out", str(out)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == ("config error: <file>: cannot read config file"
                                f" {tmp_path}: Is a directory\n")
        assert captured.out == ""
        assert not out.exists()

    def test_out_is_a_regular_file_exit_3(self, tmp_path, capsys, xor_config_path):
        out = tmp_path / "out"
        out.write_text("keep\n")
        assert main(["simulate", "--config", xor_config_path, "--out", str(out)]) == EXIT_SIMULATION
        captured = capsys.readouterr()
        assert captured.err == f"output error: [Errno 17] File exists: '{out}'\n"
        assert captured.out == ""
        assert out.read_text() == "keep\n"
        assert sorted(os.listdir(tmp_path)) == ["out"]

    @pytest.mark.parametrize("old", [False, True], ids=["fresh", "existing"])
    def test_directory_in_place_of_spikes_txt_exit_3(self, tmp_path, capsys, xor_config_path, old):
        out = tmp_path / "out"
        (out / "spikes.txt").mkdir(parents=True)
        if old:
            (out / "trace.csv").write_text("old trace\n")
        assert main(["simulate", "--config", xor_config_path, "--out", str(out)]) == EXIT_SIMULATION
        assert self.rename_error(out, "spikes.txt").fullmatch(capsys.readouterr().err)
        assert sorted(os.listdir(out)) == (["spikes.txt", "trace.csv"] if old else ["spikes.txt"])
        if old:
            assert (out / "trace.csv").read_text() == "old trace\n"

    @pytest.mark.parametrize("old", [False, True], ids=["fresh", "existing"])
    def test_directory_in_place_of_history_csv_exit_3(self, tmp_path, capsys, xor_config_path,
                                                      old):
        out = tmp_path / "out"
        (out / "history.csv").mkdir(parents=True)
        if old:
            (out / "weights.out").write_text("old weights\n")
        assert main(["train", "--config", xor_config_path, "--out", str(out),
                     "--seed", "2"]) == EXIT_SIMULATION
        assert self.rename_error(out, "history.csv").fullmatch(capsys.readouterr().err)
        assert sorted(os.listdir(out)) == (["history.csv", "weights.out"] if old
                                           else ["history.csv"])
        if old:
            assert (out / "weights.out").read_text() == "old weights\n"

    def test_directory_in_place_of_a_row_trace_exit_3(self, tmp_path, capsys, xor_config_path):
        out = tmp_path / "out"
        (out / "row4_state.csv").mkdir(parents=True)
        assert main(["bench-xor", "--config", xor_config_path, "--out", str(out),
                     "--seed", "2"]) == EXIT_SIMULATION
        captured = capsys.readouterr()
        assert self.rename_error(out, "row4_state.csv").fullmatch(captured.err)
        assert captured.out == ""
        # the training commit stands; the row traces and the report are not written
        assert sorted(os.listdir(out)) == ["history.csv", "row4_state.csv", "weights.out"]


class TestReferenceOutputs:
    """``bench-xor`` on the shipped config and training seeds 1-5, in-process:
    each exit code, and the first 16 hex digits of the SHA-256 of every file
    it writes, equal the ``train_seed=<k>`` entry that the benchmark recorded
    in ``perfbench/reference.json``.  A change that is meant to keep every
    CLI output byte-identical fails here if it does not.  The digests hold
    for the numpy build and CPU they were recorded on."""

    REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench", "reference.json")

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_bench_xor_matches_the_recorded_outputs(self, tmp_path, capsys, xor_config_path,
                                                     seed):
        with open(self.REFERENCE) as fh:
            expected = json.load(fh)["xor_bench"][f"train_seed={seed}"]
        out = tmp_path / "out"
        code = main(["bench-xor", "--config", xor_config_path, "--out", str(out),
                     "--seed", str(seed)])
        capsys.readouterr()
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
                   for path in sorted(out.iterdir())}
        assert (code, digests) == (expected["exit"], expected["digests"])
