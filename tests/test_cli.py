"""CLI: exit codes, output files, determinism of cheap commands.

The full bench-xor path is exercised by the acceptance suite; here the
focus is argument/config handling and the simulate/train/sweep commands
with small budgets.
"""

import filecmp
import os
import subprocess
import sys

import pytest
import yaml

from mtjsnn.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGENCE,
    EXIT_EPOCHS_EXHAUSTED,
    EXIT_OK,
    EXIT_SIMULATION,
    main,
)


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

    def test_missing_config_exit_2(self, tmp_path):
        code = main(["simulate", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

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
                                       {"max_epochs": 0}])
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
