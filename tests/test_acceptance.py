"""Acceptance suite: one test per criterion.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion.  Criteria are property-based plus timing reproduction; the
quantitative ground truth is the 2.0/2.5 ns output code and the four-row
XOR behavior.
"""

import filecmp
import time

import numpy as np
import pytest
import yaml

from mtjsnn.cli import EXIT_MECHANISM, EXIT_OK, main, _run_training
from mtjsnn.config import load_config
from mtjsnn.defaults import CALIBRATION_GRID, xor_reference_network
from mtjsnn.macrospin import (
    MacrospinParams,
    calibrate_tlr,
    initial_state,
    llgs_derivative,
    measure_latency,
)
from mtjsnn.network import SimConfig
from mtjsnn.tlr import TlrParams, constant_drive_latency, run_tlr
from mtjsnn.trainer import loss, loss_gradient_time, weight_update
from mtjsnn.xorbench import run_xor_eval


@pytest.fixture(scope="module")
def xor_cfg(xor_config_path):
    return load_config(xor_config_path)


@pytest.mark.acceptance(1, "XOR end-to-end: >=3 of 5 shipped seeds converge, "
                           "rows within +/-0.1 ns of {2.0, 2.5, 2.5, 2.0}")
def test_criterion_1_xor_end_to_end(xor_cfg):
    passing = 0
    for seed in xor_cfg.train.seeds:
        start = time.monotonic()
        net, history = _run_training(xor_cfg, seed)
        elapsed = time.monotonic() - start
        assert elapsed <= 300.0, f"seed {seed} exceeded the 5-minute budget"
        if not history.converged:
            continue
        report = run_xor_eval(net, xor_cfg.sim, xor_cfg.encoding, tol=0.1)
        if report.all_rows_pass and [r.decoded for r in report.rows] == [0, 1, 1, 0]:
            passing += 1
    assert passing >= 3, f"only {passing} of 5 seeds passed"


@pytest.mark.acceptance(2, "threshold activation: subthreshold drives silent, "
                           "suprathreshold drives fire exactly once")
def test_criterion_2_threshold_activation():
    p = TlrParams()
    dt, horizon = 0.005, 15.0
    n = int(round(horizon / dt))
    for frac in (0.5, 0.9, 0.99):
        run = run_tlr(p, np.full(n + 1, frac * p.i_threshold), dt)
        assert len(run.onsets) == 0, f"drive {frac}x threshold spiked"
    # suprathreshold: stimulus removed once the spike is underway
    # (single-spike regime), then simulated well past the refractory window
    for frac in (1.01, 1.5, 3.0):
        t_spike = constant_drive_latency(p, frac * p.i_threshold)
        t = dt * np.arange(n + 1)
        drive = np.where(t < t_spike, frac * p.i_threshold, 0.0)
        run = run_tlr(p, drive, dt)
        assert len(run.onsets) == 1, f"drive {frac}x threshold: {len(run.onsets)} spikes"


@pytest.mark.acceptance(3, "latency law: strictly decreasing 20-point sweep, "
                           "near-threshold divergence, sim matches closed form within dt")
def test_criterion_3_latency_law():
    p = TlrParams()
    drives = np.linspace(1.05, 3.0, 20)
    lats = [constant_drive_latency(p, d) for d in drives]
    assert all(a > b for a, b in zip(lats, lats[1:]))
    assert constant_drive_latency(p, 1.01) > 3 * constant_drive_latency(p, 2.0)
    dt = 0.001
    n = int(round(15.0 / dt))
    for d in drives:
        run = run_tlr(p, np.full(n + 1, d), dt)
        assert abs(run.onsets[0] - constant_drive_latency(p, d)) <= dt


@pytest.mark.acceptance(4, "absolute refraction: pulse inside the window gives 1 spike "
                           "total, same pulse after the window gives 2")
def test_criterion_4_absolute_refraction():
    p = TlrParams()  # onset 0.4 ns under drive 2.0; t_refractory 5.0
    dt = 0.005

    def two_pulses(second_start):
        n = int(round(10.0 / dt))
        t = dt * np.arange(n + 1)
        drive = np.zeros(n + 1)
        drive[(t >= 0.0) & (t < 1.0)] = 2.0
        drive[(t >= second_start) & (t < second_start + 1.0)] = 2.0
        return drive

    inside = run_tlr(p, two_pulses(2.0), dt)    # fully within [0.4, 5.4]
    after = run_tlr(p, two_pulses(6.0), dt)     # starts after the window
    assert len(inside.onsets) == 1
    assert len(after.onsets) == 2


@pytest.mark.acceptance(5, "loss / gradient / update match the analytic forms "
                           "(1e-12 relative; gradient vs central FD 1e-9)")
def test_criterion_5_equation_exactness():
    rng = np.random.default_rng(0)
    for _ in range(200):
        t_des = float(rng.uniform(1.0, 4.0))
        t_act = t_des + float(rng.uniform(-1.0, 1.0))
        analytic = 0.5 * (t_act - t_des) ** 2
        if analytic > 0:
            assert abs(loss(t_act, t_des) - analytic) <= 1e-12 * analytic
        g = loss_gradient_time(t_act, t_des)
        assert abs(g - (t_act - t_des)) <= 1e-12 * max(1.0, abs(g))
        jac = float(rng.uniform(-2.0, 2.0))
        eta = float(rng.uniform(0.0, 1.0))
        dw = weight_update(g, jac, eta)
        exact = -eta * g * jac
        assert abs(dw - exact) <= 1e-12 * max(1.0, abs(exact))
    # analytic gradient vs central finite differences of the loss
    for delta in np.linspace(1e-3, 1.0, 25):
        t_act, t_des = 2.0 + delta, 2.0
        h = 1e-5
        fd = (loss(t_act + h, t_des) - loss(t_act - h, t_des)) / (2 * h)
        g = loss_gradient_time(t_act, t_des)
        assert abs(g - fd) <= 1e-9 * max(1.0, abs(g))


@pytest.mark.acceptance(6, "macrospin integrity: torque orthogonal to m, norm drift "
                           "< 1e-8 per step at 1 ps, exact fixed points, decreasing "
                           "switching latency")
def test_criterion_6_macrospin_integrity():
    params = MacrospinParams()
    e = params.easy_axis
    # exact fixed points
    assert np.all(llgs_derivative(e, params, 0.0) == 0.0)
    assert np.all(llgs_derivative(-e, params, 0.0) == 0.0)
    # orthogonality over random states and currents
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = rng.normal(size=3)
        m /= np.linalg.norm(m)
        dm = llgs_derivative(m, params, float(rng.uniform(-0.5, 0.5)))
        assert abs(float(np.dot(m, dm))) <= 1e-12
    # per-step norm drift before renormalization at dt = 1 ps
    dt = 0.001
    m = initial_state(params).m
    for _ in range(50):
        i_dev = 0.3
        k1 = llgs_derivative(m, params, i_dev)
        k2 = llgs_derivative((m + 0.5 * dt * k1) / np.linalg.norm(m + 0.5 * dt * k1),
                             params, i_dev)
        k3 = llgs_derivative((m + 0.5 * dt * k2) / np.linalg.norm(m + 0.5 * dt * k2),
                             params, i_dev)
        k4 = llgs_derivative((m + dt * k3) / np.linalg.norm(m + dt * k3), params, i_dev)
        m_next = m + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert abs(np.linalg.norm(m_next) - 1.0) < 1e-8
        m = m_next / np.linalg.norm(m_next)
    # switching latency decreasing over a 5-point gate-voltage sweep
    lats = [measure_latency(params, g) for g in (0.85, 1.0, 1.2, 1.5, 2.0)]
    assert all(l is not None for l in lats)
    assert all(a > b for a, b in zip(lats, lats[1:]))


@pytest.mark.acceptance(7, "backend consistency: calibrated TLR latencies agree with "
                           "macrospin within 15% across the grid")
def test_criterion_7_backend_consistency():
    cal = calibrate_tlr(MacrospinParams(), CALIBRATION_GRID)
    assert cal.max_rel_residual <= 0.15
    for v, lat in zip(cal.drives, cal.latencies):
        pred = constant_drive_latency(cal.tlr_params, v)
        assert pred is not None
        assert abs(pred - lat) / lat <= 0.15


@pytest.mark.acceptance(8, "determinism: byte-identical reruns")
def test_criterion_8_determinism(tmp_path):
    # byte-identical command outputs for fixed config + seed
    doc = {"schema_version": 1, "network": {"preset": "xor"},
           "stimulus": {"A": [0.0], "bias": [0.0]}}
    sim_cfg = tmp_path / "sim.yaml"
    sim_cfg.write_text(yaml.safe_dump(doc))
    train_doc = {"schema_version": 1, "network": {"preset": "xor"},
                 "train": {"max_epochs": 2, "seed": 2}}
    train_cfg = tmp_path / "train.yaml"
    train_cfg.write_text(yaml.safe_dump(train_doc))
    for command, cfg, files in (
        ("simulate", sim_cfg, ["trace.csv", "spikes.txt"]),
        ("train", train_cfg, ["weights.out", "history.csv"]),
    ):
        out1, out2 = tmp_path / f"{command}1", tmp_path / f"{command}2"
        main([command, "--config", str(cfg), "--out", str(out1)])
        main([command, "--config", str(cfg), "--out", str(out2)])
        for name in files:
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), \
                f"{command}: {name} differs between identical runs"


@pytest.mark.acceptance(9, "ablations: zero refractory window fails only the refraction "
                           "check; raised bias weights fail the threshold gate")
def test_criterion_9_mechanism_ablations(tmp_path, xor_config_path):
    # (a) t_refractory = 0 on the output neuron: bench-xor exits 6 with the
    # refraction check false while rows (0,0) and (1,0) still pass
    with open(xor_config_path) as fh:
        doc = yaml.safe_load(fh)
    doc.setdefault("network", {})["neurons"] = {"o1": {"t_refractory": 0.0}}
    ablated = tmp_path / "ablate_refraction.yaml"
    ablated.write_text(yaml.safe_dump(doc))
    out = tmp_path / "out"
    code = main(["bench-xor", "--config", str(ablated), "--out", str(out)])
    assert code == EXIT_MECHANISM
    report = (out / "xor_report.txt").read_text()
    assert "check refraction=no" in report
    assert "check threshold_gate=yes" in report
    assert "check latency_shift=yes" in report
    assert "row a=0 b=0 target=0" in report and "row a=1 b=0 target=1" in report
    for line in report.splitlines():
        if line.startswith("row a=0 b=0") or line.startswith("row a=1 b=0"):
            assert line.endswith("pass=yes")

    # (b) raised bias weights: both input neurons fire on row (0,0), so the
    # threshold-gate check fails
    net = xor_reference_network()
    raised = {f"{s.pre}->{s.post}": s.weight for s in net.synapses}
    raised["bias->i1"] = 1.3          # i1 becomes bias-suprathreshold
    raised["bias->i2"] += 5.0         # i2 stays suprathreshold
    from mtjsnn.xorbench import build_xor_network
    from mtjsnn.defaults import (
        XOR_NEURON_PARAMS, XOR_SOURCE_AMPLITUDE, XOR_SOURCE_DURATION)
    ablated_net = build_xor_network(
        params=XOR_NEURON_PARAMS, weights=raised,
        source_amplitude=XOR_SOURCE_AMPLITUDE, source_duration=XOR_SOURCE_DURATION)
    report = run_xor_eval(ablated_net, SimConfig(dt=0.001, horizon=5.0))
    assert not report.threshold_gate_ok


@pytest.mark.acceptance(0, "bench-xor with the shipped default config exits 0 with all "
                           "mechanism flags true")
def test_criterion_0_default_bench_green(tmp_path, xor_config_path):
    out = tmp_path / "bench"
    code = main(["bench-xor", "--config", xor_config_path, "--out", str(out)])
    assert code == EXIT_OK
    report = (out / "xor_report.txt").read_text()
    assert "check threshold_gate=yes" in report
    assert "check latency_shift=yes" in report
    assert "check refraction=yes" in report
    for k in range(1, 5):
        assert (out / f"row{k}_drive.csv").exists()
        assert (out / f"row{k}_voltage.csv").exists()
        assert (out / f"row{k}_state.csv").exists()
