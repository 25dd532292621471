"""TLR neuron: threshold, latency law, refraction, waveform, step/vector parity,
and the batched kernel against the one-row loop it replaced.

The package runs one TLR model, the batched kernel behind ``run_tlr``.  Its
two oracles live here: the per-step model (``tlr_step`` and its helpers,
driven by ``simulate_steps``) and the one-row loop ``reference_run_tlr``."""

import math
from dataclasses import replace
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjsnn import tlr as tlr_module
from mtjsnn.errors import InvalidInputError
from mtjsnn.tlr import (
    IDLE,
    TlrParams,
    TlrRun,
    TlrState,
    _raised_cosine,
    _run_batch,
    constant_drive_latency,
    run_tlr,
    source_waveform,
)

SPIKING = "spiking"
REFRACTORY = "refractory"


def spike_waveform(params: TlrParams, t_since_onset: float) -> float:
    """Raised-cosine output pulse; 0 outside [0, spike_duration]."""
    if t_since_onset < 0 or not math.isfinite(t_since_onset):
        raise InvalidInputError("t_since_onset must be >= 0 and finite")
    if t_since_onset > params.spike_duration:
        return 0.0
    x = t_since_onset / params.spike_duration
    return float(_raised_cosine(params.spike_amplitude, x))


def _output_voltage(params: TlrParams, onset: Optional[float], t: float) -> float:
    if onset is None:
        return 0.0
    dt_on = t - onset
    if dt_on < 0 or dt_on > params.spike_duration:
        return 0.0
    return spike_waveform(params, dt_on)


def effective_threshold(params: TlrParams, t: float, last_onset: Optional[float]) -> float:
    """Firing threshold, elevated after a spike when relative refraction is on."""
    if last_onset is None or params.rel_refraction_beta == 0.0:
        return params.i_threshold
    elapsed = t - last_onset
    if elapsed < 0:
        return params.i_threshold
    boost = params.rel_refraction_beta * math.exp(-elapsed / params.rel_refraction_tau)
    return params.i_threshold * (1.0 + boost)


def tlr_step(
    state: TlrState,
    params: TlrParams,
    drive: float,
    t: float,
    dt: float,
) -> tuple[TlrState, float, Optional[float]]:
    """Advance the neuron from t to t+dt under a piecewise-constant drive.

    Returns the new state, the output voltage at t+dt, and the spike onset
    time if the threshold-crossing occurred during this step.  The onset is
    the linearly interpolated crossing time plus ``latency_floor``.
    """
    if not math.isfinite(drive):
        raise InvalidInputError("drive must be finite")
    if not (dt > 0 and math.isfinite(dt)):
        raise InvalidInputError("dt must be positive and finite")

    t_end = t + dt
    acc = state.accumulation
    phase = state.phase
    last = state.last_spike_onset
    onset_out: Optional[float] = None

    window_start = t
    if phase != IDLE:
        rearm = last + params.lockout
        if t_end < rearm:
            new_phase = SPIKING if t_end < last + params.spike_duration else REFRACTORY
            new_state = replace(state, phase=new_phase)
            return new_state, _output_voltage(params, last, t_end), None
        # lockout ends inside this step; integrate only the remainder
        window_start = rearm
        phase = IDLE

    width = t_end - window_start
    if width > 0:
        threshold = effective_threshold(params, window_start, last)
        excess = drive - threshold
        if excess > 0:
            new_acc = acc + excess * width
            if new_acc >= params.q_switch:
                t_cross = window_start + (params.q_switch - acc) / excess
                onset_out = t_cross + params.latency_floor
                last = onset_out
                acc = 0.0
                phase = SPIKING
            else:
                acc = new_acc

    new_state = TlrState(accumulation=acc, phase=phase, last_spike_onset=last)
    return new_state, _output_voltage(params, last, t_end), onset_out


def simulate_steps(params, drive, dt):
    """Step-by-step reference path; returns list of onsets."""
    state = TlrState()
    onsets = []
    for k in range(drive.size - 1):
        state, _v, onset = tlr_step(state, params, float(drive[k]), k * dt, dt)
        if onset is not None:
            onsets.append(onset)
    return onsets


def reference_run_tlr(params, drive, dt, t0=0.0):
    """The one-row loop the batched kernel replaced: the oracle for
    ``_run_batch``.  Each pass integrates the rest of the horizon from the
    last re-arm and masks every pulse over the whole grid."""
    drive = np.asarray(drive, dtype=float)
    n_steps = drive.size - 1
    time = t0 + dt * np.arange(drive.size)
    acc_series = np.zeros(drive.size)
    onsets = []

    i = 0
    acc = 0.0
    last = None
    window_start0 = t0

    while i < n_steps:
        seg = drive[i:n_steps]
        starts = t0 + dt * np.arange(i, n_steps)
        starts[0] = window_start0
        widths = np.full(seg.size, dt)
        widths[0] = (t0 + (i + 1) * dt) - window_start0

        if last is not None and params.rel_refraction_beta > 0.0:
            boost = params.rel_refraction_beta * np.exp(
                -(starts - last) / params.rel_refraction_tau
            )
            threshold = params.i_threshold * (1.0 + boost)
        else:
            threshold = params.i_threshold

        excess = np.maximum(seg - threshold, 0.0)
        cum = acc + np.cumsum(excess * widths)
        acc_series[i + 1 : n_steps + 1] = cum

        hit = np.nonzero(cum >= params.q_switch)[0]
        if hit.size == 0:
            break
        k = int(hit[0])
        acc_before = acc if k == 0 else cum[k - 1]
        t_cross = starts[k] + (params.q_switch - acc_before) / excess[k]
        onset = t_cross + params.latency_floor
        onsets.append(onset)
        last = onset

        rearm = onset + params.lockout
        j = int(math.floor((rearm - t0) / dt))
        end = min(j, n_steps)
        acc_series[i + k + 1 : end + 1] = 0.0
        if j >= n_steps:
            acc_series[i + k + 1 :] = 0.0
            i = n_steps
            break
        acc = 0.0
        i = j
        window_start0 = max(rearm, t0 + j * dt)

    v = np.zeros(drive.size)
    for onset in onsets:
        mask = (time >= onset) & (time <= onset + params.spike_duration)
        x = (time[mask] - onset) / params.spike_duration
        v[mask] = params.spike_amplitude * (1.0 - np.cos(2.0 * np.pi * x)) / 2.0

    return TlrRun(time=time, v_out=v, accumulation=acc_series, onsets=onsets)


class TestParams:
    def test_defaults_valid(self):
        p = TlrParams()
        assert p.i_threshold == 1.0
        assert p.lockout == p.t_refractory

    @pytest.mark.parametrize("kwargs", [
        {"i_threshold": 0.0},
        {"q_switch": -1.0},
        {"spike_duration": 0.0},
        {"latency_floor": -0.1},
        {"t_refractory": -1.0},
        {"rel_refraction_beta": -0.5},
    ])
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            TlrParams(**kwargs)

    def test_zero_refractory_allowed_for_ablation(self):
        assert TlrParams(t_refractory=0.0).lockout == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"latency_floor": math.inf},
        {"latency_floor": math.nan},
        {"t_refractory": math.inf},
        {"t_refractory": math.nan},
    ])
    def test_non_finite_timing_rejected(self, kwargs):
        with pytest.raises(InvalidInputError, match="finite"):
            TlrParams(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["rel_refraction_beta", "rel_refraction_tau"])
    def test_non_finite_relative_refraction_rejected(self, key, value):
        # a nan beta would read as 0 in the kernel, an inf one fills the
        # accumulation with nan; the per-step model does neither
        with pytest.raises(InvalidInputError, match="finite") as exc:
            TlrParams(**{key: value})
        assert exc.value.key == key


class TestSpikeWaveform:
    def test_edges_and_peak(self):
        p = TlrParams(spike_amplitude=0.8, spike_duration=2.0)
        assert spike_waveform(p, 0.0) == 0.0
        assert spike_waveform(p, 2.0) == pytest.approx(0.0, abs=1e-15)
        assert spike_waveform(p, 1.0) == pytest.approx(0.8)
        assert spike_waveform(p, 3.0) == 0.0

    def test_integral_is_half_area(self):
        p = TlrParams(spike_amplitude=1.5, spike_duration=1.2)
        t = np.linspace(0, p.spike_duration, 20001)
        v = np.array([spike_waveform(p, x) for x in t])
        integral = np.trapezoid(v, t)
        assert integral == pytest.approx(p.spike_amplitude * p.spike_duration / 2, rel=1e-6)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInputError):
            spike_waveform(TlrParams(), -0.1)

    @given(st.floats(min_value=0.0, max_value=10.0))
    def test_nonnegative_and_bounded(self, t):
        p = TlrParams()
        v = spike_waveform(p, t)
        assert 0.0 <= v <= p.spike_amplitude


class TestThreshold:
    @pytest.mark.parametrize("frac", [0.5, 0.9, 0.99, 1.0])
    def test_at_or_below_threshold_never_fires(self, frac):
        p = TlrParams()
        n = int(round(5.0 / 0.001))
        run = run_tlr(p, np.full(n + 1, frac * p.i_threshold), 0.001)
        assert run.onsets == []
        assert np.all(run.v_out == 0.0)

    @pytest.mark.parametrize("frac", [1.01, 1.5, 3.0])
    def test_above_threshold_fires_once(self, frac):
        # single-spike regime: stimulus removed once the spike is underway
        p = TlrParams()
        dt = 0.005
        n = int(round(15.0 / dt))
        t = dt * np.arange(n + 1)
        level = frac * p.i_threshold
        drive = np.where(t < constant_drive_latency(p, level), level, 0.0)
        run = run_tlr(p, drive, dt)
        assert len(run.onsets) == 1


class TestLatencyLaw:
    def test_closed_form_example(self):
        p = TlrParams(i_threshold=1.0, q_switch=1.0, latency_floor=0.2)
        assert constant_drive_latency(p, 2.0) == pytest.approx(1.2)

    def test_at_threshold_none(self):
        assert constant_drive_latency(TlrParams(), 1.0) is None
        assert constant_drive_latency(TlrParams(), 0.5) is None

    def test_strictly_decreasing_and_diverging(self):
        p = TlrParams()
        drives = np.linspace(1.1, 3.0, 20)
        lats = [constant_drive_latency(p, d) for d in drives]
        assert all(a > b for a, b in zip(lats, lats[1:]))
        assert constant_drive_latency(p, 1.01) > 3 * constant_drive_latency(p, 2.0)

    @pytest.mark.parametrize("drive", [1.1, 1.3, 1.7, 2.0, 2.6, 3.0])
    def test_simulation_matches_closed_form_within_dt(self, drive):
        p = TlrParams()
        dt = 0.001
        n = int(round(5.0 / dt))
        run = run_tlr(p, np.full(n + 1, drive), dt)
        assert len(run.onsets) == 1
        assert abs(run.onsets[0] - constant_drive_latency(p, drive)) <= dt

    def test_step_size_convergence(self):
        # halving dt shrinks the onset error by O(dt); a ramp drive makes the
        # piecewise-constant quantization visible (constant drive is exact)
        p = TlrParams()

        def onset(dt):
            n = int(round(5.0 / dt))
            t = dt * np.arange(n + 1)
            run = run_tlr(p, 0.7 + 0.6 * t, dt)
            assert run.onsets
            return run.onsets[0]

        reference = onset(0.0005)
        errs = [abs(onset(dt) - reference) for dt in (0.008, 0.004, 0.002)]
        assert errs[2] < errs[0]
        assert errs[2] <= 0.004


class TestStepSemantics:
    def test_closed_form_step_example(self):
        # i_th=1, q=1, floor=0 under drive 2.0 -> onset at exactly 1.0 ns
        p = TlrParams(i_threshold=1.0, q_switch=1.0, latency_floor=0.0,
                      spike_duration=0.5, t_refractory=5.0)
        dt = 0.01
        n = int(round(3.0 / dt))
        onsets = simulate_steps(p, np.full(n + 1, 2.0), dt)
        assert len(onsets) == 1
        assert onsets[0] == pytest.approx(1.0, abs=1e-9)

    def test_accumulation_resets_on_spike(self):
        p = TlrParams(i_threshold=1.0, q_switch=0.05, latency_floor=0.0)
        state = TlrState()
        state, _v, onset = tlr_step(state, p, 2.0, 0.0, 0.1)
        assert onset is not None
        assert state.accumulation == 0.0
        assert state.phase != IDLE

    def test_invalid_inputs(self):
        with pytest.raises(InvalidInputError):
            tlr_step(TlrState(), TlrParams(), math.nan, 0.0, 0.01)
        with pytest.raises(InvalidInputError):
            tlr_step(TlrState(), TlrParams(), 1.0, 0.0, 0.0)

    def test_vectorized_matches_stepwise(self):
        p = TlrParams(t_refractory=1.5)
        dt = 0.002
        rng = np.random.default_rng(7)
        drive = 1.5 * rng.random(2001) + 0.3
        run = run_tlr(p, drive, dt)
        ref = simulate_steps(p, drive, dt)
        assert len(run.onsets) == len(ref)
        for a, b in zip(run.onsets, ref):
            assert a == pytest.approx(b, abs=1e-12)

    def test_vectorized_matches_stepwise_random_parameters(self):
        # t_refractory 0 ablates refraction and 0.3 re-arms inside the 1.2 ns
        # pulse, so overlapping pulses and relative refraction are covered
        rng = np.random.default_rng(11)
        dt = 0.002
        spikes = 0
        for _ in range(200):
            p = TlrParams(
                spike_duration=1.2,
                t_refractory=float(rng.choice([0.0, 0.3, 1.5])),
                rel_refraction_beta=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
                rel_refraction_tau=float(rng.uniform(0.1, 3.0)),
                latency_floor=float(rng.uniform(0.0, 0.5)),
            )
            drive = 1.5 * rng.random(1501) + 0.3
            run = run_tlr(p, drive, dt)
            ref = simulate_steps(p, drive, dt)
            assert len(run.onsets) == len(ref)
            for a, b in zip(run.onsets, ref):
                assert a == pytest.approx(b, abs=1e-12)
            spikes += len(ref)
        assert spikes > 200


class TestRefraction:
    def _two_pulse_drive(self, dt, horizon, first, second, level=2.0):
        n = int(round(horizon / dt))
        t = dt * np.arange(n + 1)
        drive = np.zeros(n + 1)
        for lo, hi in (first, second):
            drive[(t >= lo) & (t < hi)] = level
        return drive

    def test_pulse_inside_window_suppressed(self):
        p = TlrParams()  # onset at 0.4 for drive 2.0 from t=0; lockout 5.0
        dt = 0.005
        drive = self._two_pulse_drive(dt, 8.0, (0.0, 1.0), (2.0, 3.0))
        run = run_tlr(p, drive, dt)
        assert len(run.onsets) == 1

    def test_pulse_after_window_fires(self):
        p = TlrParams()
        dt = 0.005
        drive = self._two_pulse_drive(dt, 8.0, (0.0, 1.0), (6.0, 7.0))
        run = run_tlr(p, drive, dt)
        assert len(run.onsets) == 2
        assert run.onsets[1] > run.onsets[0] + p.t_refractory

    def test_zero_refractory_refires_immediately(self):
        p = TlrParams(t_refractory=0.0)
        dt = 0.005
        n = int(round(3.0 / dt))
        run = run_tlr(p, np.full(n + 1, 2.0), dt)
        assert len(run.onsets) >= 2


class TestRelativeRefraction:
    def test_elevated_threshold_delays_second_spike(self):
        base = TlrParams(t_refractory=1.2, spike_duration=1.2)
        elevated = TlrParams(t_refractory=1.2, spike_duration=1.2,
                             rel_refraction_beta=0.5, rel_refraction_tau=2.0)
        dt = 0.002
        n = int(round(10.0 / dt))
        drive = np.full(n + 1, 1.4)
        run_base = run_tlr(base, drive, dt)
        run_elev = run_tlr(elevated, drive, dt)
        assert len(run_base.onsets) >= 2 and len(run_elev.onsets) >= 2
        assert run_elev.onsets[1] > run_base.onsets[1]

    def test_default_off_matches_plain(self):
        p0 = TlrParams()
        p1 = TlrParams(rel_refraction_tau=3.0)  # beta still 0
        dt = 0.005
        n = int(round(5.0 / dt))
        drive = np.full(n + 1, 1.8)
        assert run_tlr(p0, drive, dt).onsets == run_tlr(p1, drive, dt).onsets


def _pulse_train(n, dt, pulses, level):
    """Drive of ``level`` over each ``(start, stop)`` ns interval, else 0."""
    t = dt * np.arange(n + 1)
    drive = np.zeros(n + 1)
    for lo, hi in pulses:
        drive[(t >= lo) & (t < hi)] = level
    return drive


def assert_rows_match_reference(params, drive, dt, t0=0.0):
    """Every row of the batched kernel equals the one-row reference, bit for bit."""
    v_out, acc = np.zeros(drive.shape), np.zeros(drive.shape)
    onsets = _run_batch(params, drive, dt, t0, v=v_out, state=acc)
    spikes = 0
    for r, row in enumerate(drive):
        ref = reference_run_tlr(params, row, dt, t0)
        assert onsets[r] == [float(t) for t in ref.onsets], r
        assert v_out[r].tobytes() == ref.v_out.tobytes(), r
        assert acc[r].tobytes() == ref.accumulation.tobytes(), r
        spikes += len(ref.onsets)
    return spikes


class TestBatchedKernel:
    """``_run_batch`` against ``reference_run_tlr``, row by row and bitwise."""

    DT = 0.002

    def test_single_spike_rows(self):
        p = TlrParams()
        rng = np.random.default_rng(1)
        n = int(round(5.0 / self.DT))
        drive = np.stack([_pulse_train(n, self.DT, [(0.0, 1.0)], level)
                          for level in rng.uniform(1.05, 3.0, 6)])
        assert assert_rows_match_reference(p, drive, self.DT) == 6

    def test_multi_spike_refractory_below_horizon(self):
        p = TlrParams(t_refractory=1.5)
        rng = np.random.default_rng(2)
        drive = 1.5 * rng.random((5, 4001)) + 0.3
        assert assert_rows_match_reference(p, drive, self.DT) > 10

    def test_relative_refraction(self):
        p = TlrParams(t_refractory=1.2, spike_duration=1.2,
                      rel_refraction_beta=0.5, rel_refraction_tau=2.0)
        n = int(round(10.0 / self.DT))
        drive = np.stack([np.full(n + 1, level) for level in (1.2, 1.4, 1.9)]
                         + [_pulse_train(n, self.DT, [(0.5, 3.0), (4.0, 9.0)], 1.6)])
        assert assert_rows_match_reference(p, drive, self.DT) > 8

    def test_zero_refractory_ablation(self):
        p = TlrParams(t_refractory=0.0)
        n = int(round(3.0 / 0.005))
        drive = np.stack([np.full(n + 1, level) for level in (1.3, 2.0, 4.0)])
        assert assert_rows_match_reference(p, drive, 0.005) > 10

    def test_silent_rows_beside_firing_rows(self):
        p = TlrParams(t_refractory=1.0)
        n = int(round(5.0 / self.DT))
        drive = np.stack([np.zeros(n + 1), np.full(n + 1, 0.99),
                          _pulse_train(n, self.DT, [(0.2, 0.4), (2.0, 4.0)], 2.5),
                          np.full(n + 1, -3.0)])
        assert assert_rows_match_reference(p, drive, self.DT) > 0
        v_out = np.zeros(drive.shape)
        onsets = _run_batch(p, drive, self.DT, v=v_out)
        for r in (0, 1, 3):
            assert onsets[r] == [] and not v_out[r].any()

    def test_one_row_and_public_run(self):
        p = TlrParams(t_refractory=1.0)
        drive = _pulse_train(2500, self.DT, [(0.1, 1.0), (1.5, 3.5)], 1.8)
        assert assert_rows_match_reference(p, drive[None, :], self.DT) >= 2
        for t0 in (0.0, 1.3, -0.7):
            run = run_tlr(p, drive, self.DT, t0)
            ref = reference_run_tlr(p, drive, self.DT, t0)
            assert run.time.tobytes() == ref.time.tobytes(), t0
            assert run.onsets == [float(t) for t in ref.onsets]
            assert run.v_out.tobytes() == ref.v_out.tobytes()
            assert run.accumulation.tobytes() == ref.accumulation.tobytes()

    def test_random_parameters_and_offsets(self):
        rng = np.random.default_rng(3)
        spikes = 0
        for _ in range(60):
            p = TlrParams(
                i_threshold=float(rng.uniform(0.5, 2.0)),
                q_switch=float(rng.uniform(0.005, 0.3)),
                latency_floor=float(rng.choice([0.0, rng.uniform(0.0, 1.0)])),
                spike_duration=float(rng.uniform(0.05, 1.5)),
                t_refractory=float(rng.choice([0.0, 0.01, rng.uniform(0.0, 2.0), 5.0])),
                rel_refraction_beta=float(rng.choice([0.0, rng.uniform(0.0, 2.0)])),
                rel_refraction_tau=float(rng.choice([0.001, rng.uniform(0.01, 3.0)])),
            )
            dt = float(rng.choice([0.001, 0.0037, 0.01]))
            t0 = float(rng.choice([0.0, 1.3, -0.7]))
            shape = (int(rng.integers(1, 5)), int(rng.integers(2, 300)))
            drive = np.where(rng.random(shape) < 0.5, rng.uniform(0.0, 4.0, shape), 0.0)
            spikes += assert_rows_match_reference(p, drive, dt, t0)
        assert spikes > 100

    def test_accumulation_held_across_long_gaps(self):
        # short pulses each add a fraction of q_switch; the accumulation must
        # carry across the silent steps between them, however the scan is cut
        p = TlrParams(q_switch=0.1, t_refractory=0.5, latency_floor=0.1)
        dt = 0.001
        n = 12000
        drive = np.stack([
            _pulse_train(n, dt, [(t, t + 0.05) for t in np.arange(0.0, 12.0, period)], 1.5)
            for period in (0.7, 1.0, 1.9, 2.9)
        ])
        assert assert_rows_match_reference(p, drive, dt) > 8

    @pytest.mark.parametrize("cells", [1, 3, 64])
    def test_any_chunk_size(self, monkeypatch, cells):
        # chunk boundaries fall anywhere: at crossings, restarts and the last step
        monkeypatch.setattr(tlr_module, "_CHUNK_CELLS", cells)
        rng = np.random.default_rng(cells)
        spikes = 0
        for _ in range(25):
            p = TlrParams(q_switch=float(rng.uniform(0.005, 0.2)),
                          latency_floor=float(rng.choice([0.0, 0.2])),
                          spike_duration=0.3,
                          t_refractory=float(rng.choice([0.0, 0.05, 0.4])),
                          rel_refraction_beta=float(rng.choice([0.0, 0.7])))
            shape = (int(rng.integers(1, 4)), int(rng.integers(2, 200)))
            drive = np.where(rng.random(shape) < 0.6, rng.uniform(0.0, 3.0, shape), 0.0)
            spikes += assert_rows_match_reference(p, drive, 0.01)
        assert spikes > 50

    def test_huge_refractory_never_cast_to_int(self):
        # the re-arm time divided by dt overflows to inf; the loop this
        # replaced raised OverflowError casting it to an integer
        p = TlrParams(t_refractory=1.7e308)
        run = run_tlr(p, np.full(1001, 2.0), 0.001)
        assert len(run.onsets) == 1


def reference_source_waveform(time, spike_times, amplitude, duration):
    """The full-grid mask per onset that ``source_waveform`` replaced."""
    v = np.zeros_like(time, dtype=float)
    for onset in spike_times:
        mask = (time >= onset) & (time <= onset + duration)
        x = (time[mask] - onset) / duration
        v[mask] += amplitude * (1.0 - np.cos(2.0 * np.pi * x)) / 2.0
    return v


class TestSourceWaveform:
    def test_matches_mask_reference_bitwise(self):
        rng = np.random.default_rng(4)
        for _ in range(150):
            dt = float(rng.choice([0.001, 0.002, 0.0037, 0.01]))
            n_steps = int(rng.integers(10, 2000))
            time = dt * np.arange(n_steps + 1)
            horizon = float(time[-1])
            duration = float(rng.choice([dt, 1.2, rng.uniform(0.01, 3.0), 2 * horizon]))
            onsets = [0.0, horizon, float(time[rng.integers(n_steps + 1)]),
                      float(time[-2]) + dt / 2]
            onsets += rng.uniform(0.0, horizon, int(rng.integers(0, 20))).tolist()
            onsets = [float(t) for t in rng.permutation(onsets)[: int(rng.integers(1, 24))]]
            amplitude = float(rng.uniform(0.1, 2.0))
            new = source_waveform(time, onsets, amplitude, duration)
            ref = reference_source_waveform(time, onsets, amplitude, duration)
            assert new.tobytes() == ref.tobytes()

    def test_onsets_at_zero_on_grid_points_and_at_horizon(self):
        time = 0.25 * np.arange(9)
        for onsets in ([0.0], [0.5], [2.0], [0.0, 0.5, 2.0], []):
            v = source_waveform(time, onsets, 1.0, 1.0)
            assert v.tobytes() == reference_source_waveform(time, onsets, 1.0, 1.0).tobytes()
        assert source_waveform(time, [0.5], 1.0, 1.0)[4] == 1.0   # the peak, on the grid
