"""Phenomenological threshold-latency-refraction (TLR) neuron.

The neuron integrates the excess of its input drive over a firing threshold.
Once the integrated excess reaches ``q_switch`` the neuron emits a single
voltage spike (raised-cosine pulse) and enters an absolute refractory window
during which input is ignored entirely.  Response latency under constant
drive ``I`` follows ``latency_floor + q_switch / (I - i_threshold)``, which
diverges as the drive approaches threshold from above.

Drive is expressed in normalized drive-units (threshold is 1.0 by default),
time in nanoseconds, output voltage in volts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvalidInputError

IDLE = "idle"
SPIKING = "spiking"
REFRACTORY = "refractory"

_CHUNK_CELLS = 4096   # rows x steps one chunk of a batched TLR scan integrates


@dataclass(frozen=True)
class TlrParams:
    """Neuron parameters.

    ``t_refractory`` may be set below ``spike_duration`` (including 0) to
    ablate refraction; in that mode a neuron can re-arm while its own pulse
    is still being emitted, which the normal regime forbids.
    """

    i_threshold: float = 1.0        # drive-units
    q_switch: float = 0.1           # drive-units * ns of integrated excess
    latency_floor: float = 0.3      # ns, minimum response delay at strong drive
    spike_amplitude: float = 1.0    # volts
    spike_duration: float = 1.2     # ns
    t_refractory: float = 5.0       # ns, measured from spike onset
    rel_refraction_beta: float = 0.0   # fractional threshold elevation, 0 = off
    rel_refraction_tau: float = 1.0    # ns, decay of the elevation

    def __post_init__(self):
        if not (self.i_threshold > 0 and math.isfinite(self.i_threshold)):
            raise InvalidInputError("i_threshold must be positive and finite", key="i_threshold")
        if not (self.q_switch > 0 and math.isfinite(self.q_switch)):
            raise InvalidInputError("q_switch must be positive and finite", key="q_switch")
        if not (self.spike_duration > 0 and math.isfinite(self.spike_duration)):
            raise InvalidInputError("spike_duration must be positive and finite",
                                    key="spike_duration")
        if not (self.latency_floor >= 0 and math.isfinite(self.latency_floor)):
            raise InvalidInputError("latency_floor must be >= 0 and finite", key="latency_floor")
        if not (self.t_refractory >= 0 and math.isfinite(self.t_refractory)):
            raise InvalidInputError("t_refractory must be >= 0 and finite", key="t_refractory")
        if self.rel_refraction_beta < 0:
            raise InvalidInputError("rel_refraction_beta must be >= 0", key="rel_refraction_beta")
        if self.rel_refraction_tau <= 0:
            raise InvalidInputError("rel_refraction_tau must be > 0", key="rel_refraction_tau")

    @property
    def lockout(self) -> float:
        """Absolute lockout measured from spike onset."""
        return self.t_refractory


@dataclass(frozen=True)
class TlrState:
    accumulation: float = 0.0
    phase: str = IDLE
    last_spike_onset: Optional[float] = None


def _raised_cosine(amplitude: float, x):
    """The pulse shape at phase ``x`` in [0, 1] of its duration."""
    return amplitude * (1.0 - np.cos(2.0 * np.pi * x)) / 2.0


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


def constant_drive_latency(params: TlrParams, drive: float) -> Optional[float]:
    """Closed-form spike latency under constant drive; None below/at threshold."""
    if not math.isfinite(drive):
        raise InvalidInputError("drive must be finite")
    if drive <= params.i_threshold:
        return None
    return params.latency_floor + params.q_switch / (drive - params.i_threshold)


@dataclass
class TlrRun:
    """Result of a full-horizon TLR simulation on a fixed grid."""

    time: np.ndarray          # grid points, ns
    v_out: np.ndarray         # output voltage at grid points
    accumulation: np.ndarray  # integrated excess at grid points
    onsets: list[float]       # spike onset times, ns


def run_tlr(params: TlrParams, drive: np.ndarray, dt: float, t0: float = 0.0) -> TlrRun:
    """Vectorized equivalent of repeatedly calling :func:`tlr_step`.

    ``drive`` holds grid-point samples; step k applies ``drive[k]`` over
    ``[t_k, t_k + dt]``, so the last sample is unused for integration.
    Must agree with the step-by-step path to floating-point noise.  This is
    the one-row case of the batched kernel the network simulation uses.
    """
    drive = np.asarray(drive, dtype=float)
    if drive.ndim != 1 or drive.size < 2:
        raise InvalidInputError("drive must be a 1-D array of at least 2 samples")
    time, v_out, acc, onsets = _run_batch(params, drive[None, :], dt, t0)
    return TlrRun(time=time, v_out=v_out[0], accumulation=acc[0], onsets=onsets[0])


def _run_batch(
    params: TlrParams, drive: np.ndarray, dt: float, t0: float = 0.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]:
    """Kernel behind :func:`run_tlr`: each row of a ``(B, N+1)`` drive is an
    independent neuron with ``params``.

    Returns the grid, the ``(B, N+1)`` output voltage and accumulation, and
    one onset list per row.  Each row gets exactly the floats a one-row run
    of the same drive gives: the per-step arithmetic is elementwise and the
    accumulation is a sequential cumulative sum along the row.
    """
    if not np.all(np.isfinite(drive)):
        raise InvalidInputError("drive must be finite")
    if not (dt > 0 and math.isfinite(dt)):
        raise InvalidInputError("dt must be positive and finite")

    n_rows, size = drive.shape
    n_steps = size - 1
    q = params.q_switch
    time = t0 + dt * np.arange(size)
    acc_series = np.zeros((n_rows, size))
    onsets: list[list[float]] = [[] for _ in range(n_rows)]

    # Relative refraction only raises the threshold, so a step adds to the
    # accumulation only where the drive exceeds i_threshold; elsewhere the
    # excess is 0 and the accumulation holds.  Each row therefore jumps to
    # its next such step, and the rows still integrating advance together
    # one chunk of steps at a time, so a scan stops soon after a crossing.
    # ``supra`` holds the flat indices r * size + step of those steps; the
    # last sample is never integrated, so it marks the end of each row.
    above = drive > params.i_threshold
    above[:, n_steps] = True
    supra = np.flatnonzero(above)
    pos = np.zeros(n_rows, dtype=int)          # next step to integrate
    carry = np.zeros(n_rows)                   # running sum of excess * width before pos
    start = np.zeros(n_rows, dtype=int)        # step of the last (re)start
    resume = np.full(n_rows, float(t0))        # time integration resumes at in that step
    last = np.full(n_rows, -np.inf)            # last onset; -inf adds no boost
    alive = np.arange(n_rows)

    while True:
        # each row jumps to its next step above threshold, holding its
        # accumulation over the steps skipped; a row with none left is done
        nxt = supra[np.searchsorted(supra, alive * size + pos[alive])] - alive * size
        gap = (nxt > pos[alive]) & (carry[alive] != 0.0)
        if gap.any():
            for r, b in zip(alive[gap], nxt[gap]):
                acc_series[r, pos[r] + 1 : b + 1] = 0.0 + carry[r]
        left = nxt < n_steps
        alive, nxt = alive[left], nxt[left]
        if not alive.size:
            break
        pos[alive] = nxt
        c0 = int(nxt.min())
        c1 = min(c0 + max(_CHUNK_CELLS // alive.size, 1), n_steps)
        rows = alive[nxt < c1]
        p = pos[rows]
        cols = np.arange(c0, c1)
        # a row's restart step is integrated from its resume time, not the grid
        own = np.flatnonzero(start[rows] == p)
        at = p[own] - c0

        if params.rel_refraction_beta > 0.0:
            starts = np.repeat((t0 + dt * cols)[None, :], rows.size, axis=0)
            starts[own, at] = resume[rows[own]]
            # steps before a row's position may precede its last onset and
            # overflow; they are zeroed below
            with np.errstate(over="ignore"):
                boost = params.rel_refraction_beta * np.exp(
                    -(starts - last[rows, None]) / params.rel_refraction_tau
                )
            threshold = params.i_threshold * (1.0 + boost)
        else:
            threshold = params.i_threshold
        excess = np.maximum(drive[rows, c0:c1] - threshold, 0.0)
        if p.max() > c0:
            excess[cols < p[:, None]] = 0.0
        step = excess * dt
        if own.size:
            step[own, at] = excess[own, at] * ((t0 + (p[own] + 1) * dt) - resume[rows[own]])
        step[:, 0] += carry[rows]
        raw = np.cumsum(step, axis=1)
        cum = 0.0 + raw

        hit = cum >= q
        found = hit.any(axis=1)
        k = np.where(found, hit.argmax(axis=1), cols.size)
        # the accumulation is recorded up to a crossing; the spike resets it
        for a, (r, begin, stop) in enumerate(zip(rows.tolist(), (p - c0).tolist(), k.tolist())):
            acc_series[r, c0 + begin + 1 : c0 + stop + 1] = cum[a, begin:stop]
        if not found.all():
            pos[rows[~found]] = c1
            carry[rows[~found]] = raw[~found, -1]

        for a in np.flatnonzero(found).tolist():
            r, kc = int(rows[a]), int(k[a])
            c = c0 + kc   # the crossing step
            acc_before = float(cum[a, kc - 1]) if kc > 0 else 0.0 + float(carry[r])
            step_start = float(resume[r]) if c == start[r] else t0 + dt * c
            onset = step_start + (q - acc_before) / float(excess[a, kc]) + params.latency_floor
            onsets[r].append(onset)
            last[r] = onset
            # re-arm inside the horizon; compared as floats so that a huge
            # lockout (x overflowing to inf) is never cast to an integer
            rearm = onset + params.lockout
            x = (rearm - t0) / dt
            if x < n_steps:
                j = math.floor(x)
                start[r] = pos[r] = j
                resume[r] = max(rearm, t0 + j * dt)
                carry[r] = 0.0
            else:
                pos[r] = n_steps   # no step left
        if not (pos[alive] < n_steps).any():
            break

    v = np.zeros((n_rows, size))
    for r, row_onsets in enumerate(onsets):
        for onset in row_onsets:
            # the grid is sorted, so this is the mask onset <= time <= onset + duration
            a = np.searchsorted(time, onset, "left")
            b = np.searchsorted(time, onset + params.spike_duration, "right")
            x = (time[a:b] - onset) / params.spike_duration
            v[r, a:b] = _raised_cosine(params.spike_amplitude, x)

    return time, v, acc_series, onsets


def source_waveform(
    time: np.ndarray,
    spike_times: list[float],
    amplitude: float,
    duration: float,
) -> np.ndarray:
    """Voltage trace of a source emitting the standard pulse at given onsets."""
    v = np.zeros_like(time, dtype=float)
    for onset in spike_times:
        mask = (time >= onset) & (time <= onset + duration)
        x = (time[mask] - onset) / duration
        v[mask] += _raised_cosine(amplitude, x)
    return v
