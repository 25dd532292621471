"""Phenomenological threshold-latency-refraction (TLR) neuron.

The neuron integrates the excess of its input drive over a firing threshold.
Once the integrated excess reaches ``q_switch`` the neuron emits a single
voltage spike (raised-cosine pulse) and enters an absolute refractory window
during which input is ignored entirely.  Response latency under constant
drive ``I`` follows ``latency_floor + q_switch / (I - i_threshold)``, which
diverges as the drive approaches threshold from above.

Drive is expressed in normalized drive-units (threshold is 1.0 by default),
time in nanoseconds, output voltage in volts.

This module also owns the time grid every simulator shares: the step rule
``_check_dt``, the step cap ``_MAX_STEPS``, ``SimConfig`` and ``_pulse``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

# rows x steps one chunk of a batched TLR scan integrates: a 76-row
# training batch then advances about 100 steps per chunk
_CHUNK_CELLS = 8192
# Each row of an N-step scan may emit at most max(N, _MIN_ONSET_BUDGET)
# onsets.  A neuron whose t_refractory + latency_floor is at least dt
# crosses at most once per step and never reaches it; one with neither
# under a huge drive would otherwise fire without end
_MIN_ONSET_BUDGET = 2048
# the most steps a grid may have: 8 MB per signal row, over six times the
# 160 ns at 1 ps of the longest shipped workload
_MAX_STEPS = 1_000_000


def _check_dt(dt: float) -> None:
    """The step rule of every simulation grid."""
    if not 0 < dt <= 0.01:
        raise InvalidInputError("dt must be in (0, 0.01] ns", key="dt")


@dataclass(frozen=True)
class SimConfig:
    """A grid of ``round(horizon / dt)`` steps, so ``horizon`` must be a
    whole number of steps (within a relative 1e-9) or the run would be cut,
    and at most ``_MAX_STEPS`` of them."""

    dt: float = 0.001    # ns
    horizon: float = 5.0  # ns

    def __post_init__(self):
        _check_dt(self.dt)
        if not 10 * self.dt <= self.horizon < math.inf:
            raise InvalidInputError("horizon must be finite and >= 10*dt", key="horizon")
        steps = self.horizon / self.dt
        if not (steps < math.inf and abs(steps - round(steps)) <= 1e-9 * steps):
            raise InvalidInputError(f"horizon must be a whole number of dt = {self.dt!r} ns steps",
                                    key="horizon")
        if self.steps > _MAX_STEPS:
            raise InvalidInputError(f"horizon must be at most {_MAX_STEPS} steps of dt = "
                                    f"{self.dt!r} ns", key="horizon")

    @property
    def steps(self) -> int:
        """The number of grid steps, ``round(horizon / dt)``."""
        return int(round(self.horizon / self.dt))


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

    def __post_init__(self):
        if not (self.i_threshold > 0 and math.isfinite(self.i_threshold)):
            raise InvalidInputError("i_threshold must be positive and finite", key="i_threshold")
        if not (self.q_switch > 0 and math.isfinite(self.q_switch)):
            raise InvalidInputError("q_switch must be positive and finite", key="q_switch")
        if not math.isfinite(self.spike_amplitude):
            raise InvalidInputError("spike_amplitude must be finite", key="spike_amplitude")
        if not (self.spike_duration > 0 and math.isfinite(self.spike_duration)):
            raise InvalidInputError("spike_duration must be positive and finite",
                                    key="spike_duration")
        if not (self.latency_floor >= 0 and math.isfinite(self.latency_floor)):
            raise InvalidInputError("latency_floor must be >= 0 and finite", key="latency_floor")
        if not (self.t_refractory >= 0 and math.isfinite(self.t_refractory)):
            raise InvalidInputError("t_refractory must be >= 0 and finite", key="t_refractory")


def _pulse(time: np.ndarray, onset: float, amplitude: float,
           duration: float) -> tuple[slice, np.ndarray]:
    """The standard raised-cosine pulse from ``onset`` on the sorted grid
    ``time``: the slice of the grid points in [onset, onset + duration] and
    the pulse's samples there."""
    a = np.searchsorted(time, onset, "left")
    b = np.searchsorted(time, onset + duration, "right")
    x = (time[a:b] - onset) / duration
    # halved before the product, which is exact, so no finite amplitude overflows
    return slice(a, b), amplitude * ((1.0 - np.cos(2.0 * np.pi * x)) / 2.0)


def constant_drive_latency(params: TlrParams, drive: float) -> Optional[float]:
    """Closed-form spike latency under constant drive; None below/at threshold."""
    if not math.isfinite(drive):
        raise InvalidInputError("drive must be finite", key="drive")
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


def run_tlr(params: TlrParams, drive: np.ndarray, dt: float) -> TlrRun:
    """Simulate one neuron over a fixed grid.

    ``drive[k]`` is the sample at grid point ``k * dt`` and drives step k,
    ``[k * dt, (k + 1) * dt]``, so the last sample is unused for integration.
    This is the one-row case of the batched kernel the network simulation
    uses.  Its oracles live in ``tests/test_tlr.py``: onsets must agree to
    floating-point noise with ``simulate_steps`` (built on the per-step
    ``tlr_step``), and every array bit for bit with ``reference_run_tlr``.
    """
    drive = np.asarray(drive, dtype=float)
    if drive.ndim != 1 or drive.size < 2:
        raise InvalidInputError("drive must be a 1-D array of at least 2 samples")
    _check_dt(dt)
    v, acc = np.zeros((1, drive.size)), np.zeros((1, drive.size))
    onsets = _run_batch(params, drive[None, :], dt, v=v, state=acc)
    return TlrRun(time=dt * np.arange(drive.size), v_out=v[0], accumulation=acc[0],
                  onsets=onsets[0])


def _run_batch(
    params: TlrParams, drive: np.ndarray, dt: float, *,
    v: Optional[np.ndarray] = None, state: Optional[np.ndarray] = None,
) -> list[list[float]]:
    """Kernel behind :func:`run_tlr`: each row of a ``(B, N+1)`` drive is an
    independent neuron with ``params``.

    Returns one onset list per row.  ``v`` and ``state``, when given, are
    zero-filled ``(B, N+1)`` arrays that receive the output voltage and the
    accumulation; the kernel computes neither when it gets None, and the
    onsets do not change.  Each row gets exactly the floats a one-row run
    of the same drive gives: the per-step arithmetic is elementwise and the
    accumulation is a sequential cumulative sum along the row.  Raises
    ``NumericalFailureError`` when a row's onset stops advancing, or when
    a row of an N-step grid passes its budget of ``max(N, 2048)`` onsets.
    Both callers have checked ``dt`` with ``_check_dt``.
    """
    n_rows, size = drive.shape
    # one boolean array holds the finiteness test, then the ``above`` mask
    mask = np.isfinite(drive)
    if not mask.all():
        raise InvalidInputError("drive must be finite", key="drive")

    n_steps = size - 1
    budget = max(n_steps, _MIN_ONSET_BUDGET)
    q = params.q_switch
    onsets: list[list[float]] = [[] for _ in range(n_rows)]

    # A step adds to the accumulation only where the drive exceeds
    # i_threshold; elsewhere the excess is 0 and the accumulation holds.
    # Each row therefore jumps to its next such step, and the rows still
    # integrating advance together one chunk of steps at a time, so a scan
    # stops soon after a crossing.
    # ``supra`` holds the flat indices r * size + step of those steps; the
    # last sample is never integrated, so it marks the end of each row.
    above = np.greater(drive, params.i_threshold, out=mask)
    above[:, n_steps] = True
    supra = np.flatnonzero(above)
    pos = np.zeros(n_rows, dtype=int)          # next step to integrate
    carry = np.zeros(n_rows)                   # running sum of excess * width before pos
    start = np.zeros(n_rows, dtype=int)        # step of the last (re)start
    resume = np.zeros(n_rows)                  # time integration resumes at in that step
    last = np.full(n_rows, -np.inf)            # last onset; each new one must pass it
    alive = np.arange(n_rows)

    while True:
        # each row jumps to its next step above threshold, holding its
        # accumulation over the steps skipped; a row with none left is done
        nxt = supra[np.searchsorted(supra, alive * size + pos[alive])] - alive * size
        gap = (nxt > pos[alive]) & (carry[alive] != 0.0)
        if state is not None and gap.any():
            for r, b in zip(alive[gap], nxt[gap]):
                state[r, pos[r] + 1 : b + 1] = 0.0 + carry[r]
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
        excess = np.maximum(drive[rows, c0:c1] - params.i_threshold, 0.0)
        if p.max() > c0:
            excess[cols < p[:, None]] = 0.0
        step = excess * dt
        if own.size:
            step[own, at] = excess[own, at] * ((p[own] + 1) * dt - resume[rows[own]])
        step[:, 0] += carry[rows]
        raw = np.cumsum(step, axis=1)
        cum = 0.0 + raw

        hit = cum >= q
        found = hit.any(axis=1)
        k = np.where(found, hit.argmax(axis=1), cols.size)
        # the accumulation is recorded up to a crossing; the spike resets it
        if state is not None:
            for a, (r, begin, stop) in enumerate(zip(rows.tolist(), (p - c0).tolist(),
                                                     k.tolist())):
                state[r, c0 + begin + 1 : c0 + stop + 1] = cum[a, begin:stop]
        if not found.all():
            pos[rows[~found]] = c1
            carry[rows[~found]] = raw[~found, -1]

        for a in np.flatnonzero(found).tolist():
            r, kc = int(rows[a]), int(k[a])
            c = c0 + kc   # the crossing step
            acc_before = float(cum[a, kc - 1]) if kc > 0 else 0.0 + float(carry[r])
            step_start = float(resume[r]) if c == start[r] else dt * c
            onset = step_start + (q - acc_before) / float(excess[a, kc]) + params.latency_floor
            if onset <= last[r]:
                raise NumericalFailureError(f"spike onsets stopped advancing at {onset!r} ns")
            if len(onsets[r]) == budget:
                raise NumericalFailureError(f"more than {budget} spike onsets in one row")
            onsets[r].append(onset)
            last[r] = onset
            # re-arm inside the horizon; compared as floats so that a huge
            # refractory window (x overflowing to inf) is never cast to an integer
            rearm = onset + params.t_refractory
            x = rearm / dt
            if x < n_steps:
                j = math.floor(x)
                start[r] = pos[r] = j
                resume[r] = max(rearm, j * dt)
                carry[r] = 0.0
            else:
                pos[r] = n_steps   # no step left
        if not (pos[alive] < n_steps).any():
            break

    if v is None:
        return onsets
    time = dt * np.arange(size)
    for r, row_onsets in enumerate(onsets):
        for onset in row_onsets:
            # a re-armed neuron's pulse replaces the rest of its last one
            cells, samples = _pulse(time, onset, params.spike_amplitude, params.spike_duration)
            v[r, cells] = samples
    return onsets


def source_waveform(
    time: np.ndarray,
    spike_times: list[float],
    amplitude: float,
    duration: float,
) -> np.ndarray:
    """Voltage trace of a source emitting the standard pulse at given onsets
    on the sorted grid ``time``."""
    v = np.zeros_like(time, dtype=float)
    for onset in spike_times:
        cells, samples = _pulse(time, onset, amplitude, duration)
        v[cells] += samples
    return v
