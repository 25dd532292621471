"""Single-domain MTJ free-layer dynamics in series with an NMOS transistor.

The free layer is a unit magnetization vector evolving under the
Landau-Lifshitz-Gilbert equation with a Slonczewski spin-transfer term
driven by the device current.  The MTJ sits between the supply rail and the
output node; the transistor pulls the node toward ground, so the node
voltage is ``v_dd - i * R(m)``.  Switching of the free layer changes the
MTJ resistance and shows up as a voltage transient at the node.

The integrator steps the three components of m as plain Python floats, in
one straight-line RK4 step: the closed-form root of the series-circuit
equation (``solve_node``) and the four evaluations of the LLGS right-hand
side (``llgs_derivative``), written out component by component on
parameter constants read once per integration, so a step makes no function
call and allocates no arrays.  A full trace records each grid point's
samples in 8-byte buffers; a latency probe records nothing per step and
keeps only the last two samples, the window that holds the first crossing.
The easy axis lies in the film plane, and the step arithmetic is planar: it
reads only its x and y.

Units: time ns, field T, current mA, resistance kOhm, voltage V
(mA * kOhm = V), gyromagnetic ratio rad/(ns*T).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, InvalidStateError, NumericalFailureError
from .tlr import SimConfig, TlrParams, _check_dt

_UNIT_TOL = 1e-6


@dataclass(frozen=True)
class MacrospinParams:
    """Device and circuit parameters.  The polarizer is the easy axis and
    lies in the film's x-y plane (``polarizer[2] == 0``): off that plane
    the antiparallel start is no fixed point under the out-of-plane
    demagnetizing field, and the free layer crosses the equator at any
    gate voltage, 0 V included.  The step arithmetic is planar: it reads
    only ``polarizer[0]`` and ``polarizer[1]``."""

    gamma: float = 176.0            # rad/(ns*T)
    alpha: float = 0.02             # Gilbert damping
    h_easy: float = 0.03            # T, easy-axis anisotropy along the polarizer axis
    h_demag: float = 0.6            # T, out-of-plane demagnetization
    stt_coefficient: float = -25.0  # rad/(ns*mA); negative: positive current drives AP -> P
    polarizer: tuple[float, float, float] = (1.0, 0.0, 0.0)
    r_parallel: float = 2.0         # kOhm
    r_antiparallel: float = 4.0     # kOhm
    v_dd: float = 1.0               # V
    transistor_k: float = 1.0       # mA/V^2
    transistor_vt: float = 0.4      # V

    def __post_init__(self):
        for f in fields(self):
            if not np.isfinite(getattr(self, f.name)).all():
                raise InvalidInputError(f"{f.name} must be finite", key=f.name)
        if self.alpha <= 0:
            raise InvalidInputError("alpha must be > 0", key="alpha")
        if not self.r_parallel > 0:
            raise InvalidInputError("r_parallel must be > 0", key="r_parallel")
        if not self.r_antiparallel > self.r_parallel:
            raise InvalidInputError("need r_antiparallel > r_parallel", key="r_antiparallel")
        if self.v_dd <= 0:
            raise InvalidInputError("v_dd must be > 0", key="v_dd")
        p = np.asarray(self.polarizer, dtype=float)
        if p.shape != (3,):
            raise InvalidInputError("polarizer must have 3 components", key="polarizer")
        if abs(_length(p) - 1.0) > _UNIT_TOL:
            raise InvalidInputError("polarizer must be a unit vector", key="polarizer")
        if p[2] != 0:
            raise InvalidInputError("polarizer must lie in the x-y plane (z = 0)",
                                    key="polarizer")

    @property
    def easy_axis(self) -> np.ndarray:
        return np.asarray(self.polarizer, dtype=float)


@dataclass
class MacrospinState:
    m: np.ndarray   # unit vector


def _length(v: np.ndarray) -> float:
    """Length of a 3-vector, taken as the integrator takes it (no BLAS)."""
    x, y, z = v.tolist()
    return math.sqrt(x * x + y * y + z * z)


def initial_state(params: MacrospinParams, tilt_deg: float = 1.0) -> MacrospinState:
    """Antiparallel state tilted in-plane by a fixed angle.

    The easy axis lies in-plane, so the exact antiparallel direction is a
    fixed point of the dynamics, and a small deterministic tilt toward the
    in-plane perpendicular stands in for thermal agitation.
    """
    if not math.isfinite(tilt_deg):
        raise InvalidInputError("tilt_deg must be finite", key="tilt_deg")
    ex, ey, ez = (float(c) for c in params.polarizer)
    # the in-plane direction perpendicular to the (in-plane) easy axis, z x e,
    # in np.cross's operations, so that each signed zero comes out as it does
    px, py, pz = 0.0 * ez - 1.0 * ey, 1.0 * ex - 0.0 * ez, 0.0 * ey - 0.0 * ex
    n = math.sqrt(px * px + py * py + pz * pz)
    px, py, pz = px / n, py / n, pz / n
    th = math.radians(tilt_deg)
    c, s = -math.cos(th), math.sin(th)
    x, y, z = c * ex + s * px, c * ey + s * py, c * ez + s * pz
    n = math.sqrt(x * x + y * y + z * z)
    return MacrospinState(m=np.array([x / n, y / n, z / n]))


def _check_unit(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    # written so that a NaN norm fails it too
    if m.shape != (3,) or not abs(_length(m) - 1.0) <= _UNIT_TOL:
        raise InvalidStateError("m must be a unit 3-vector")
    return m


def llgs_derivative(m: np.ndarray, params: MacrospinParams, i_device: float) -> np.ndarray:
    """dm/dt in 1/ns; exactly orthogonal to m term by term.

    The right-hand side is written out component by component, in the
    float expressions that each RK4 stage of ``integrate_macrospin`` runs.
    """
    x, y, z = (float(c) for c in _check_unit(m))
    ex, ey, _ = params.polarizer
    gp = params.gamma / (1.0 + params.alpha ** 2)
    gpa = gp * params.alpha
    s = params.stt_coefficient * i_device
    a = params.h_easy * (x * ex + y * ey)
    hx, hy, hz = a * ex, a * ey, -params.h_demag * z
    # m x h_eff, m x (m x h_eff), m x e, m x (m x e)
    px, py, pz = y * hz - z * hy, z * hx - x * hz, x * hy - y * hx
    qx, qy, qz = y * pz - z * py, z * px - x * pz, x * py - y * px
    ux, uy, uz = -z * ey, z * ex, x * ey - y * ex
    wx, wy, wz = y * uz - z * uy, z * ux - x * uz, x * uy - y * ux
    return np.array([(-gp * px - gpa * qx) + s * wx,
                     (-gp * py - gpa * qy) + s * wy,
                     (-gp * pz - gpa * qz) + s * wz])


def solve_node(resistance: float, v_gate: float, params: MacrospinParams) -> tuple[float, float]:
    """Self-consistent node voltage and device current for the series circuit.

    Solves v = v_dd - i(v) * R in closed form.  With the transistor in
    cutoff the node sits at the rail.  In saturation
    v = v_dd - R*k*v_ov^2/2, valid when that is >= v_ov.  Otherwise the
    transistor is in triode and v is the root in [0, v_ov] of
    (R*k/2) v^2 - (1 + R*k*v_ov) v + v_dd = 0, taken in the cancellation-free
    form 2*v_dd / (b + sqrt(b^2 - 2*R*k*v_dd)) with b = 1 + R*k*v_ov.
    A root outside (0, v_dd] raises ``NumericalFailureError``: a root
    above the rail (for example under a negative ``transistor_k``), or one
    that rounds to 0 because ``b * b`` overflowed the float range (a gate
    near 1e154 V under the default parameters).  The current takes the
    triode law ``k * (v_ov*v - v^2/2)`` below ``v = v_ov`` and the
    saturation law ``k * v_ov^2 / 2`` from it on, continuous at the
    boundary.
    """
    if not math.isfinite(v_gate):
        raise InvalidInputError("voltages must be finite")
    v_dd, k = params.v_dd, params.transistor_k
    v_ov = v_gate - params.transistor_vt
    if v_ov <= 0:
        return v_dd, 0.0
    rk = resistance * k
    v = v_dd - 0.5 * rk * v_ov * v_ov
    if v < v_ov:
        b = 1.0 + rk * v_ov
        v = 2.0 * v_dd / (b + math.sqrt(b * b - 2.0 * rk * v_dd))
    if not 0.0 < v <= v_dd:
        raise _solve_failure(v)
    return v, k * (v_ov * v - 0.5 * v * v) if v < v_ov else 0.5 * k * v_ov * v_ov


def _solve_failure(v: float) -> NumericalFailureError:
    """The error of a node voltage ``v`` outside (0, v_dd]."""
    if v == 0.0:   # what b * b = inf rounds the triode root to
        return NumericalFailureError("circuit solve: the gate overdrive overflowed the float range")
    return NumericalFailureError("circuit solve: no bracket in [0, v_dd]")


@dataclass
class MacrospinTrace:
    time: np.ndarray      # grid points, ns
    v_node: np.ndarray    # V
    i_device: np.ndarray  # mA
    m: np.ndarray         # (n, 3) unit vectors
    params: MacrospinParams = field(repr=False)

    def alignment(self) -> np.ndarray:
        """Projection of m on the easy axis (+1 parallel, -1 antiparallel),
        in the integrator's own arithmetic, ``x*ex + y*ey``."""
        ex, ey, _ = self.params.polarizer
        return self.m[:, 0] * ex + self.m[:, 1] * ey

    def switching_times(self) -> list[float]:
        """Times where the easy-axis projection crosses zero (linear interp)."""
        a, t = self.alignment(), self.time
        zero = a[:-1] == 0.0   # a sample at exactly zero is its own crossing
        k = np.flatnonzero(zero | (a[:-1] * a[1:] < 0))
        out, sign_change = t[k], ~zero[k]
        j = k[sign_change]
        out[sign_change] = t[j] + a[j] / (a[j] - a[j + 1]) * (t[j + 1] - t[j])
        return out.tolist()


def _integrate(state: MacrospinState, params: MacrospinParams, v_gate: list[float],
               dt: float, stop_after_switch: bool = False) -> MacrospinTrace:
    """The RK4 loop of ``integrate_macrospin`` on a checked grid of at least
    two finite gate samples.  It records every grid point's samples, unless
    ``stop_after_switch`` is set: then it records nothing per step, stops
    at the first sample whose easy-axis projection has changed sign or left
    an exact zero (the first sample at which a crossing can show in
    ``switching_times``), or else at the end of the grid, and returns only
    the last two samples, grid points ``k - 1`` and ``k``, at the full
    grid's times ``dt * k``.  That window holds the full trace's
    first crossing, if it has one, and no other.

    Each step is straight-line float code: the circuit solve of
    ``solve_node`` and the four stage evaluations of ``llgs_derivative``,
    each written out in the same float expressions, on constants read from
    ``params`` once.  As five calls (the solve and four stages) the step
    took about a fifth longer.
    """
    ex, ey, _ = params.polarizer
    h_easy, n_h_demag = params.h_easy, -params.h_demag
    gp = params.gamma / (1.0 + params.alpha ** 2)
    n_gp, gpa = -gp, gp * params.alpha
    stt = params.stt_coefficient
    r_p, r_span = params.r_parallel, params.r_antiparallel - params.r_parallel
    v_dd, vt, k_t = params.v_dd, params.transistor_vt, params.transistor_k
    two_v_dd, half_k = 2.0 * v_dd, 0.5 * k_t
    sqrt = math.sqrt
    x, y, z = (float(c) for c in _check_unit(state.m))

    n_steps = len(v_gate) - 1
    v_node_buf, i_buf, m_buf = array("d"), array("d"), array("d")
    put_v, put_i, put_m = v_node_buf.append, i_buf.append, m_buf.append
    h, h6 = 0.5 * dt, dt / 6.0
    c_prev = math.nan   # no sample before the first
    # a stage that overflows has an infinite norm, and the next stage divides
    # by the norm of all zeros; one try keeps the step free of checks
    try:
        for k, gate in enumerate(v_gate):
            # the node voltage and device current at m = (x, y, z)
            c = x * ex + y * ey
            v_ov = gate - vt
            if v_ov <= 0:
                v, i_dev = v_dd, 0.0
            else:
                rk = (r_p + r_span * (1.0 - c) / 2.0) * k_t
                v = v_dd - 0.5 * rk * v_ov * v_ov
                if v < v_ov:
                    b = 1.0 + rk * v_ov
                    v = two_v_dd / (b + sqrt(b * b - 2.0 * rk * v_dd))
                if not 0.0 < v <= v_dd:
                    raise _solve_failure(v)
                i_dev = k_t * (v_ov * v - 0.5 * v * v) if v < v_ov else half_k * v_ov * v_ov
            if stop_after_switch:
                if k == n_steps or c_prev == 0.0 or c_prev * c < 0.0:
                    break
                c_prev, last = c, (v, i_dev, x, y, z)
            else:
                put_v(v)
                put_i(i_dev)
                put_m(x)
                put_m(y)
                put_m(z)
                if k == n_steps:
                    break
            s = stt * i_dev

            # stage 1 at m; its easy-axis projection is c
            a = h_easy * c
            hx, hy, hz = a * ex, a * ey, n_h_demag * z
            # m x h_eff, m x (m x h_eff), m x e, m x (m x e)
            px, py, pz = y * hz - z * hy, z * hx - x * hz, x * hy - y * hx
            qx, qy, qz = y * pz - z * py, z * px - x * pz, x * py - y * px
            ux, uy, uz = -z * ey, z * ex, x * ey - y * ex
            wx, wy, wz = y * uz - z * uy, z * ux - x * uz, x * uy - y * ux
            k1x = (n_gp * px - gpa * qx) + s * wx
            k1y = (n_gp * py - gpa * qy) + s * wy
            k1z = (n_gp * pz - gpa * qz) + s * wz

            # stage 2 at the unit vector along m + dt/2 * k1
            ax, ay, az = x + h * k1x, y + h * k1y, z + h * k1z
            n = sqrt(ax * ax + ay * ay + az * az)
            mx, my, mz = ax / n, ay / n, az / n
            a = h_easy * (mx * ex + my * ey)
            hx, hy, hz = a * ex, a * ey, n_h_demag * mz
            px, py, pz = my * hz - mz * hy, mz * hx - mx * hz, mx * hy - my * hx
            qx, qy, qz = my * pz - mz * py, mz * px - mx * pz, mx * py - my * px
            ux, uy, uz = -mz * ey, mz * ex, mx * ey - my * ex
            wx, wy, wz = my * uz - mz * uy, mz * ux - mx * uz, mx * uy - my * ux
            k2x = (n_gp * px - gpa * qx) + s * wx
            k2y = (n_gp * py - gpa * qy) + s * wy
            k2z = (n_gp * pz - gpa * qz) + s * wz

            # stage 3 at the unit vector along m + dt/2 * k2
            ax, ay, az = x + h * k2x, y + h * k2y, z + h * k2z
            n = sqrt(ax * ax + ay * ay + az * az)
            mx, my, mz = ax / n, ay / n, az / n
            a = h_easy * (mx * ex + my * ey)
            hx, hy, hz = a * ex, a * ey, n_h_demag * mz
            px, py, pz = my * hz - mz * hy, mz * hx - mx * hz, mx * hy - my * hx
            qx, qy, qz = my * pz - mz * py, mz * px - mx * pz, mx * py - my * px
            ux, uy, uz = -mz * ey, mz * ex, mx * ey - my * ex
            wx, wy, wz = my * uz - mz * uy, mz * ux - mx * uz, mx * uy - my * ux
            k3x = (n_gp * px - gpa * qx) + s * wx
            k3y = (n_gp * py - gpa * qy) + s * wy
            k3z = (n_gp * pz - gpa * qz) + s * wz

            # stage 4 at the unit vector along m + dt * k3
            ax, ay, az = x + dt * k3x, y + dt * k3y, z + dt * k3z
            n = sqrt(ax * ax + ay * ay + az * az)
            mx, my, mz = ax / n, ay / n, az / n
            a = h_easy * (mx * ex + my * ey)
            hx, hy, hz = a * ex, a * ey, n_h_demag * mz
            px, py, pz = my * hz - mz * hy, mz * hx - mx * hz, mx * hy - my * hx
            qx, qy, qz = my * pz - mz * py, mz * px - mx * pz, mx * py - my * px
            ux, uy, uz = -mz * ey, mz * ex, mx * ey - my * ex
            wx, wy, wz = my * uz - mz * uy, mz * ux - mx * uz, mx * uy - my * ux
            k4x = (n_gp * px - gpa * qx) + s * wx
            k4y = (n_gp * py - gpa * qy) + s * wy
            k4z = (n_gp * pz - gpa * qz) + s * wz

            x = x + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y = y + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            z = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
            n = sqrt(x * x + y * y + z * z)
            x, y, z = x / n, y / n, z / n
    except ZeroDivisionError as exc:
        raise NumericalFailureError("macrospin step overflowed the float range") from exc

    if stop_after_switch:
        window = np.array([last, (v, i_dev, x, y, z)])
        return MacrospinTrace(time=dt * np.arange(k - 1, k + 1), v_node=window[:, 0],
                              i_device=window[:, 1], m=window[:, 2:], params=params)
    return MacrospinTrace(time=dt * np.arange(n_steps + 1),
                          v_node=np.frombuffer(v_node_buf), i_device=np.frombuffer(i_buf),
                          m=np.frombuffer(m_buf).reshape(-1, 3), params=params)


def integrate_macrospin(state: MacrospinState, params: MacrospinParams, v_gate: np.ndarray,
                        dt: float) -> MacrospinTrace:
    """Fixed-step RK4 integration with per-step circuit solve.

    ``v_gate`` holds the gate voltage at each grid point; its N+1 samples
    set a grid of N steps of ``dt`` from 0, and a non-finite
    sample is rejected before any step.  The device current is solved
    self-consistently from the node equation (``solve_node``, closed form)
    at the start of each step and held constant across the RK4 stages
    (``llgs_derivative``); each stage input and each step result is
    renormalized to unit length.  The step runs on the three components of
    m as Python floats, in straight-line code that computes exactly what
    those two functions compute.  This full trace appends each grid point's
    samples to 8-byte ``array("d")`` buffers that become the trace's arrays
    without a copy; only a full trace writes them (``measure_latency``
    keeps two samples).
    """
    _check_dt(dt)
    v_gate = np.asarray(v_gate, dtype=float)
    if v_gate.ndim != 1 or v_gate.size < 2:
        raise InvalidInputError("v_gate must be a 1-D array of at least 2 samples")
    if not np.isfinite(v_gate).all():
        raise InvalidInputError("v_gate must be finite", key="v_gate")
    return _integrate(state, params, v_gate.tolist(), dt)


def _run_batch(params: MacrospinParams, drive: np.ndarray, dt: float, *,
               v: Optional[np.ndarray] = None,
               state: Optional[np.ndarray] = None) -> list[list[float]]:
    """The network kernel, with the contract of ``tlr._run_batch``: each row
    of a ``(B, N+1)`` gate drive is a neuron started from
    ``initial_state(params)``.  Returns each row's switching times, and
    writes the output voltage ``v_dd - v_node`` into ``v`` and the alignment
    into ``state`` when they are given."""
    onsets = []
    for r, gate in enumerate(drive):
        trace = integrate_macrospin(initial_state(params), params, gate, dt)
        if v is not None:
            v[r] = params.v_dd - trace.v_node
        if state is not None:
            state[r] = trace.alignment()
        onsets.append(trace.switching_times())
    return onsets


def measure_latency(
    params: MacrospinParams,
    v_gate: float,
    dt: float = 0.005,
    horizon: float = 15.0,
    tilt_deg: float = 1.0,
) -> Optional[float]:
    """Switching latency under a constant gate voltage, or None if no switch.

    The latency is the first entry of ``switching_times()`` of the
    ``integrate_macrospin`` trace over ``horizon``, on the grid that
    ``SimConfig(dt=dt, horizon=horizon)`` accepts.  One integration runs,
    and it records no per-step samples: it stops one step after the
    in-loop easy-axis projection first changes sign (or leaves an exact
    zero) and returns the two samples either side of that crossing, at the
    full grid's times.  ``alignment()`` computes that projection with the
    same float expression, so the crossing window's ``switching_times()[0]``
    is the full trace's first crossing, bit for bit.  A drive that never
    switches runs the whole horizon, and its window (the grid's last two
    samples) shows no crossing.
    """
    steps = SimConfig(dt=dt, horizon=horizon).steps
    if not math.isfinite(v_gate):
        raise InvalidInputError("v_gate must be finite", key="v_gate")
    gate = [float(v_gate)] * (steps + 1)
    state = initial_state(params, tilt_deg)
    crossings = _integrate(state, params, gate, dt, stop_after_switch=True).switching_times()
    return crossings[0] if crossings else None


def find_switching_threshold(
    params: MacrospinParams,
    v_lo: float = 0.0,
    v_hi: float = 3.0,
    horizon: float = 20.0,
    dt: float = 0.005,
    tol: float = 1e-3,
) -> float:
    """Gate voltage separating no-switch from switch within the horizon.

    Bisects [v_lo, v_hi] until the bracket is at most ``tol`` wide, or its
    ends are adjacent floats; ``tol`` is > 0 and finite.  ``v_hi`` must
    switch within the horizon and ``v_lo`` must not, and either failure
    raises ``NumericalFailureError``.  An end is probed only when no
    bisection probe vouches for it: ``v_hi`` when no probe switched, then
    ``v_lo`` when every probe switched.  A probe that switches becomes the
    new ``v_hi``, and one that does not the new ``v_lo``, so whenever both
    ends moved the answer rests on probes already run.  Each probe is a
    ``measure_latency`` from its default tilt.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidInputError("tol must be > 0 and finite", key="tol")
    for key, v in (("v_lo", v_lo), ("v_hi", v_hi)):
        if not math.isfinite(v):
            raise InvalidInputError(f"{key} must be finite", key=key)
    if not v_lo < v_hi:
        raise InvalidInputError("need v_lo < v_hi", key="v_hi")
    lo_moved = hi_moved = False
    while v_hi - v_lo > tol:
        mid = 0.5 * (v_lo + v_hi)
        if not v_lo < mid < v_hi:
            break   # v_lo and v_hi are adjacent floats (or their sum overflowed)
        if measure_latency(params, mid, dt, horizon) is None:
            v_lo, lo_moved = mid, True
        else:
            v_hi, hi_moved = mid, True
    # no probe switched, so no probe shows that v_hi lies above the threshold
    if not hi_moved:
        if measure_latency(params, v_hi, dt, horizon) is None:
            raise NumericalFailureError("v_hi does not switch within the horizon")
    # every probe switched, so no probe shows that v_lo lies below it
    if not lo_moved:
        if measure_latency(params, v_lo, dt, horizon) is not None:
            raise NumericalFailureError("v_lo switches within the horizon")
    return 0.5 * (v_lo + v_hi)


def _fminbound(func: Callable[[float], float], lo: float, hi: float,
               xatol: float) -> float:
    """Minimizer of ``func`` on [lo, hi] by Brent's bounded method.

    Golden-section search with parabolic interpolation steps (Brent 1973,
    ch. 5; the FMIN routine of Forsythe, Malcolm & Moler 1977), stopping
    when the bracket around the best point is within ``xatol`` plus a
    relative ``sqrt(2.2e-16)`` of it, or after 500 evaluations.  Its
    constants and update order are those of the reference bounded
    minimizer that ``tests/test_macrospin.py`` compares it with, point for
    point and bit for bit.
    """
    # [a, b] brackets the minimum; xf is the best point so far, nfc the
    # second best and fulc the one before it; rat is the last step, e the
    # one before it.
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:   # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return xf


def fit_latency_law(
    drives: Sequence[float],
    latencies: Sequence[float],
) -> tuple[float, float, float, float]:
    """Least-squares fit of T(V) = floor + q / (V - vth).

    Returns (vth, q, floor, max relative residual) as Python floats.  Uses
    variable projection: for a trial vth, floor and q solve a line in closed
    form, and u = log(v_min - vth) is minimized by Brent's bounded method
    (``_fminbound``) to an absolute tolerance of 1e-12.
    """
    v = np.asarray(drives, dtype=float)
    t = np.asarray(latencies, dtype=float)
    if v.ndim != 1 or v.shape != t.shape:
        raise InvalidInputError("drives and latencies must be 1-D and of the same length")
    for key, values in (("drives", v), ("latencies", t)):
        if not np.isfinite(values).all():
            raise InvalidInputError(f"{key} must be finite", key=key)
    if not (t > 0).all():
        raise InvalidInputError("latencies must be > 0", key="latencies")
    if v.size < 4:
        raise InsufficientDataError("need at least 4 points to fit the latency law")

    v_min = float(v.min())
    span = float(v.max()) - v_min
    if not span:
        raise NumericalFailureError("latency-law fit failed: the drives are all equal")
    tc = t - np.sum(t) / t.size

    def line(u: float):
        # vth = v_min - exp(u) keeps the pole strictly below the grid; q is the
        # closed-form least-squares slope of t = floor + q * x, x = 1 / (v - vth)
        x = 1.0 / (v - (v_min - math.exp(u)))
        xc = x - np.sum(x) / x.size
        q = np.sum(xc * tc) / np.sum(xc * xc)
        resid = q * xc - tc
        return float(np.sum(resid * resid)), q, x, resid

    # extreme latencies (1e308, 5e-324) overflow the cost or the residual
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            u = _fminbound(lambda u: line(u)[0], math.log(1e-9 * span), math.log(10.0 * span),
                           xatol=1e-12)
            _, q, x, resid = line(u)
            floor = np.sum(t - q * x) / t.size
            max_rel = float(np.max(np.abs(resid) / t))
    except FloatingPointError as exc:
        raise NumericalFailureError(f"latency-law fit failed: {exc}") from exc
    return v_min - math.exp(u), float(q), max(float(floor), 0.0), max_rel


@dataclass
class CalibrationResult:
    tlr_params: TlrParams
    max_rel_residual: float
    drives: list[float]
    latencies: list[float]


def calibrate_tlr(
    params: MacrospinParams,
    drive_grid: Sequence[float],
    dt: float = 0.005,
    horizon: float = 15.0,
) -> CalibrationResult:
    """Fit TLR latency-law parameters to the macrospin switching latencies
    that ``measure_latency`` measures, from its default tilt, on ``drive_grid``."""
    for k, v in enumerate(drive_grid):
        if not math.isfinite(v):
            raise InvalidInputError(f"drive_grid[{k}] must be finite", key=f"drive_grid[{k}]")
    drives, lats = [], []
    for v in drive_grid:
        lat = measure_latency(params, v, dt, horizon)
        if lat is not None:
            drives.append(float(v))
            lats.append(lat)
    if len(drives) < 4:
        raise InsufficientDataError(
            f"only {len(drives)} grid points switched; need at least 4"
        )
    vth, q, floor, max_rel = fit_latency_law(drives, lats)
    if vth <= 0:
        raise NumericalFailureError("fitted threshold is non-positive; widen the grid")
    tlr = TlrParams(i_threshold=vth, q_switch=q, latency_floor=floor)
    return CalibrationResult(tlr_params=tlr, max_rel_residual=max_rel,
                             drives=drives, latencies=lats)
