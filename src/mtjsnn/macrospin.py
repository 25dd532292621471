"""Single-domain MTJ free-layer dynamics in series with an NMOS transistor.

The free layer is a unit magnetization vector evolving under the
Landau-Lifshitz-Gilbert equation with a Slonczewski spin-transfer term
driven by the device current.  The MTJ sits between the supply rail and the
output node; the transistor pulls the node toward ground, so the node
voltage is ``v_dd - i * R(m)``.  Switching of the free layer changes the
MTJ resistance and shows up as a voltage transient at the node.

The integrator steps the three components of m as plain Python floats: the
LLGS right-hand side is written out component by component (``_llgs``) and
the node voltage comes from the closed-form root of the series-circuit
equation, so a step allocates no arrays.

Units: time ns, field T, current mA, resistance kOhm, voltage V
(mA * kOhm = V), gyromagnetic ratio rad/(ns*T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidInputError, InvalidStateError, NumericalFailureError
from .tlr import TlrParams

_UNIT_TOL = 1e-6


@dataclass(frozen=True)
class MacrospinParams:
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
        if self.alpha <= 0:
            raise InvalidInputError("alpha must be > 0", key="alpha")
        if not self.r_parallel > 0:
            raise InvalidInputError("r_parallel must be > 0", key="r_parallel")
        if not self.r_antiparallel > self.r_parallel:
            raise InvalidInputError("need r_antiparallel > r_parallel", key="r_antiparallel")
        if self.v_dd <= 0:
            raise InvalidInputError("v_dd must be > 0", key="v_dd")
        p = np.asarray(self.polarizer, dtype=float)
        if abs(np.linalg.norm(p) - 1.0) > _UNIT_TOL:
            raise InvalidInputError("polarizer must be a unit vector", key="polarizer")

    @property
    def easy_axis(self) -> np.ndarray:
        return np.asarray(self.polarizer, dtype=float)


@dataclass
class MacrospinState:
    m: np.ndarray   # unit vector
    t: float = 0.0  # ns


def initial_state(params: MacrospinParams, tilt_deg: float = 1.0) -> MacrospinState:
    """Antiparallel state tilted in-plane by a fixed angle.

    The exact antiparallel direction is a fixed point of the dynamics, so a
    small deterministic tilt stands in for thermal agitation.
    """
    e = params.easy_axis
    # in-plane perpendicular direction (easy axis is in-plane by convention)
    perp = np.cross(np.array([0.0, 0.0, 1.0]), e)
    n = np.linalg.norm(perp)
    if n < 1e-12:
        perp = np.array([1.0, 0.0, 0.0])
    else:
        perp = perp / n
    th = math.radians(tilt_deg)
    m = -math.cos(th) * e + math.sin(th) * perp
    return MacrospinState(m=m / np.linalg.norm(m), t=0.0)


def _check_unit(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3,) or abs(np.linalg.norm(m) - 1.0) > _UNIT_TOL:
        raise InvalidStateError("m must be a unit 3-vector")
    return m


def _llgs(x: float, y: float, z: float, params: MacrospinParams,
          i_device: float) -> tuple[float, float, float]:
    """Components of dm/dt for m = (x, y, z); see ``llgs_derivative``."""
    ex, ey, ez = params.polarizer
    a = params.h_easy * (x * ex + y * ey + z * ez)
    hx, hy, hz = a * ex, a * ey, a * ez - params.h_demag * z
    gp = params.gamma / (1.0 + params.alpha ** 2)
    gpa = gp * params.alpha
    s = params.stt_coefficient * i_device
    # m x h_eff, m x (m x h_eff), m x e, m x (m x e)
    px, py, pz = y * hz - z * hy, z * hx - x * hz, x * hy - y * hx
    qx, qy, qz = y * pz - z * py, z * px - x * pz, x * py - y * px
    ux, uy, uz = y * ez - z * ey, z * ex - x * ez, x * ey - y * ex
    wx, wy, wz = y * uz - z * uy, z * ux - x * uz, x * uy - y * ux
    return (
        (-gp * px - gpa * qx) + s * wx,
        (-gp * py - gpa * qy) + s * wy,
        (-gp * pz - gpa * qz) + s * wz,
    )


def llgs_derivative(m: np.ndarray, params: MacrospinParams, i_device: float) -> np.ndarray:
    """dm/dt in 1/ns; exactly orthogonal to m term by term."""
    x, y, z = _check_unit(m)
    return np.array(_llgs(float(x), float(y), float(z), params, i_device))


def _resistance(x: float, y: float, z: float, params: MacrospinParams) -> float:
    ex, ey, ez = params.polarizer
    c = x * ex + y * ey + z * ez
    return params.r_parallel + (params.r_antiparallel - params.r_parallel) * (1.0 - c) / 2.0


def mtj_resistance(m: np.ndarray, params: MacrospinParams) -> float:
    """Cosine interpolation between parallel and antiparallel resistance."""
    x, y, z = _check_unit(m)
    return _resistance(float(x), float(y), float(z), params)


def nmos_current(v_gate: float, v_drain: float, params: MacrospinParams) -> float:
    """Square-law NMOS drain current in mA; continuous across the triode boundary."""
    if not (math.isfinite(v_gate) and math.isfinite(v_drain)):
        raise InvalidInputError("voltages must be finite")
    v_ov = v_gate - params.transistor_vt
    if v_ov <= 0:
        return 0.0
    if v_drain < v_ov:
        return params.transistor_k * (v_ov * v_drain - 0.5 * v_drain * v_drain)
    return 0.5 * params.transistor_k * v_ov * v_ov


def solve_node(resistance: float, v_gate: float, params: MacrospinParams) -> tuple[float, float]:
    """Self-consistent node voltage and device current for the series circuit.

    Solves v = v_dd - i(v) * R in closed form.  With the transistor in
    cutoff the node sits at the rail.  In saturation
    v = v_dd - R*k*v_ov^2/2, valid when that is >= v_ov.  Otherwise the
    transistor is in triode and v is the root in [0, v_ov] of
    (R*k/2) v^2 - (1 + R*k*v_ov) v + v_dd = 0, taken in the cancellation-free
    form 2*v_dd / (b + sqrt(b^2 - 2*R*k*v_dd)) with b = 1 + R*k*v_ov.
    A root outside [0, v_dd] (for example a negative ``transistor_k``)
    raises ``NumericalFailureError``.
    """
    if not math.isfinite(v_gate):
        raise InvalidInputError("voltages must be finite")
    v_dd = params.v_dd
    v_ov = v_gate - params.transistor_vt
    v = v_dd
    if v_ov > 0:
        rk = resistance * params.transistor_k
        v = v_dd - 0.5 * rk * v_ov * v_ov
        if v < v_ov:
            b = 1.0 + rk * v_ov
            v = 2.0 * v_dd / (b + math.sqrt(b * b - 2.0 * rk * v_dd))
    if not 0.0 <= v <= v_dd:
        raise NumericalFailureError("circuit solve: no bracket in [0, v_dd]")
    return v, nmos_current(v_gate, v, params)


@dataclass
class MacrospinTrace:
    time: np.ndarray      # grid points, ns
    v_node: np.ndarray    # V
    i_device: np.ndarray  # mA
    m: np.ndarray         # (n, 3) unit vectors
    params: MacrospinParams = field(repr=False, default=None)

    def alignment(self) -> np.ndarray:
        """Projection of m on the easy axis (+1 parallel, -1 antiparallel)."""
        return self.m @ self.params.easy_axis

    def switching_times(self) -> list[float]:
        """Times where the easy-axis projection crosses zero (linear interp)."""
        a, t = self.alignment(), self.time
        zero = a[:-1] == 0.0   # a sample at exactly zero is its own crossing
        k = np.flatnonzero(zero | (a[:-1] * a[1:] < 0))
        out, sign_change = t[k], ~zero[k]
        j = k[sign_change]
        out[sign_change] = t[j] + a[j] / (a[j] - a[j + 1]) * (t[j + 1] - t[j])
        return out.tolist()


def integrate_macrospin(state: MacrospinState, params: MacrospinParams, v_gate: np.ndarray,
                        dt: float) -> MacrospinTrace:
    """Fixed-step RK4 integration with per-step circuit solve.

    ``v_gate`` holds the gate voltage at each grid point; its N+1 samples
    set a grid of N steps of ``dt`` from ``state.t``.  The device current
    is solved self-consistently from the node equation (``solve_node``,
    closed form) at the start of each step and held constant across the
    RK4 stages; each stage input and each step result is renormalized to
    unit length.  The step runs on the three components of m as Python
    floats and writes every grid point into preallocated arrays.
    """
    if not (0 < dt <= 0.01):
        raise InvalidInputError("dt must be in (0, 0.01] ns")
    v_gate = np.asarray(v_gate, dtype=float)
    if v_gate.ndim != 1 or v_gate.size < 2:
        raise InvalidInputError("v_gate must be a 1-D array of at least 2 samples")

    n_steps = v_gate.size - 1
    time = dt * np.arange(n_steps + 1) + state.t
    x, y, z = (float(c) for c in _check_unit(state.m))

    v_node_series = np.empty(n_steps + 1)
    i_series = np.empty(n_steps + 1)
    m_series = np.empty((n_steps + 1, 3))

    h, h6 = 0.5 * dt, dt / 6.0
    for k, gate in enumerate(v_gate.tolist()):
        r = _resistance(x, y, z, params)
        v_node, i_dev = solve_node(r, gate, params)
        v_node_series[k] = v_node
        i_series[k] = i_dev
        m_series[k] = (x, y, z)
        if k == n_steps:
            break
        k1x, k1y, k1z = _llgs(x, y, z, params, i_dev)
        ax, ay, az = x + h * k1x, y + h * k1y, z + h * k1z
        n = math.sqrt(ax * ax + ay * ay + az * az)
        k2x, k2y, k2z = _llgs(ax / n, ay / n, az / n, params, i_dev)
        ax, ay, az = x + h * k2x, y + h * k2y, z + h * k2z
        n = math.sqrt(ax * ax + ay * ay + az * az)
        k3x, k3y, k3z = _llgs(ax / n, ay / n, az / n, params, i_dev)
        ax, ay, az = x + dt * k3x, y + dt * k3y, z + dt * k3z
        n = math.sqrt(ax * ax + ay * ay + az * az)
        k4x, k4y, k4z = _llgs(ax / n, ay / n, az / n, params, i_dev)
        x = x + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        z = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        n = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / n, y / n, z / n

    return MacrospinTrace(time=time, v_node=v_node_series, i_device=i_series, m=m_series, params=params)


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
    """Switching latency under a constant gate voltage, or None if no switch."""
    if not 0 < dt <= horizon:
        raise InvalidInputError("horizon must be >= dt > 0")
    gate = np.full(int(round(horizon / dt)) + 1, v_gate, dtype=float)
    trace = integrate_macrospin(initial_state(params, tilt_deg), params, gate, dt)
    crossings = trace.switching_times()
    return crossings[0] if crossings else None


def find_switching_threshold(
    params: MacrospinParams,
    v_lo: float = 0.0,
    v_hi: float = 3.0,
    horizon: float = 20.0,
    dt: float = 0.005,
    tol: float = 1e-3,
    tilt_deg: float = 1.0,
) -> float:
    """Gate voltage separating no-switch from switch within the horizon.

    Bisects [v_lo, v_hi] until the bracket is at most ``tol`` wide.
    """
    if not tol > 0:
        raise InvalidInputError("tol must be > 0")
    if not v_lo < v_hi:
        raise InvalidInputError("need v_lo < v_hi")
    if measure_latency(params, v_hi, dt, horizon, tilt_deg) is None:
        raise NumericalFailureError("v_hi does not switch within the horizon")
    while v_hi - v_lo > tol:
        mid = 0.5 * (v_lo + v_hi)
        if measure_latency(params, mid, dt, horizon, tilt_deg) is None:
            v_lo = mid
        else:
            v_hi = mid
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

    Returns (vth, q, floor, max relative residual).  Uses variable
    projection: for a trial vth the remaining parameters are linear, and
    u = log(v_min - vth) is minimized by Brent's bounded method
    (``_fminbound``) to an absolute tolerance of 1e-12.
    """
    v = np.asarray(drives, dtype=float)
    t = np.asarray(latencies, dtype=float)
    if v.size < 4:
        raise InsufficientDataError("need at least 4 points to fit the latency law")

    v_min = float(v.min())
    span = float(v.max() - v.min()) or 1.0

    def linear_fit(vth: float):
        x = 1.0 / (v - vth)
        a = np.column_stack([np.ones_like(x), x])
        coef, *_ = np.linalg.lstsq(a, t, rcond=None)
        resid = a @ coef - t
        return coef, float(np.sum(resid ** 2))

    def cost(u: float) -> float:
        # vth = v_min - exp(u) keeps the pole strictly below the grid
        _, ssq = linear_fit(v_min - math.exp(u))
        return ssq

    u = _fminbound(cost, math.log(1e-9 * span), math.log(10.0 * span), xatol=1e-12)
    vth = v_min - math.exp(u)
    (floor, q), _ = linear_fit(vth)
    pred = floor + q / (v - vth)
    max_rel = float(np.max(np.abs(pred - t) / np.abs(t)))
    return vth, q, max(floor, 0.0), max_rel


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
    tilt_deg: float = 1.0,
) -> CalibrationResult:
    """Fit TLR latency-law parameters to measured macrospin switching latencies."""
    drives, lats = [], []
    for v in drive_grid:
        lat = measure_latency(params, v, dt, horizon, tilt_deg)
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
