"""Macrospin backend: LLGS field properties, circuit solve, calibration."""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtjsnn import macrospin, network
from mtjsnn.defaults import CALIBRATION_GRID
from mtjsnn.errors import (
    InsufficientDataError,
    InvalidInputError,
    InvalidStateError,
    NumericalFailureError,
)
from mtjsnn.macrospin import (
    MacrospinParams,
    MacrospinState,
    calibrate_tlr,
    find_switching_threshold,
    fit_latency_law,
    initial_state,
    integrate_macrospin,
    llgs_derivative,
    measure_latency,
    solve_node,
)
from mtjsnn.tlr import constant_drive_latency

PARAMS = MacrospinParams()
ORACLE_PARAMS = [PARAMS, MacrospinParams(polarizer=(0.6, 0.8, 0.0), transistor_k=3.0)]
ALL_POLARIZERS = pytest.mark.parametrize("params", ORACLE_PARAMS,
                                         ids=["default", "tilted-polarizer"])


def random_unit_vectors(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


# The circuit laws, which the integrator computes inline: MTJ resistance
# and square-law NMOS drain current.

def mtj_resistance(m, params):
    """Cosine interpolation between parallel and antiparallel resistance."""
    x, y, _ = macrospin._check_unit(m)
    ex, ey, _ = params.polarizer
    c = float(x) * ex + float(y) * ey
    return params.r_parallel + (params.r_antiparallel - params.r_parallel) * (1.0 - c) / 2.0


def nmos_current(v_gate, v_drain, params):
    """Square-law NMOS drain current in mA; continuous across the triode boundary."""
    if not (math.isfinite(v_gate) and math.isfinite(v_drain)):
        raise InvalidInputError("voltages must be finite")
    v_ov = v_gate - params.transistor_vt
    if v_ov <= 0:
        return 0.0
    k = params.transistor_k
    if v_drain < v_ov:
        return k * (v_ov * v_drain - 0.5 * v_drain * v_drain)
    return 0.5 * k * v_ov * v_ov


# Slow reference: the array implementation the float kernel replaced.

def reference_derivative(m, params, i_device):
    e = params.easy_axis
    h_eff = params.h_easy * float(np.dot(m, e)) * e
    h_eff = h_eff - np.array([0.0, 0.0, params.h_demag * m[2]])
    gp = params.gamma / (1.0 + params.alpha ** 2)
    mxh = np.cross(m, h_eff)
    dm = -gp * mxh - gp * params.alpha * np.cross(m, mxh)
    return dm + params.stt_coefficient * i_device * np.cross(m, np.cross(m, e))


def reference_solve_node(resistance, v_gate, params):
    """Bisection on v in [0, v_dd] to 1e-9 V (30 halvings of 1 V)."""
    def f(v):
        return params.v_dd - nmos_current(v_gate, v, params) * resistance - v

    lo, hi = 0.0, params.v_dd
    if f(lo) < 0 or f(hi) > 0:
        raise NumericalFailureError("circuit solve: no bracket in [0, v_dd]")
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if f(mid) >= 0:
            lo = mid
        else:
            hi = mid
    v_node = 0.5 * (lo + hi)
    return v_node, nmos_current(v_gate, v_node, params)


def reference_fit_latency_law(drives, latencies):
    """The LAPACK fit the closed-form line replaced: the same Brent search,
    with each trial line solved by ``np.linalg.lstsq``."""
    v = np.asarray(drives, dtype=float)
    t = np.asarray(latencies, dtype=float)
    v_min = float(v.min())
    span = float(v.max() - v.min())

    def linear_fit(vth):
        a = np.column_stack([np.ones_like(v), 1.0 / (v - vth)])
        coef, *_ = np.linalg.lstsq(a, t, rcond=None)
        return coef, float(np.sum((a @ coef - t) ** 2))

    u = macrospin._fminbound(lambda u: linear_fit(v_min - math.exp(u))[1],
                             math.log(1e-9 * span), math.log(10.0 * span), xatol=1e-12)
    vth = v_min - math.exp(u)
    (floor, q), _ = linear_fit(vth)
    max_rel = float(np.max(np.abs(floor + q / (v - vth) - t) / t))
    return vth, float(q), max(float(floor), 0.0), max_rel


def reference_integrate(state, params, v_gate, dt, horizon):
    """RK4 with renormalised stages, current held across each step."""
    def unit(v):
        return v / np.linalg.norm(v)

    n_steps = int(round(horizon / dt))
    time = dt * np.arange(n_steps + 1)
    m = np.array(state.m, dtype=float)
    v_node, i_device, ms = np.empty(n_steps + 1), np.empty(n_steps + 1), np.empty((n_steps + 1, 3))
    for k in range(n_steps + 1):
        v_node[k], i_dev = reference_solve_node(mtj_resistance(m, params), v_gate, params)
        i_device[k] = i_dev
        ms[k] = m
        if k == n_steps:
            break
        k1 = reference_derivative(m, params, i_dev)
        k2 = reference_derivative(unit(m + 0.5 * dt * k1), params, i_dev)
        k3 = reference_derivative(unit(m + 0.5 * dt * k2), params, i_dev)
        k4 = reference_derivative(unit(m + dt * k3), params, i_dev)
        m = unit(m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return macrospin.MacrospinTrace(time=time, v_node=v_node, i_device=i_device, m=ms,
                                    params=params)


# The float integrator before its per-run constants, sample buffers and
# first-switch stop: it reads the parameters in every stage and writes every
# sample into preallocated arrays.  ``integrate_macrospin`` must equal it bit
# for bit.

def reference_float_llgs(x, y, z, params, i_device):
    ex, ey, ez = params.polarizer
    a = params.h_easy * (x * ex + y * ey + z * ez)
    hx, hy, hz = a * ex, a * ey, a * ez - params.h_demag * z
    gp = params.gamma / (1.0 + params.alpha ** 2)
    gpa = gp * params.alpha
    s = params.stt_coefficient * i_device
    px, py, pz = y * hz - z * hy, z * hx - x * hz, x * hy - y * hx
    qx, qy, qz = y * pz - z * py, z * px - x * pz, x * py - y * px
    ux, uy, uz = y * ez - z * ey, z * ex - x * ez, x * ey - y * ex
    wx, wy, wz = y * uz - z * uy, z * ux - x * uz, x * uy - y * ux
    return (
        (-gp * px - gpa * qx) + s * wx,
        (-gp * py - gpa * qy) + s * wy,
        (-gp * pz - gpa * qz) + s * wz,
    )


def reference_float_solve_node(resistance, v_gate, params):
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
    if v_ov <= 0:
        return v, 0.0
    if v < v_ov:
        return v, params.transistor_k * (v_ov * v - 0.5 * v * v)
    return v, 0.5 * params.transistor_k * v_ov * v_ov


def reference_float_integrate(state, params, v_gate, dt):
    n_steps = v_gate.size - 1
    time = dt * np.arange(n_steps + 1)
    x, y, z = (float(c) for c in state.m)
    ex, ey, ez = params.polarizer
    v_node_series = np.empty(n_steps + 1)
    i_series = np.empty(n_steps + 1)
    m_series = np.empty((n_steps + 1, 3))
    h, h6 = 0.5 * dt, dt / 6.0
    for k, gate in enumerate(v_gate.tolist()):
        c = x * ex + y * ey + z * ez
        r = params.r_parallel + (params.r_antiparallel - params.r_parallel) * (1.0 - c) / 2.0
        v_node, i_dev = reference_float_solve_node(r, gate, params)
        v_node_series[k] = v_node
        i_series[k] = i_dev
        m_series[k] = (x, y, z)
        if k == n_steps:
            break
        k1x, k1y, k1z = reference_float_llgs(x, y, z, params, i_dev)
        ax, ay, az = x + h * k1x, y + h * k1y, z + h * k1z
        n = math.sqrt(ax * ax + ay * ay + az * az)
        k2x, k2y, k2z = reference_float_llgs(ax / n, ay / n, az / n, params, i_dev)
        ax, ay, az = x + h * k2x, y + h * k2y, z + h * k2z
        n = math.sqrt(ax * ax + ay * ay + az * az)
        k3x, k3y, k3z = reference_float_llgs(ax / n, ay / n, az / n, params, i_dev)
        ax, ay, az = x + dt * k3x, y + dt * k3y, z + dt * k3z
        n = math.sqrt(ax * ax + ay * ay + az * az)
        k4x, k4y, k4z = reference_float_llgs(ax / n, ay / n, az / n, params, i_dev)
        x = x + h6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        y = y + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        z = z + h6 * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        n = math.sqrt(x * x + y * y + z * z)
        x, y, z = x / n, y / n, z / n
    return macrospin.MacrospinTrace(time=time, v_node=v_node_series, i_device=i_series,
                                    m=m_series, params=params)


def reference_initial_state(params, tilt_deg):
    """The array construction ``initial_state`` replaced: z x e by
    ``np.cross``, and the tilt as array arithmetic."""
    e = params.easy_axis
    perp = np.cross(np.array([0.0, 0.0, 1.0]), e)
    perp = perp / macrospin._length(perp)
    th = math.radians(tilt_deg)
    m = -math.cos(th) * e + math.sin(th) * perp
    return m / macrospin._length(m)


def reference_latency(params, v_gate, dt, horizon, tilt_deg):
    """The first crossing of the full-horizon float trace, or None."""
    gate = np.full(int(round(horizon / dt)) + 1, v_gate, dtype=float)
    crossings = reference_float_integrate(initial_state(params, tilt_deg), params, gate,
                                          dt).switching_times()
    return crossings[0] if crossings else None


def first_crossing_sample(trace):
    """The first sample ``k`` at which ``switching_times`` can show a
    crossing: ``k - 1`` is an exact zero or ``k`` has the other sign."""
    a = trace.alignment()
    return int(np.flatnonzero((a[:-1] == 0.0) | (a[:-1] * a[1:] < 0))[0]) + 1


def reference_switching_times(trace):
    """The per-sample loop ``MacrospinTrace.switching_times`` replaced."""
    a = trace.alignment()
    out = []
    for k in range(a.size - 1):
        if a[k] == 0.0:
            out.append(float(trace.time[k]))
        elif a[k] * a[k + 1] < 0:
            frac = a[k] / (a[k] - a[k + 1])
            out.append(float(trace.time[k] + frac * (trace.time[k + 1] - trace.time[k])))
    return out


class TestParams:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(MacrospinParams)])
    def test_non_finite_field_rejected_with_key(self, field, value):
        # NaN passes the `<= 0` rules; a NaN transistor_vt would build and
        # never switch, and most other fields fail later with "no bracket"
        if field == "polarizer":
            value = (1.0, value, 0.0)
        with pytest.raises(InvalidInputError, match=f"{field} must be finite") as e:
            MacrospinParams(**{field: value})
        assert e.value.key == field

    @pytest.mark.parametrize("polarizer", [(1.0, 0.0), (1.0, 0.0, 0.0, 0.0)])
    def test_polarizer_of_other_length_rejected_with_key(self, polarizer):
        # both are unit vectors, so only a length rule stops them; without
        # it measure_latency raised a numpy ValueError
        with pytest.raises(InvalidInputError, match="polarizer must have 3 components") as e:
            MacrospinParams(polarizer=polarizer)
        assert e.value.key == "polarizer"

    @pytest.mark.parametrize("kwargs,match,key", [
        ({"alpha": 0.0}, "alpha must be > 0", "alpha"),
        ({"r_parallel": 0.0}, "r_parallel must be > 0", "r_parallel"),
        ({"r_parallel": -2.0}, "r_parallel must be > 0", "r_parallel"),
        ({"v_dd": 0.0}, "v_dd must be > 0", "v_dd"),
        ({"v_dd": -1.0}, "v_dd must be > 0", "v_dd"),
        ({"r_antiparallel": 2.0}, "need r_antiparallel > r_parallel", "r_antiparallel"),
        ({"r_antiparallel": 1.0}, "need r_antiparallel > r_parallel", "r_antiparallel"),
        ({"polarizer": (2.0, 0.0, 0.0)}, "polarizer must be a unit vector", "polarizer"),
        ({"polarizer": (0.6, 0.6, 0.0)}, "polarizer must be a unit vector", "polarizer"),
    ])
    def test_range_rule_rejected_with_key(self, kwargs, match, key):
        with pytest.raises(InvalidInputError, match=match) as e:
            MacrospinParams(**kwargs)
        assert e.value.key == key

    @pytest.mark.parametrize("polarizer", [(0.48, 0.6, 0.64), (0.0, 0.0, 1.0), (0.6, 0.0, -0.8)])
    def test_polarizer_off_the_plane_rejected_with_key(self, polarizer):
        # off the x-y plane -e is no fixed point: with (0.48, 0.6, 0.64) the
        # free layer crossed the equator in 0.035 ns at 0 V
        with pytest.raises(InvalidInputError, match="polarizer must lie in the x-y plane") as e:
            MacrospinParams(polarizer=polarizer)
        assert e.value.key == "polarizer"


class TestLlgsDerivative:
    def test_equilibria_exact(self):
        e = PARAMS.easy_axis
        assert np.all(llgs_derivative(e, PARAMS, 0.0) == 0.0)
        assert np.all(llgs_derivative(-e, PARAMS, 0.0) == 0.0)

    def test_orthogonal_to_m(self):
        for m in random_unit_vectors(50):
            for i in (0.0, 0.1, -0.2):
                dm = llgs_derivative(m, PARAMS, i)
                assert abs(float(np.dot(m, dm))) <= 1e-12

    def test_non_unit_rejected(self):
        with pytest.raises(InvalidStateError):
            llgs_derivative(np.array([1.0, 1.0, 0.0]), PARAMS, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidStateError, match="m must be a unit 3-vector"):
            llgs_derivative(np.array([math.nan, 0.0, 0.0]), PARAMS, 0.0)

    def test_matches_reference(self):
        params = MacrospinParams(polarizer=(0.8, -0.6, 0.0))
        for p in (PARAMS, params):
            for m in random_unit_vectors(50, seed=3):
                for i in (0.0, 0.4, -0.3):
                    expected = reference_derivative(m, p, i)
                    assert np.allclose(llgs_derivative(m, p, i), expected, rtol=0, atol=1e-12)


class TestResistance:
    def test_endpoints_and_midpoint(self):
        e = PARAMS.easy_axis
        perp = np.array([0.0, 1.0, 0.0])
        assert mtj_resistance(e, PARAMS) == pytest.approx(PARAMS.r_parallel)
        assert mtj_resistance(-e, PARAMS) == pytest.approx(PARAMS.r_antiparallel)
        mid = 0.5 * (PARAMS.r_parallel + PARAMS.r_antiparallel)
        assert mtj_resistance(perp, PARAMS) == pytest.approx(mid)

    def test_nan_rejected(self):
        with pytest.raises(InvalidStateError, match="m must be a unit 3-vector"):
            mtj_resistance(np.array([math.nan, 0.0, 0.0]), PARAMS)


class TestNmos:
    def test_cutoff(self):
        assert nmos_current(PARAMS.transistor_vt, 0.5, PARAMS) == 0.0
        assert nmos_current(0.0, 0.5, PARAMS) == 0.0

    def test_saturation_formula(self):
        v_gate = PARAMS.transistor_vt + 1.0
        expected = 0.5 * PARAMS.transistor_k * 1.0
        assert nmos_current(v_gate, 5.0, PARAMS) == pytest.approx(expected)

    def test_monotone_in_gate(self):
        gates = np.linspace(0.0, 2.5, 40)
        currents = [nmos_current(g, 0.6, PARAMS) for g in gates]
        assert all(b >= a for a, b in zip(currents, currents[1:]))

    def test_continuous_at_triode_boundary(self):
        v_gate = PARAMS.transistor_vt + 0.8
        v_ov = 0.8
        below = nmos_current(v_gate, v_ov - 1e-9, PARAMS)
        above = nmos_current(v_gate, v_ov + 1e-9, PARAMS)
        assert below == pytest.approx(above, abs=1e-6)

    @pytest.mark.parametrize("v_gate,v_drain", [
        (math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, -math.inf),
    ])
    def test_non_finite_voltage_rejected(self, v_gate, v_drain):
        with pytest.raises(InvalidInputError, match="^voltages must be finite$"):
            nmos_current(v_gate, v_drain, PARAMS)


class TestCircuitSolve:
    def test_zero_gate_full_rail(self):
        v_node, i = solve_node(3.0, 0.0, PARAMS)
        assert v_node == pytest.approx(PARAMS.v_dd, abs=1e-8)
        assert i == pytest.approx(0.0, abs=1e-8)

    def test_self_consistency(self):
        v_node, i = solve_node(3.0, 1.2, PARAMS)
        assert v_node == pytest.approx(PARAMS.v_dd - i * 3.0, abs=1e-6)
        assert i == pytest.approx(nmos_current(1.2, v_node, PARAMS), abs=1e-6)

    def test_matches_bisection(self):
        p = PARAMS
        gates = list(np.linspace(-0.5, 3.0, 36))
        for r in np.linspace(p.r_parallel, p.r_antiparallel, 9):
            rk = r * p.transistor_k
            # overdrive where the saturation voltage equals v_ov
            v_ov = (math.sqrt(1.0 + 2.0 * rk * p.v_dd) - 1.0) / rk
            edge = p.transistor_vt + v_ov
            for v_gate in gates + [edge + d for d in (-1e-3, -1e-7, 0.0, 1e-7, 1e-3)]:
                v, i = solve_node(r, v_gate, p)
                v_ref, i_ref = reference_solve_node(r, v_gate, p)
                assert abs(v - v_ref) <= 1e-8 and abs(i - i_ref) <= 1e-8, (r, v_gate)
            # saturation just below the edge, triode just above it
            assert solve_node(r, edge - 1e-3, p)[0] >= v_ov - 1e-3
            assert solve_node(r, edge + 1e-3, p)[0] < v_ov + 1e-3

    def test_negative_transistor_k_no_bracket(self):
        params = MacrospinParams(transistor_k=-1.0)
        with pytest.raises(NumericalFailureError, match="no bracket"):
            solve_node(3.0, 1.5, params)
        with pytest.raises(NumericalFailureError, match="no bracket"):
            integrate_macrospin(initial_state(params), params, np.full(21, 1.5), 0.005)

    @pytest.mark.parametrize("v_gate", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_gate_rejected(self, v_gate):
        with pytest.raises(InvalidInputError):
            solve_node(3.0, v_gate, PARAMS)
        samples = np.full(21, 1.5)
        samples[7] = v_gate
        with pytest.raises(InvalidInputError):
            integrate_macrospin(initial_state(PARAMS), PARAMS, samples, 0.005)


class TestIntegration:
    def test_zero_gate_is_quiescent(self):
        state = initial_state(PARAMS, tilt_deg=0.0)  # exact -e, fixed point
        trace = integrate_macrospin(state, PARAMS, np.zeros(201), 0.005)
        assert np.allclose(trace.v_node, PARAMS.v_dd, atol=1e-8)
        assert np.allclose(trace.m, trace.m[0], atol=1e-12)

    @pytest.mark.parametrize("tilt_deg", [0.5, 1.0, 2.0, 3.0])
    @ALL_POLARIZERS
    def test_initial_state_in_float_arithmetic(self, params, tilt_deg):
        # both lengths as the integrator takes them, sqrt(x*x + y*y + z*z)
        ex, ey, ez = params.polarizer
        n = math.sqrt(ey * ey + ex * ex)
        c, s = math.cos(math.radians(tilt_deg)), math.sin(math.radians(tilt_deg))
        x, y, z = -c * ex + s * (-ey / n), -c * ey + s * (ex / n), -c * ez + s * 0.0
        n = math.sqrt(x * x + y * y + z * z)
        assert np.array_equal(initial_state(params, tilt_deg).m, [x / n, y / n, z / n])

    def test_norm_drift_per_step(self):
        # single RK4 update before renormalization, dt = 1 ps
        dt = 0.001
        m = initial_state(PARAMS).m
        i_dev = 0.3
        k1 = llgs_derivative(m, PARAMS, i_dev)
        k2 = llgs_derivative((m + 0.5 * dt * k1) / np.linalg.norm(m + 0.5 * dt * k1), PARAMS, i_dev)
        k3 = llgs_derivative((m + 0.5 * dt * k2) / np.linalg.norm(m + 0.5 * dt * k2), PARAMS, i_dev)
        k4 = llgs_derivative((m + dt * k3) / np.linalg.norm(m + dt * k3), PARAMS, i_dev)
        m_next = m + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        assert abs(np.linalg.norm(m_next) - 1.0) < 1e-8

    def test_suprathreshold_switches_once(self):
        trace = integrate_macrospin(initial_state(PARAMS), PARAMS, np.full(3001, 1.5), 0.005)
        times = trace.switching_times()
        assert len(times) == 1
        align = trace.alignment()
        assert align[0] < -0.9 and align[-1] > 0.9

    def test_switching_produces_voltage_transient(self):
        trace = integrate_macrospin(initial_state(PARAMS), PARAMS, np.full(3001, 1.5), 0.005)
        # AP and P states load the transistor differently, so the node moves
        assert trace.v_node.max() - trace.v_node.min() > 0.01

    def test_latency_decreasing_in_gate_voltage(self):
        gates = (0.85, 1.0, 1.2, 1.5, 2.0)
        lats = [measure_latency(PARAMS, g) for g in gates]
        assert all(l is not None for l in lats)
        assert all(a > b for a, b in zip(lats, lats[1:]))

    @pytest.mark.parametrize("v_gate", [0.85, 1.5])
    def test_matches_reference_integrator(self, v_gate):
        state = initial_state(PARAMS)
        trace = integrate_macrospin(state, PARAMS, np.full(701, v_gate), 0.005)
        ref = reference_integrate(state, PARAMS, v_gate, 0.005, 3.5)
        assert np.array_equal(trace.time, ref.time)
        assert np.max(np.abs(trace.m - ref.m)) <= 1e-5
        assert np.max(np.abs(trace.v_node - ref.v_node)) <= 1e-7
        assert np.max(np.abs(trace.i_device - ref.i_device)) <= 1e-7
        (t_switch,), (t_ref,) = trace.switching_times(), ref.switching_times()
        assert abs(t_switch - t_ref) <= 1e-6

    def test_fixed_point_is_exact(self):
        state = MacrospinState(m=-PARAMS.easy_axis)
        trace = integrate_macrospin(state, PARAMS, np.zeros(201), 0.005)
        assert np.all(trace.m == -PARAMS.easy_axis)

    def test_bad_dt_rejected(self):
        with pytest.raises(InvalidInputError):
            integrate_macrospin(initial_state(PARAMS), PARAMS, np.zeros(21), 0.05)

    @pytest.mark.parametrize("v_gate", [1.5, [], [1.5], np.full((1, 21), 1.5)],
                             ids=["scalar", "empty", "one-sample", "2-D"])
    def test_gate_not_a_1d_grid_rejected(self, v_gate):
        with pytest.raises(InvalidInputError, match="v_gate must be a 1-D array of at least 2"):
            integrate_macrospin(initial_state(PARAMS), PARAMS, v_gate, 0.005)


def oracle_gate(kind):
    t = 0.005 * np.arange(1201)
    return {"constant": np.full(t.size, 1.3),
            "ramp": np.linspace(0.0, 2.5, t.size),
            "pulse": np.where((0.5 <= t) & (t < 3.0), 1.6, 0.2)}[kind]


class TestFloatIntegratorOracle:
    """``integrate_macrospin`` against ``reference_float_integrate``, bit for bit."""

    @staticmethod
    def assert_same(state, params, gate):
        trace = integrate_macrospin(state, params, gate, 0.005)
        ref = reference_float_integrate(state, params, gate, 0.005)
        for name in ("time", "v_node", "i_device", "m"):
            assert np.array_equal(getattr(trace, name), getattr(ref, name)), name
        return trace

    @pytest.mark.parametrize("kind", ["constant", "ramp", "pulse"])
    @ALL_POLARIZERS
    def test_gates(self, params, kind):
        trace = self.assert_same(initial_state(params), params, oracle_gate(kind))
        assert trace.switching_times()

    @ALL_POLARIZERS
    def test_from_the_fixed_point(self, params):
        state = MacrospinState(m=-params.easy_axis)
        trace = self.assert_same(state, params, oracle_gate("pulse"))
        assert np.all(trace.m == -params.easy_axis)

    @pytest.mark.parametrize("kind", ["constant", "ramp", "pulse"])
    @pytest.mark.parametrize("h_demag", [0.0, 0.6])
    @pytest.mark.parametrize("tilt_deg", [0.0, 1.0])
    @pytest.mark.parametrize("polarizer", [
        (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
        (0.6, 0.8, 0.0), (0.8, -0.6, 0.0),
    ])
    def test_same_bytes_signed_zeros_included(self, polarizer, tilt_deg, h_demag, kind):
        # array_equal takes -0.0 == 0.0, and a CSV cell does not: compare
        # bytes, and the alignment with the 3-D projection of the oracle's m
        params = MacrospinParams(polarizer=polarizer, h_demag=h_demag)
        state, gate = initial_state(params, tilt_deg), oracle_gate(kind)
        trace = integrate_macrospin(state, params, gate, 0.005)
        ref = reference_float_integrate(state, params, gate, 0.005)
        ex, ey, ez = polarizer
        ref_alignment = np.array([x * ex + y * ey + z * ez for x, y, z in ref.m.tolist()])
        assert trace.v_node.tobytes() == ref.v_node.tobytes()
        assert trace.i_device.tobytes() == ref.i_device.tobytes()
        assert trace.alignment().tobytes() == ref_alignment.tobytes()


SIX_POLARIZERS = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
                  (0.6, 0.8, 0.0), (0.8, -0.6, 0.0)]


class TestStageOracles:
    """The integrator writes the stage and circuit arithmetic out in-line;
    ``llgs_derivative`` and ``solve_node`` hold the same float expressions
    and must equal the float oracles byte for byte, but for the sign of a
    zero at the exact antiparallel fixed point."""

    @pytest.mark.parametrize("h_demag", [0.0, 0.6])
    @pytest.mark.parametrize("tilt_deg", [0.0, 1.0])
    @pytest.mark.parametrize("polarizer", SIX_POLARIZERS)
    def test_llgs_derivative_same_bytes(self, polarizer, tilt_deg, h_demag):
        params = MacrospinParams(polarizer=polarizer, h_demag=h_demag)
        state = initial_state(params, tilt_deg)
        # the start and the states of a switching run, z != 0 included
        states = integrate_macrospin(state, params, oracle_gate("constant"), 0.005).m[::50]
        for m in states:
            for i_device in (0.0, -0.0, 0.3, 1.2, -0.7):
                got = llgs_derivative(m, params, i_device)
                ref = np.array(reference_float_llgs(*m.tolist(), params, i_device))
                if got.tobytes() != ref.tobytes():
                    # only at the exact antiparallel fixed point, where both
                    # are zero: the planar step drops the oracle's terms in
                    # ez, which can flip the sign of a zero there
                    assert tilt_deg == 0.0 and not got.any() and not ref.any(), (m, i_device)

    @staticmethod
    def assert_solve_same_bytes(resistance, v_gate, params=PARAMS):
        got = np.array(solve_node(resistance, v_gate, params))
        ref = np.array(reference_float_solve_node(resistance, v_gate, params))
        assert got.tobytes() == ref.tobytes(), (resistance, v_gate)
        return got

    @ALL_POLARIZERS
    def test_solve_node_same_bytes(self, params):
        # cutoff, saturation and triode, and nextafter steps across the
        # gate at which the saturation voltage equals the overdrive
        k, vt = params.transistor_k, params.transistor_vt
        for r in np.linspace(params.r_parallel, params.r_antiparallel, 21).tolist():
            for v_gate in np.linspace(-0.5, 3.0, 71).tolist():
                self.assert_solve_same_bytes(r, v_gate, params)
            rk = r * k
            v_gate = vt + (math.sqrt(1.0 + 2.0 * rk * params.v_dd) - 1.0) / rk
            for _ in range(20):
                v_gate = math.nextafter(v_gate, -math.inf)
            for _ in range(40):
                self.assert_solve_same_bytes(r, v_gate, params)
                v_gate = math.nextafter(v_gate, math.inf)

    @pytest.mark.parametrize("transistor_k,v_gate", [
        (0.54, 1.0048669069139626),    # R*k = 2.16: the triode root equals v_ov
        (0.56, 0.9986339205999666),    # R*k = 2.24: the triode root lies above v_ov
        (0.5075, 1.0154898403154673),  # R*k = 2.03: the saturation voltage equals v_ov
    ])
    def test_root_at_the_triode_boundary(self, transistor_k, v_gate):
        # at R = r_antiparallel, the resistance at the fixed point m = -e, a
        # saturation voltage below v_ov sends the solve to the triode root;
        # where that rounds to v_ov or above, the current takes the
        # saturation law, chosen by v < v_ov on the root, and the two laws
        # differ in the last bit there
        params = MacrospinParams(transistor_k=transistor_k)
        v_ov = v_gate - params.transistor_vt
        rk = params.r_antiparallel * transistor_k
        assert params.v_dd - 0.5 * rk * v_ov * v_ov <= v_ov
        saturation = 0.5 * transistor_k * v_ov * v_ov
        v, i = self.assert_solve_same_bytes(params.r_antiparallel, v_gate, params)
        assert v >= v_ov and i == saturation
        trace = TestFloatIntegratorOracle.assert_same(MacrospinState(m=-params.easy_axis),
                                                      params, np.full(21, v_gate))
        assert np.all(trace.i_device == saturation)

    @pytest.mark.parametrize("tilt_deg", [0.0, -0.0, 1.0, -1.0, 45.0, 90.0, 180.0, 360.0,
                                          1e-300])
    @pytest.mark.parametrize("polarizer", SIX_POLARIZERS + [
        (-0.0, 1.0, 0.0), (1.0, -0.0, 0.0), (1, 0, 0)])
    def test_initial_state_same_bytes(self, polarizer, tilt_deg):
        # signed zeros included: z x e takes np.cross's products and
        # differences, and an integer polarizer is read as floats
        params = MacrospinParams(polarizer=polarizer)
        got = initial_state(params, tilt_deg).m
        assert got.dtype == np.float64
        assert got.tobytes() == reference_initial_state(params, tilt_deg).tobytes()

    @pytest.mark.parametrize("where", [0, 7, 20])
    @pytest.mark.parametrize("v_gate", [math.nan, math.inf, -math.inf])
    def test_non_finite_gate_sample_rejected_before_any_step(self, monkeypatch, v_gate, where):
        calls = []
        monkeypatch.setattr(macrospin, "_integrate", lambda *a, **k: calls.append(a))
        samples = np.full(21, 1.5)
        samples[where] = v_gate
        with pytest.raises(InvalidInputError, match="v_gate must be finite") as e:
            integrate_macrospin(initial_state(PARAMS), PARAMS, samples, 0.005)
        assert e.value.key == "v_gate"
        assert calls == []


def latency_cases(cases, params=PARAMS, name=""):
    """``(params, v_gate, horizon, switches)`` parameters, whose ids lead
    with ``name`` when it is given."""
    return [pytest.param(params, *case, id="-".join(filter(None, [name, *map(str, case)])))
            for case in cases]


class TestMeasureLatency:
    """``measure_latency`` runs one integration, which stops one step after
    the first switch, and returns the full-horizon answer, bit for bit."""

    @pytest.mark.parametrize("tilt_deg", [1.0, 0.0])
    @pytest.mark.parametrize("params,v_gate,horizon,switches", latency_cases([
        (0.5, 5.0, False), (0.78, 5.0, False), (0.79, 5.0, False), (0.8, 5.0, False),
        (0.81, 5.0, True), (0.82, 5.0, True), (0.85, 5.0, True), (1.3, 5.0, True),
        (2.5, 5.0, True), (0.743, 15.0, False), (0.745, 15.0, True),
    ]) + latency_cases([
        (0.6, 5.0, False), (0.65, 5.0, True), (1.3, 5.0, True), (2.5, 5.0, True),
    ], ORACLE_PARAMS[1], "tilted-polarizer"))
    def test_equals_the_full_run(self, params, v_gate, horizon, switches, tilt_deg):
        expected = reference_latency(params, v_gate, 0.005, horizon, tilt_deg)
        latency = measure_latency(params, v_gate, 0.005, horizon, tilt_deg)
        assert latency == expected
        # tilt 0 starts on -e, a fixed point
        if switches and tilt_deg != 0.0:
            assert type(latency) is float
        else:
            assert latency is None

    @ALL_POLARIZERS
    def test_alignment_is_the_stop_rule_projection(self, params):
        # the integrator's in-loop c = x*ex + y*ey + z*ez, sample for sample
        trace = integrate_macrospin(initial_state(params), params, oracle_gate("ramp"), 0.005)
        ex, ey, ez = params.polarizer
        assert trace.alignment().tolist() == [x * ex + y * ey + z * ez
                                              for x, y, z in trace.m.tolist()]

    @pytest.mark.parametrize("tilt_deg", [1.0, 0.0])
    @pytest.mark.parametrize("v_gate,switches", [(0.5, False), (0.8, False), (0.85, True),
                                                 (1.3, True)])
    def test_one_integration_per_probe(self, monkeypatch, v_gate, switches, tilt_deg):
        calls = []
        real = macrospin._integrate

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(macrospin, "_integrate", counting)
        latency = measure_latency(PARAMS, v_gate, 0.005, 5.0, tilt_deg)
        assert calls == [{"stop_after_switch": True}]
        assert (latency is not None) == (switches and tilt_deg != 0.0)

    @staticmethod
    def assert_window(window, full, k):
        """``window`` holds samples ``k - 1`` and ``k`` of the full trace,
        byte for byte."""
        for name in ("time", "v_node", "i_device", "m"):
            expected = getattr(full, name)[k - 1:k + 1]
            assert getattr(window, name).tobytes() == expected.tobytes(), name

    @ALL_POLARIZERS
    def test_stops_one_step_after_the_switch(self, monkeypatch, params):
        traces = []
        real = macrospin.MacrospinTrace.switching_times

        def spy(trace):
            traces.append(trace)
            return real(trace)

        monkeypatch.setattr(macrospin.MacrospinTrace, "switching_times", spy)
        latency = measure_latency(params, 1.3, horizon=15.0)
        (trace,) = traces
        monkeypatch.undo()
        full = reference_float_integrate(initial_state(params), params, np.full(3001, 1.3), 0.005)
        k = first_crossing_sample(full)
        a = full.alignment()
        assert a[k - 1] * a[k] < 0 and k < 3000
        self.assert_window(trace, full, k)
        assert latency == real(trace)[0] and trace.time[0] < latency < trace.time[1]
        assert latency == full.switching_times()[0]

    def test_stops_one_step_after_an_exact_zero(self):
        # a start on the equator is a crossing at t = 0; the stop rule's
        # exact-zero clause ends the run at the next sample
        state = MacrospinState(m=np.array([0.0, 1.0, 0.0]))
        trace = macrospin._integrate(state, PARAMS, [1.3] * 101, 0.005, stop_after_switch=True)
        full = reference_float_integrate(state, PARAMS, np.full(101, 1.3), 0.005)
        assert first_crossing_sample(full) == 1
        self.assert_window(trace, full, 1)
        assert trace.switching_times() == [0.0]

    @pytest.mark.parametrize("v_gate,tilt_deg", [(0.5, 1.0), (1.3, 0.0)])
    def test_no_switch_keeps_the_last_two_samples(self, v_gate, tilt_deg):
        state = initial_state(PARAMS, tilt_deg)
        trace = macrospin._integrate(state, PARAMS, [v_gate] * 201, 0.005, stop_after_switch=True)
        full = reference_float_integrate(state, PARAMS, np.full(201, v_gate), 0.005)
        assert full.switching_times() == []
        self.assert_window(trace, full, 200)
        assert trace.switching_times() == []

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(params=st.builds(
        MacrospinParams,
        alpha=st.floats(0.01, 0.05),
        h_easy=st.floats(0.01, 0.06),
        stt_coefficient=st.floats(-40.0, -10.0),
        transistor_k=st.floats(0.5, 3.0),
        polarizer=st.one_of(
            st.sampled_from([(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.6, 0.8, 0.0)]),
            st.floats(-math.pi, math.pi).map(lambda th: (math.cos(th), math.sin(th), 0.0)))),
        v_gate=st.one_of(st.sampled_from(np.linspace(0.3, 3.0, 28).tolist()),
                         st.floats(0.3, 3.0)),
        tilt_deg=st.one_of(st.just(1.0), st.floats(-10.0, 10.0), st.just(0.0)),
        dt=st.sampled_from([0.005, 0.0025, 0.01]),
        horizon=st.sampled_from([3.0, 2.0, 1.0]))
    @example(params=PARAMS, v_gate=0.5, tilt_deg=1.0, dt=0.005, horizon=3.0)
    @example(params=PARAMS, v_gate=1.3, tilt_deg=1.0, dt=0.005, horizon=3.0)
    @example(params=MacrospinParams(polarizer=(0.0, -1.0, 0.0)), v_gate=0.85, tilt_deg=1.0,
             dt=0.005, horizon=3.0)
    @example(params=ORACLE_PARAMS[1], v_gate=2.5, tilt_deg=0.0, dt=0.005, horizon=0.5)
    def test_random_probes_equal_the_full_float_run(self, params, v_gate, tilt_deg, dt,
                                                    horizon):
        # the window's first crossing against the full-horizon float trace's,
        # None included, on both sides of the threshold and of the horizon
        expected = reference_latency(params, v_gate, dt, horizon, tilt_deg)
        latency = measure_latency(params, v_gate, dt, horizon, tilt_deg)
        assert latency == expected
        assert type(latency) is type(expected)

    @pytest.mark.parametrize("dt", [0.02, 0.0, -0.005, math.nan])
    def test_dt_outside_the_grid_rule_rejected(self, dt):
        with pytest.raises(InvalidInputError, match=r"dt must be in \(0, 0.01\] ns") as e:
            measure_latency(PARAMS, 1.3, dt=dt)
        assert e.value.key == "dt"

    def test_horizon_shorter_than_dt_rejected(self):
        with pytest.raises(InvalidInputError, match=r"horizon must be finite and >= 10\*dt") as e:
            measure_latency(PARAMS, 1.3, dt=0.005, horizon=0.001)
        assert e.value.key == "horizon"

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("search", [
        lambda horizon: measure_latency(PARAMS, 1.3, horizon=horizon),
        lambda horizon: find_switching_threshold(PARAMS, horizon=horizon),
        lambda horizon: calibrate_tlr(PARAMS, CALIBRATION_GRID, horizon=horizon),
    ], ids=["measure_latency", "find_switching_threshold", "calibrate_tlr"])
    def test_non_finite_horizon_rejected_before_integrating(self, monkeypatch, search,
                                                            horizon):
        calls = []
        monkeypatch.setattr(macrospin, "_integrate", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidInputError, match="horizon must be finite") as e:
            search(horizon)
        assert e.value.key == "horizon"
        assert calls == []

    @pytest.mark.parametrize("horizon,match", [
        (5000.005, "at most 1000000 steps"),
        (15.0025, "whole number of dt"),
        (0.006, r"horizon must be finite and >= 10\*dt"),
    ], ids=["past-the-step-cap", "off-grid", "under-ten-steps"])
    @pytest.mark.parametrize("search", [
        lambda horizon: measure_latency(PARAMS, 1.3, horizon=horizon),
        lambda horizon: find_switching_threshold(PARAMS, horizon=horizon),
        lambda horizon: calibrate_tlr(PARAMS, CALIBRATION_GRID, horizon=horizon),
    ], ids=["measure_latency", "find_switching_threshold", "calibrate_tlr"])
    def test_grid_rule_of_simconfig(self, monkeypatch, search, horizon, match):
        # the probes take their grid from SimConfig: unchecked, 5000.005 ns
        # integrated 1,000,001 steps, 15.0025 ns was rounded to 3000 steps
        # and 0.006 ns ran one step
        calls = []
        monkeypatch.setattr(macrospin, "_integrate", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidInputError, match=match) as e:
            search(horizon)
        assert e.value.key == "horizon"
        assert calls == []

    @pytest.mark.parametrize("v_gate", [math.nan, math.inf, -math.inf])
    def test_non_finite_gate_rejected_before_integrating(self, monkeypatch, v_gate):
        # unchecked, the first circuit solve raised the unkeyed "voltages
        # must be finite"
        calls = []
        monkeypatch.setattr(macrospin, "_integrate", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidInputError, match="v_gate must be finite") as e:
            measure_latency(PARAMS, v_gate)
        assert e.value.key == "v_gate"
        with pytest.raises(InvalidInputError, match=r"drive_grid\[2\] must be finite") as e:
            calibrate_tlr(PARAMS, [1.0, 1.2, v_gate, 1.5, 2.0])
        assert e.value.key == "drive_grid[2]"
        assert calls == []

    def test_gate_read_as_a_python_float(self):
        # a float32 gate kept as it is would carry float32 arithmetic into
        # each step's overdrive: that latency differs in the eighth digit
        gate = np.float32(1.3)
        latency = measure_latency(PARAMS, gate, horizon=5.0)
        assert latency == measure_latency(PARAMS, float(gate), horizon=5.0)
        assert type(latency) is float

    def test_nan_tilt_rejected(self):
        with pytest.raises(InvalidInputError, match="tilt_deg must be finite") as e:
            measure_latency(PARAMS, 1.3, tilt_deg=math.nan)
        assert e.value.key == "tilt_deg"

    @pytest.mark.parametrize("tilt_deg", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("search", [
        lambda tilt_deg: initial_state(PARAMS, tilt_deg),
        lambda tilt_deg: measure_latency(PARAMS, 1.3, tilt_deg=tilt_deg),
    ], ids=["initial_state", "measure_latency"])
    def test_non_finite_tilt_rejected_before_integrating(self, monkeypatch, search, tilt_deg):
        # unchecked, a nan tilt gives an m of NaNs, which fails the unit
        # check unkeyed, and an infinite one math's "math domain error"
        calls = []
        monkeypatch.setattr(macrospin, "_integrate", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidInputError, match="tilt_deg must be finite") as e:
            search(tilt_deg)
        assert e.value.key == "tilt_deg"
        assert calls == []


class TestSwitchingTimes:
    """``switching_times`` against the per-sample loop it replaced: equal
    lists of Python floats, and no warning (pytest turns one into an error)."""

    @staticmethod
    def assert_matches_loop(trace):
        times = trace.switching_times()
        assert times == reference_switching_times(trace)
        assert all(type(t) is float for t in times)
        return times

    @pytest.mark.parametrize("horizon", [3.5, 15.0])
    @pytest.mark.parametrize("v_gate", CALIBRATION_GRID + (0.5,))
    def test_integrator_traces(self, v_gate, horizon):
        gate = np.full(int(round(horizon / 0.005)) + 1, v_gate)
        trace = integrate_macrospin(initial_state(PARAMS), PARAMS, gate, 0.005)
        times = self.assert_matches_loop(trace)
        if v_gate == 0.5:   # subthreshold
            assert times == []

    @staticmethod
    def synthetic_trace(alignment, time):
        # the easy axis is the x axis, so the projection of m is the alignment
        alignment = np.asarray(alignment, dtype=float)
        m = alignment[:, None] * PARAMS.easy_axis
        assert np.array_equal(m @ PARAMS.easy_axis, alignment)
        zeros = np.zeros(alignment.size)
        return macrospin.MacrospinTrace(time=np.asarray(time, dtype=float), v_node=zeros,
                                        i_device=zeros, m=m, params=PARAMS)

    @pytest.mark.parametrize("alignment", [
        [], [0.0], [0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, -1.0], [-0.5, 0.5, -0.5, 0.5], [1.0, -0.0, -1.0], [0.3, 0.3, 0.3],
    ])
    def test_exact_zeros_and_edges(self, alignment):
        self.assert_matches_loop(self.synthetic_trace(alignment, 0.25 * np.arange(len(alignment))))

    def test_random_alignments_with_exact_zeros(self):
        rng = np.random.default_rng(11)
        consecutive_zeros = 0
        for _ in range(300):
            n = int(rng.integers(2, 40))
            alignment = rng.choice([-1.0, -0.4, 0.0, 0.0, 0.3, 1.0], n) * rng.uniform(0.1, 1.0, n)
            time = rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(0.001, 0.1, n))
            consecutive_zeros += bool(np.any((alignment[:-1] == 0) & (alignment[1:] == 0)))
            self.assert_matches_loop(self.synthetic_trace(alignment, time))
        assert consecutive_zeros >= 100


class TestThresholdExistence:
    def test_bisected_threshold_separates_regimes(self):
        vth = find_switching_threshold(PARAMS, tol=5e-3)
        assert measure_latency(PARAMS, vth - 0.05, horizon=20.0) is None
        assert measure_latency(PARAMS, vth + 0.05, horizon=20.0) is not None

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0},
        {"tol": -1e-3},
        {"tol": float("nan")},
        {"v_lo": 2.0, "v_hi": 1.0},
        {"v_lo": 1.0, "v_hi": 1.0},
        # unchecked, tol = inf returned the bracket's midpoint after one probe
        {"tol": math.inf, "v_lo": 0.75, "v_hi": 1.0},
        {"tol": -math.inf},
    ])
    def test_bad_search_rejected_before_integrating(self, monkeypatch, kwargs):
        calls = []
        monkeypatch.setattr(macrospin, "measure_latency", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidInputError) as e:
            find_switching_threshold(PARAMS, **kwargs)
        assert e.value.key == ("tol" if "tol" in kwargs else "v_hi")
        assert calls == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("key", ["v_lo", "v_hi"])
    def test_non_finite_bound_rejected_before_integrating(self, monkeypatch, key, value):
        # unchecked, an infinite bound raised the probe's error keyed v_gate,
        # after integrating the v_hi probe when v_lo was -inf
        calls = []
        monkeypatch.setattr(macrospin, "_integrate", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidInputError, match=f"{key} must be finite") as e:
            find_switching_threshold(PARAMS, **{key: value})
        assert e.value.key == key
        assert calls == []

    def test_v_hi_that_never_switches_rejected(self):
        with pytest.raises(NumericalFailureError, match="v_hi does not switch within the horizon"):
            find_switching_threshold(PARAMS, v_lo=0.0, v_hi=0.5, horizon=2.0)

    def test_v_lo_that_switches_rejected(self):
        # unchecked, every probe switched and the search returned 1.00048828125,
        # next to a v_lo that switches at 1.653 ns
        assert measure_latency(PARAMS, 1.0, horizon=3.5) is not None
        with pytest.raises(NumericalFailureError, match="v_lo switches within the horizon"):
            find_switching_threshold(PARAMS, v_lo=1.0, v_hi=2.0, horizon=3.5)

    def test_v_lo_probed_only_when_every_probe_switched(self, monkeypatch):
        probes, probe = [], macrospin.measure_latency
        monkeypatch.setattr(macrospin, "measure_latency",
                            lambda params, v, *a: probes.append(v) or probe(params, v, *a))
        assert find_switching_threshold(PARAMS, v_lo=0.75, v_hi=1.0, horizon=3.5,
                                        tol=0.05) == 0.859375
        assert probes == [0.875, 0.8125, 0.84375]

    @staticmethod
    def fake_probes(monkeypatch, switches):
        """Replace ``measure_latency`` with a probe that switches where
        ``switches(v)`` holds; returns the list of probed voltages, and
        fails the test at probe 201, so that a search that never ends
        fails instead of hanging."""
        probes = []

        def probe(params, v, *args):
            assert len(probes) < 200, "more than 200 probes"
            probes.append(v)
            return 1.0 if switches(v) else None

        monkeypatch.setattr(macrospin, "measure_latency", probe)
        return probes

    @pytest.mark.parametrize("switches,probes,vth", [
        # mixed outcomes: both ends moved, so neither is probed
        (lambda v: v >= 0.8, [0.875, 0.8125, 0.78125], 0.796875),
        # every probe switched: v_lo is probed, and v_hi never
        (lambda v: v >= 0.76, [0.875, 0.8125, 0.78125, 0.75], 0.765625),
        # no probe switched: v_hi is probed, and v_lo never
        (lambda v: v >= 0.99, [0.875, 0.9375, 0.96875, 1.0], 0.984375),
        # not monotone: v_hi does not switch, but the midpoints that did
        # vouch for the answer's upper end, and one that did not for its lower
        (lambda v: 0.8 <= v < 0.9, [0.875, 0.8125, 0.78125], 0.796875),
    ], ids=["mixed", "every-probe-switched", "no-probe-switched", "not-monotone"])
    def test_an_end_is_probed_only_when_no_probe_vouches_for_it(self, monkeypatch, switches,
                                                               probes, vth):
        probed = self.fake_probes(monkeypatch, switches)
        assert find_switching_threshold(PARAMS, v_lo=0.75, v_hi=1.0, tol=0.05) == vth
        assert probed == probes

    @pytest.mark.parametrize("switches,probes,match", [
        (lambda v: v >= 0.7, [0.875, 0.8125, 0.78125, 0.75], "v_lo switches"),
        # after ceil(log2((v_hi - v_lo) / tol)) + 1 probes, where it once
        # raised after the first
        (lambda v: v >= 1.5, [0.875, 0.9375, 0.96875, 1.0], "v_hi does not switch"),
    ], ids=["v_lo-switches", "v_hi-never-switches"])
    def test_an_end_that_fails_raises_after_the_bisection(self, monkeypatch, switches,
                                                          probes, match):
        probed = self.fake_probes(monkeypatch, switches)
        with pytest.raises(NumericalFailureError, match=match):
            find_switching_threshold(PARAMS, v_lo=0.75, v_hi=1.0, tol=0.05)
        assert probed == probes
        assert len(probed) == math.ceil(math.log2(0.25 / 0.05)) + 1

    @pytest.mark.parametrize("switches,probes,match", [
        (lambda v: v >= 0.89, [0.90625, 0.875], None),
        (lambda v: False, [0.90625], "v_hi does not switch"),
        (lambda v: True, [0.90625, 0.875], "v_lo switches"),
    ], ids=["threshold-inside", "v_hi-never-switches", "v_lo-switches"])
    def test_bracket_within_tol_probes_v_hi_first(self, monkeypatch, switches, probes, match):
        # no bisection probe runs, so both ends are probed, v_hi first: a
        # v_hi that does not switch raises the error it always raised
        probed = self.fake_probes(monkeypatch, switches)
        search = lambda: find_switching_threshold(PARAMS, v_lo=0.875, v_hi=0.90625, tol=0.05)
        if match is None:
            assert search() == 0.890625
        else:
            with pytest.raises(NumericalFailureError, match=match):
                search()
        assert probed == probes

    def test_tol_below_the_float_spacing_ends(self, monkeypatch):
        # unchecked, once v_lo and v_hi were adjacent floats, mid equalled one
        # of them, v_hi - v_lo > tol stayed true, and the same voltage was
        # probed forever
        threshold = 0.8446273247133651
        probed = self.fake_probes(monkeypatch, lambda v: v >= threshold)
        vth = find_switching_threshold(PARAMS, v_lo=0.75, v_hi=1.0, tol=5e-324)
        v_lo = max(v for v in probed if v < threshold)
        v_hi = min(v for v in probed if v >= threshold)
        assert math.nextafter(v_lo, math.inf) == v_hi
        assert vth in (v_lo, v_hi)
        # 0.25 V halved to the spacing of the floats in [0.5, 1), 2**-53 V
        assert len(probed) == len(set(probed)) == 51


class TestWorkPerBenchmarkInput:
    """Integrator steps for each input of perfbench's ``macrospin_calibrate``
    workload, one entry per integration: a change of the work shows here,
    whatever the timings say."""

    @pytest.fixture
    def steps(self, monkeypatch):
        steps, real = [], macrospin._integrate

        def counting(state, params, v_gate, dt, **kwargs):
            trace = real(state, params, v_gate, dt, **kwargs)
            # the last sample's grid index: a probe stops there
            steps.append(round(trace.time[-1] / dt))
            return trace

        monkeypatch.setattr(macrospin, "_integrate", counting)
        return steps

    def test_calibrate(self, steps):
        calibrate_tlr(PARAMS, list(CALIBRATION_GRID), dt=0.005, horizon=3.5)
        assert steps == [640, 446, 331, 281, 245, 219] and sum(steps) == 2162

    def test_threshold(self, steps):
        # the v_hi probe (1.0 V, 331 steps) no longer runs: 2,258 steps before
        find_switching_threshold(PARAMS, v_lo=0.75, v_hi=1.0, horizon=3.5, tol=0.05, dt=0.005)
        assert steps == [527, 700, 700] and sum(steps) == 1927

    def test_single_neuron(self, steps):
        net = network.Network(
            neurons=(network.Neuron("m", "macrospin", PARAMS),),
            synapses=(network.Synapse("src", "m", 1.5),),
            sources=(network.Source("src", spike_times=(0.0,), amplitude=1.0, duration=4.9),))
        network.simulate_network(net, network.SimConfig(dt=0.005, horizon=4.0))
        assert steps == [800]


class TestOverflow:
    @pytest.mark.parametrize("field,value", [
        ("gamma", 1e308), ("gamma", 1e200), ("h_demag", 1e300), ("h_easy", 1e300),
        ("stt_coefficient", -1e200),
    ])
    def test_overflowing_step_raises_numerical_failure(self, field, value):
        # unchecked, an RK4 stage overflowed to an infinite norm and the next
        # one divided by zero
        params = dataclasses.replace(PARAMS, **{field: value})
        with pytest.raises(NumericalFailureError, match="macrospin step overflowed"):
            measure_latency(params, 1.3, 0.005, 1.0)

    @pytest.mark.parametrize("v_gate", [1e154, 1e155, 1e200, 1e308])
    def test_overflowing_gate_raises_numerical_failure(self, v_gate):
        # unchecked, b * b overflowed, the node voltage rounded to 0.0 inside
        # [0, v_dd], no current flowed, and the probe read "no switch"
        match = "circuit solve: the gate overdrive overflowed the float range"
        with pytest.raises(NumericalFailureError, match=match):
            measure_latency(PARAMS, v_gate, 0.005, 5.0)
        with pytest.raises(NumericalFailureError, match=match):
            integrate_macrospin(initial_state(PARAMS), PARAMS, np.full(21, v_gate), 0.005)
        with pytest.raises(NumericalFailureError, match=match):
            solve_node(PARAMS.r_antiparallel, v_gate, PARAMS)

    def test_largest_gates_below_the_overflow_still_switch(self):
        assert measure_latency(PARAMS, 1e150, 0.005, 5.0) == pytest.approx(0.8846, abs=1e-4)
        assert measure_latency(PARAMS, 3e153, 0.005, 5.0) == pytest.approx(0.8846, abs=1e-4)

    @pytest.mark.parametrize("latency,match", [
        (1e308, "overflow encountered in multiply"),
        (5e-324, "overflow encountered in divide"),
    ], ids=["huge", "subnormal"])
    def test_extreme_latency_fit_raises_numerical_failure(self, latency, match):
        # unchecked, numpy's overflow warning escaped the fit
        with pytest.raises(NumericalFailureError, match=f"latency-law fit failed: {match}"):
            fit_latency_law([0.8, 1.0, 1.3, 1.7, 2.2], [2.0, 1.6, 1.2, 1.0, latency])


class TestRefractionEmerges:
    def test_second_pulse_during_ringdown_ignored(self):
        # a pulse long enough to switch, then an identical pulse right after
        n = 2400   # 12 ns at 5 ps
        t = 0.005 * np.arange(n + 1)
        single = np.where(t < 3.0, 1.5, 0.0)
        double = np.where((t < 3.0) | ((3.2 <= t) & (t < 6.2)), 1.5, 0.0)

        t1 = integrate_macrospin(initial_state(PARAMS), PARAMS, single, 0.005)
        t2 = integrate_macrospin(initial_state(PARAMS), PARAMS, double, 0.005)
        assert len(t1.switching_times()) == 1
        # the repeated pulse cannot switch back: same torque sign, same state
        assert len(t2.switching_times()) == 1


class TestCalibration:
    def test_exact_recovery_from_synthetic_law(self):
        vth, q, floor = 0.55, 0.4, 0.6
        drives = [0.8, 1.0, 1.3, 1.7, 2.2]
        lats = [floor + q / (v - vth) for v in drives]
        fvth, fq, ffloor, resid = fit_latency_law(drives, lats)
        assert fvth == pytest.approx(vth, abs=1e-6)
        assert fq == pytest.approx(q, abs=1e-6)
        assert ffloor == pytest.approx(floor, abs=1e-6)
        assert resid < 1e-6

    @pytest.mark.parametrize("drives,latencies", [
        ([1.0] * 4, [2.0, 2.1, 1.9, 2.0]),
        ([0.9] * 5, [2.0, 2.1, 1.9, 2.0, 2.0]),
        ([0.7] * 7, [2.0, 2.1, 1.9, 2.0, 2.0, 2.1, 1.9]),
    ], ids=["4", "5", "7"])
    def test_equal_drives_raise_numerical_failure(self, drives, latencies):
        # unchecked, such a fit returned a threshold a hair below the drive
        # and a q near 0; at 5 and 7 points the mean of the equal
        # x = 1 / (v - vth) need not round back to x, so the centred slope
        # alone would not fail
        with pytest.raises(NumericalFailureError,
                           match="^latency-law fit failed: the drives are all equal$"):
            fit_latency_law(drives, latencies)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            fit_latency_law([1.0, 2.0, 3.0], [1.0, 0.5, 0.3])

    @pytest.mark.parametrize("drives,latencies,match,key", [
        ([0.8, 1.0, 1.3, 1.7, 2.2], [2.0, 1.6, 1.2, 1.0], "of the same length", None),
        ([[0.8, 1.0], [1.3, 1.7]], [[2.0, 1.6], [1.2, 1.0]], "must be 1-D", None),
        ([0.8, 1.0, math.nan, 1.7, 2.2], [2.0, 1.6, 1.2, 1.0, 0.9], "drives must be finite",
         "drives"),
        ([0.8, 1.0, 1.3, 1.7, 2.2], [2.0, 1.6, math.nan, 1.0, 0.9],
         "latencies must be finite", "latencies"),
        ([0.8, 1.0, 1.3, 1.7, 2.2], [2.0, 1.6, math.inf, 1.0, 0.9],
         "latencies must be finite", "latencies"),
    ], ids=["lengths", "2-D", "nan-drive", "nan-latency", "inf-latency"])
    def test_bad_points_rejected(self, capfd, drives, latencies, match, key):
        # unchecked, a length mismatch raises numpy's LinAlgError, a nan
        # makes LAPACK print "On entry to DLASCL ..." lines, and an inf
        # latency gives a fit of NaNs
        with pytest.raises(InvalidInputError, match=match) as e:
            fit_latency_law(drives, latencies)
        assert e.value.key == key
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("latencies", [
        [2.0, 1.6, 1.2, 1.0, 0.0],
        [-2.0, -1.6, -1.2, -1.0, -0.9],
    ], ids=["zero", "negated"])
    def test_non_positive_latency_rejected(self, latencies):
        # unchecked, a zero leaked numpy's divide-by-zero warning from the
        # relative residual, and negated latencies returned a fit
        with pytest.raises(InvalidInputError, match="latencies must be > 0") as e:
            fit_latency_law([0.9, 1.0, 1.2, 1.5, 2.0], latencies)
        assert e.value.key == "latencies"

    def test_non_positive_fitted_threshold_rejected(self, monkeypatch):
        # latencies of a law whose threshold lies at -0.5 V
        monkeypatch.setattr(macrospin, "measure_latency",
                            lambda params, v, *args: 0.6 + 0.4 / (v + 0.5))
        with pytest.raises(NumericalFailureError, match="fitted threshold is non-positive"):
            calibrate_tlr(PARAMS, [0.2, 0.4, 0.6, 0.8, 1.0])

    def test_all_subthreshold_grid(self):
        with pytest.raises(InsufficientDataError):
            calibrate_tlr(PARAMS, [0.1, 0.2, 0.3, 0.35])

    def test_defaults_fit_within_budget(self):
        cal = calibrate_tlr(PARAMS, CALIBRATION_GRID)
        assert cal.max_rel_residual <= 0.15
        for v, lat in zip(cal.drives, cal.latencies):
            pred = constant_drive_latency(cal.tlr_params, v)
            assert pred is not None
            assert abs(pred - lat) / lat <= 0.15

    def test_python_floats(self):
        # numpy scalars print as np.float64(...) in a repr
        drives = [0.8, 1.0, 1.3, 1.7, 2.2]
        fit = fit_latency_law(drives, [0.6 + 0.4 / (v - 0.55) for v in drives])
        assert [type(x) for x in fit] == [float] * 4
        cal = calibrate_tlr(PARAMS, CALIBRATION_GRID)
        tlr = cal.tlr_params
        for x in (tlr.i_threshold, tlr.q_switch, tlr.latency_floor, cal.max_rel_residual):
            assert type(x) is float

    def test_fit_runs_without_scipy(self):
        # the fit must not need scipy: block its import and compare with
        # the same fit in this process
        drives = [0.8, 1.0, 1.3, 1.7, 2.2]
        lats = [0.6 + 0.4 / (v - 0.55) for v in drives]
        grid = (1.0, 1.2, 1.5, 2.0)
        code = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from mtjsnn.macrospin import MacrospinParams, calibrate_tlr, fit_latency_law\n"
            f"print(repr(fit_latency_law({drives!r}, {lats!r})))\n"
            f"cal = calibrate_tlr(MacrospinParams(), {grid!r}, horizon=8.0)\n"
            "print(repr((cal.tlr_params, cal.max_rel_residual)))\n"
        )
        src = os.path.dirname(os.path.dirname(macrospin.__file__))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr
        cal = calibrate_tlr(PARAMS, grid, horizon=8.0)
        assert done.stdout == (f"{fit_latency_law(drives, lats)!r}\n"
                               f"{(cal.tlr_params, cal.max_rel_residual)!r}\n")


class TestLapackOracle:
    """The closed-form fit against ``reference_fit_latency_law``: each of
    (vth, q, floor, max relative residual) within a relative tolerance."""

    @staticmethod
    def worst_relative_error(drives, latencies):
        ours = fit_latency_law(drives, latencies)
        theirs = reference_fit_latency_law(drives, latencies)
        return max(abs(a - b) / abs(b) for a, b in zip(ours, theirs))

    def test_shipped_calibration_within_1e_12(self):
        cal = calibrate_tlr(PARAMS, CALIBRATION_GRID)
        assert self.worst_relative_error(cal.drives, cal.latencies) <= 1e-12

    def test_calibration_like_problems_within_1e_4(self):
        # laws near the shipped fit (vth 0.79, q 0.14, floor 1.02) on subsets
        # of a calibration-like grid, with 2 % log-normal noise
        rng = np.random.default_rng(20261020)
        grid = np.array([0.85, 0.9, 0.95, 1.0, 1.1, 1.2, 1.3, 1.5, 1.7, 2.0, 2.5])
        worst = 0.0
        for _ in range(1000):
            vth, q, floor = rng.uniform(0.5, 0.8), rng.uniform(0.05, 0.5), rng.uniform(0.5, 1.5)
            drives = np.sort(rng.choice(grid, size=rng.integers(5, 12), replace=False))
            lats = (floor + q / (drives - vth)) * np.exp(rng.normal(0.0, 0.02, drives.size))
            worst = max(worst, self.worst_relative_error(drives.tolist(), lats.tolist()))
        assert worst <= 1e-4


class TestFminbound:
    """``_fminbound`` against scipy's bounded ``minimize_scalar``, the
    routine it ports: the same points are evaluated, bit for bit."""

    @staticmethod
    def assert_same_as_scipy(func, lo, hi, xatol):
        optimize = pytest.importorskip("scipy.optimize")
        ours, theirs = [], []
        x = macrospin._fminbound(lambda u: ours.append(u) or func(u), lo, hi, xatol)
        res = optimize.minimize_scalar(lambda u: theirs.append(float(u)) or func(u),
                                       bounds=(lo, hi), method="bounded",
                                       options={"xatol": xatol})
        assert ours == theirs
        assert x == float(res.x)

    def test_calibration_fit(self, monkeypatch):
        problems = []
        real = macrospin._fminbound

        def spy(func, lo, hi, xatol):
            problems.append((func, lo, hi, xatol))
            return real(func, lo, hi, xatol)

        monkeypatch.setattr(macrospin, "_fminbound", spy)
        calibrate_tlr(PARAMS, CALIBRATION_GRID)
        assert len(problems) == 1
        self.assert_same_as_scipy(*problems[0])

    def test_random_bracketed_problems(self):
        rng = np.random.default_rng(20260)
        for _ in range(1000):
            c = rng.normal(size=4)
            lo = float(rng.uniform(-5.0, 5.0))
            hi = lo + float(rng.uniform(1e-3, 10.0))
            xatol = float(10.0 ** rng.uniform(-12.0, -2.0))
            self.assert_same_as_scipy(
                lambda x: math.sin(c[0] * x) + c[1] * (x - c[2]) ** 2 + c[3] * abs(x),
                lo, hi, xatol)

    @pytest.mark.parametrize("func,xatol", [
        (lambda x: 1.0, 1e-12),                                  # ties everywhere
        (lambda x: x, 1e-12),                                    # minimum on the bound
        (lambda x: (x - 0.5) ** 2, -1.0),                        # never converges: 500 calls
        (lambda x: math.nan, 1e-12),                             # nan everywhere
        (lambda x: math.nan if x > 0.7 else (x - 0.6) ** 2, 1e-12),
    ])
    def test_edge_cases(self, func, xatol):
        self.assert_same_as_scipy(func, -1.0, 2.0, xatol)
