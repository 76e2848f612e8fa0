"""Flow integration, slowdown conjugacies, stopping limits, annulus models."""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import rotwidth
from rotwidth import flows
from rotwidth.flows import (
    AnnulusField,
    ConleySection,
    DivergentSlowdownError,
    Field1D,
    FieldVanishesError,
    FlowError,
    NonContractingMapError,
    SectionReport,
    SlowdownProfile,
    annulus_model,
    box_profile,
    conjugate_to_constant,
    constant_field,
    equivariant_arc_conjugacy,
    flow,
    make_annulus_tau,
    make_annulus_v,
    parse_experiment_config,
    scaled_field,
    slowdown_conjugacy_1d,
    stopping_limit_experiment,
    verify_conjugacy,
)


class TestFlow:
    def test_time_zero_is_identity(self):
        assert flow(constant_field(2.0), 0.7, 0.0) == 0.7

    def test_unit_field_translation(self):
        assert abs(flow(constant_field(1.0), 0.0, 2.5) - 2.5) < 1e-10

    def test_group_property(self):
        X = Field1D(lambda y: 1.0 + 0.3 * np.sin(y), name="wobble")
        a = flow(X, 0.2, 0.9, step=1e-3)
        b = flow(X, flow(X, 0.2, 0.4, step=1e-3), 0.5, step=1e-3)
        assert abs(a - b) < 1e-10

    def test_negative_time_inverts(self):
        X = Field1D(lambda y: 1.0 + y * y)
        y1 = flow(X, 0.3, 0.8, step=1e-4)
        back = flow(X, y1, -0.8, step=1e-4)
        assert abs(back - 0.3) < 1e-10

    def test_annulus_rigid_rotation(self):
        fld = AnnulusField(tau=lambda y: 1.0 + 0.0 * y, v=lambda y: 0.0 * y)
        out = flow(fld, np.array([0.25, 0.1]), 1.0)
        assert abs(out[0] - 1.25) < 1e-12 and abs(out[1] - 0.1) < 1e-12

    def test_richardson_error_small(self):
        # the flow at step and at step/2 agree: an a posteriori RK4 error check
        X = Field1D(lambda y: 1.0 / (1.0 + y * y))
        assert abs(flow(X, 0.0, 1.0, step=1e-2) - flow(X, 0.0, 1.0, step=5e-3)) < 1e-9

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(FlowError, match="time t"):
            flow(constant_field(1.0), 0.0, t)

    @pytest.mark.parametrize("t", [1.0, -0.37])
    @pytest.mark.parametrize("field, x", [
        pytest.param(constant_field(0.0), 0.7, id="scalar"),
        pytest.param(constant_field(-0.0), np.array([0.0, -2.5, 1e-300, 7.0]), id="line"),
        pytest.param(AnnulusField(tau=make_annulus_tau(1.0), v=make_annulus_v(0.05)),
                     np.column_stack([np.tile([0.0, 0.3], 2), np.repeat([-1.0, 1.0], 2)]),
                     id="annulus-rim"),
        pytest.param(AnnulusField(tau=lambda y: 0.0 * y, v=lambda y: 0.0 * y),
                     np.array([0.25, -0.6]), id="annulus-pair"),
    ])
    def test_equilibrium_takes_no_step(self, field, x, t):
        # every RK4 stage state is the state itself: one evaluation, and
        # the bytes of the full step loop
        calls = []
        counted = lambda s: calls.append(1) or _ref_velocity(field)(s)
        got = flow(counted, x, t, step=1e-2)
        want = _ref_flow(field, x, t, step=1e-2)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes() == \
            np.asarray(x, dtype=float).tobytes()
        assert len(calls) == 1

    @pytest.mark.parametrize("field, x", [
        pytest.param(constant_field(0.0), -0.0, id="negative-zero-state"),
        pytest.param(constant_field(0.0), np.array([1.0, -0.0]), id="negative-zero-in-array"),
        pytest.param(Field1D(lambda y: np.full_like(y, np.nan)), np.array([0.5, 1.0]),
                     id="nan-velocity"),
        pytest.param(Field1D(lambda y: np.where(np.asarray(y) > 0.0, 0.0, 1.0 + 0.0 * y)),
                     np.array([-0.5, 0.5]), id="zero-at-some-states"),
        pytest.param(AnnulusField(tau=lambda y: 0.0 * y, v=lambda y: 0.0 * y),
                     np.array([-0.0, 0.5]), id="annulus-negative-zero"),
    ])
    def test_non_equilibrium_is_stepped(self, field, x):
        calls = []
        counted = lambda s: calls.append(1) or _ref_velocity(field)(s)
        got = flow(counted, x, 0.05, step=1e-2)
        want = _ref_flow(field, x, 0.05, step=1e-2)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert len(calls) == 4 * 5

    def test_degenerate_annulus_evaluates_its_rim_once(self):
        calls = []
        tau = make_annulus_tau(1.0)
        counted = lambda y: calls.append(np.shape(y)) or tau(y)
        rep = annulus_model(counted, lambda y: 0.0 * np.asarray(y))
        assert rep.degenerate_fibered_rotation and rep.items[0].measured == 0.0
        assert calls == [(16,)]


# Independent references on the classical RK4 step, each with its own step
# rule: the flow loop, and an RK4 scan that counts how often sampled orbits
# cross a Conley section, forward and backward.  The section check itself
# runs no flow (the monotone-height lemma); the scan is what it is tested
# against.

def _ref_rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _ref_velocity(field):
    if isinstance(field, AnnulusField):
        def velocity(state):
            y = state[..., 1]
            return np.stack([field.tau(y) + 0.0 * y, field.v(y) + 0.0 * y], axis=-1)
        return velocity
    return lambda state: np.asarray(field(state), dtype=float)


def _ref_flow(field, x, t, *, step=1e-3):
    rhs = _ref_velocity(field)
    state = np.asarray(x, dtype=float)
    work = state.copy()
    if t != 0.0:
        n = max(1, math.ceil(abs(t) / step))
        h = t / n
        for _ in range(n):
            work = _ref_rk4_step(rhs, work, h)
    if state.ndim == 0:
        return float(work)
    return work


def _ref_crossings(field, level, *, horizon, samples, step):
    """Crossings of {y = level} by orbits of `samples` points on it, in two
    RK4 passes, at +horizon and at -horizon."""
    xs = np.linspace(0.0, 1.0, samples, endpoint=False)
    pts = np.column_stack([xs, np.full_like(xs, level)])
    rhs = _ref_velocity(field)
    n = max(1, math.ceil(horizon / step))
    h = horizon / n
    worst = 0
    for sgn in (1.0, -1.0):
        state = pts.copy()
        prev_side = np.zeros(len(pts))
        crossings = np.zeros(len(pts), dtype=int)
        for _ in range(n):
            state = _ref_rk4_step(rhs, state, sgn * h)
            side = np.sign(state[:, 1] - level)
            crossings += ((side != prev_side) & (prev_side != 0)).astype(int)
            prev_side = np.where(side != 0, side, prev_side)
        worst = max(worst, int(crossings.max()))
    vy = rhs(pts)[:, 1]
    return SectionReport(transversal_speed=float(np.min(np.abs(vy))), max_crossings=worst,
                         future_side="above" if vy[0] > 0 else "below")


def _ref_checklist(tau, v, r, y0):
    """Items (1) to (3) of `annulus_model` as separate RK4 flows: each
    boundary circle, the orbit point and the segment on their own."""
    fld = AnnulusField(tau=tau, v=v)
    xs = np.linspace(0.0, 1.0, 9)[:-1]
    worst = 0.0
    for ysign in (-1.0, 1.0):
        pts = np.column_stack([xs, np.full_like(xs, ysign)])
        img = _ref_flow(fld, pts, 1.0, step=1e-3)
        worst = max(worst, float(np.max(np.abs(img - pts))))
    measured = r / float(_ref_flow(fld, np.array([0.0, y0]), r, step=1e-3)[0])
    offsets = np.array([-0.9, -0.5, 0.5, 0.9]) * flows._plateau_halfwidth(tau, y0)
    seg = np.column_stack([np.zeros_like(offsets), y0 + offsets])
    img = _ref_flow(fld, seg, r, step=1e-3)
    contracted = bool(np.all(np.abs(img[:, 1] - y0) <= np.abs(offsets) + 1e-12)
                      and np.all(np.sign(img[:, 1] - y0) == np.sign(offsets)))
    x_err = float(np.max(np.abs(img[:, 0] - 1.0)))
    return measured, [worst, abs(measured - r), x_err], x_err <= 1e-6 and contracted


def _ref_stopping_distances(field, floors, *, window=(0.0, 1.0), margin=0.5,
                            step=1e-3, grid=None):
    """The stopping-limit series as one flow per floor: the stopping
    field's flow, then each floored slowdown's on its own."""
    a, b = window
    s0 = box_profile(a, b, depth=0.0, margin=margin)
    if grid is None:
        if isinstance(field, Field1D):
            grid = np.linspace(a - margin - 2.0, b + margin + 2.0, 161)
        else:
            gx, gy = np.meshgrid(np.linspace(0.0, 1.0, 17)[:-1], np.linspace(-0.95, 0.95, 21),
                                 indexing="ij")
            grid = np.column_stack([gx.ravel(), gy.ravel()])
    ref = np.asarray(_ref_flow(scaled_field(field, s0.fn), grid, 1.0, step=step))
    out = []
    for eps in floors:
        floored = lambda u, eps=eps: eps + (1.0 - eps) * s0.fn(u)
        img = np.asarray(_ref_flow(scaled_field(field, floored), grid, 1.0, step=step))
        out.append(float(np.max(np.abs(img - ref))))
    return out


def _wobble(state):
    """An x-dependent planar velocity, not an AnnulusField, transverse to
    every horizontal circle."""
    st_ = np.asarray(state, dtype=float)
    x, y = st_[..., 0], st_[..., 1]
    return np.stack([1.0 + 0.2 * np.sin(2 * np.pi * y), 0.6 + 0.5 * np.cos(2 * np.pi * x)],
                    axis=-1)


def _dipping(state):
    """Transverse to y = 0 at twelve sampled points, but the vertical speed
    dips negative between them, so orbits cross that circle again."""
    x = np.asarray(state, dtype=float)[..., 0]
    return np.stack([np.ones_like(x), 0.05 + 0.95 * np.cos(24 * np.pi * x)], axis=-1)


_ANNULUS = AnnulusField(tau=make_annulus_tau(1.0), v=make_annulus_v(0.05))
_ANNULUS_R2 = AnnulusField(tau=make_annulus_tau(2.0), v=make_annulus_v(0.05))
_ANNULUS_Y03 = AnnulusField(tau=make_annulus_tau(1.0, y0=0.3), v=make_annulus_v(0.05, y0=0.3))
# a zero of v on the zero scan's grid
_GRID_Y0 = float(np.linspace(-0.999, 0.999, 4001)[1500])


class TestTrajectoryReference:
    """`flow` and the experiments built on it give the same bytes as the
    reference loop; `ConleySection.validate` gives the report of the RK4
    crossing scan."""

    @pytest.mark.parametrize("t", [0.0, 0.3705, -0.2513, 1.0049])
    @pytest.mark.parametrize("field, x", [
        (Field1D(lambda y: 1.0 + 0.3 * np.sin(y)), 0.2),
        (Field1D(lambda y: 1.0 + 0.3 * np.sin(y)), np.linspace(-1.0, 2.0, 7)),
        (constant_field(0.1), -0.4),
        (_ANNULUS, np.array([0.25, -0.6])),
        (_ANNULUS, np.column_stack([np.linspace(0, 1, 5), np.linspace(-0.9, 0.9, 5)])),
        (_wobble, (0.1, 0.3)),
        (_wobble, np.column_stack([np.linspace(0, 1, 4), np.linspace(-0.5, 0.5, 4)])),
    ])
    def test_flow_matches_reference_bytes(self, field, x, t):
        got = flow(field, x, t, step=1e-2)
        want = _ref_flow(field, x, t, step=1e-2)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    # explicit ids keep each case's name stable when cases come or go
    @pytest.mark.parametrize("field, level", [
        pytest.param(_ANNULUS, -0.6, id="field0--0.6"),
        pytest.param(_ANNULUS, -0.3, id="field1--0.3"),
        pytest.param(_ANNULUS, 0.35, id="field2-0.35"),
        pytest.param(_ANNULUS, 0.7, id="field3-0.7"),
        pytest.param(_ANNULUS_R2, 0.5, id="field8-0.5"),
        pytest.param(_ANNULUS_Y03, -0.2, id="field9--0.2"),
        pytest.param(_ANNULUS_Y03, 0.6, id="field10-0.6"),
    ])
    def test_validate_matches_reference(self, field, level):
        want = _ref_crossings(field, level, horizon=4.0, samples=12, step=1e-2)
        assert want.max_crossings == 0
        rep = ConleySection(level=level).validate(field, horizon=4.0)
        assert repr(rep) == repr(want)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.01, 2.0), st.floats(-0.5, 0.5), st.floats(-0.99, 0.99))
    @example(0.05, 0.3, 0.3)  # v vanishes on the section
    @example(0.05, 0.0, 0.99)  # at the edge of the bump
    def test_validate_agrees_with_reference_scan(self, amplitude, y0, level):
        # the section is accepted with the scan's report, or both refuse it
        fld = AnnulusField(tau=make_annulus_tau(1.0, y0=y0), v=make_annulus_v(amplitude, y0=y0))
        want = _ref_crossings(fld, level, horizon=4.0, samples=12, step=1e-2)
        if not want.transversal_speed >= 1e-6 or want.max_crossings > 0:
            with pytest.raises(FlowError):
                ConleySection(level=level).validate(fld, horizon=4.0)
        else:
            rep = ConleySection(level=level).validate(fld, horizon=4.0)
            assert repr(rep) == repr(want)

    def test_reference_sees_a_recrossing(self):
        rep = _ref_crossings(_dipping, 0.0, horizon=4.0, samples=12, step=1e-2)
        assert rep.max_crossings > 0

    @pytest.mark.parametrize("r, y0", [(1.0, 0.0), (2.0, 0.0), (1.0, _GRID_Y0)])
    def test_checklist_flows_match_reference_bytes(self, r, y0):
        tau, v = make_annulus_tau(r, y0=y0), make_annulus_v(0.05, y0=y0)
        measured, errors, seg_ok = _ref_checklist(tau, v, r, y0)
        rep = annulus_model(tau, v, expected_period=r)
        assert np.array([i.measured for i in rep.items[:3]]).tobytes() == \
            np.array(errors).tobytes()
        assert np.float64(rep.measured_period).tobytes() == np.float64(measured).tobytes()
        assert rep.items[2].passed == seg_ok

    def test_experiments_match_reference_flow(self, monkeypatch):
        s = box_profile(0.0, 1.0, depth=0.5, margin=0.25)
        runs = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(flows, "flow", _ref_flow)
            rep = verify_conjugacy(constant_field(1.0), slowdown=s, step=1e-2)
            line = stopping_limit_experiment(constant_field(0.1), [0.5, 0.1], step=1e-2)
            ring = stopping_limit_experiment(_ANNULUS, [0.5, 0.1], window=(-0.95, -0.75),
                                             margin=0.04, step=1e-2)
            runs.append((rep.per_time, line.distances(), ring.distances()))
        assert repr(runs[0]) == repr(runs[1])


class TestConjugateToConstant:
    def test_unit_field_identity(self):
        c = conjugate_to_constant(constant_field(1.0))
        assert abs(c.to_time(1.7) - 1.7) < 1e-12

    def test_speed_two_halves_time(self):
        c = conjugate_to_constant(constant_field(2.0))
        assert abs(c.to_time(3.0) - 1.5) < 1e-12
        assert abs(c.from_time(1.5) - 3.0) < 1e-10
        # time-1 flow advances the time coordinate by exactly 1
        y1 = flow(constant_field(2.0), 0.4, 1.0)
        assert abs(c.to_time(y1) - c.to_time(0.4) - 1.0) < 1e-9

    def test_quadratic_field_is_arctan(self):
        X = Field1D(lambda y: 1.0 + np.asarray(y) ** 2)
        c = conjugate_to_constant(X, domain=(-5, 5))
        assert abs(c.to_time(2.0) - math.atan(2.0)) < 1e-10
        for y in (-1.2, 0.0, 0.9):
            for t in (0.25, 0.5):
                lhs = c.to_time(flow(X, y, t, step=1e-4)) - c.to_time(y)
                assert abs(lhs - t) < 1e-6

    def test_vanishing_field_rejected(self):
        with pytest.raises(FieldVanishesError):
            conjugate_to_constant(Field1D(lambda y: np.asarray(y) * 1.0),
                                  domain=(-1, 1))

    def test_divergent_panel_raises(self):
        # positive on all 201 samples, but 1/X is not integrable at c
        c = 0.123456789
        X = Field1D(lambda y: np.abs(np.asarray(y, dtype=float) - c) ** 1.5)
        with pytest.raises(FlowError, match=r"panel \[0.0, 1.0\] did not converge"):
            conjugate_to_constant(X, domain=(0.0, 1.0))


class TestTimeCoordinate:
    def test_round_trip_at_edges_and_between(self):
        s = box_profile(0.0, 1.0, depth=0.3, margin=0.25)
        quadratic = Field1D(lambda y: 1.0 + np.asarray(y) ** 2)
        for X, joints in ((Field1D(s.fn), s.joints), (quadratic, ())):
            c = conjugate_to_constant(X, domain=(-5.0, 5.0), joints=joints)
            for y in (-5.0, 5.0, 0.0, *s.joints, *np.linspace(-5.0, 5.0, 37)):
                assert abs(c.from_time(c.to_time(y)) - y) <= 1e-12

    def test_to_time_matches_direct_quadrature(self):
        s = box_profile(-0.5, 0.5, depth=0.4, margin=0.3)
        c = conjugate_to_constant(Field1D(s.fn), joints=s.joints)
        for y in (-3.0, -0.65, -0.1, 0.2, 0.65, 2.5):
            lo, hi = sorted((0.0, y))
            pts = [p for p in s.joints if lo < p < hi] or None
            ref, _ = quad(lambda u: 1.0 / float(s(u)), lo, hi, points=pts,
                          epsabs=1e-12, epsrel=1e-12, limit=400)
            assert c.to_time(y) == pytest.approx(ref if y > 0 else -ref, abs=1e-11)

    def test_time_beyond_the_image_raises(self):
        # g = arctan never reaches 2; run in a child under a timeout, so an
        # inverse that searches without end fails instead of hanging
        code = (
            "import numpy as np\n"
            "from rotwidth.flows import Field1D, FlowError, conjugate_to_constant\n"
            "c = conjugate_to_constant(Field1D(lambda y: 1.0 + np.asarray(y) ** 2),"
            " domain=(-5, 5))\n"
            "try:\n"
            "    c.from_time(2.0)\n"
            "except FlowError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(rotwidth.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert "t = 2.0 lies outside g([-5.0, 5.0])" in proc.stdout

    def test_query_outside_the_domain_raises(self):
        c = conjugate_to_constant(constant_field(1.0), domain=(-5, 5))
        with pytest.raises(FlowError, match=r"outside the domain \[-5.0, 5.0\]"):
            c.to_time(5.5)
        with pytest.raises(FlowError, match=r"outside g\(\[-5.0, 5.0\]\)"):
            c.from_time(-6.0)

    def test_domain_must_contain_zero(self):
        with pytest.raises(FlowError, match="containing 0"):
            conjugate_to_constant(constant_field(1.0), domain=(1.0, 2.0))


class TestSlowdownConjugacy:
    def test_trivial_profile_is_identity(self):
        s = box_profile(0.0, 1.0, depth=1.0, margin=0.25)
        conj = slowdown_conjugacy_1d(s)
        assert conj.t_minus == pytest.approx(0.0, abs=1e-12)
        assert conj.t_plus == pytest.approx(0.0, abs=1e-12)
        for x in (-2.0, 0.3, 4.0):
            assert abs(conj.map(x) - x) < 1e-10

    def test_half_speed_zone_loses_one_unit(self):
        # crossing [0,1] at speed 1/2 costs one extra time unit
        s = box_profile(0.0, 1.0, depth=0.5, margin=0.05)
        conj = slowdown_conjugacy_1d(s)
        assert conj.t_plus - conj.t_minus == pytest.approx(-1.0, abs=0.12)
        # the exact characterization: the shift difference is the delay integral
        delay, _ = quad(lambda u: 1.0 / float(s(u)) - 1.0, s.tau_minus, s.tau_plus,
                        points=s.joints[1:3], epsabs=1e-12, epsrel=1e-12, limit=400)
        assert conj.t_plus - conj.t_minus == pytest.approx(-delay, abs=1e-9)

    def test_tail_constancy(self):
        s = box_profile(0.0, 1.0, depth=0.5, margin=0.25)
        conj = slowdown_conjugacy_1d(s)
        f = conj.map
        for x in np.linspace(conj.lower_tail_start - 4, conj.lower_tail_start - 1, 9):
            assert abs(f(x) - x - conj.t_minus) < 1e-8
        for x in np.linspace(conj.upper_tail_start + 1, conj.upper_tail_start + 4, 9):
            assert abs(f(x) - x - conj.t_plus) < 1e-8

    def test_stopping_profile_diverges(self):
        with pytest.raises(DivergentSlowdownError):
            slowdown_conjugacy_1d(box_profile(0.0, 1.0, depth=0.0, margin=0.25))

    def test_stopping_limit_is_a_zero_floor(self):
        s0 = box_profile(0.0, 1.0, depth=0.0, margin=0.25)
        assert s0.floor == 0.0 and float(s0(0.5)) == 0.0
        for floor in (-0.1, 1.5):
            with pytest.raises(FlowError):
                SlowdownProfile(fn=s0.fn, tau_minus=s0.tau_minus,
                                tau_plus=s0.tau_plus, floor=floor)

    @pytest.mark.parametrize("a, b, depth, margin", [
        (0.0, 1.0, 0.5, math.inf), (0.0, 1.0, 0.5, math.nan), (0.0, 1.0, math.nan, 0.25),
        (0.0, 1.0, math.inf, 0.25), (0.0, math.inf, 0.5, 0.25), (-math.inf, 1.0, 0.5, 0.25),
        (math.nan, 1.0, 0.5, 0.25), (0.0, math.nan, 0.5, 0.25)])
    def test_box_profile_rejects_non_finite_values(self, a, b, depth, margin):
        with pytest.raises(FlowError, match="finite|must lie in"):
            box_profile(a, b, depth=depth, margin=margin)

    @pytest.mark.parametrize("a, b", [(1e17, 1e17), (-1e17, 0.0), (0.0, 1e17)])
    def test_box_profile_rejects_a_margin_lost_to_rounding(self, a, b):
        with pytest.raises(FlowError, match="vanishes in rounding"):
            box_profile(a, b, depth=0.5, margin=1.0)

    def test_map_outside_the_domain_raises(self):
        conj = slowdown_conjugacy_1d(box_profile(0.0, 1.0, depth=0.5, margin=0.25))
        with pytest.raises(FlowError):
            conj.map(1e3)
        with pytest.raises(FlowError):
            conj.time_map(-1e3)


class TestVerifyConjugacy:
    def test_identity_on_trivial_slowdown(self):
        s = box_profile(0.0, 1.0, depth=1.0, margin=0.25)
        rep = verify_conjugacy(constant_field(1.0), slowdown=s,
                               conjugacy=lambda x: x, tol=1e-12)
        assert rep.sup_residual < 1e-10

    def test_slow_zone_below_tolerance(self):
        s = box_profile(0.0, 1.0, depth=0.5, margin=0.25)
        rep = verify_conjugacy(constant_field(1.0), slowdown=s, step=1e-3, tol=1e-4)
        assert rep.passed
        assert rep.sup_residual < 1e-4

    def test_wrong_conjugacy_fails_at_shift_scale(self):
        s = box_profile(0.0, 1.0, depth=0.5, margin=0.25)
        conj = slowdown_conjugacy_1d(s)
        shift_scale = abs(conj.t_plus - conj.t_minus)
        rep = verify_conjugacy(constant_field(1.0), slowdown=s,
                               conjugacy=lambda x: x, step=1e-2, tol=1e-4)
        assert not rep.passed
        assert 0.1 * shift_scale < rep.sup_residual <= shift_scale

    def test_nan_residual_fails(self):
        # a conjugacy that returns NaN gave sup_residual 0.0 and passed
        s = box_profile(0.0, 1.0, depth=0.5, margin=0.25)
        rep = verify_conjugacy(constant_field(1.0), slowdown=s, step=1e-2,
                               conjugacy=lambda x: x if x < 3.2 else math.nan)
        assert math.isnan(rep.sup_residual)
        assert not rep.passed

    def test_explicit_slowdown_conjugacy_verifies(self):
        s = box_profile(-0.5, 0.5, depth=0.3, margin=0.3)
        conj = slowdown_conjugacy_1d(s)
        rep = verify_conjugacy(constant_field(1.0), slowdown=s,
                               conjugacy=conj.map, step=1e-3, tol=1e-4)
        assert rep.passed


class TestStoppingLimit:
    def test_unit_field_distances_decrease(self):
        series = stopping_limit_experiment(constant_field(1.0),
                                           [0.5, 0.25, 0.1, 0.05, 0.02])
        assert series.is_weakly_decreasing()

    def test_slow_field_reaches_threshold(self):
        series = stopping_limit_experiment(constant_field(0.1),
                                           [0.5, 0.25, 0.1, 0.05, 0.02])
        assert series.is_weakly_decreasing()
        assert series.final_distance < 1e-2

    def test_trivial_floors_all_equal(self):
        series = stopping_limit_experiment(constant_field(1.0), [1.0, 1.0, 1.0])
        d = series.distances()
        assert d[0] == pytest.approx(d[1], rel=1e-12) == pytest.approx(d[2], rel=1e-12)
        assert d[0] > 0.1  # the fixed gap to the stopping flow

    def test_annulus_version_decreases(self):
        fld = AnnulusField(tau=make_annulus_tau(1.0), v=make_annulus_v(0.05))
        series = stopping_limit_experiment(fld, [0.5, 0.2, 0.1],
                                           window=(-0.95, -0.75), margin=0.04)
        assert series.is_weakly_decreasing()

    def test_floor_ordering_enforced(self):
        with pytest.raises(FlowError):
            stopping_limit_experiment(constant_field(1.0), [0.1, 0.5])

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf])
    def test_horizon_must_be_positive(self, horizon):
        # at time 0 every map is the identity, so the series would pass vacuously
        with pytest.raises(FlowError, match="horizon must be positive and finite"):
            stopping_limit_experiment(constant_field(0.1), [0.5, 0.25], horizon=horizon)

    def test_csv_shape(self):
        series = stopping_limit_experiment(constant_field(0.1), [0.5, 0.25])
        csv = series.to_csv(include_runtime=False)
        lines = csv.strip().splitlines()
        assert lines[0] == "floor,sup_distance,runtime_s"
        assert len(lines) == 3 and lines[1].startswith("0.5,")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_distance_is_not_decreasing(self, bad):
        # a two-floor series averages to one value, which passed vacuously
        series = stopping_limit_experiment(constant_field(0.1), [0.5, 0.25])
        series.rows[1].sup_distance = bad
        assert not series.is_weakly_decreasing()


_C08_FLOORS = [0.5, 0.25, 0.1, 0.05, 0.02]


class TestBatchedExperiments:
    """The batched stopping-limit flow and the chained conjugacy horizons
    give the bytes of one flow per floor and one flow per horizon."""

    def test_stopping_distances_pinned(self):
        line = stopping_limit_experiment(constant_field(0.1), _C08_FLOORS)
        assert [d.hex() for d in line.distances()] == [
            "0x1.a00f1cd993ee0p-5", "0x1.a24e5891b3280p-6", "0x1.4ef9713607680p-7",
            "0x1.4ef3cde904200p-8", "0x1.0bece92291c00p-9"]
        ring = stopping_limit_experiment(_ANNULUS, [0.5, 0.1], window=(-0.95, -0.75),
                                         margin=0.04)
        assert [d.hex() for d in ring.distances()] == [
            "0x1.59dddcfad9080p-6", "0x1.17779722d0580p-8"]

    @pytest.mark.parametrize("step, want", [
        (1e-3, ["0x1.4b59c00000000p-34", "0x1.4c3a000000000p-34", "0x1.4caa800000000p-34"]),
        (1e-2, ["0x1.38b5996000000p-23", "0x1.38b5989800000p-23", "0x1.3a0006e800000p-23"]),
    ])
    def test_conjugacy_residuals_pinned(self, step, want):
        s = box_profile(0.0, 1.0, depth=0.5, margin=0.25)
        rep = verify_conjugacy(constant_field(1.0), slowdown=s, step=step)
        assert list(rep.per_time) == [0.25, 0.5, 1.0]
        assert [r.hex() for r in rep.per_time.values()] == want

    @pytest.mark.parametrize("floors", [[0.5], [1.0, 1.0, 1.0], _C08_FLOORS],
                             ids=["one", "trivial", "c08"])
    @pytest.mark.parametrize("field, kwargs", [
        pytest.param(constant_field(0.1), {}, id="line"),
        pytest.param(_ANNULUS, {"window": (-0.95, -0.75), "margin": 0.04, "step": 1e-2},
                     id="annulus"),
    ])
    def test_batch_matches_one_flow_per_floor(self, field, kwargs, floors):
        got = stopping_limit_experiment(field, floors, **kwargs).distances()
        want = _ref_stopping_distances(field, floors, **kwargs)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_custom_grid_shapes(self):
        # a scalar grid and a 2-D grid of line points batch like the default
        X = constant_field(0.1)
        for grid in (0.3, np.linspace(-2.0, 3.0, 12).reshape(3, 4)):
            got = stopping_limit_experiment(X, [0.5, 0.1], grid=grid, step=1e-2).distances()
            want = _ref_stopping_distances(X, [0.5, 0.1], grid=grid, step=1e-2)
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_rows_share_the_batched_runtime(self):
        series = stopping_limit_experiment(constant_field(0.1), [0.5, 0.25, 0.1], step=1e-2)
        assert len({r.runtime_s for r in series.rows}) == 1

    @pytest.mark.parametrize("field", [
        constant_field(0.0), constant_field(1e-300), constant_field(-0.0),
        AnnulusField(tau=lambda y: 0.0 * y, v=lambda y: 0.0 * y, name="still"),
    ], ids=["zero", "tiny", "negative-zero", "still-annulus"])
    def test_field_that_moves_nothing_rejected(self, field):
        # every map is the identity: the series would be all zeros and pass
        with pytest.raises(FlowError, match=f"field {field.name!r} moves no grid point"):
            stopping_limit_experiment(field, [0.5, 0.25])

    def test_field_moving_only_where_the_stopping_flow_freezes(self):
        # the stopping map is the identity, the floored ones are not
        X = Field1D(lambda y: 0.1 * (np.abs(np.asarray(y) - 0.5) < 0.3), name="inside")
        series = stopping_limit_experiment(X, [0.5, 0.25])
        assert all(d > 0 for d in series.distances())


class TestAnnulusModel:
    def test_model_class_checklist(self):
        rep = annulus_model(make_annulus_tau(1.0), make_annulus_v(0.05),
                            expected_period=1.0)
        assert rep.passed
        assert abs(rep.measured_period - 1.0) < 1e-3
        assert rep.y0 == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_fibered_rotation_flagged(self):
        rep = annulus_model(make_annulus_tau(1.0), lambda y: 0.0 * np.asarray(y))
        assert rep.degenerate_fibered_rotation
        assert not rep.items[1].passed  # no isolated periodic orbit
        assert rep.items[0].passed  # boundary still fixed

    def test_small_perturbation_stays_close_to_rotation(self):
        tau = make_annulus_tau(1.0)
        tiny = make_annulus_v(0.05 * 1e-3)
        rep = annulus_model(tau, tiny, expected_period=1.0,
                            omega_tol=1.0, omega_horizon=10.0)
        assert rep.items[0].passed and rep.items[1].passed and rep.items[2].passed
        grid = np.column_stack([np.linspace(0, 1, 9), np.linspace(-0.9, 0.9, 9)])
        rot = AnnulusField(tau=tau, v=lambda y: 0.0 * np.asarray(y))
        pert = AnnulusField(tau=tau, v=tiny)
        d = np.abs(np.asarray(flow(pert, grid, 1.0)) - np.asarray(flow(rot, grid, 1.0)))
        assert float(d.max()) < 1e-2

    def test_zero_on_a_scan_grid_point(self):
        # the zero scan samples this grid; a zero sample is one sign change
        y0 = float(np.linspace(-0.999, 0.999, 4001)[1500])
        rep = annulus_model(make_annulus_tau(1.0, y0=y0), make_annulus_v(0.05, y0=y0),
                            expected_period=1.0)
        assert rep.passed
        assert rep.y0 == y0

    def test_zero_band_rejected(self):
        band_v = lambda y: -0.05 * np.sign(y) * np.maximum(np.abs(y) - 0.01, 0.0)
        with pytest.raises(FlowError, match="vanishes on"):
            annulus_model(make_annulus_tau(1.0), band_v)

    def test_wrong_sign_pattern_rejected(self):
        tau = make_annulus_tau(1.0)
        bad_v = lambda y: 0.05 * (np.asarray(y) - 0.0) * (1 - np.abs(np.asarray(y)))
        with pytest.raises(FlowError):
            annulus_model(tau, bad_v)

    def test_period_two(self):
        rep = annulus_model(make_annulus_tau(2.0), make_annulus_v(0.05),
                            expected_period=2.0)
        assert rep.passed
        assert abs(rep.measured_period - 2.0) < 1e-3

    @pytest.mark.parametrize("y0", [0.0, _GRID_Y0])
    def test_heights_match_a_1d_rk4_flow(self, y0):
        # the time coordinate of y' = v(y) against RK4 on that equation
        v = make_annulus_v(0.05, y0=y0)
        starts = np.array([-0.8, -0.4, 0.35, 0.8])
        ends = flow(Field1D(v), starts, 20.0, step=1e-3)
        for ys, end in zip(starts, ends):
            gap = flows._height_gap(v, float(ys), y0, 20.0, 5e-9)
            assert gap == pytest.approx(abs(end - y0), abs=1e-9)

    def test_fast_convergence_reports_the_bound(self):
        # at amplitude 0.5 every height is within dmin = omega_tol * 1e-6
        # of y0 long before the horizon
        rep = annulus_model(make_annulus_tau(1.0), make_annulus_v(0.5), expected_period=1.0)
        assert rep.passed
        assert rep.items[3].measured == 5e-3 * 1e-6

    @pytest.mark.parametrize("start, touch", [
        (0.8, lambda y: (y - 0.5) ** 2),  # a double zero: 1/v is not integrable
        (-0.8, lambda y: (y + 0.5) ** 2),
        (0.8, lambda y: np.minimum(20 * np.abs(y - 0.5), 1.0)),  # a kink onto 0
    ], ids=["double-zero-above", "double-zero-below", "kink-above"])
    def test_v_touching_zero_on_the_way_raises(self, start, touch):
        base = make_annulus_v(0.05)
        v = lambda y: base(y) * touch(np.asarray(y, dtype=float))
        with pytest.raises(FlowError, match=f"from y = {start}"):
            annulus_model(make_annulus_tau(1.0), v, expected_period=1.0)


class TestConleySection:
    def test_valid_section(self):
        fld = AnnulusField(tau=make_annulus_tau(1.0), v=make_annulus_v(0.05))
        report = ConleySection(level=0.5).validate(fld, horizon=30.0)
        assert report.max_crossings == 0
        assert report.future_side == "below"  # v < 0 above the orbit

    def test_planar_callable_refused(self):
        # the lemma needs a height that moves on its own; an x-dependent
        # velocity, recrossing (`_dipping`) or not (`_wobble`), is refused
        for velocity in (_dipping, _wobble):
            with pytest.raises(FlowError, match="AnnulusField"):
                ConleySection(level=0.0).validate(velocity)

    @pytest.mark.parametrize("level", [1.5, -1.5, 1.0, -1.0, math.nan, math.inf, -math.inf])
    def test_level_outside_annulus_rejected(self, level):
        def v(y):
            raise AssertionError("v called on a level outside the annulus")

        fld = AnnulusField(tau=make_annulus_tau(1.0), v=v)
        with pytest.raises(FlowError, match="annulus"):
            ConleySection(level=level).validate(fld)

    def test_level_outside_annulus_rejected_where_v_is_transverse(self):
        fld = AnnulusField(tau=make_annulus_tau(1.0), v=lambda y: -y)
        assert ConleySection(level=0.5).validate(fld).future_side == "below"
        with pytest.raises(FlowError, match="annulus"):
            ConleySection(level=1.5).validate(fld)

    @pytest.mark.parametrize("horizon", [math.nan, -5.0, 0.0, math.inf])
    def test_bad_horizon_rejected(self, horizon):
        fld = AnnulusField(tau=make_annulus_tau(1.0), v=make_annulus_v(0.05))
        with pytest.raises(FlowError, match="horizon"):
            ConleySection(level=0.5).validate(fld, horizon=horizon)

    def test_nan_speed_rejected(self):
        fld = AnnulusField(tau=make_annulus_tau(1.0), v=lambda y: math.nan)
        with pytest.raises(FlowError, match="transverse"):
            ConleySection(level=0.5).validate(fld)

    def test_non_transverse_rejected(self):
        fld = AnnulusField(tau=make_annulus_tau(1.0), v=make_annulus_v(0.05))
        with pytest.raises(FlowError):
            ConleySection(level=0.0).validate(fld)  # v vanishes on the orbit


class TestEquivariantArcConjugacy:
    def test_identity_pair(self):
        ac = equivariant_arc_conjugacy(lambda x: x / 2, lambda x: x / 2)
        assert ac.residual < 1e-12
        assert ac.map(0.3) == pytest.approx(0.3, abs=1e-12)

    def test_distinct_contractions(self):
        ac = equivariant_arc_conjugacy(lambda x: x / 2, lambda x: x / 3)
        assert ac.residual < 1e-6
        assert ac.map(0.0) == 0.0
        assert ac.map(1.0) == pytest.approx(1.0)
        assert ac.map(0.5) == pytest.approx(1 / 3, abs=1e-12)
        assert ac.map(-0.5) == pytest.approx(-1 / 3, abs=1e-12)

    def test_nonlinear_contractions(self):
        phi1 = lambda x: 0.5 * x + 0.1 * x * abs(x)
        phi2 = lambda x: 0.4 * x
        ac = equivariant_arc_conjugacy(phi1, phi2)
        assert ac.residual < 1e-6

    def test_repelling_rejected(self):
        with pytest.raises(NonContractingMapError):
            equivariant_arc_conjugacy(lambda x: x / 2, lambda x: 2 * x)

    def test_query_past_max_steps_raises(self):
        # 0.02 is ~390 iterates of 0.99x from 1; 0.017 needs ~405 > 400
        ac = equivariant_arc_conjugacy(lambda x: 0.99 * x, lambda x: 0.999 * x)
        assert ac.map(0.02) == pytest.approx(0.677, abs=1e-3)
        with pytest.raises(FlowError, match="max_steps = 400"):
            ac.map(0.017)

    def test_moved_fixed_point_rejected(self):
        with pytest.raises(NonContractingMapError):
            equivariant_arc_conjugacy(lambda x: x / 2 + 0.1, lambda x: x / 2)


class TestExperimentConfig:
    def test_parse_and_run(self):
        cfg = parse_experiment_config(
            "# demo\nfield = const:0.1\nfloors = 0.5,0.25\n"
            "window = 0,1\nmargin = 0.5\nstep = 0.002\ngrid = -2:3:41\n"
        )
        assert cfg["field"].name == "const:0.1"
        series = stopping_limit_experiment(**cfg)
        assert len(series.rows) == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(FlowError):
            parse_experiment_config("floors = 0.5\nbogus = 1\n")

    def test_missing_floors_rejected(self):
        with pytest.raises(FlowError):
            parse_experiment_config("field = const:1\n")

    @pytest.mark.parametrize("text,message", [
        ("field = const:0.1\nfloors = 0.5,abc\n", "line 2: bad floors '0.5,abc'"),
        ("floors = 0.5\nwindow = 1\n", "line 2: bad window '1'"),
        ("floors = 0.5\ngrid = -2:3:0\n", "line 2: bad grid '-2:3:0': a grid needs n >= 2"),
        ("floors = 0.5\nmargin = inf\n", "line 2: bad margin 'inf'"),
        ("floors = 0.5\nmargin = -1\n", "line 2: bad margin '-1': margin must be positive and finite"),
        ("floors = 0.5\nwindow = 1,0\n", "line 2: bad window '1,0': need a finite window"),
        ("floors = 0.5,0.9\n", "line 1: bad floors '0.5,0.9': floors must be non-increasing"),
        ("floors = 0\n", "line 1: bad floors '0': floors must be positive and at most 1"),
        ("floors = 0.5\nstep = 0\n", "line 2: bad step '0': step must be positive and finite"),
        ("floors = 0.5\nhorizon = 0\n",
         "line 2: bad horizon '0': horizon must be positive and finite"),
        ("floors = 0.5\n# again\nfloors = 0.25\n", "line 3: floors is already set on line 1"),
        ("floors = 0.5\nbogus = 1\n", "line 2: unknown config key 'bogus'"),
    ])
    def test_errors_name_their_line(self, text, message):
        with pytest.raises(FlowError) as err:
            parse_experiment_config(text)
        assert str(err.value).startswith(message)

    def test_scaled_field_annulus(self):
        fld = AnnulusField(tau=make_annulus_tau(1.0), v=make_annulus_v(0.05))
        s = box_profile(-0.9, -0.7, depth=0.5, margin=0.05)
        slowed = scaled_field(fld, s.fn)
        y = -0.8
        assert float(slowed.tau(y)) == pytest.approx(0.5 * float(fld.tau(y)))


_CONFIG_VALUES = st.one_of(
    st.sampled_from(["const:0.1", "0.5,0.25", "0,1", "0.5", "-2:3:41", "1e-3", "nan",
                     "inf", "", "-2:3:0", "1", "abc", "const:", "lin:1", "1,2,3", "1:2"]),
    st.text(alphabet="0123456789.,:-+eabcinfost# ", max_size=20),
)
_CONFIG_LINES = st.one_of(
    st.tuples(st.sampled_from(["field", "floors", "window", "margin", "step", "horizon",
                               "grid"]), _CONFIG_VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.sampled_from(["", "# comment", "bogus = 1", "no equals sign"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CONFIG_LINES, max_size=8).map("\n".join))
def test_config_fuzz_gives_config_or_flow_error(text):
    try:
        cfg = parse_experiment_config(text)
    except FlowError as err:
        assert str(err).startswith("line ") or str(err) == "config must set floors"
        return
    assert "floors" in cfg
    assert set(cfg) <= set(inspect.signature(stopping_limit_experiment).parameters)


# ---------------------------------------------------------------------------
# Float path of the model fields against the np.clip reference

def _ref_smoothstep(u, a, b):
    """`flows._smoothstep` as it was on NumPy only: every input through
    np.asarray and np.clip."""
    t = np.clip((np.asarray(u, dtype=float) - a) / (b - a), 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def _ref_box(u, a, b, depth, margin):
    window = _ref_smoothstep(u, a - margin, a) * (1.0 - _ref_smoothstep(u, b, b + margin))
    return 1.0 - (1.0 - depth) * window


def _ref_tau(y, r, y0):
    rise = _ref_smoothstep(y, -0.8, y0 - 0.25)
    fall = 1.0 - _ref_smoothstep(y, y0 + 0.25, 0.8)
    return (1.0 / r) * rise * fall


def _ref_v(y, amplitude, y0):
    ya = np.asarray(y, dtype=float)
    bump = _ref_smoothstep(ya, -1.0, -0.9) * (1.0 - _ref_smoothstep(ya, 0.9, 1.0))
    return amplitude * (y0 - ya) * bump


def _height_speed(v, ys, y0):
    """The field `_height_gap` hands to its time coordinate."""
    with mock.patch.object(flows, "conjugate_to_constant",
                           side_effect=StopIteration) as caught:
        with pytest.raises(StopIteration):
            flows._height_gap(v, ys, y0, 1.0, 1e-9)
    return caught.call_args.args[0]


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _assert_float_path(fn, ref, xs, ends):
    """fn against ref on each float, at the ramp ends and the specials,
    as floats (a float comes back) and packed into one array."""
    xs = [*xs, *ends, *(e + d for e in ends for d in (-1e-3, 1e-3, -5.0, 5.0)),
          0.0, -0.0, math.inf, -math.inf, math.nan]
    with np.errstate(all="ignore"):
        for x in xs:
            got = fn(x)
            assert type(got) is float, (x, type(got))
            assert _bits(got) == _bits(ref(x)), x
        packed = np.array(xs)
        assert _bits(fn(packed)) == _bits(ref(packed))


_POINTS = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12)
_FLOAT_PATH = settings(max_examples=150, deadline=None)


class TestFloatPath:
    @_FLOAT_PATH
    @given(_POINTS, st.floats(-20, 20), st.floats(1e-6, 10))
    def test_smoothstep(self, xs, a, width):
        b = a + width
        _assert_float_path(lambda u: flows._smoothstep(u, a, b),
                           lambda u: _ref_smoothstep(u, a, b), xs, (a, b))

    @_FLOAT_PATH
    @given(_POINTS, st.floats(-10, 10), st.floats(0, 5), st.floats(0, 1),
           st.floats(1e-3, 3), st.floats(1e-3, 1))
    def test_box_floor_and_scaled(self, xs, a, width, depth, margin, eps):
        b = a + width
        ends = (a - margin, a, b, b + margin)
        box = box_profile(a, b, depth=depth, margin=margin)
        _assert_float_path(box.fn, lambda u: _ref_box(u, a, b, depth, margin), xs, ends)
        # the stopping-limit slowdown eps + (1 - eps) * s0, through scaled_field
        s0 = box_profile(a, b, depth=0.0, margin=margin).fn
        floored = lambda u: eps + (1.0 - eps) * s0(u)
        ref_floored = lambda u: eps + (1.0 - eps) * np.asarray(
            _ref_box(u, a, b, 0.0, margin), dtype=float)
        _assert_float_path(floored, ref_floored, xs, ends)
        slowed = scaled_field(constant_field(0.1), floored)
        _assert_float_path(slowed, lambda u: np.asarray(ref_floored(u), dtype=float)
                           * (0.1 + 0.0 * np.asarray(u, dtype=float)), xs, ends)

    @_FLOAT_PATH
    @given(_POINTS, st.floats(-1e300, 1e300))
    def test_constant_field(self, xs, c):
        _assert_float_path(constant_field(c), lambda u: c + 0.0 * np.asarray(u, dtype=float),
                           xs, ())

    @_FLOAT_PATH
    @given(_POINTS, st.floats(0.05, 20), st.floats(-0.5, 0.5), st.floats(-1, 1),
           st.floats(-0.9, 0.9))
    def test_annulus_fields(self, xs, r, y0, amplitude, ys):
        ends = (-1.0, -0.9, -0.8, y0 - 0.25, y0 + 0.25, 0.8, 0.9, 1.0)
        tau, v = make_annulus_tau(r, y0=y0), make_annulus_v(amplitude, y0=y0)
        _assert_float_path(tau, lambda y: _ref_tau(y, r, y0), xs, ends)
        _assert_float_path(v, lambda y: _ref_v(y, amplitude, y0), xs, ends)
        s = box_profile(-0.5, 0.5, depth=0.25, margin=0.25)
        slowed = scaled_field(AnnulusField(tau=tau, v=v), s.fn)
        _assert_float_path(slowed.tau, lambda y: np.asarray(_ref_box(y, -0.5, 0.5, 0.25, 0.25))
                           * np.asarray(_ref_tau(y, r, y0)), xs, ends)
        _assert_float_path(slowed.v, lambda y: np.asarray(_ref_box(y, -0.5, 0.5, 0.25, 0.25))
                           * np.asarray(_ref_v(y, amplitude, y0)), xs, ends)
        if abs(y0 - ys) > 1e-6:
            side = math.copysign(1.0, y0 - ys)
            _assert_float_path(_height_speed(v, ys, y0),
                               lambda u: side * _ref_v(ys + side * np.asarray(u), amplitude, y0),
                               xs, (0.0, abs(y0 - ys)))
