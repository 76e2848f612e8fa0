"""Numerical laboratory for flow conjugacies: 1-D conjugation to a constant
field, slowdown/stopping reparameterizations, annulus model fields, and
equivariant arc conjugacies.

The two building blocks realized here are the line chart (a non-vanishing
field on R is conjugate to the unit field, and slowing it down inside a
compact window is implemented by an explicit conjugacy that is a time
shift on each tail) and the annulus model (fields (tau(y), v(y)) on
S^1 x [-1, 1] whose time-one maps perturb a fibered rotation into a flow
with a single attracting periodic orbit).

Integration is classical fixed-step RK4; the fields involved are C^1, so
no higher-order smoothness is assumed or exploited.  All experiment
drivers are deterministic given their (grid, step, seed) parameters.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq


class FlowError(ValueError):
    """Bad input to a flow operation."""


class FieldVanishesError(FlowError):
    """A field required to be non-vanishing has a zero in the interval."""


class DivergentSlowdownError(FlowError):
    """The time integral across the slow zone diverges (stopping profile)."""


class SectionRecrossError(FlowError):
    """An orbit met a transverse section more than once."""


class NonContractingMapError(FlowError):
    """An arc map required to be attracting at 0 is not."""


# ---------------------------------------------------------------------------
# Fields and flows

@dataclass
class Field1D:
    """Vector field on the line; `fn` must accept floats or numpy arrays."""

    fn: Callable
    name: str = "field"

    def __call__(self, y):
        return self.fn(y)


@dataclass
class AnnulusField:
    """Field (tau(y), v(y)) on the annulus S^1 x [-1, 1].

    tau is the angular speed, v the vertical one; both depend on the
    height only, so vertical motion is autonomous and monotone between
    zeros of v.
    """

    tau: Callable
    v: Callable
    name: str = "annulus-field"

    def velocity(self, state):
        y = state[..., 1]
        return np.stack([self.tau(y) + 0.0 * y, self.v(y) + 0.0 * y], axis=-1)


FlowField = Union[Field1D, AnnulusField]


def constant_field(value: float, name: str | None = None) -> Field1D:
    v = float(value)
    return Field1D(lambda y: v + 0.0 * np.asarray(y, dtype=float),
                   name=name or f"const:{v:g}")


def _rhs(field: FlowField):
    if isinstance(field, Field1D):
        return lambda state: np.asarray(field(state), dtype=float)
    if isinstance(field, AnnulusField):
        return field.velocity
    raise TypeError(f"not a flow field: {field!r}")


def _rk4_step(rhs, y, h: float):
    """One classical RK4 step of size h (negative h steps backwards)."""
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow(field: FlowField, x, t: float, *, step: float = 1e-3):
    """Classical RK4 time-t flow map.

    `x` may be a scalar (Field1D), a pair (AnnulusField), or an array of
    states; the return value matches the input shape.  Negative times
    integrate backwards.  The step is shrunk to divide |t| evenly.
    """
    if step <= 0:
        raise FlowError("step must be positive")
    rhs = _rhs(field)
    state = np.asarray(x, dtype=float)
    scalar = state.ndim == 0 or (isinstance(field, AnnulusField) and state.ndim == 1)
    work = state.copy()
    if t != 0.0:
        n = max(1, math.ceil(abs(t) / step))
        h = t / n
        for _ in range(n):
            work = _rk4_step(rhs, work, h)
    if scalar and isinstance(field, Field1D):
        return float(work)
    return work


def flow_richardson_error(field: FlowField, x, t: float, *, step: float = 1e-3) -> float:
    """Difference between the flow at `step` and at `step/2`; an a
    posteriori error indicator for the RK4 integration."""
    a = np.asarray(flow(field, x, t, step=step), dtype=float)
    b = np.asarray(flow(field, x, t, step=step / 2), dtype=float)
    return float(np.max(np.abs(a - b)))


# ---------------------------------------------------------------------------
# Conjugation to the constant field

@dataclass
class LineConjugacy:
    """Monotone time coordinate g with g(flow_X^t(y)) = g(y) + t.

    `to_time` is g (an antiderivative of 1/X), `from_time` its inverse.
    """

    field: Field1D
    to_time: Callable[[float], float]
    from_time: Callable[[float], float]


def _quad_with_joints(fn, lo: float, hi: float, joints=()) -> float:
    if lo == hi:
        return 0.0
    a, b = (lo, hi) if lo < hi else (hi, lo)
    pts = sorted(p for p in joints if a < p < b) or None
    val, _ = quad(fn, a, b, points=pts, epsabs=1e-12, epsrel=1e-12, limit=400)
    return val if lo < hi else -val


def conjugate_to_constant(X: Field1D, *, domain: tuple[float, float] = (-50.0, 50.0),
                          check_points: int = 201, joints=()) -> LineConjugacy:
    """Conjugate a positive field on the line to the unit field.

    g(y) = integral_0^y du / X(u), computed by adaptive quadrature; the
    inverse is found by bracketed root solving.  The field must be
    strictly positive on the working domain.  `joints` marks known C^1
    breakpoints of the field for the quadrature.
    """
    lo, hi = domain
    ys = np.linspace(lo, hi, check_points)
    vals = np.asarray(X(ys), dtype=float)
    if np.any(vals <= 0.0):
        raise FieldVanishesError(
            f"field {X.name!r} is not strictly positive on [{lo}, {hi}]"
        )

    def g(y: float) -> float:
        return _quad_with_joints(lambda u: 1.0 / float(X(u)), 0.0, y, joints)

    def g_inv(t: float) -> float:
        # g is increasing; expand a bracket around 0 until it straddles t
        lo_b, hi_b = -1.0, 1.0
        while g(lo_b) > t:
            lo_b *= 2.0
        while g(hi_b) < t:
            hi_b *= 2.0
        return float(brentq(lambda y: g(y) - t, lo_b, hi_b, xtol=1e-13))

    return LineConjugacy(field=X, to_time=g, from_time=g_inv)


# ---------------------------------------------------------------------------
# Slowdown and stopping profiles

def _smoothstep(u, a: float, b: float):
    t = np.clip((np.asarray(u, dtype=float) - a) / (b - a), 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass
class SlowdownProfile:
    """C^1 map into (0, 1], equal to 1 outside [tau_minus, tau_plus].

    `floor` is the minimum value; it must be positive (a zero floor makes
    the reparameterized time integral diverge -- see StoppingProfile).
    `joints` lists the C^1 breakpoints, passed to quadrature as known
    difficulty points.
    """

    fn: Callable
    tau_minus: float
    tau_plus: float
    floor: float
    joints: tuple = ()

    def __call__(self, u):
        return self.fn(u)

    def __post_init__(self):
        if not (0.0 < self.floor <= 1.0):
            raise FlowError("slowdown floor must lie in (0, 1]")
        self._spot_check()

    def _spot_check(self):
        for u in (self.tau_minus - 1.0, self.tau_plus + 1.0):
            if abs(float(self.fn(u)) - 1.0) > 1e-12:
                raise FlowError("profile must equal 1 outside its window")
        us = np.linspace(self.tau_minus, self.tau_plus, 101)
        vals = np.asarray(self.fn(us), dtype=float)
        if vals.min() < self.floor - 1e-12 or vals.max() > 1.0 + 1e-12:
            raise FlowError("profile values must lie in [floor, 1]")


@dataclass
class StoppingProfile:
    """Pointwise limit of slowdowns: values in [0, 1], 1 outside the window."""

    fn: Callable
    tau_minus: float
    tau_plus: float
    zero_set: tuple[float, float]
    floor: float = 0.0
    joints: tuple = ()

    def __call__(self, u):
        return self.fn(u)


def box_profile(a: float, b: float, *, depth: float, margin: float):
    """C^1 window profile: `depth` on [a, b], 1 outside [a-margin, b+margin],
    cubic Hermite ramps between.  depth > 0 gives a SlowdownProfile,
    depth == 0 a StoppingProfile with zero set [a, b]."""
    if margin <= 0 or b < a:
        raise FlowError("need margin > 0 and b >= a")
    if not (0.0 <= depth <= 1.0):
        raise FlowError("depth must lie in [0, 1]")

    def window(u):
        return _smoothstep(u, a - margin, a) * (1.0 - _smoothstep(u, b, b + margin))

    def fn(u):
        return 1.0 - (1.0 - depth) * window(u)

    joints = (a - margin, a, b, b + margin)
    if depth == 0.0:
        return StoppingProfile(fn=fn, tau_minus=a - margin, tau_plus=b + margin,
                               zero_set=(a, b), joints=joints)
    return SlowdownProfile(fn=fn, tau_minus=a - margin, tau_plus=b + margin,
                           floor=depth, joints=joints)


def with_floor(stopping: StoppingProfile, floor: float) -> SlowdownProfile:
    """The slowdown eps + (1 - eps) * s0: same shape, minimum lifted to eps."""
    if not (0.0 < floor <= 1.0):
        raise FlowError("floor must lie in (0, 1]")
    s0 = stopping.fn
    eps = float(floor)

    def fn(u):
        return eps + (1.0 - eps) * np.asarray(s0(u), dtype=float)

    return SlowdownProfile(fn=fn, tau_minus=stopping.tau_minus,
                           tau_plus=stopping.tau_plus, floor=eps,
                           joints=stopping.joints)


def scaled_field(field: FlowField, s: Callable) -> FlowField:
    """The reparameterized field s*X; for annulus fields s acts on the
    height coordinate and scales both components."""
    if isinstance(field, Field1D):
        return Field1D(lambda y: np.asarray(s(y), dtype=float) * np.asarray(field(y), dtype=float),
                       name=f"slowed({field.name})")
    if isinstance(field, AnnulusField):
        return AnnulusField(
            tau=lambda y: np.asarray(s(y), dtype=float) * np.asarray(field.tau(y), dtype=float),
            v=lambda y: np.asarray(s(y), dtype=float) * np.asarray(field.v(y), dtype=float),
            name=f"slowed({field.name})",
        )
    raise TypeError(f"not a flow field: {field!r}")


# ---------------------------------------------------------------------------
# The slowdown conjugacy on the line

@dataclass
class SlowdownConjugacy:
    """Conjugacy f between the unit field and its slowdown s.

    f satisfies f(x + t) = flow_s^t(f(x)); it is the inverse of the time
    coordinate g(y) = integral_0^y du/s(u).  On each tail the conjugacy is
    a pure time shift: f - id equals t_minus on x <= lower_tail_start and
    t_plus on x >= upper_tail_start.  (The tail starts sit at the window
    edges displaced by the accumulated delay, so constancy is guaranteed
    from tau_plus + delay on, not from tau_plus itself.)
    """

    profile: SlowdownProfile
    map: Callable[[float], float]
    time_map: Callable[[float], float]
    t_minus: float
    t_plus: float
    lower_tail_start: float
    upper_tail_start: float


def _delay_integral(s: SlowdownProfile, lo: float, hi: float) -> float:
    """integral_lo^hi (1/s - 1) du; the integrand vanishes off the window."""
    a = max(lo, s.tau_minus)
    b = min(hi, s.tau_plus)
    if a >= b:
        return 0.0
    return _quad_with_joints(lambda u: 1.0 / float(s.fn(u)) - 1.0, a, b, s.joints)


def slowdown_conjugacy_1d(s) -> SlowdownConjugacy:
    """Build the explicit conjugacy between the unit field and s * unit.

    Raises DivergentSlowdownError for stopping profiles (floor 0), where
    the crossing time diverges and no single limiting conjugacy exists.
    """
    if isinstance(s, StoppingProfile) or getattr(s, "floor", 0.0) <= 0.0:
        raise DivergentSlowdownError(
            "time across the slow zone diverges for a stopping profile"
        )

    def g(y: float) -> float:
        if y >= 0:
            return y + _delay_integral(s, 0.0, y)
        return y - _delay_integral(s, y, 0.0)

    total_delay = _delay_integral(s, s.tau_minus, s.tau_plus)

    def f(x: float) -> float:
        lo = x - total_delay - 1.0
        hi = x + total_delay + 1.0
        return float(brentq(lambda y: g(y) - x, lo, hi, xtol=1e-13))

    g_lo = g(s.tau_minus)
    g_hi = g(s.tau_plus)
    return SlowdownConjugacy(
        profile=s, map=f, time_map=g,
        t_minus=s.tau_minus - g_lo, t_plus=s.tau_plus - g_hi,
        lower_tail_start=g_lo, upper_tail_start=g_hi,
    )


@dataclass
class ConjugacyReport:
    sup_residual: float
    per_time: dict
    tol: float

    @property
    def passed(self) -> bool:
        return self.sup_residual <= self.tol


def verify_conjugacy(X: FlowField, *, slowdown=None, conjugacy=None,
                     times: Sequence[float] = (0.25, 0.5, 1.0),
                     grid=None, step: float = 1e-3, tol: float = 1e-4) -> ConjugacyReport:
    """Measure sup |h(flow_X^t(x)) - flow_{sX}^t(h(x))| over a test grid.

    With `conjugacy` given, that map h is tested as is (against the
    slowdown of X, or against X itself when no slowdown is supplied).
    Otherwise h is built from the time coordinates of X and sX; for the
    unit field this is exactly the slowdown conjugacy.
    """
    if slowdown is None and conjugacy is None:
        raise FlowError("need a slowdown, a conjugacy, or both")
    target = scaled_field(X, slowdown) if slowdown is not None else X
    if conjugacy is None:
        if not isinstance(X, Field1D):
            raise FlowError("automatic conjugacy construction needs a 1-D field")
        joints = tuple(getattr(slowdown, "joints", ()) or ())
        gx = conjugate_to_constant(X)
        gs = conjugate_to_constant(target, joints=joints)
        conjugacy = lambda x: gs.from_time(gx.to_time(x))
    if grid is None:
        if slowdown is not None:
            lo = getattr(slowdown, "tau_minus", -2.0) - 2.0
            hi = getattr(slowdown, "tau_plus", 2.0) + 2.0
        else:
            lo, hi = -2.0, 2.0
        grid = np.linspace(lo, hi, 41)

    grid = np.asarray(grid, dtype=float)
    h_of_x = np.array([float(conjugacy(float(x))) for x in grid])
    per_time = {}
    worst = 0.0
    for t in times:
        flowed = np.asarray(flow(X, grid, t, step=step), dtype=float)
        left = np.array([float(conjugacy(float(v))) for v in flowed])
        right = np.asarray(flow(target, h_of_x, t, step=step), dtype=float)
        res = float(np.max(np.abs(left - right)))
        per_time[float(t)] = res
        worst = max(worst, res)
    return ConjugacyReport(sup_residual=worst, per_time=per_time, tol=tol)


# ---------------------------------------------------------------------------
# Stopping-limit experiment

@dataclass
class ExperimentRow:
    floor: float
    sup_distance: float
    runtime_s: float


@dataclass
class ExperimentSeries:
    """Distances from the slowdown time-one maps to the stopping limit."""

    rows: list[ExperimentRow]
    field_name: str
    window: tuple[float, float]
    margin: float
    horizon: float
    step: float

    @property
    def final_distance(self) -> float:
        return self.rows[-1].sup_distance

    def distances(self) -> list[float]:
        return [r.sup_distance for r in self.rows]

    def is_weakly_decreasing(self, *, smooth_window: int = 2, rel_tol: float = 0.1) -> bool:
        """Non-increasing after a moving-average smoothing, with a relative
        slack for numerical noise."""
        d = self.distances()
        if smooth_window > 1 and len(d) >= smooth_window:
            d = [sum(d[i:i + smooth_window]) / smooth_window
                 for i in range(len(d) - smooth_window + 1)]
        return all(b <= a * (1.0 + rel_tol) + 1e-15 for a, b in zip(d, d[1:]))

    def to_csv(self, *, include_runtime: bool = True) -> str:
        lines = ["floor,sup_distance,runtime_s"]
        for r in self.rows:
            rt = f"{r.runtime_s:.3f}" if include_runtime else ""
            lines.append(f"{r.floor:.12g},{r.sup_distance:.12g},{rt}")
        return "\n".join(lines) + "\n"


def stopping_limit_experiment(field: FlowField, floors: Sequence[float], *,
                              window: tuple[float, float] = (0.0, 1.0),
                              margin: float = 0.5, grid=None,
                              step: float = 1e-3, horizon: float = 1.0) -> ExperimentSeries:
    """Compare time-one maps of floored slowdowns against the stopping limit.

    For each floor eps the slowdown eps + (1 - eps) * s0 reparameterizes
    the field; its time-`horizon` map is a conjugate of the original one,
    and the sup-distance to the time-`horizon` map of the stopping field
    s0 * X is recorded.  The series decreases like eps * sup|X| as the
    floors shrink (every point still moves at speed >= eps * |X| under the
    floored field while the stopping flow freezes on the zero set).
    """
    floors = [float(e) for e in floors]
    if not floors or any(e <= 0 or e > 1 for e in floors):
        raise FlowError("floors must be positive and at most 1")
    if floors != sorted(floors, reverse=True):
        raise FlowError("floors must be non-increasing")
    a, b = window
    s0 = box_profile(a, b, depth=0.0, margin=margin)
    if grid is None:
        if isinstance(field, Field1D):
            grid = np.linspace(a - margin - 2.0, b + margin + 2.0, 161)
        else:
            xs = np.linspace(0.0, 1.0, 17)[:-1]
            ys = np.linspace(-0.95, 0.95, 21)
            gx, gy = np.meshgrid(xs, ys, indexing="ij")
            grid = np.column_stack([gx.ravel(), gy.ravel()])
    grid = np.asarray(grid, dtype=float)

    ref = np.asarray(flow(scaled_field(field, s0.fn), grid, horizon, step=step))
    rows = []
    for eps in floors:
        t0 = time.perf_counter()
        s_eps = with_floor(s0, eps)
        img = np.asarray(flow(scaled_field(field, s_eps.fn), grid, horizon, step=step))
        dist = float(np.max(np.abs(img - ref)))
        rows.append(ExperimentRow(floor=eps, sup_distance=dist,
                                  runtime_s=time.perf_counter() - t0))
    return ExperimentSeries(rows=rows, field_name=getattr(field, "name", "field"),
                            window=window, margin=margin, horizon=horizon, step=step)


# ---------------------------------------------------------------------------
# Annulus model fields

def make_annulus_tau(r: float, *, y0: float = 0.0, plateau: float = 0.25,
                     boundary_margin: float = 0.2) -> Callable:
    """Angular speed: 1/r on [y0 - plateau, y0 + plateau], 0 near both
    boundary circles, C^1 ramps between."""
    if r <= 0:
        raise FlowError("period must be positive")
    lo_zero = -1.0 + boundary_margin
    hi_zero = 1.0 - boundary_margin
    if not (lo_zero < y0 - plateau and y0 + plateau < hi_zero):
        raise FlowError("plateau must sit strictly between the boundary margins")
    speed = 1.0 / r

    def tau(y):
        rise = _smoothstep(y, lo_zero, y0 - plateau)
        fall = 1.0 - _smoothstep(y, y0 + plateau, hi_zero)
        return speed * rise * fall

    return tau


def make_annulus_v(amplitude: float, *, y0: float = 0.0,
                   boundary_margin: float = 0.1) -> Callable:
    """Vertical speed amplitude*(y0 - y)*bump(y): vanishes at the boundary,
    positive below y0 and negative above it."""

    def v(y):
        ya = np.asarray(y, dtype=float)
        bump = _smoothstep(ya, -1.0, -1.0 + boundary_margin) * (
            1.0 - _smoothstep(ya, 1.0 - boundary_margin, 1.0)
        )
        return amplitude * (y0 - ya) * bump

    return v


@dataclass
class ChecklistItem:
    name: str
    passed: bool
    measured: float
    tolerance: float


@dataclass
class AnnulusModelReport:
    field: AnnulusField
    items: list[ChecklistItem]
    degenerate_fibered_rotation: bool
    y0: float | None
    declared_period: float | None
    measured_period: float | None

    @property
    def passed(self) -> bool:
        return (not self.degenerate_fibered_rotation) and all(i.passed for i in self.items)

    def summary(self) -> str:
        lines = []
        for i in self.items:
            status = "PASS" if i.passed else "FAIL"
            lines.append(f"  [{status}] {i.name}: {i.measured:.3g} (tol {i.tolerance:.3g})")
        if self.degenerate_fibered_rotation:
            lines.append("  [FLAG] degenerate case: v == 0, time-one map is a fibered rotation")
        return "\n".join(lines)


def _find_v_zero(v: Callable) -> float | None:
    ys = np.linspace(-0.999, 0.999, 4001)
    vals = np.asarray(v(ys), dtype=float)
    if np.max(np.abs(vals)) < 1e-14:
        return None  # v == 0: fibered rotation
    # sign changes between consecutive nonzero samples; a zero sample
    # between the two is the zero itself
    nonzero = np.flatnonzero(vals)
    changes = np.flatnonzero(np.diff(np.sign(vals[nonzero])))
    if len(changes) != 1:
        raise FlowError(f"v must change sign exactly once, found {len(changes)} crossings")
    lo, hi = nonzero[changes[0]], nonzero[changes[0] + 1]
    if hi - lo > 2:
        raise FlowError(f"v vanishes on {hi - lo - 1} consecutive samples")
    if hi - lo == 2:
        return float(ys[lo + 1])
    return float(brentq(lambda y: float(v(y)), ys[lo], ys[hi], xtol=1e-14))


def annulus_model(tau: Callable, v: Callable, *, expected_period: float | None = None,
                  step: float = 1e-3, period_tol: float = 1e-3,
                  omega_tol: float = 5e-3, boundary_tol: float = 1e-9,
                  omega_horizon: float = 200.0) -> AnnulusModelReport:
    """Verify that (tau(y), v(y)) realizes the attracting-orbit model class.

    Checklist: (1) the boundary circles are pointwise fixed by the
    time-one map; (2) the interior holds a unique periodic orbit, at the
    zero of v, whose measured period matches 1/tau(y0); (3) a vertical
    segment through the orbit is positively invariant under the
    period-time map; (4) sampled interior orbits converge to the orbit.
    A vanishing v is flagged as the degenerate fibered-rotation case
    (item 2 fails: every interior circle is periodic).
    """
    fld = AnnulusField(tau=tau, v=v)
    items: list[ChecklistItem] = []

    # (1) boundary fixed
    xs = np.linspace(0.0, 1.0, 9)[:-1]
    worst = 0.0
    for ysign in (-1.0, 1.0):
        pts = np.column_stack([xs, np.full_like(xs, ysign)])
        img = flow(fld, pts, 1.0, step=step)
        worst = max(worst, float(np.max(np.abs(img - pts))))
    items.append(ChecklistItem("boundary circles fixed by the time-one map",
                               worst <= boundary_tol, worst, boundary_tol))

    y0 = _find_v_zero(v)
    if y0 is None:
        items.append(ChecklistItem("unique interior periodic orbit",
                                   False, math.inf, period_tol))
        return AnnulusModelReport(field=fld, items=items,
                                  degenerate_fibered_rotation=True, y0=None,
                                  declared_period=expected_period,
                                  measured_period=None)

    # sign pattern: positive below y0, negative above
    ys_lo = np.linspace(-0.999, y0 - 1e-3, 200)
    ys_hi = np.linspace(y0 + 1e-3, 0.999, 200)
    if np.any(np.asarray(v(ys_lo)) < 0) or np.any(np.asarray(v(ys_hi)) > 0):
        raise FlowError("v must be positive below its zero and negative above")

    speed = float(tau(y0))
    if speed <= 0:
        raise FlowError("tau must be positive at the periodic orbit")
    r = 1.0 / speed
    if expected_period is not None and abs(expected_period - r) > period_tol:
        raise FlowError(f"declared period {expected_period} vs tau implying {r}")

    # (2) measured period of the orbit through (0, y0)
    state = np.array([0.0, y0])
    t_elapsed = 0.0
    dt = min(step, r / 100.0)
    measured = None
    while t_elapsed < 4.0 * r:
        nxt = flow(fld, state, dt, step=dt)
        if nxt[0] >= 1.0:
            frac = (1.0 - state[0]) / (nxt[0] - state[0])
            measured = t_elapsed + frac * dt
            break
        state = nxt
        t_elapsed += dt
    period_err = math.inf if measured is None else abs(measured - r)
    items.append(ChecklistItem("unique interior periodic orbit with the declared period",
                               period_err <= period_tol, period_err, period_tol))

    # (3) vertical segment through the orbit positively invariant under
    # the period-time map (tau is constant near y0, so the segment returns
    # to its own circle while the height contracts toward y0)
    delta = _plateau_halfwidth(tau, y0)
    offsets = np.array([-0.9, -0.5, 0.5, 0.9]) * delta
    seg = np.column_stack([np.zeros_like(offsets), y0 + offsets])
    img = flow(fld, seg, r, step=step)
    x_err = float(np.max(np.abs(img[:, 0] - 1.0)))
    contracted = bool(np.all(np.abs(img[:, 1] - y0) <= np.abs(offsets) + 1e-12)
                      and np.all(np.sign(img[:, 1] - y0) == np.sign(offsets)))
    seg_ok = x_err <= 1e-6 and contracted
    items.append(ChecklistItem("vertical segment through the orbit positively invariant",
                               seg_ok, x_err, 1e-6))

    # (4) omega-limits of sampled interior orbits
    starts = np.array([
        [0.13, -0.8], [0.5, -0.4], [0.77, 0.35], [0.31, 0.8],
    ])
    ends = flow(fld, starts, omega_horizon, step=1e-2)
    omega_err = float(np.max(np.abs(ends[:, 1] - y0)))
    items.append(ChecklistItem("sampled omega-limits on the periodic orbit",
                               omega_err <= omega_tol, omega_err, omega_tol))

    return AnnulusModelReport(field=fld, items=items,
                              degenerate_fibered_rotation=False, y0=y0,
                              declared_period=expected_period or r,
                              measured_period=measured)


def _plateau_halfwidth(tau: Callable, y0: float) -> float:
    t0 = float(tau(y0))
    delta = 1e-3
    while delta < 1.0:
        cand = delta * 2.0
        if (abs(float(tau(y0 + cand)) - t0) > 1e-13
                or abs(float(tau(y0 - cand)) - t0) > 1e-13):
            break
        delta = cand
    return delta


# ---------------------------------------------------------------------------
# Conley sections

@dataclass
class SectionReport:
    transversal_speed: float
    max_crossings: int
    future_side: str


@dataclass
class ConleySection:
    """Horizontal circle {y = level} transverse to an annulus flow.

    `validate` checks the transversality margin and that no sampled orbit
    crosses the section twice within the horizon; a recrossing aborts the
    experiment with SectionRecrossError.
    """

    level: float
    margin: float = 1e-6

    def validate(self, field, *, horizon: float = 20.0, samples: int = 12,
                 step: float = 1e-2) -> SectionReport:
        velocity = field.velocity if isinstance(field, AnnulusField) else field
        xs = np.linspace(0.0, 1.0, samples, endpoint=False)
        pts = np.column_stack([xs, np.full_like(xs, self.level)])
        vy = np.asarray(velocity(pts))[..., 1]
        speed = float(np.min(np.abs(vy)))
        if speed < self.margin or np.any(np.sign(vy) != np.sign(vy[0])):
            raise FlowError(
                f"section y={self.level} is not uniformly transverse (min |v_y| = {speed:.3g})"
            )
        rhs = lambda state: np.asarray(velocity(state), dtype=float)
        n = max(1, math.ceil(horizon / step))
        h = horizon / n
        worst = 0
        for sgn in (1.0, -1.0):
            state = pts.copy()
            prev_side = np.zeros(len(pts))
            crossings = np.zeros(len(pts), dtype=int)
            for _ in range(n):
                state = _rk4_step(rhs, state, sgn * h)
                side = np.sign(state[:, 1] - self.level)
                crossings += ((side != prev_side) & (prev_side != 0)).astype(int)
                prev_side = np.where(side != 0, side, prev_side)
            worst = max(worst, int(crossings.max()))
        if worst > 0:
            raise SectionRecrossError(
                f"an orbit re-crossed the section y={self.level} within the horizon"
            )
        future = "above" if vy[0] > 0 else "below"
        return SectionReport(transversal_speed=speed, max_crossings=worst,
                             future_side=future)


# ---------------------------------------------------------------------------
# Equivariant conjugacy between attracting arc maps

@dataclass
class ArcConjugacy:
    map: Callable[[float], float]
    residual: float
    grid: np.ndarray


def _iterate(phi, x: float, k: int) -> float:
    for _ in range(k):
        x = float(phi(x))
    return x


def equivariant_arc_conjugacy(phi1: Callable, phi2: Callable, *,
                              residual_grid=None, max_steps: int = 400) -> ArcConjugacy:
    """Conjugate two attracting arc maps by fundamental-domain transport.

    Both maps must fix 0, attract the arc [-1, 1] to it, and be monotone.
    On each side the fundamental domain [phi(e), e] (e = +/-1) is mapped
    linearly onto its counterpart and extended by equivariance
    h(phi1(x)) = phi2(h(x)); queries locate their domain index by forward
    iteration and solve for the preimage with a bracketed root find.
    """
    for name, phi in (("phi1", phi1), ("phi2", phi2)):
        if abs(float(phi(0.0))) > 1e-12:
            raise NonContractingMapError(f"{name} must fix 0")
        for x in (-1.0, -0.5, -0.25, 0.25, 0.5, 1.0):
            if abs(float(phi(x))) >= abs(x):
                raise NonContractingMapError(
                    f"{name} is not attracting at 0 (|phi({x})| >= |{x}|)"
                )

    def h(x: float) -> float:
        if abs(x) < 1e-14:
            return 0.0
        e = 1.0 if x > 0 else -1.0
        c1 = float(phi1(e))
        c2 = float(phi2(e))
        scale = (e - c2) / (e - c1)
        lin = lambda u: c2 + (u - c1) * scale
        hi = e
        m = 0
        while m < max_steps:
            lo = float(phi1(hi))
            if min(lo, hi) <= x <= max(lo, hi):
                break
            hi = lo
            m += 1
        else:
            raise FlowError(
                f"arc conjugacy: x = {x!r} is not reached within max_steps = "
                f"{max_steps} iterates of phi1 from the arc ends"
            )
        if m == 0:
            u = x
        else:
            u = float(brentq(lambda z: _iterate(phi1, z, m) - x,
                             min(c1, e), max(c1, e), xtol=1e-15))
        return _iterate(phi2, lin(u), m)

    if residual_grid is None:
        residual_grid = np.linspace(-1.0, 1.0, 81)
    res = 0.0
    for x in np.asarray(residual_grid, dtype=float):
        res = max(res, abs(h(float(phi1(x))) - float(phi2(h(x)))))
    return ArcConjugacy(map=h, residual=res, grid=np.asarray(residual_grid))


# ---------------------------------------------------------------------------
# Experiment configuration files (key = value)

@dataclass
class ExperimentConfig:
    field: Field1D
    floors: list[float]
    window: tuple[float, float] = (0.0, 1.0)
    margin: float = 0.5
    step: float = 1e-3
    horizon: float = 1.0
    grid: tuple[float, float, int] | None = None


def parse_field_spec(spec: str) -> Field1D:
    kind, _, arg = spec.partition(":")
    if kind == "const":
        return constant_field(float(arg))
    raise FlowError(f"unknown field spec {spec!r} (expected const:<value>)")


def parse_experiment_config(text: str) -> ExperimentConfig:
    """Parse a key=value experiment file.

    Keys: field (const:<v>), floors (comma list), window (a,b), margin,
    step, horizon, grid (lo:hi:n).  Unknown keys are rejected.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FlowError(f"line {lineno}: expected key=value")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()

    known = {"field", "floors", "window", "margin", "step", "horizon", "grid"}
    unknown = set(values) - known
    if unknown:
        raise FlowError(f"unknown config keys: {sorted(unknown)}")
    if "floors" not in values:
        raise FlowError("config must set floors")

    cfg = ExperimentConfig(
        field=parse_field_spec(values.get("field", "const:0.1")),
        floors=[float(v) for v in values["floors"].split(",")],
    )
    if "window" in values:
        a, b = values["window"].split(",")
        cfg.window = (float(a), float(b))
    if "margin" in values:
        cfg.margin = float(values["margin"])
    if "step" in values:
        cfg.step = float(values["step"])
    if "horizon" in values:
        cfg.horizon = float(values["horizon"])
    if "grid" in values:
        lo, hi, n = values["grid"].split(":")
        cfg.grid = (float(lo), float(hi), int(n))
    return cfg


def run_experiment(cfg: ExperimentConfig) -> ExperimentSeries:
    grid = None
    if cfg.grid is not None:
        lo, hi, n = cfg.grid
        grid = np.linspace(lo, hi, n)
    return stopping_limit_experiment(
        cfg.field, cfg.floors, window=cfg.window, margin=cfg.margin,
        grid=grid, step=cfg.step, horizon=cfg.horizon,
    )
