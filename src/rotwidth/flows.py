"""Numerical laboratory for flow conjugacies: 1-D conjugation to a constant
field, slowdown/stopping reparameterizations, annulus model fields, and
equivariant arc conjugacies.

The two building blocks realized here are the line chart (a non-vanishing
field on R is conjugate to the unit field, and slowing it down inside a
compact window is implemented by an explicit conjugacy that is a time
shift on each tail) and the annulus model (fields (tau(y), v(y)) on
S^1 x [-1, 1] whose time-one maps perturb a fibered rotation into a flow
with a single attracting periodic orbit).

Every line conjugacy uses one time coordinate, `conjugate_to_constant`:
a table of g(y) = integral_0^y du/X(u) on its domain, inverted inside one
table panel.  It never calls the RK4 flow that `verify_conjugacy` checks
it against.  The annulus checklist uses it too, for the heights of its
sampled orbits, which solve y' = v(y) on their own.

A field is its velocity: called on a state, it returns the velocity there.
The model fields and profiles keep a float contract: a float in gives a
float out; arrays broadcast.  So `quad` and `brentq`, which call them on
single floats, never pay for NumPy on a scalar.  Integration is
classical fixed-step RK4 in one loop, `flow`, run once per field per
experiment (the stopping-limit floors are rows of one batched state);
an equilibrium, such as the annulus rim, takes no step.
Conley sections need none: a height that solves y' = v(y) meets a level
where v != 0 at most once.  The fields involved are C^1, so no
higher-order smoothness is assumed or exploited.  All experiment drivers
are deterministic given their (grid, step, seed) parameters.
"""

from __future__ import annotations

import bisect
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


class NonContractingMapError(FlowError):
    """An arc map required to be attracting at 0 is not."""


# ---------------------------------------------------------------------------
# Fields and flows

def _real(u):
    """`u` itself when it is a float (np.float64 included), else a float
    array: the one coercion of the model fields, so a float stays off NumPy."""
    return u if isinstance(u, float) else np.asarray(u, dtype=float)


@dataclass
class Field1D:
    """Vector field on the line; `fn` must accept floats or numpy arrays.

    The model fields here keep the float contract: a float in gives a
    float out; arrays broadcast.
    """

    fn: Callable
    name: str = "field"

    def __call__(self, y):
        return self.fn(y)


@dataclass
class AnnulusField:
    """Field (tau(y), v(y)) on the annulus S^1 x [-1, 1].

    tau is the angular speed, v the vertical one; both depend on the
    height only, so vertical motion is autonomous and monotone between
    zeros of v.  Called on states (..., 2), it gives their velocities.
    """

    tau: Callable
    v: Callable
    name: str = "annulus-field"

    def __call__(self, state):
        y = state[..., 1]
        tau, v = self.tau(y) + 0.0 * y, self.v(y) + 0.0 * y
        out = np.empty(np.shape(tau) + (2,), np.result_type(tau, v))
        out[..., 0], out[..., 1] = tau, v
        return out


FlowField = Union[Field1D, AnnulusField]


def constant_field(value: float) -> Field1D:
    v = float(value)
    return Field1D(lambda y: v + 0.0 * _real(y), name=f"const:{v:g}")


def _positive(name: str, value: float) -> float:
    if not 0 < value < math.inf:
        raise FlowError(f"{name} must be positive and finite, got {value}")
    return value


def _rk4_step(rhs, y, h: float, k1):
    """One classical RK4 step of size h (negative h steps backwards) from
    y, whose velocity rhs(y) is k1."""
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def flow(field: FlowField, x, t: float, *, step: float = 1e-3):
    """Classical RK4 time-t flow map.

    `x` may be a scalar (Field1D), a pair (AnnulusField), or an array of
    states; the return value matches the input shape (a float for a
    scalar).  Negative times integrate backwards.  The step is shrunk to
    divide |t| evenly.

    Equilibria take no step: when the velocity at the start states has
    their shape and every component is exactly 0.0 (or -0.0), and no
    state coordinate is -0.0 or NaN, the states come back unchanged.
    Every RK4 stage state is then the state itself, so this is byte for
    byte what the steps return.  A -0.0 coordinate is stepped, since
    -0.0 + 0.0 is +0.0, and so is a NaN, which an addition may quiet.
    """
    _positive("step", step)
    if not math.isfinite(t):
        raise FlowError(f"flow time t must be finite, got {t}")
    state = np.array(x, dtype=float)
    if t != 0.0:
        velocity = lambda s: np.asarray(field(s), dtype=float)
        k1 = velocity(state)
        if (k1.shape != state.shape or np.any(k1 != 0.0)
                or np.any(np.isnan(state) | ((state == 0.0) & np.signbit(state)))):
            n = max(1, math.ceil(abs(t) / step))
            h = t / n
            for i in range(n):
                state = _rk4_step(velocity, state, h, velocity(state) if i else k1)
    return float(state) if state.ndim == 0 else state


# ---------------------------------------------------------------------------
# Conjugation to the constant field

@dataclass
class LineConjugacy:
    """Monotone time coordinate g with g(flow_X^t(y)) = g(y) + t.

    `to_time` is g (the antiderivative of 1/X with g(0) = 0) on the domain
    it was built for, `from_time` its inverse on g(domain).
    """

    field: Field1D
    to_time: Callable[[float], float]
    from_time: Callable[[float], float]


def conjugate_to_constant(X: Field1D, *, domain: tuple[float, float] = (-50.0, 50.0),
                          joints=()) -> LineConjugacy:
    """Conjugate a field positive on `domain` (an interval containing 0,
    sampled at 201 points) to the unit field.

    g(y) = integral_0^y du / X(u) is tabulated at 0, the domain ends and
    the `joints` (C^1 breakpoints of X) inside it, one quadrature per
    panel, summed outward from 0.  `to_time(y)` adds one quadrature from
    the edge of y's panel nearer 0; `from_time(t)` root-finds inside the
    panel whose table values straddle t.  A y outside the domain, or a t
    outside g(domain), raises FlowError, and so does a quadrature that
    reports it did not converge.
    """
    lo, hi = (float(v) for v in domain)
    if not lo <= 0.0 <= hi or lo == hi:
        raise FlowError(f"domain [{lo}, {hi}] must be an interval containing 0")
    if np.any(np.asarray(X(np.linspace(lo, hi, 201)), dtype=float) <= 0.0):
        raise FieldVanishesError(f"field {X.name!r} is not strictly positive on [{lo}, {hi}]")

    def reciprocal(u: float) -> float:
        x = float(X.fn(u))
        if not x > 0.0:
            raise FieldVanishesError(f"field {X.name!r} is not strictly positive at {u!r}")
        return 1.0 / x

    def integral(a: float, b: float) -> float:
        """integral_a^b du / X(u) within one panel; a > b gives the negative."""
        if a == b:
            return 0.0
        a_, b_ = min(a, b), max(a, b)
        val, _, _, *failed = quad(reciprocal, a_, b_, epsabs=1e-12, epsrel=1e-12,
                                  limit=400, full_output=1)
        if failed:
            raise FlowError(f"quadrature of 1/{X.name} on the panel [{a_!r}, {b_!r}] "
                            f"did not converge: {failed[0].splitlines()[0]}")
        return val if a < b else -val

    edges = sorted({lo, 0.0, hi, *(float(p) for p in joints if lo < p < hi)})
    zero = edges.index(0.0)
    table = [0.0] * len(edges)
    for i in range(zero + 1, len(edges)):
        table[i] = table[i - 1] + integral(edges[i - 1], edges[i])
    for i in range(zero - 1, -1, -1):
        table[i] = table[i + 1] + integral(edges[i + 1], edges[i])

    def from_edge(i: int, y: float) -> float:
        return table[i] + integral(edges[i], y)

    def to_time(y: float) -> float:
        y = float(y)
        if not lo <= y <= hi:
            raise FlowError(f"y = {y!r} lies outside the domain [{lo}, {hi}]")
        i = bisect.bisect_right(edges, y) - 1 if y >= 0.0 else bisect.bisect_left(edges, y)
        return from_edge(i, y)

    def from_time(t: float) -> float:
        t = float(t)
        if not table[0] <= t <= table[-1]:
            raise FlowError(f"t = {t!r} lies outside g([{lo}, {hi}]) = "
                            f"[{table[0]!r}, {table[-1]!r}]")
        j = max(1, bisect.bisect_left(table, t))  # table[j - 1] <= t <= table[j]
        i = j - 1 if edges[j - 1] >= 0.0 else j
        return float(brentq(lambda y: from_edge(i, y) - t, edges[j - 1], edges[j],
                            xtol=1e-13))

    return LineConjugacy(field=X, to_time=to_time, from_time=from_time)


# ---------------------------------------------------------------------------
# Slowdown and stopping profiles

def _smoothstep(u, a: float, b: float):
    s = (_real(u) - a) / (b - a)
    # max(s, 0.0) keeps s first, so a NaN passes through as with np.clip
    t = min(max(s, 0.0), 1.0) if isinstance(s, float) else np.minimum(np.maximum(s, 0.0), 1.0)
    return t * t * (3.0 - 2.0 * t)


@dataclass
class SlowdownProfile:
    """C^1 map into [floor, 1], equal to 1 outside [tau_minus, tau_plus].

    `floor` is the minimum value, in [0, 1].  A floor of 0 is the stopping
    limit, the pointwise limit of slowdowns: the reparameterized time
    integral across its zero set diverges.  `joints` lists the C^1
    breakpoints, passed to quadrature as known difficulty points.
    """

    fn: Callable
    tau_minus: float
    tau_plus: float
    floor: float
    joints: tuple = ()

    def __call__(self, u):
        return self.fn(u)

    def __post_init__(self):
        if not (0.0 <= self.floor <= 1.0):
            raise FlowError("slowdown floor must lie in [0, 1]")
        for u in (self.tau_minus - 1.0, self.tau_plus + 1.0):
            if abs(float(self.fn(u)) - 1.0) > 1e-12:
                raise FlowError("profile must equal 1 outside its window")
        us = np.linspace(self.tau_minus, self.tau_plus, 101)
        vals = np.asarray(self.fn(us), dtype=float)
        if vals.min() < self.floor - 1e-12 or vals.max() > 1.0 + 1e-12:
            raise FlowError("profile values must lie in [floor, 1]")


def _window(a: float, b: float) -> tuple[float, float]:
    if not -math.inf < a <= b < math.inf:
        raise FlowError(f"need a finite window a <= b, got [{a}, {b}]")
    return a, b


def box_profile(a: float, b: float, *, depth: float, margin: float) -> SlowdownProfile:
    """C^1 window profile: `depth` on [a, b], 1 outside [a-margin, b+margin],
    cubic Hermite ramps between.  depth == 0 is the stopping limit, with
    zero set [a, b]."""
    _window(a, b)
    _positive("margin", margin)
    if not (a - margin < a and b < b + margin):
        raise FlowError(f"margin {margin} vanishes in rounding next to the window [{a}, {b}]")
    if not (0.0 <= depth <= 1.0):
        raise FlowError("depth must lie in [0, 1]")

    def window(u):
        return _smoothstep(u, a - margin, a) * (1.0 - _smoothstep(u, b, b + margin))

    def fn(u):
        return 1.0 - (1.0 - depth) * window(u)

    return SlowdownProfile(fn=fn, tau_minus=a - margin, tau_plus=b + margin,
                           floor=depth, joints=(a - margin, a, b, b + margin))


def scaled_field(field: FlowField, s: Callable) -> FlowField:
    """The reparameterized field s*X; for annulus fields s acts on the
    height coordinate and scales both components."""
    if isinstance(field, Field1D):
        return Field1D(lambda y: _real(s(y)) * _real(field(y)), name=f"slowed({field.name})")
    if isinstance(field, AnnulusField):
        return AnnulusField(
            tau=lambda y: _real(s(y)) * _real(field.tau(y)),
            v=lambda y: _real(s(y)) * _real(field.v(y)),
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


def slowdown_conjugacy_1d(s: SlowdownProfile) -> SlowdownConjugacy:
    """Build the explicit conjugacy between the unit field and s * unit.

    The time coordinate is that of s * unit (`conjugate_to_constant` on its
    default domain), so queries outside that domain raise FlowError.
    Raises DivergentSlowdownError for the stopping limit (floor 0), where
    the crossing time diverges and no single limiting conjugacy exists.
    """
    if s.floor == 0.0:
        raise DivergentSlowdownError("time across the slow zone diverges for a stopping profile")
    g = conjugate_to_constant(Field1D(s.fn), joints=s.joints)
    g_lo = g.to_time(s.tau_minus)
    g_hi = g.to_time(s.tau_plus)
    return SlowdownConjugacy(
        profile=s, map=g.from_time, time_map=g.to_time,
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


def verify_conjugacy(X: Field1D, *, slowdown: SlowdownProfile, conjugacy=None,
                     step: float = 1e-3, tol: float = 1e-4) -> ConjugacyReport:
    """Measure sup |h(flow_X^t(x)) - flow_{sX}^t(h(x))| for t = 0.25, 0.5, 1
    on 41 points from 2 below to 2 above the slowdown window.

    With `conjugacy` given, that map h is tested as is.  Otherwise h is
    built from the time coordinates of X and sX; for the unit field this
    is exactly the slowdown conjugacy.

    Each field is flowed once, in chained legs of 0.25, 0.25 and 0.5.
    `flow` shrinks the step to divide each leg, so at a step dividing
    0.25 (1e-3, 1e-2) the residuals are those of one flow per time; at
    another (3e-3, say) each leg shrinks its step on its own.
    """
    if not isinstance(X, Field1D):
        raise FlowError("verify_conjugacy needs a 1-D field")
    target = scaled_field(X, slowdown)
    if conjugacy is None:
        gx = conjugate_to_constant(X)
        gs = conjugate_to_constant(target, joints=slowdown.joints)
        conjugacy = lambda x: gs.from_time(gx.to_time(x))
    grid = np.linspace(slowdown.tau_minus - 2.0, slowdown.tau_plus + 2.0, 41)
    h_of_x = np.array([float(conjugacy(float(x))) for x in grid])
    per_time = {}
    t, flowed, right = 0.0, grid, h_of_x
    for leg in (0.25, 0.25, 0.5):
        t += leg
        flowed = np.asarray(flow(X, flowed, leg, step=step), dtype=float)
        right = np.asarray(flow(target, right, leg, step=step), dtype=float)
        left = np.array([float(conjugacy(float(v))) for v in flowed])
        per_time[t] = float(np.max(np.abs(left - right)))
    worst = float(np.max(list(per_time.values())))  # a NaN residual stays NaN and fails
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

    def is_weakly_decreasing(self) -> bool:
        """Non-increasing after a two-point moving average, with a 10%
        relative slack for numerical noise; False on a non-finite distance."""
        d = self.distances()
        if not all(map(math.isfinite, d)):
            return False
        if len(d) >= 2:
            d = [(a + b) / 2 for a, b in zip(d, d[1:])]
        return all(b <= a * 1.1 + 1e-15 for a, b in zip(d, d[1:]))

    def to_csv(self, *, include_runtime: bool = True) -> str:
        """One line per floor; runtime_s is the batched flow's time / len(rows)."""
        lines = ["floor,sup_distance,runtime_s"]
        for r in self.rows:
            rt = f"{r.runtime_s:.3f}" if include_runtime else ""
            lines.append(f"{r.floor:.12g},{r.sup_distance:.12g},{rt}")
        return "\n".join(lines) + "\n"


def _floors(values: Sequence[float]) -> list[float]:
    floors = [float(e) for e in values]
    if not floors or not all(0 < e <= 1 for e in floors):
        raise FlowError("floors must be positive and at most 1")
    if floors != sorted(floors, reverse=True):
        raise FlowError("floors must be non-increasing")
    return floors


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

    One batched `flow` gives every map, each element bit for bit as in its
    own flow (row 0 has eps = 0, where 0 + 1 * s0 is s0).  A field that no
    map moves (const:0) raises FlowError: its all-zero series would pass.
    """
    floors = _floors(floors)
    _positive("horizon", horizon)
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

    # eps broadcasts against the heights: the grid less an annulus pair axis
    lift = (1,) * (grid.ndim - isinstance(field, AnnulusField))
    eps = np.array([0.0, *floors]).reshape((-1,) + lift)
    batched = scaled_field(field, lambda u: eps + (1.0 - eps) * s0.fn(u))
    t0 = time.perf_counter()
    img = flow(batched, np.broadcast_to(grid, (len(eps),) + grid.shape), horizon, step=step)
    runtime = (time.perf_counter() - t0) / len(floors)
    if not np.any(img != grid):
        raise FlowError(f"field {field.name!r} moves no grid point in time {horizon:g}")
    rows = [ExperimentRow(floor=e, sup_distance=float(np.max(np.abs(row - img[0]))),
                          runtime_s=runtime) for e, row in zip(floors, img[1:])]
    return ExperimentSeries(rows=rows, field_name=field.name,
                            window=window, margin=margin, horizon=horizon, step=step)


# ---------------------------------------------------------------------------
# Annulus model fields

def make_annulus_tau(r: float, *, y0: float = 0.0) -> Callable:
    """Angular speed: 1/r on [y0 - 1/4, y0 + 1/4], 0 within 0.2 of both
    boundary circles, C^1 ramps between."""
    if r <= 0:
        raise FlowError("period must be positive")
    below, above = y0 - 0.25, y0 + 0.25
    if not (-0.8 < below and above < 0.8):
        raise FlowError("plateau must sit strictly between the boundary margins")
    speed = 1.0 / r

    def tau(y):
        rise = _smoothstep(y, -0.8, below)
        fall = 1.0 - _smoothstep(y, above, 0.8)
        return speed * rise * fall

    return tau


def make_annulus_v(amplitude: float, *, y0: float = 0.0) -> Callable:
    """Vertical speed amplitude*(y0 - y)*bump(y): vanishes at the boundary
    (the bump ramps up over 0.1 from each circle), positive below y0 and
    negative above it."""

    def v(y):
        ya = _real(y)
        bump = _smoothstep(ya, -1.0, -0.9) * (1.0 - _smoothstep(ya, 0.9, 1.0))
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


_STEP = 1e-3
_PERIOD_TOL = 1e-3
_BOUNDARY_TOL = 1e-9


def annulus_model(tau: Callable, v: Callable, *, expected_period: float | None = None,
                  omega_tol: float = 5e-3,
                  omega_horizon: float = 200.0) -> AnnulusModelReport:
    """Verify that (tau(y), v(y)) realizes the attracting-orbit model class.

    Checklist: (1) the boundary circles are pointwise fixed by the
    time-one map; (2) the interior holds a unique periodic orbit, at the
    zero of v, whose measured period matches 1/tau(y0); (3) a vertical
    segment through the orbit is positively invariant under the
    period-time map; (4) sampled interior orbits converge to the orbit.
    A vanishing v is flagged as the degenerate fibered-rotation case
    (item 2 fails: every interior circle is periodic).

    Items (1) to (3) are independent RK4 checks at step 1e-3: 16 boundary
    points in one flow (where the field vanishes on all of them, as on a
    model field, `flow`'s equilibrium rule decides them with one field
    evaluation and no step), the orbit point and 4 segment points in
    another; the period tolerance is 1e-3 and the boundary one 1e-9.  Item (4)
    uses the skew-product structure: heights solve y' = v(y) on their
    own, and the sign pattern of v (checked on 400 samples; it is the
    hypothesis that makes every height converge monotonically to y0)
    lets the 1-D time coordinate `conjugate_to_constant` of +-v, from
    each start to dmin = omega_tol * 1e-6 short of y0, give the height at
    time omega_horizon.  A height that reaches that end by then is within
    dmin of y0, and dmin is reported as its bound.
    """
    fld = AnnulusField(tau=tau, v=v)
    items: list[ChecklistItem] = []

    # (1) boundary fixed: both circles in one flow
    xs = np.linspace(0.0, 1.0, 9)[:-1]
    rim = np.column_stack([np.tile(xs, 2), np.repeat([-1.0, 1.0], len(xs))])
    worst = float(np.max(np.abs(flow(fld, rim, 1.0, step=_STEP) - rim)))
    items.append(ChecklistItem("boundary circles fixed by the time-one map",
                               worst <= _BOUNDARY_TOL, worst, _BOUNDARY_TOL))

    y0 = _find_v_zero(v)
    if y0 is None:
        items.append(ChecklistItem("unique interior periodic orbit",
                                   False, math.inf, _PERIOD_TOL))
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
    if expected_period is not None and abs(expected_period - r) > _PERIOD_TOL:
        raise FlowError(f"declared period {expected_period} vs tau implying {r}")

    # (2) and (3) in one period-time flow of the orbit point (0, y0) and a
    # vertical segment through it
    delta = _plateau_halfwidth(tau, y0)
    offsets = np.array([-0.9, -0.5, 0.5, 0.9]) * delta
    seg = np.column_stack([np.zeros_like(offsets), y0 + offsets])
    orbit, img = np.split(flow(fld, np.vstack([[0.0, y0], seg]), r, step=_STEP), [1])

    # (2) tau is constant along the orbit, so the angle advances linearly
    # and one turn takes r / x(r)
    measured = r / float(orbit[0, 0])
    period_err = abs(measured - r)
    items.append(ChecklistItem("unique interior periodic orbit with the declared period",
                               period_err <= _PERIOD_TOL, period_err, _PERIOD_TOL))

    # (3) the segment is positively invariant under the period-time map
    # (tau is constant near y0, so it returns to its own circle while the
    # height contracts toward y0)
    x_err = float(np.max(np.abs(img[:, 0] - 1.0)))
    contracted = bool(np.all(np.abs(img[:, 1] - y0) <= np.abs(offsets) + 1e-12)
                      and np.all(np.sign(img[:, 1] - y0) == np.sign(offsets)))
    seg_ok = x_err <= 1e-6 and contracted
    items.append(ChecklistItem("vertical segment through the orbit positively invariant",
                               seg_ok, x_err, 1e-6))

    # (4) omega-limits of sampled interior orbits, from their heights alone
    dmin = omega_tol * 1e-6
    omega_err = max(_height_gap(v, ys, y0, omega_horizon, dmin)
                    for ys in (-0.8, -0.4, 0.35, 0.8))
    items.append(ChecklistItem("sampled omega-limits on the periodic orbit",
                               omega_err <= omega_tol, omega_err, omega_tol))

    return AnnulusModelReport(field=fld, items=items,
                              degenerate_fibered_rotation=False, y0=y0,
                              declared_period=expected_period or r,
                              measured_period=measured)


def _height_gap(v: Callable, ys: float, y0: float, t: float, dmin: float) -> float:
    """|y(t) - y0| for the height y' = v(y) from ys, which v moves
    monotonically toward y0; dmin once y(t) is within dmin of y0.

    The distance u = |y - ys| travelled solves u' = side * v(ys + side * u),
    a positive field on [0, |y0 - ys| - dmin], so its time coordinate
    gives u(t) while t lies inside g(domain).
    """
    side = math.copysign(1.0, y0 - ys)
    gap = abs(y0 - ys) - dmin
    if gap <= 0.0:
        return dmin
    g = conjugate_to_constant(
        Field1D(lambda u: side * v(ys + side * u),
                name=f"height speed from y = {ys!r}"),
        domain=(0.0, gap))
    if t > g.to_time(gap):
        return dmin
    return abs(y0 - (ys + side * g.from_time(t)))


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

    The height of an `AnnulusField` solves y' = v(y) on its own, so each
    time an orbit meets the level its height moves at v(level), always
    with one sign.  When |v(level)| >= 1e-6 no orbit meets the section
    twice, forward or backward, over any time, so `validate` checks that
    speed and nothing else.  The lemma covers every horizon; `horizon` is
    only checked to be positive and finite.
    """

    level: float

    def validate(self, field: AnnulusField, *, horizon: float = 20.0) -> SectionReport:
        if not isinstance(field, AnnulusField):
            raise FlowError("ConleySection.validate needs an AnnulusField")
        _positive("horizon", horizon)
        level = float(self.level)
        if not -1.0 < level < 1.0:
            raise FlowError(f"section y={self.level} does not lie inside the annulus (-1, 1)")
        vy = float(field.v(level))
        speed = abs(vy)
        if not speed >= 1e-6:
            raise FlowError(
                f"section y={self.level} is not uniformly transverse (|v_y| = {speed:.3g})"
            )
        return SectionReport(transversal_speed=speed, max_crossings=0,
                             future_side="above" if vy > 0 else "below")


# ---------------------------------------------------------------------------
# Equivariant conjugacy between attracting arc maps

@dataclass
class ArcConjugacy:
    map: Callable[[float], float]
    residual: float


def _iterate(phi, x: float, k: int) -> float:
    for _ in range(k):
        x = float(phi(x))
    return x


_ARC_MAX_STEPS = 400


def equivariant_arc_conjugacy(phi1: Callable, phi2: Callable) -> ArcConjugacy:
    """Conjugate two attracting arc maps by fundamental-domain transport.

    Both maps must fix 0, attract the arc [-1, 1] to it, and be monotone.
    On each side the fundamental domain [phi(e), e] (e = +/-1) is mapped
    linearly onto its counterpart and extended by equivariance
    h(phi1(x)) = phi2(h(x)); queries locate their domain index by forward
    iteration (at most 400 iterates) and solve for the preimage with a
    bracketed root find.  The residual is measured on 81 points of [-1, 1].
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
        while m < _ARC_MAX_STEPS:
            lo = float(phi1(hi))
            if min(lo, hi) <= x <= max(lo, hi):
                break
            hi = lo
            m += 1
        else:
            raise FlowError(
                f"arc conjugacy: x = {x!r} is not reached within max_steps = "
                f"{_ARC_MAX_STEPS} iterates of phi1 from the arc ends"
            )
        if m == 0:
            u = x
        else:
            u = float(brentq(lambda z: _iterate(phi1, z, m) - x,
                             min(c1, e), max(c1, e), xtol=1e-15))
        return _iterate(phi2, lin(u), m)

    res = 0.0
    for x in np.linspace(-1.0, 1.0, 81):
        res = max(res, abs(h(float(phi1(x))) - float(phi2(h(x)))))
    return ArcConjugacy(map=h, residual=res)


# ---------------------------------------------------------------------------
# Experiment configuration files (key = value)

def parse_field_spec(spec: str) -> Field1D:
    kind, _, arg = spec.partition(":")
    if kind == "const":
        return constant_field(_finite(arg))
    raise FlowError(f"unknown field spec {spec!r} (expected const:<value>)")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def _pair(text: str) -> tuple[float, float]:
    a, b = text.split(",")
    return _finite(a), _finite(b)


def _grid(text: str) -> np.ndarray:
    lo, hi, n = text.split(":")
    if int(n) < 2:
        raise ValueError("a grid needs n >= 2 points")
    return np.linspace(_finite(lo), _finite(hi), int(n))


_CONFIG_KEYS = {
    "field": parse_field_spec,
    "floors": lambda text: _floors([_finite(v) for v in text.split(",")]),
    "window": lambda text: _window(*_pair(text)),
    "margin": lambda text: _positive("margin", _finite(text)),
    "step": lambda text: _positive("step", _finite(text)),
    "horizon": lambda text: _positive("horizon", _finite(text)),
    "grid": _grid,
}


def config_value(key: str, text: str, where: str):
    """Parse one config value under the library's own range rules; an
    error names `where`, a line or a flag."""
    try:
        return _CONFIG_KEYS[key](text)
    except ValueError as exc:
        raise FlowError(f"{where}: bad {key} {text!r}: {exc}") from None


def parse_experiment_config(text: str) -> dict:
    """Parse a key=value experiment file into the keyword arguments of
    `stopping_limit_experiment` that it sets; unset keys keep that
    function's defaults.

    Keys: field (const:<v>), floors (comma list), window (a,b), margin,
    step, horizon, grid (lo:hi:n, n >= 2).  Every error names its line:
    unknown keys, bad values and a key set twice (which names both lines).
    """
    values, lines = {}, {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FlowError(f"line {lineno}: expected key=value")
        key, _, val = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_KEYS:
            raise FlowError(f"line {lineno}: unknown config key {key!r}")
        if key in lines:
            raise FlowError(f"line {lineno}: {key} is already set on line {lines[key]}")
        values[key] = config_value(key, val, f"line {lineno}")
        lines[key] = lineno
    if "floors" not in values:
        raise FlowError("config must set floors")
    return values
