"""Lifts of torus homeomorphisms built from vertical/horizontal shears,
their iteration, and rotation-set estimates and bounds.

A map expression is a small AST over the generators

    V(x, y) = (x, y + phi(x))      (vertical shear)
    H(x, y) = (x + phi(y), y)      (horizontal shear)
    T(a, b)                        (rigid translation)

where phi is a 1-periodic speed profile with phi(0) = 0 and phi(1/2) = 1,
taking values in [0, 1].  Compose and Power are unrolled in one place,
`_steps`, whose docstring gives the composition order.

Arithmetic is double precision.  Orbit positions are wrapped to the unit
square each step, and an orbit's lifted displacement is the change in its
wrapped position plus the integer parts the wraps took off, which stay
exact while their sum is below 2^53.  The wrap `x - floor(x)` is exact for
x >= 0 and for x <= -1/2; on (-1/2, 0) it rounds x + 1 by at most 2^-54
(-1e-20 gives 1.0), and the lifted displacement then differs by as much
per such wrap from the sum of the one-step displacements.  The sine-squared
profile is exactly 0 at integers and exactly 1 at half-integers, which
makes the distinguished fixed points of V^n H^n and their displacement
vectors exact.

One interpreter, `_run`, applies a lift in place to a C-contiguous (2, N)
column buffer; `eval_lift_array` and the orbit loop `_orbit_block` share
it.  The orbit loop allocates its buffers once per call (only `np.interp`
of a piecewise-linear profile returns a fresh array) and runs each iterate
with `out=`, in the operation order of a plain allocating loop, so its
results are bit-identical to one.  `_steps` is walked afresh on every
iterate rather than compiled into a flat program: it costs about 1 us per
step against about 1 ms of array work per step at 256^2 points, and it
never unrolls a large Power into memory.  The grid runs as one block, or
as two contiguous blocks in two threads (the caller's and one worker)
when the process may use two CPUs and each block gets at least 8,192
points, i.e. from a 128^2 grid up.  NumPy releases the GIL inside its
ufuncs, so on a 2-core VM (best of 3, 270 iterates of V^2 H^2) two
blocks took 0.45x the time of one at 256^2 points and 0.61x at 128^2,
but 0.81x at 96^2, 1.3x at 64^2 and 2.8x at 32^2, where thread handoffs
outweigh the array work; the 8,192-point floor keeps a margin above that
break-even.  The split is exact: each base point's orbit touches only its
own columns, and nothing is reduced across points.  The grid is not
chunked otherwise: chunks of 1k to 64k points timed the same in one
thread.  Wrapping is `x - floor(x)`, which `_wrap` shows is
bit-identical to `np.mod(x, 1.0)`.  An estimate's inner hull is the
exact hull of the rows that a prefilter, `_hull_survivors`, cannot prove
strictly inside it (a handful of 65,536 at 256^2); its outer hull is the
certified `displacement_box`, read off the expression.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .geometry import ConvexPolygonQ, hausdorff_distance, to_rational


class DynamicsError(ValueError):
    """Bad input to a dynamics operation."""


class ProfileError(DynamicsError):
    """Invalid speed profile."""


# ---------------------------------------------------------------------------
# Speed profiles

def _wrap(xs: np.ndarray, out: np.ndarray) -> None:
    """Write xs mod 1 into `out` (which must not be `xs`).

    For finite doubles `xs - floor(xs)` is bit-identical to
    `np.mod(xs, 1.0)`: NumPy's mod is `fmod`, which is exact, plus 1 when
    the remainder is negative; that addition is one rounding of the exact
    value x - floor(x), which is what the subtraction rounds too.  Both
    give +0.0 on integers (-0.0 included).
    """
    np.floor(xs, out=out)
    np.subtract(xs, out, out=out)


class SinSqProfile:
    """phi(x) = sin^2(pi x).

    sin(pi * 0) is 0, and pi/2 rounds to a double whose sine rounds to
    1.0, so phi is exactly 0 at integers and exactly 1 at half-integers
    with no special-casing; tests pin both values.
    """

    kind = "sinsq"

    def fill(self, xs: np.ndarray, out: np.ndarray) -> None:
        """Write phi(xs) into `out`, a buffer of the same shape."""
        _wrap(xs, out)
        np.multiply(out, np.pi, out=out)
        np.sin(out, out=out)
        np.square(out, out=out)

    def lipschitz(self) -> float:
        return math.pi  # sup |d/dx sin^2(pi x)| = pi

    def __repr__(self):
        return "SinSqProfile()"


class PiecewiseLinearProfile:
    """1-periodic piecewise-linear profile through given breakpoints.

    Breakpoints are (t, value) pairs with rational t covering [0, 1];
    the profile must vanish at 0 and 1, stay within [0, 1], and reach 1
    at t = 1/2.
    """

    kind = "pl"

    def __init__(self, breakpoints):
        bps = [(Fraction(t), float(v)) for t, v in breakpoints]
        if len(bps) < 2:
            raise ProfileError("need at least two breakpoints")
        ts = [t for t, _ in bps]
        if ts != sorted(ts) or len(set(ts)) != len(ts):
            raise ProfileError("breakpoint positions must be strictly increasing")
        if ts[0] != 0 or ts[-1] != 1:
            raise ProfileError("breakpoints must start at t=0 and end at t=1")
        vals = [v for _, v in bps]
        if vals[0] != 0.0 or vals[-1] != 0.0:
            raise ProfileError("profile must vanish at 0 and 1")
        for t, v in bps:
            if not 0.0 <= v <= 1.0:
                raise ProfileError(f"profile value {v!r} at t = {t} must lie in [0, 1]")
        self.breakpoints = tuple(bps)
        self._xp = np.array([float(t) for t in ts])
        self._fp = np.array(vals)
        if self(0.5) != 1.0:
            raise ProfileError("profile must equal 1 at t = 1/2")

    def __call__(self, x: float) -> float:
        return float(np.interp(x % 1.0, self._xp, self._fp))

    def fill(self, xs: np.ndarray, out: np.ndarray) -> None:
        """Write phi(xs) into `out`, a buffer of the same shape."""
        _wrap(xs, out)
        out[...] = np.interp(out, self._xp, self._fp)

    def lipschitz(self) -> float:
        slopes = np.abs(np.diff(self._fp) / np.diff(self._xp))
        return float(slopes.max())

    def __repr__(self):
        return f"PiecewiseLinearProfile({list(self.breakpoints)!r})"


Profile = Union[SinSqProfile, PiecewiseLinearProfile]

_DEFAULT_PROFILE = SinSqProfile()


def default_profile() -> SinSqProfile:
    return _DEFAULT_PROFILE


def tent_profile() -> PiecewiseLinearProfile:
    """The canonical piecewise-linear profile: a tent peaking at 1/2."""
    return PiecewiseLinearProfile([(0, 0.0), (Fraction(1, 2), 1.0), (1, 0.0)])


def load_piecewise_profile(path) -> PiecewiseLinearProfile:
    """Read a profile file: one "t value" pair per line, '#' comments."""
    bps = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ProfileError(f"{path}: line {lineno}: expected 't value'")
            try:
                bps.append((to_rational(fields[0]), float(fields[1])))
            except ValueError as exc:
                raise ProfileError(f"{path}: line {lineno}: {exc}") from exc
    try:
        return PiecewiseLinearProfile(bps)
    except ProfileError as exc:
        raise ProfileError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Map expressions

@dataclass(frozen=True)
class VShear:
    profile: Profile
    power: int = 1


@dataclass(frozen=True)
class HShear:
    profile: Profile
    power: int = 1


@dataclass(frozen=True)
class Translate:
    dx: float
    dy: float


@dataclass(frozen=True)
class Compose:
    parts: tuple

    def __post_init__(self):
        if not self.parts:
            raise DynamicsError("empty composition")


@dataclass(frozen=True)
class Power:
    base: "MapExpr"
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise DynamicsError("group powers must be >= 1")


MapExpr = Union[VShear, HShear, Translate, Compose, Power]


def vnhn(n: int, profile: Profile | None = None) -> Compose:
    """The lift V^n o H^n."""
    p = profile or _DEFAULT_PROFILE
    return Compose((VShear(p, n), HShear(p, n)))


def _steps(expr: MapExpr):
    """The generators of `expr` in application order.

    This is the one place that knows composition semantics: Compose((a, b))
    applies b first, then a (right to left), and Power(e, k) applies e
    k times.  Steps are yielded lazily, so large powers are not unrolled
    into memory.
    """
    if isinstance(expr, (VShear, HShear, Translate)):
        yield expr
    elif isinstance(expr, Compose):
        for part in reversed(expr.parts):
            yield from _steps(part)
    elif isinstance(expr, Power):
        for _ in range(expr.exponent):
            yield from _steps(expr.base)
    else:
        raise TypeError(f"not a map expression: {expr!r}")


def displacement_box(expr: MapExpr) -> ConvexPolygonQ:
    """The exact box that holds every one-step displacement of the lift,
    and so its rotation set, which lies in the hull of those displacements
    (Misiurewicz & Ziemian, J. London Math. Soc. 40, 1989).  As phi is in
    [0, 1], a shear of power k adds [min(0, k), max(0, k)] on its axis; a
    translation adds its exact double; Compose sums and Power(e, m) is m
    times the box of e, with nothing unrolled."""
    x0, x1, y0, y1 = _box(expr)
    return ConvexPolygonQ([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])


def _box(expr: MapExpr) -> tuple:
    """`displacement_box` as (x_lo, x_hi, y_lo, y_hi)."""
    if isinstance(expr, (VShear, HShear)):
        k = (min(0, expr.power), max(0, expr.power))
        return (0, 0) + k if isinstance(expr, VShear) else k + (0, 0)
    if isinstance(expr, Translate):
        return (Fraction(expr.dx),) * 2 + (Fraction(expr.dy),) * 2
    if isinstance(expr, Compose):
        return tuple(map(sum, zip(*map(_box, expr.parts))))
    if isinstance(expr, Power):
        return tuple(expr.exponent * v for v in _box(expr.base))
    raise TypeError(f"not a map expression: {expr!r}")


def lift_lipschitz_bound(expr: MapExpr) -> float:
    """Upper bound on the Lipschitz constant of the plane lift.

    A shear of power k is Lipschitz with constant 1 + |k|*L(phi);
    compositions multiply, translations are isometries.  Used to scale
    ulp tolerances in floating-point consistency tests (the wrap error of
    an input propagates with at most this factor).
    """
    out = 1.0
    for step in _steps(expr):
        if not isinstance(step, Translate):
            out *= 1.0 + abs(step.power) * step.profile.lipschitz()
    return out


def eval_lift(expr: MapExpr, p: tuple[float, float]) -> tuple[float, float]:
    """Apply the plane lift to a single point."""
    out = eval_lift_array(expr, np.array([[float(p[0]), float(p[1])]]))
    return (float(out[0, 0]), float(out[0, 1]))


def _run(expr: MapExpr, cols: np.ndarray, scratch: np.ndarray) -> None:
    """Apply the plane lift in place to the (2, N) column buffer `cols`,
    using `scratch`, an (N,) buffer, for the profile values."""
    for step in _steps(expr):
        if isinstance(step, Translate):
            cols[0] += step.dx
            cols[1] += step.dy
            continue
        src, dst = (0, 1) if isinstance(step, VShear) else (1, 0)
        step.profile.fill(cols[src], scratch)
        scratch *= step.power
        cols[dst] += scratch


def eval_lift_array(expr: MapExpr, pts: np.ndarray) -> np.ndarray:
    """Apply the plane lift to an (N, 2) array of points."""
    cols = np.asarray(pts, dtype=float).T.copy()
    _run(expr, cols, np.empty(cols.shape[1]))
    return cols.T.copy()


# ---------------------------------------------------------------------------
# Displacements and rotation vectors

@dataclass(frozen=True)
class DisplacementSample:
    base: tuple[float, float]
    n: int
    vector: tuple[float, float]


_MIN_BLOCK = 8192  # fewest points per block; see the module docstring


def _block_count(n_points: int) -> int:
    """Contiguous blocks `_orbit_sums` splits `n_points` base points into.

    Two when the process may use at least two CPUs and each block gets at
    least _MIN_BLOCK points, else one.
    """
    if n_points < 2 * _MIN_BLOCK:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call (macOS, Windows)
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 else 1


def _orbit_sums(expr: MapExpr, pts: np.ndarray, n: int, *, tail: bool):
    """Iterate the lift n times from `pts` and return each orbit's lifted
    displacement: the change in its wrapped position plus the integer parts
    that the wraps took off (see the module docstring).

    Returns (sums, tail_spread or None), with sums of shape (N, 2) and
    tail_spread of shape (N,).  The tail spread is the per-point coordinate
    range of the running averages sums/k over the trailing 10% of the
    iterates, a cheap Cauchy-style convergence proxy.

    Base points are wrapped to their torus representatives up front, so
    results do not depend on the lift representative supplied by the caller.

    With two blocks (`_block_count`) the first half of the points runs in
    the calling thread and the second in one worker thread.  An exception
    in either block stops the other at its next iterate and is raised here;
    the caller never waits for a worker it has stopped.
    """
    pts = np.asarray(pts, dtype=float)
    if _block_count(len(pts)) == 1:
        return _orbit_block(expr, pts, n, tail, None)
    half = len(pts) // 2
    stop = threading.Event()
    second = []

    def work():
        try:
            second.append(_orbit_block(expr, pts[half:], n, tail, stop))
        except BaseException as exc:  # raised again in the caller
            stop.set()
            second.append(exc)

    worker = threading.Thread(target=work, name="rotwidth-orbit", daemon=True)
    worker.start()
    try:
        first = _orbit_block(expr, pts[:half], n, tail, stop)
        worker.join()
    except BaseException:
        stop.set()
        raise
    if isinstance(second[0], BaseException):
        raise second[0]
    (sums1, spread1), (sums2, spread2) = first, second[0]
    spread = None if spread1 is None else np.concatenate([spread1, spread2])
    return np.concatenate([sums1, sums2]), spread


def _orbit_block(expr: MapExpr, pts: np.ndarray, n: int, tail: bool, stop):
    """`_orbit_sums` on one block of points; returns None early once the
    `stop` event (None for a lone block) is set."""
    pos0 = np.empty((2, len(pts)))
    _wrap(pts.T, pos0)
    pos, whole, fl = pos0.copy(), np.zeros_like(pos0), np.empty_like(pos0)
    scratch = np.empty(pos.shape[1])
    if tail:
        tail_lo, tail_hi = np.empty_like(pos), np.empty_like(pos)
    tail_start = n - max(1, n // 10)
    for k in range(1, n + 1):
        if stop is not None and stop.is_set():
            return None
        _run(expr, pos, scratch)
        np.floor(pos, out=fl)
        whole += fl
        pos -= fl
        if tail and k > tail_start:
            avg = np.subtract(pos, pos0, out=fl)
            avg += whole
            avg /= k
            if k == tail_start + 1:
                np.copyto(tail_lo, avg)
                np.copyto(tail_hi, avg)
            else:
                np.minimum(tail_lo, avg, out=tail_lo)
                np.maximum(tail_hi, avg, out=tail_hi)
    spread = None
    if tail and n >= 1:
        spread = np.subtract(tail_hi, tail_lo, out=tail_hi).max(axis=0)
    sums = np.subtract(pos, pos0, out=pos)
    sums += whole
    return sums.T, spread


def displacement(expr: MapExpr, x: tuple[float, float], n: int) -> DisplacementSample:
    """Averaged displacement (lift^n(x) - x)/n of a single orbit."""
    if n < 1:
        raise DynamicsError("iterate count must be >= 1")
    sums, _ = _orbit_sums(expr, np.array([x], dtype=float), n, tail=False)
    v = sums[0] / n
    return DisplacementSample(base=(float(x[0]), float(x[1])), n=n,
                              vector=(float(v[0]), float(v[1])))


# ---------------------------------------------------------------------------
# Rotation-set estimation

@dataclass
class RotationSetEstimate:
    """A rotation set's inner hull, the estimated hull of the orbit rotation
    vectors that pass the convergence proxy, and its outer hull, the
    certified `displacement_box` of the expression."""

    inner_hull: ConvexPolygonQ
    outer_hull: ConvexPolygonQ
    grid: int
    iterates: int
    sampler: str
    seed: int
    spread_threshold: float
    converged_fraction: float
    max_tail_spread: float


def _halton_points(count: int, seed: int) -> np.ndarray:
    # scipy.stats.qmc rejects a negative seed with a message that does not
    # name it; refuse it here, before SciPy is loaded.
    if seed < 0:
        raise DynamicsError(f"seed must be >= 0 for the Halton sampler, got {seed}")
    from scipy.stats import qmc

    return qmc.Halton(d=2, scramble=True, seed=seed).random(count)


def _grid_points(grid: int, sampler: str, seed: int) -> np.ndarray:
    if sampler == "uniform":
        side = np.arange(grid) / grid
        xx, yy = np.meshgrid(side, side, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel()])
    if sampler == "halton":
        return _halton_points(grid * grid, seed)
    raise DynamicsError(f"unknown sampler {sampler!r}")


_ORIENT_BOUND, _TINY = 8 * np.finfo(float).eps, np.finfo(float).tiny


def _hull_survivors(pts: np.ndarray) -> np.ndarray:
    """The rows of `pts` (N, 2) not provably strictly inside their exact
    hull (Akl & Toussaint): rows inside the exact hull of the extreme rows
    in +-x, +-y, +-(x+y), +-(x-y) by more than the orient2d error bound
    (Shewchuk, plus the smallest normal for underflow) at every edge go.
    A flat hull keeps every row, or its extremes on an axis-parallel line."""
    x, y = pts[:, 0], pts[:, 1]
    picks = pts[[f(v) for v in (x, y, x + y, x - y) for f in (np.argmin, np.argmax)]]
    if x.min() == x.max() or y.min() == y.max():
        return picks
    inside = np.ones(len(pts), dtype=bool)
    for a, b in ConvexPolygonQ(map(tuple, picks.tolist())).edges():
        ax, ay, bx, by = float(a.x), float(a.y), float(b.x), float(b.y)
        left, right = (bx - ax) * (y - ay), (by - ay) * (x - ax)
        inside &= left - right > _ORIENT_BOUND * (np.abs(left) + np.abs(right)) + _TINY
    return pts[~inside]


def rotation_set_estimate(expr: MapExpr, grid: int, iterates: int, *,
                          sampler: str = "uniform", seed: int = 0) -> RotationSetEstimate:
    """Estimate the rotation set of the lift over a grid of base points.

    The convergence proxy accepts an orbit when the trailing-window spread
    of its running averages is below 1% of the estimate cloud's diameter
    (plus a tiny absolute floor so that exactly-converged families such as
    rigid translations pass).  The hull of all grid points is independent
    of any partitioning of the grid, and the run is deterministic given
    (seed, grid, iterates).  The outer hull is `displacement_box(expr)`.
    """
    if grid < 2:
        raise DynamicsError("grid must be >= 2")
    if iterates < 1:
        raise DynamicsError("iterate count must be >= 1")
    pts = _grid_points(grid, sampler, seed)
    sums, spread = _orbit_sums(expr, pts, iterates, tail=True)
    est = sums / iterates

    diam = float(max(np.ptp(est[:, 0]), np.ptp(est[:, 1]))) if len(est) else 0.0
    scale = max(1.0, float(np.abs(est).max())) if len(est) else 1.0
    threshold = 1e-2 * diam + 1e-12 * scale
    mask = spread <= threshold
    converged = est[mask]
    frac = float(mask.mean())
    if converged.size == 0:
        converged = est
        frac = 0.0

    inner = ConvexPolygonQ(map(tuple, _hull_survivors(converged).tolist()))
    return RotationSetEstimate(
        inner_hull=inner, outer_hull=displacement_box(expr), grid=grid,
        iterates=iterates, sampler=sampler, seed=seed, spread_threshold=threshold,
        converged_fraction=frac, max_tail_spread=float(spread.max()),
    )


# ---------------------------------------------------------------------------
# Verification helpers

@dataclass(frozen=True)
class BoxCheck:
    passed: bool
    worst_excess: float
    tolerance: float
    samples: int
    n: int


def verify_displacement_box(n: int, *, profile: Profile | None = None,
                            samples: int = 10**6, seed: int = 0,
                            expr: MapExpr | None = None) -> BoxCheck:
    """Check that one-step displacements of V^n H^n lie in [0, n]^2.

    Samples a low-discrepancy point set, applies the lift once, and
    measures the worst excursion outside the box; passes when the excess
    stays within 8 ulp of the box size.  Pass `expr` to test a substitute
    map (e.g. a translated perturbation, which must fail).
    """
    if samples < 1:
        raise DynamicsError("need at least one sample")
    pts = _halton_points(samples, seed)
    if expr is None:
        expr = vnhn(n, profile)
    img = eval_lift_array(expr, pts)
    d = img - pts
    low = float(-d.min()) if d.size else 0.0
    high = float((d - n).max()) if d.size else 0.0
    worst = max(0.0, low, high)
    tol = 8.0 * float(np.spacing(float(max(1, n))))
    return BoxCheck(passed=(worst <= tol), worst_excess=worst, tolerance=tol,
                    samples=samples, n=n)


@dataclass
class PowerScalingReport:
    k: int
    distance: float
    power_estimate: RotationSetEstimate
    scaled_base_hull: ConvexPolygonQ


def power_scaling_check(expr: MapExpr, k: int, grid: int, iterates: int, *,
                        seed: int = 0) -> PowerScalingReport:
    """Compare the rotation set of expr^k with k times that of expr.

    Both estimates run at the same total iterate budget: expr^k for
    `iterates` steps versus expr for k*`iterates` steps.  Reports the
    Hausdorff distance between the inner hulls.
    """
    if k < 1:
        raise DynamicsError("power must be >= 1")
    powered = expr if k == 1 else Power(expr, k)
    est_pow = rotation_set_estimate(powered, grid, iterates, seed=seed)
    est_base = rotation_set_estimate(expr, grid, iterates * k, seed=seed)
    scaled = est_base.inner_hull.scale(k)
    dist = hausdorff_distance(est_pow.inner_hull, scaled)
    return PowerScalingReport(k=k, distance=dist, power_estimate=est_pow,
                              scaled_base_hull=scaled)
