"""Shear-lift evaluation, displacements, and rotation-set estimation."""

import dataclasses
import itertools
import math
import os
import struct
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rotwidth import dynamics
from rotwidth.dynamics import (
    Compose,
    DynamicsError,
    HShear,
    PiecewiseLinearProfile,
    Power,
    ProfileError,
    Translate,
    VShear,
    default_profile,
    displacement,
    displacement_box,
    eval_lift,
    eval_lift_array,
    lift_lipschitz_bound,
    power_scaling_check,
    rotation_set_estimate,
    load_piecewise_profile,
    tent_profile,
    verify_displacement_box,
    vnhn,
    _grid_points,
    _hull_survivors,
    _orbit_sums,
    _steps,
)
from rotwidth.geometry import ConvexPolygonQ, dilate_polygon_linf, hausdorff_distance, point

FIXED_POINTS = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]


def _box(x0, y0, x1, y1):
    return ConvexPolygonQ([point(x0, y0), point(x1, y0), point(x1, y1), point(x0, y1)])


def box_polygon(n):
    return _box(0, 0, n, n)


def _box_tolerance(box):
    """The c04 tolerance: 8 ulps of the box's scale.  A float displacement
    sums increments that each lie in the exact box; each step rounds by at
    most half an ulp of a coordinate below 1 + scale, so a word of at most
    7 steps leaves the box by less."""
    scale = max([1, *(abs(c) for v in box.vertices for c in (v.x, v.y))])
    return 8.0 * float(np.spacing(float(scale)))


def _box_excess(d, box):
    """How far the rows of d (N, 2) reach outside box (0.0 when inside)."""
    x0, y0, x1, y1 = map(float, box.bounding_box())
    lo, hi = d.min(axis=0), d.max(axis=0)
    return max(0.0, x0 - lo[0], y0 - lo[1], hi[0] - x1, hi[1] - y1)


class TestEvalLift:
    def test_vertical_shear_fixes_origin(self):
        assert eval_lift(VShear(default_profile()), (0.0, 0.0)) == (0.0, 0.0)

    def test_vertical_shear_at_half(self):
        assert eval_lift(VShear(default_profile()), (0.5, 0.0)) == (0.5, 1.0)

    def test_h3_after_v2(self):
        # V^2 fixes (0, 1/2); H^3 then moves it horizontally by 3*phi(1/2)
        prof = default_profile()
        expr = Compose((HShear(prof, 3), VShear(prof, 2)))
        assert eval_lift(expr, (0.0, 0.5)) == (3.0, 0.5)

    def test_compose_order_rightmost_first(self):
        prof = default_profile()
        ab = Compose((VShear(prof, 1), HShear(prof, 1)))
        p = (0.3, 0.7)
        assert eval_lift(ab, p) == eval_lift(VShear(prof, 1), eval_lift(HShear(prof, 1), p))

    def test_power_of_composition_unrolls_rightmost_first(self):
        prof = default_profile()
        t, v, h = Translate(0.25, -0.375), VShear(prof, -2), HShear(prof, 1)
        p = (0.3, 0.7)
        q = p
        for _ in range(3):
            q = eval_lift(t, eval_lift(v, eval_lift(h, q)))
        assert eval_lift(Power(Compose((t, v, h)), 3), p) == q

    @pytest.mark.parametrize("m", [51, 64, 100])
    def test_large_power_is_m_applications(self, m):
        e = Compose((Translate(0.25, -0.375), VShear(default_profile(), -2), HShear(_PL, 1)))
        pts = np.array([[0.3, 0.7], [-1.25, 2.5], [0.5, 0.0], [0.91, 0.13]])
        q = pts
        for _ in range(m):
            q = eval_lift_array(e, q)
        assert eval_lift_array(Power(e, m), pts).tobytes() == q.tobytes()

    def test_power_lipschitz_bound_is_the_power(self):
        e = Compose((Translate(0.25, -0.375), VShear(tent_profile(), -2),
                     HShear(default_profile(), 1)))
        for k in (1, 2, 5):
            assert lift_lipschitz_bound(Power(e, k)) == pytest.approx(
                lift_lipschitz_bound(e) ** k, rel=1e-12)

    def test_array_matches_scalar(self):
        expr = vnhn(2)
        pts = np.array([[0.12, 0.9], [0.5, 0.5], [0.77, 0.01]])
        img = eval_lift_array(expr, pts)
        for row, p in zip(img, pts):
            assert tuple(row) == eval_lift(expr, tuple(p))

    def test_negative_shear_power_inverts(self):
        prof = default_profile()
        fwd = VShear(prof, 3)
        back = VShear(prof, -3)
        p = (0.234, 0.567)
        q = eval_lift(back, eval_lift(fwd, p))
        assert abs(q[0] - p[0]) == 0 and abs(q[1] - p[1]) < 1e-15


class TestQuasiPeriodicity:
    def test_integer_translates_commute(self):
        expr = vnhn(2)
        lip = lift_lipschitz_bound(expr)
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = rng.random(2)
            m = rng.integers(-5, 6, 2)
            a = np.array(eval_lift(expr, (x[0] + m[0], x[1] + m[1])))
            b = np.array(eval_lift(expr, tuple(x))) + m
            scale = float(np.max(np.abs(a)) + np.max(np.abs(m)) + 1.0)
            assert np.max(np.abs(a - b)) <= 4 * lip * np.spacing(scale)

    def test_lift_independence_of_displacement(self):
        expr = vnhn(1)
        rng = np.random.default_rng(6)
        n = 8
        # base points on a dyadic grid, so x + m is exactly representable
        # and the engine's wrap recovers the same representative; the
        # displacements then agree to well within 8 ulp
        tol = 8 * np.spacing(1.0)
        for _ in range(50):
            x = tuple(rng.integers(0, 2048, 2) / 2048.0)
            m = rng.integers(-3, 4, 2)
            d1 = displacement(expr, x, n).vector
            d2 = displacement(expr, (x[0] + m[0], x[1] + m[1]), n).vector
            assert abs(d1[0] - d2[0]) <= tol and abs(d1[1] - d2[1]) <= tol


class TestDisplacement:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_fixed_point_displacements_exact(self, n):
        expr = vnhn(n)
        want = {(0.0, 0.0): (0.0, 0.0), (0.0, 0.5): (float(n), 0.0),
                (0.5, 0.0): (0.0, float(n)), (0.5, 0.5): (float(n), float(n))}
        for p in FIXED_POINTS:
            d = displacement(expr, p, 1)
            assert d.vector == want[p]
            img = eval_lift(expr, p)
            assert (img[0] % 1.0, img[1] % 1.0) == p  # fixed on the torus

    def test_fixed_points_stay_exact_under_iteration(self):
        expr = vnhn(4)
        d = displacement(expr, (0.5, 0.5), 500)
        assert d.vector == (4.0, 4.0)

    def test_identity(self):
        d = displacement(Translate(0.0, 0.0), (0.3, 0.8), 10)
        assert d.vector == (0.0, 0.0)

    def test_requires_positive_iterates(self):
        with pytest.raises(DynamicsError):
            displacement(vnhn(1), (0, 0), 0)


def _vh_power(n):
    """The lift (V o H)^n."""
    p = default_profile()
    return Power(Compose((VShear(p, 1), HShear(p, 1))), n)


def _rotation_vector(expr, x, n):
    """One orbit's averaged displacement sums/n and its tail spread."""
    sums, spread = _orbit_sums(expr, np.array([x], dtype=float), n, tail=True)
    return (float(sums[0, 0] / n), float(sums[0, 1] / n)), float(spread[0])


class TestRotationVector:
    def test_translation_exact_every_n(self):
        # dyadic translation from a dyadic base point: every orbit position
        # and step is exactly representable
        expr = Translate(0.25, 0.125)
        for n in (1, 7, 40):
            vector, spread = _rotation_vector(expr, (0.0, 0.5), n)
            assert vector == (0.25, 0.125)
            assert spread <= 1e-15

    def test_general_translation_near_exact(self):
        vector, _ = _rotation_vector(Translate(1 / 3, 0.2), (0.0, 0.0), 100)
        assert abs(vector[0] - 1 / 3) < 1e-12
        assert abs(vector[1] - 0.2) < 1e-12

    def test_vnhn_rotation_vectors_inside_box(self):
        vector, _ = _rotation_vector(vnhn(1), (0.21, 0.43), 1000)
        assert -1e-9 <= vector[0] <= 1 + 1e-9
        assert -1e-9 <= vector[1] <= 1 + 1e-9

    def test_vnhn_fixed_point_vector_exact_at_large_n(self):
        vector, spread = _rotation_vector(vnhn(3), (0.0, 0.5), 500)
        assert vector == (3.0, 0.0)
        assert spread == 0.0


def _exact_hull(pts):
    return ConvexPolygonQ(map(tuple, np.asarray(pts).tolist()))


_FAMILIES = ("collinear", "near-edge", "cluster", "signed-zeros", "duplicates")


def _adversarial_cloud(family, seed, n=None):
    """Clouds on which a float hull goes wrong: points collinear up to
    1e-17 at scales 1 and 1e-3, a few points within a few ulps of the
    chord of a long oblique hull edge (on either side of it), clusters of
    spread 1e-15, +-0.0 among a few values, and a random cloud with every
    row twice."""
    rng = np.random.default_rng(seed)
    n = n or int(rng.integers(1, 60))
    if family == "near-edge":
        slope = rng.uniform(0.2, 3.0)
        a = np.array([-36.0, -36.0 * slope]) * (1 + rng.integers(-3, 4, 2) * 2.0**-50)
        b = np.array([72.0, 72.0 * slope]) * (1 + rng.integers(-3, 4, 2) * 2.0**-50)
        c = np.array([1.5, 1.5 * slope])
        near = c + rng.integers(-6, 7, (min(n, 6), 2)) * np.spacing(c)
        return np.vstack([a, b, near, [-30.0, 80.0]])
    if family == "collinear":
        scale = rng.choice([1.0, 1e-3])
        t = rng.random((n, 1))
        pts = scale * (rng.random(2) + t * (rng.random(2) - 0.5))
        return pts + rng.uniform(-1e-17, 1e-17, (n, 2))
    if family == "cluster":
        return rng.random(2) + rng.uniform(-1e-15, 1e-15, (n, 2))
    if family == "signed-zeros":
        return rng.choice(np.array([-0.0, 0.0, 0.5, 1.0]), size=(n, 2))
    cloud = rng.random((n, 2))
    return np.vstack([cloud, cloud[rng.permutation(n)]])


class TestRotationSetEstimate:
    def test_vnhn_recovers_box(self):
        est = rotation_set_estimate(vnhn(2), 64, 400)
        assert hausdorff_distance(est.inner_hull, box_polygon(2)) <= 1e-9
        assert est.outer_hull == box_polygon(2)
        assert est.outer_hull.contains_polygon(est.inner_hull)

    def test_translation_gives_point(self):
        est = rotation_set_estimate(Translate(1 / 3, 0.25), 8, 50)
        xs = [float(v.x) for v in est.inner_hull.vertices]
        ys = [float(v.y) for v in est.inner_hull.vertices]
        assert max(xs) - min(xs) < 1e-12 and max(ys) - min(ys) < 1e-12
        assert abs(xs[0] - 1 / 3) < 1e-12 and abs(ys[0] - 0.25) < 1e-12
        assert est.converged_fraction == 1.0

    def test_halton_sampler_deterministic(self):
        e1 = rotation_set_estimate(vnhn(1), 16, 60, sampler="halton", seed=3)
        e2 = rotation_set_estimate(vnhn(1), 16, 60, sampler="halton", seed=3)
        assert e1.inner_hull == e2.inner_hull

    def test_negative_halton_seed_names_the_seed(self):
        with pytest.raises(DynamicsError, match="seed must be >= 0 .*, got -1"):
            rotation_set_estimate(vnhn(1), 4, 5, sampler="halton", seed=-1)

    def test_containment_inner_in_outer(self):
        for expr in (vnhn(1), _vh_power(2)):
            est = rotation_set_estimate(expr, 12, 80)
            assert est.outer_hull == displacement_box(expr)
            assert est.outer_hull.contains_polygon(est.inner_hull)
        # a non-dyadic translation's box is one point, its exact double; the
        # averages leave it by rounding, within the c04 tolerance
        for expr in (Translate(0.1, 0.9), Translate(1 / 3, 1 / 4)):
            est = rotation_set_estimate(expr, 12, 80)
            box = displacement_box(expr)
            assert est.outer_hull == box and box.dimension == 0
            slack = dilate_polygon_linf(box, Fraction(_box_tolerance(box)))
            assert slack.contains_polygon(est.inner_hull)

    def test_monotone_stabilization(self):
        dists = []
        for iters in (250, 500, 1000, 2000):
            est = rotation_set_estimate(vnhn(1), 32, iters)
            dists.append(hausdorff_distance(est.inner_hull, box_polygon(1)))
        for a, b in zip(dists, dists[1:]):
            assert b <= a + 0.01  # non-increasing within noise

    def test_grid_validated(self):
        with pytest.raises(DynamicsError):
            rotation_set_estimate(vnhn(1), 1, 10)

    def test_partitioned_hull_merge_matches_global_hull(self):
        # the grid may be split across workers: the survivors of the pooled
        # survivors of each part give the hull of the whole cloud
        rng = np.random.default_rng(12)
        for pts in (rng.random((400, 2)), _adversarial_cloud("collinear", 3, 400),
                    _adversarial_cloud("cluster", 4, 400)):
            parts = np.array_split(pts, 3)
            merged = _hull_survivors(np.vstack([_hull_survivors(p) for p in parts]))
            assert _exact_hull(merged).vertices == _exact_hull(pts).vertices

    def test_spread_metadata_recorded(self):
        expr = vnhn(1)
        est = rotation_set_estimate(expr, 16, 120)
        assert 0 < est.converged_fraction <= 1
        if est.converged_fraction < 1:
            assert est.max_tail_spread >= est.spread_threshold
        side = np.arange(16) / 16
        xx, yy = np.meshgrid(side, side, indexing="ij")
        grid = np.column_stack([xx.ravel(), yy.ravel()])
        grid -= np.floor(grid)
        first_step = eval_lift_array(expr, grid) - grid
        assert _box_excess(first_step, est.outer_hull) <= _box_tolerance(est.outer_hull)


class TestDisplacementBox:
    def test_vnhn_contained(self):
        for n in (1, 4):
            check = verify_displacement_box(n, samples=10**5, seed=1)
            assert check.passed and check.worst_excess <= check.tolerance

    def test_tent_profile_contained(self):
        check = verify_displacement_box(2, profile=tent_profile(), samples=10**4)
        assert check.passed

    def test_translation_breaks_containment(self):
        eps = 0.01
        expr = Compose((vnhn(1), Translate(eps, 0.0)))
        check = verify_displacement_box(1, samples=10**4, expr=expr)
        assert not check.passed
        assert abs(check.worst_excess - eps) < 1e-6

    def test_negative_seed_names_the_seed(self):
        with pytest.raises(DynamicsError, match="seed must be >= 0 .*, got -2"):
            verify_displacement_box(1, samples=4, seed=-2)


class TestPowerScaling:
    def test_translation_scales_exactly(self):
        rep = power_scaling_check(Translate(0.25, 0.5), 4, 8, 30)
        assert rep.distance <= 1e-12

    def test_vh_cubed(self):
        prof = default_profile()
        base = Compose((VShear(prof, 1), HShear(prof, 1)))
        rep = power_scaling_check(base, 3, 32, 150)
        assert rep.distance <= 0.3

    def test_vnhn_squared_box(self):
        est = rotation_set_estimate(Power(vnhn(1), 2), 32, 200)
        assert hausdorff_distance(est.inner_hull, box_polygon(2)) <= 0.1


class TestProfiles:
    def test_tent_values(self):
        prof = tent_profile()
        assert prof(0.0) == 0.0 and prof(0.5) == 1.0 and prof(0.25) == 0.5
        assert prof(1.25) == 0.5  # 1-periodic

    def test_pl_peak_must_be_exactly_one(self):
        with pytest.raises(ProfileError):
            PiecewiseLinearProfile([(0, 0.0), (Fraction(1, 2), 1 - 1e-13), (1, 0.0)])

    def test_pl_validation(self):
        with pytest.raises(ProfileError):
            PiecewiseLinearProfile([(0, 0.0), (1, 0.5)])  # never reaches 1
        with pytest.raises(ProfileError):
            PiecewiseLinearProfile([(0, 0.2), (0.5, 1.0), (1, 0.2)])  # ends off 0

    def test_pl_rejects_nan_naming_value_and_t(self):
        # NaN fails every comparison, so a test of v < 0 or v > 1 let it through
        with pytest.raises(ProfileError, match=r"profile value nan at t = 1/4 must lie in"):
            PiecewiseLinearProfile([(0, 0.0), (Fraction(1, 4), math.nan),
                                    (Fraction(1, 2), 1.0), (1, 0.0)])

    def test_loaded_profile_error_names_the_file(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("0 0\n1/4 nan\n1/2 1\n1 0\n")
        with pytest.raises(ProfileError, match=rf"^{path}: profile value nan at t = 1/4"):
            load_piecewise_profile(path)

    def test_loaded_profile_refuses_a_huge_exponent(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text("0 0\n5e-1 1\n1e10000000 0\n")
        with pytest.raises(ProfileError, match=r"line 3: not a rational: '1e10000000'"):
            load_piecewise_profile(path)

    def test_lipschitz_bounds(self):
        assert lift_lipschitz_bound(vnhn(2)) >= 1.0
        assert lift_lipschitz_bound(Translate(5, 5)) == 1.0


_T_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "1/2", "1/4", "3/4", "0.5", "2", "-1/3", "1/0", "nan", "x"]),
    st.fractions(min_value=-1, max_value=2, max_denominator=16).map(str),
    # decimal exponents, up to ones Fraction alone would take seconds to expand
    st.tuples(st.sampled_from(["0", "1", "5", "2.5", "-1"]), st.sampled_from(["e", "E"]),
              st.integers(-10**8, 10**8)).map(lambda p: f"{p[0]}{p[1]}{p[2]}"),
)
_V_TOKENS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "nan", "-nan", "inf", "-inf", "1e400", "-0.0", "abc"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_PROFILE_LINES = st.one_of(
    st.tuples(_T_TOKENS, _V_TOKENS).map(" ".join),
    st.sampled_from(["", "# comment", "0 0 0", "1/2"]),
    st.text(alphabet="0123456789/.-+ naifeE#", max_size=12),
)
# lines that fit between the frame's "0 0" and "1/2 1", often with a NaN
_MID_LINES = st.tuples(st.fractions(min_value=0, max_value=0.5, max_denominator=16).map(str),
                       st.one_of(st.just("nan"), _V_TOKENS)).map(" ".join)
_PROFILE_TEXTS = st.one_of(
    st.lists(_PROFILE_LINES, max_size=6),
    st.lists(st.one_of(_MID_LINES, _PROFILE_LINES), min_size=1, max_size=3).map(
        lambda mid: ["0 0", *mid, "1/2 1", "1 0"]),
).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(text=_PROFILE_TEXTS)
def test_profile_fuzz_gives_profile_or_profile_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz-profile.txt"
    path.write_text(text)
    try:
        prof = load_piecewise_profile(path)
    except ProfileError:
        return
    assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for _, v in prof.breakpoints)


class TestWrap:
    """`_wrap` is exact for x >= 0 and x <= -1/2; on (-1/2, 0) it rounds
    x + 1 and may return 1.0."""

    def test_rounded_values_on_the_open_half(self):
        xs = np.array([-0.3000000000000001, -1e-20])
        out = np.empty_like(xs)
        dynamics._wrap(xs, out)
        assert out.tolist() == [0.7, 1.0]
        assert Fraction(out[0]) != Fraction(xs[0]) + 1

    def test_exact_outside_the_open_half(self):
        rng = np.random.default_rng(4)
        xs = np.concatenate([rng.random(500) * 8, -0.5 - rng.random(500) * 8,
                             [0.0, -0.0, -0.5, 1e-300, 2.0**51 + 0.5, -(2.0**51) - 0.5]])
        out = np.empty_like(xs)
        dynamics._wrap(xs, out)
        assert out.tobytes() == np.mod(xs, 1.0).tobytes()
        for x, r in zip(xs.tolist(), out.tolist()):
            assert Fraction(r) == Fraction(x) - math.floor(x)


class TestSinSqExactValues:
    """phi is exactly 0 at integers and exactly 1 at half-integers with no
    special-casing, in every SIMD lane and tail position."""

    INTEGERS = (0.0, -0.0, 1.0, -3.0, 1e6, 2.0**40)
    HALVES = (0.5, -0.5, 1e6 + 0.5, 2.0**40 + 0.5)

    def inputs(self, length):
        vals = np.array(self.INTEGERS + self.HALVES)
        for v in vals:
            yield np.full(length, v)
        for shift in range(len(vals)):
            yield np.resize(np.roll(vals, shift), length)

    def expected(self, xs):
        return np.where(np.isin(xs, self.HALVES), 1.0, 0.0)

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 17, 65536])
    def test_profile_values(self, length):
        out = np.empty(length)
        for xs in self.inputs(length):
            default_profile().fill(xs, out)
            assert np.array_equal(out, self.expected(xs))

    @pytest.mark.parametrize("length", [1, 7, 8, 9, 17, 65536])
    def test_strided_through_eval_lift_array(self, length):
        prof = default_profile()
        for xs in self.inputs(length):
            for shear, src, dst in ((VShear(prof), 0, 1), (HShear(prof), 1, 0)):
                pts = np.zeros((2 * length, 2))[::2]
                pts[:, src] = xs
                img = eval_lift_array(shear, pts)
                assert np.array_equal(img[:, dst], self.expected(xs))
                assert np.array_equal(img[:, src], xs)


def _ref_profile(profile, xs):
    r = np.mod(xs, 1.0)
    if isinstance(profile, PiecewiseLinearProfile):
        return np.interp(r, [float(t) for t, _ in profile.breakpoints],
                         [v for _, v in profile.breakpoints])
    out = np.square(np.sin(np.pi * r))
    out = np.where(r == 0.0, 0.0, out)
    return np.where(r == 0.5, 1.0, out)


def _ref_lift(expr, pts):
    out = pts
    for step in _steps(expr):
        if isinstance(step, Translate):
            out = out + np.array([step.dx, step.dy])
            continue
        src, dst = (0, 1) if isinstance(step, VShear) else (1, 0)
        out = out.copy()
        out[:, dst] += step.power * _ref_profile(step.profile, out[:, src])
    return out


def _ref_orbit_sums(expr, pts, n, tail):
    """The plain allocating orbit loop, with np.mod for every wrap.  The sum
    is the change in the wrapped position plus the integers the wraps take
    off."""
    pos0 = np.mod(np.array(pts, dtype=float), 1.0)
    pos, whole = pos0, np.zeros_like(pos0)
    tail_lo = tail_hi = None
    tail_start = n - max(1, n // 10)
    for k in range(1, n + 1):
        nxt = _ref_lift(expr, pos)
        whole = whole + np.floor(nxt)
        pos = np.mod(nxt, 1.0)
        if tail and k > tail_start:
            avg = ((pos - pos0) + whole) / k
            tail_lo = avg if tail_lo is None else np.minimum(tail_lo, avg)
            tail_hi = avg if tail_hi is None else np.maximum(tail_hi, avg)
    spread = (tail_hi - tail_lo).max(axis=1) if tail else None
    return (pos - pos0) + whole, spread


_PL = PiecewiseLinearProfile([(0, 0.0), (Fraction(1, 5), 0.3), (Fraction(1, 2), 1.0),
                              (Fraction(3, 4), 0.25), (1, 0.0)])
KERNEL_EXPRS = {
    "vnhn": vnhn(2),
    "vh_cubed": _vh_power(3),
    "translated_power": Compose((Translate(1 / 3, -1 / 5), Power(vnhn(2), 2))),
    "piecewise_linear": Compose((VShear(_PL, 2), HShear(tent_profile(), 1))),
    "negative_power": Compose((VShear(default_profile(), -2), HShear(default_profile(), 3))),
}


_SIN = default_profile()
REPLAY_EXPRS = {
    "negative_powers": Compose((VShear(_SIN, -3), HShear(_SIN, -3), VShear(_SIN, -2),
                                HShear(_SIN, 2))),
    "commutator": Compose((VShear(_SIN, 1), HShear(_SIN, 2), VShear(_SIN, -1),
                           HShear(_SIN, -2))),
    "integer_translate": Compose((Translate(1, -2), Power(vnhn(2), 2))),
    "dyadic_translate": Compose((Translate(0.25, -0.375), VShear(_SIN, -1), HShear(_SIN, 2))),
    "half_back": Compose((Translate(-0.5, 0.25), VShear(_SIN, 1), HShear(_SIN, 1))),
    "piecewise_linear": Compose((VShear(_PL, -2), HShear(_PL, 3))),
}


def _exact_sums(expr, pts, n):
    """Replay the float orbit of `_ref_lift` from `pts` and return, as
    Fractions in row-major order, its exact lifted displacement (change in
    wrapped position plus the integer parts taken off) and the exact sum of
    its one-step displacements."""
    pos0 = np.mod(np.array(pts, dtype=float), 1.0)
    pos = pos0
    whole = [0] * pos.size
    steps = [Fraction(0)] * pos.size
    for _ in range(n):
        nxt = _ref_lift(expr, pos)
        for i, (a, b) in enumerate(zip(nxt.ravel().tolist(), pos.ravel().tolist())):
            whole[i] += math.floor(a)
            steps[i] += Fraction(a) - Fraction(b)
        pos = np.mod(nxt, 1.0)
    lifted = [Fraction(a) - Fraction(b) + w
              for a, b, w in zip(pos.ravel().tolist(), pos0.ravel().tolist(), whole)]
    return lifted, steps


def _set_cpus(monkeypatch, cpus):
    """Make `_block_count` see `cpus` usable CPUs on any platform."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestOrbitKernelReference:
    """The in-place kernel against the allocating loop, bit for bit."""

    @pytest.mark.parametrize("name", sorted(KERNEL_EXPRS))
    @pytest.mark.parametrize("tail", [True, False])
    def test_orbit_sums_match_reference(self, name, tail, monkeypatch):
        _set_cpus(monkeypatch, 2)
        expr = KERNEL_EXPRS[name]
        # 129^2 runs as two blocks of unequal size, 8,320 and 8,321 points
        two_blocks = _grid_points(129, "uniform", 0)
        assert dynamics._block_count(len(two_blocks)) == 2
        grids = (_grid_points(64, "uniform", 0), _grid_points(16, "halton", 3),
                 np.array([[0.3, 0.7]]), np.array([[-1.25, 2.5]]), two_blocks)
        for pts in grids:
            sums, spread = _orbit_sums(expr, pts, 25, tail=tail)
            ref_sums, ref_spread = _ref_orbit_sums(expr, pts, 25, tail)
            assert sums.shape == ref_sums.shape
            assert sums.tobytes() == ref_sums.tobytes()
            if tail:
                assert spread.shape == (len(pts),)
                assert spread.tobytes() == ref_spread.tobytes()
            else:
                assert spread is None

    @pytest.mark.parametrize("name", sorted(REPLAY_EXPRS))
    def test_sums_within_an_ulp_of_the_exact_lifted_displacement(self, name):
        expr, n = REPLAY_EXPRS[name], 60
        for pts in (_grid_points(8, "uniform", 0), np.array([[0.3, 0.7]]),
                    np.array([[-1.25, 2.5]]), np.array([[-1e-20, -0.3000000000000001]])):
            sums, _ = _orbit_sums(expr, pts, n, tail=False)
            lifted, stepped = _exact_sums(expr, pts, n)
            for s, exact, exact_steps in zip(sums.ravel().tolist(), lifted, stepped):
                assert abs(Fraction(s) - exact) <= Fraction(np.spacing(abs(float(exact))))
                # the two lifts differ by the wraps on (-1/2, 0), each rounded
                # by at most half an ulp of 1/2
                assert abs(exact - exact_steps) <= Fraction(n, 2**54)

    @pytest.mark.parametrize("name", sorted(KERNEL_EXPRS))
    def test_eval_lift_array_matches_reference(self, name):
        rng = np.random.default_rng(9)
        pts = rng.random((5000, 2)) * 8 - 4
        pts[:200] = np.round(pts[:200] * 2) / 2
        img = eval_lift_array(KERNEL_EXPRS[name], pts)
        assert img.shape == pts.shape and img.flags.c_contiguous
        assert img.tobytes() == _ref_lift(KERNEL_EXPRS[name], pts).tobytes()


_BOX_PROFILES = st.sampled_from([default_profile(), tent_profile(), _PL])
_BOX_SHIFTS = st.one_of(st.integers(-3, 3),
                        st.fractions(-3, 3, max_denominator=12)).map(float)
_BOX_WORDS = st.recursive(
    st.one_of(st.builds(VShear, _BOX_PROFILES, st.integers(-4, 4)),
              st.builds(HShear, _BOX_PROFILES, st.integers(-4, 4)),
              st.builds(Translate, _BOX_SHIFTS, _BOX_SHIFTS)),
    lambda words: st.one_of(
        st.lists(words, min_size=1, max_size=3).map(lambda parts: Compose(tuple(parts))),
        st.builds(Power, words, st.integers(1, 3))),
    max_leaves=5)


class TestDisplacementBoxOfWords:
    """`displacement_box` holds every one-step displacement of the lift."""

    @settings(max_examples=200, deadline=None)
    @given(_BOX_WORDS, st.integers(0, 2**32 - 1))
    def test_every_one_step_displacement_lies_in_the_box(self, expr, seed):
        assume(sum(1 for _ in itertools.islice(_steps(expr), 8)) <= 7)
        rng = np.random.default_rng(seed)
        pts = np.vstack([rng.random((256, 2)), FIXED_POINTS])
        box = displacement_box(expr)
        d = eval_lift_array(expr, pts) - pts
        assert _box_excess(d, box) <= _box_tolerance(box)

    def test_power_is_not_unrolled(self):
        assert displacement_box(Power(vnhn(1), 10**9)) == box_polygon(10**9)

    def test_box_of_words(self):
        p = default_profile()
        third, fifth = Fraction(1 / 3), Fraction(-1 / 5)  # the doubles the kernel adds
        assert displacement_box(KERNEL_EXPRS["negative_power"]) == _box(0, -2, 3, 0)
        assert displacement_box(KERNEL_EXPRS["translated_power"]) == _box(
            third, fifth, third + 4, fifth + 4)
        assert displacement_box(Compose((Translate(1, -2), Power(vnhn(2), 2)))) == _box(
            1, -2, 5, 2)
        assert displacement_box(Power(Compose((VShear(p, 3), VShear(p, -5))), 2)) == _box(
            0, -10, 0, 6)
        assert displacement_box(Translate(0.0, -0.0)).vertices == (point(0, 0),)
        with pytest.raises(TypeError, match="not a map expression"):
            displacement_box("V")

    @pytest.mark.parametrize("name", sorted(KERNEL_EXPRS))
    def test_estimate_outer_hull_is_the_box(self, name):
        expr = KERNEL_EXPRS[name]
        assert rotation_set_estimate(expr, 4, 3).outer_hull == displacement_box(expr)


class TestHullSurvivors:
    """`_hull_survivors` drops only rows strictly inside the exact hull."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(_FAMILIES), st.integers(0, 2**32 - 1))
    # segment hulls with a dropped middle row: (0, 0)-(1, 0) and (0, 0)-(0, 1)
    @example(family="signed-zeros", seed=34)
    @example(family="signed-zeros", seed=11654)
    def test_survivors_give_the_exact_hull(self, family, seed):
        pts = _adversarial_cloud(family, seed)
        hull = _exact_hull(pts)
        kept = _hull_survivors(pts)
        assert _exact_hull(kept).vertices == hull.vertices
        # whatever was dropped lies strictly inside; a flat hull has no
        # interior, and an axis-parallel cloud keeps only its extremes, so
        # the rows it drops lie on the hull
        dropped = set(map(tuple, pts.tolist())) - set(map(tuple, kept.tolist()))
        strict = hull.dimension == 2
        assert all(hull.contains(point(*p), strict=strict) for p in dropped)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                    min_size=1, max_size=40))
    @example([(0.0, 0.0), (-0.0, -0.0)])
    @example([(0.0, -0.0), (-0.0, 0.0), (1.0, 2.0), (1.0, 2.0)])
    @example([(1e-300, 0.0), (0.0, 1e-300), (-1e-300, -1e-300), (1e-301, 1e-301)])
    # the third row is a hull vertex a hair below the chord of the first
    # two, where an orientation test without error bound calls it inside
    @example([(-36.0000000000001, -12.000000000000032),
              (72.00000000000013, 24.000000000000043),
              (1.5000000000000009, 0.5000000000000007), (-30.0, 80.0)])
    def test_survivors_give_the_exact_hull_of_any_floats(self, rows):
        pts = np.array(rows, dtype=float)
        assert _exact_hull(_hull_survivors(pts)).vertices == _exact_hull(pts).vertices

    @pytest.mark.parametrize("seed", range(20))
    def test_vertices_and_edge_points_kept(self, seed):
        # a dyadic convex polygon, points exactly on its edges, and points
        # inside: every vertex and every edge point survives
        rng = np.random.default_rng(seed)
        angles = np.sort(rng.random(int(rng.integers(3, 9)))) * 2 * np.pi
        corners = np.round(np.column_stack([np.cos(angles), np.sin(angles)]) * 64) / 64
        hull = _exact_hull(corners)
        verts = np.array([[float(v.x), float(v.y)] for v in hull.vertices])
        ks = rng.integers(1, 16, size=(len(verts), 1)) / 16
        on_edges = verts + ks * (np.roll(verts, -1, axis=0) - verts)
        inside = verts.mean(axis=0) + 0.01 * (rng.random((500, 2)) - 0.5)
        pts = rng.permutation(np.vstack([inside, verts, on_edges]))
        kept = set(map(tuple, _hull_survivors(pts).tolist()))
        assert set(map(tuple, verts.tolist())) <= kept
        assert set(map(tuple, on_edges.tolist())) <= kept
        assert len(kept) < len(pts)

    def test_axis_parallel_and_single_point_clouds(self):
        ys = np.linspace(0.0, 1.0, 300)
        for pts in (np.column_stack([np.zeros(300), ys]), np.column_stack([ys, np.full(300, -2.5)]),
                    np.tile([0.25, 0.75], (300, 1))):
            kept = _hull_survivors(pts)
            assert len(kept) == 8
            assert _exact_hull(kept).vertices == _exact_hull(pts).vertices


class _NoThread:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a thread was started")


class _GatedProfile:
    """sin^2, with a hook run on every fill by the caller's thread and by
    the worker, to raise or to hold a block at a known point."""

    def __init__(self, in_caller, in_worker):
        self.caller = threading.get_ident()
        self.in_caller, self.in_worker = in_caller, in_worker

    def fill(self, xs, out):
        if threading.get_ident() == self.caller:
            self.in_caller()
        else:
            self.in_worker()
        default_profile().fill(xs, out)


def _same_estimate(a, b):
    """Every field equal: hull vertices exactly, floats by their bytes."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, float):
            assert struct.pack("<d", x) == struct.pack("<d", y), field.name
        elif isinstance(x, ConvexPolygonQ):
            assert x.vertices == y.vertices, field.name
        else:
            assert x == y, field.name


class TestOrbitBlocks:
    """Two blocks in two threads give the bytes of one block."""

    def test_block_count_rule(self, monkeypatch):
        _set_cpus(monkeypatch, 4)
        assert dynamics._block_count(128 * 128 - 1) == 1
        assert dynamics._block_count(128 * 128) == 2
        _set_cpus(monkeypatch, 1)
        assert dynamics._block_count(256 * 256) == 1

    def test_cpu_count_fallback_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for cpus, blocks in ((None, 1), (1, 1), (2, 2), (8, 2)):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            assert dynamics._block_count(256 * 256) == blocks

    @pytest.mark.parametrize("case", ["sinsq", "pl_word", "halton"])
    def test_one_and_two_blocks_give_the_same_estimate(self, case, monkeypatch):
        expr = {"sinsq": vnhn(2), "halton": vnhn(1),
                "pl_word": Compose((Translate(1 / 3, -1 / 5),
                                    Power(Compose((VShear(_PL, 2), HShear(_PL, 1))), 2)))}[case]
        sampler = "halton" if case == "halton" else "uniform"
        estimates = []
        for blocks in (1, 2):
            monkeypatch.setattr(dynamics, "_block_count", lambda n, blocks=blocks: blocks)
            estimates.append(rotation_set_estimate(expr, 45, 60, sampler=sampler, seed=5))
        _same_estimate(*estimates)

    @pytest.mark.parametrize("grid", [16, 32, 64])
    def test_small_grids_start_no_thread(self, grid, monkeypatch):
        _set_cpus(monkeypatch, 2)
        monkeypatch.setattr(threading, "Thread", _NoThread)
        rotation_set_estimate(vnhn(1), grid, 20)
        with pytest.raises(AssertionError, match="a thread was started"):
            rotation_set_estimate(vnhn(1), 128, 2)  # the patch does bite

    def test_one_cpu_runs_one_block(self, monkeypatch):
        _set_cpus(monkeypatch, 1)
        monkeypatch.setattr(threading, "Thread", _NoThread)
        est = rotation_set_estimate(vnhn(1), 128, 2)
        assert est.grid == 128

    def test_concurrent_callers_get_their_own_results(self, monkeypatch):
        # more caller threads (each with its worker) than cores, switching often
        pts = _grid_points(33, "uniform", 0)
        want = {}
        for n in range(1, 7):
            monkeypatch.setattr(dynamics, "_block_count", lambda m: 1)
            sums, spread = _orbit_sums(vnhn(n), pts, 30, tail=True)
            want[n] = (sums.tobytes(), spread.tobytes())
        monkeypatch.setattr(dynamics, "_block_count", lambda m: 2)
        got = {}

        def call(n):
            sums, spread = _orbit_sums(vnhn(n), pts, 30, tail=True)
            got[n] = (sums.tobytes(), spread.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(n,)) for n in want]
            for c in callers:
                c.start()
            for c in callers:
                c.join(60)
                assert not c.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_worker_exception_is_raised_in_caller(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_block_count", lambda n: 2)
        hooked = []
        monkeypatch.setattr(threading, "excepthook", hooked.append)

        def fail():
            raise ZeroDivisionError("worker block")

        expr = VShear(_GatedProfile(lambda: None, fail))
        with pytest.raises(ZeroDivisionError, match="worker block"):
            _orbit_sums(expr, _grid_points(4, "uniform", 0), 50, tail=True)
        assert hooked == []

    def test_caller_exception_does_not_wait_for_worker(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_block_count", lambda n: 2)
        inside, gate, left = threading.Event(), threading.Event(), threading.Event()
        worker_fills = []

        def interrupt():
            assert inside.wait(60)
            raise KeyboardInterrupt

        def hold():
            worker_fills.append(1)
            if len(worker_fills) == 1:
                inside.set()
                gate.wait(20)  # times out only if the caller waits for the worker
                left.set()

        expr = VShear(_GatedProfile(interrupt, hold))
        with pytest.raises(KeyboardInterrupt):
            _orbit_sums(expr, _grid_points(4, "uniform", 0), 1000, tail=False)
        # raised while the worker was still held inside its first iterate
        assert not left.is_set()
        gate.set()
        for worker in threading.enumerate():
            if worker.name == "rotwidth-orbit":
                worker.join(60)
                assert not worker.is_alive()
        assert len(worker_fills) == 1  # stopped at its next iterate
