"""Shear-lift evaluation, displacements, and rotation-set estimation."""

import numpy as np
import pytest

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
    eval_lift,
    eval_lift_array,
    lift_lipschitz_bound,
    power_scaling_check,
    rotation_set_estimate,
    rotation_vector_estimate,
    tent_profile,
    verify_displacement_box,
    vh_power,
    vnhn,
)
from rotwidth.geometry import ConvexPolygonQ, hausdorff_distance, point

FIXED_POINTS = [(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]


def box_polygon(n):
    return ConvexPolygonQ([point(0, 0), point(n, 0), point(n, n), point(0, n)])


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


class TestRotationVector:
    def test_translation_exact_every_n(self):
        # dyadic translation from a dyadic base point: every orbit position
        # and step is exactly representable
        expr = Translate(0.25, 0.125)
        for n in (1, 7, 40):
            est = rotation_vector_estimate(expr, (0.0, 0.5), n)
            assert est.vector == (0.25, 0.125)
            assert est.tail_spread <= 1e-15

    def test_general_translation_near_exact(self):
        est = rotation_vector_estimate(Translate(1 / 3, 0.2), (0.0, 0.0), 100)
        assert abs(est.vector[0] - 1 / 3) < 1e-12
        assert abs(est.vector[1] - 0.2) < 1e-12

    def test_vnhn_rotation_vectors_inside_box(self):
        est = rotation_vector_estimate(vnhn(1), (0.21, 0.43), 1000)
        assert -1e-9 <= est.vector[0] <= 1 + 1e-9
        assert -1e-9 <= est.vector[1] <= 1 + 1e-9

    def test_vnhn_fixed_point_vector_exact_at_large_n(self):
        est = rotation_vector_estimate(vnhn(3), (0.0, 0.5), 500)
        assert est.vector == (3.0, 0.0)
        assert est.tail_spread == 0.0


class TestRotationSetEstimate:
    def test_vnhn_recovers_box(self):
        est = rotation_set_estimate(vnhn(2), 64, 400)
        assert hausdorff_distance(est.inner_hull, box_polygon(2)) <= 1e-9
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

    def test_containment_inner_in_outer(self):
        for expr in (vnhn(1), vh_power(2), Translate(0.1, 0.9)):
            est = rotation_set_estimate(expr, 12, 80)
            assert est.outer_hull.contains_polygon(est.inner_hull)

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
        # the grid may be split across workers: hull(union) must equal the
        # re-hull of the per-part hulls
        from rotwidth.dynamics import _float_hull

        rng = np.random.default_rng(12)
        pts = rng.random((400, 2))
        whole = _float_hull(pts)
        parts = np.array_split(pts, 3)
        merged = _float_hull(np.array([p for part in parts
                                       for p in _float_hull(part)]))
        assert whole == merged

    def test_spread_metadata_recorded(self):
        est = rotation_set_estimate(vnhn(1), 16, 120)
        assert est.max_tail_spread >= est.spread_threshold * 0 >= 0
        assert est.step_bound <= 1 + 1e-12


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

    def test_pl_validation(self):
        with pytest.raises(ProfileError):
            PiecewiseLinearProfile([(0, 0.0), (1, 0.5)])  # never reaches 1
        with pytest.raises(ProfileError):
            PiecewiseLinearProfile([(0, 0.2), (0.5, 1.0), (1, 0.2)])  # ends off 0

    def test_lipschitz_bounds(self):
        assert lift_lipschitz_bound(vnhn(2)) >= 1.0
        assert lift_lipschitz_bound(Translate(5, 5)) == 1.0
