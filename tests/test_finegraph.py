"""Curve crossings, adjacency-chain bounds, constants, and certificates."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rotwidth.dynamics import (
    Compose,
    HShear,
    Power,
    VShear,
    default_profile,
    eval_lift_array,
    tent_profile,
    vnhn,
)
from rotwidth.finegraph import (
    ChainVerificationError,
    CurveClass,
    CurveError,
    DegenerateIntersectionError,
    NonSimpleCurveError,
    RealizedCurve,
    TranslationLengthBound,
    certify_no_roots,
    chain_bound_vnhn,
    fine_adjacent,
    geometric_intersection_count,
    intersection_number,
    length_lower_bound,
    line_image_curve,
    m_bound,
    straight_curve,
    t0_constant,
    torus_crossing_count,
)
from rotwidth.geometry import point


class TestIntersectionNumber:
    def test_horizontal_vertical(self):
        assert intersection_number(CurveClass(1, 0), CurveClass(0, 1)) == 1

    def test_same_class(self):
        assert intersection_number(CurveClass(1, 0), CurveClass(1, 0)) == 0

    def test_one_two_three_four(self):
        assert intersection_number(CurveClass(1, 2), CurveClass(3, 4)) == 2

    def test_symmetric_and_zero_iff_equal_up_to_sign(self):
        rng = random.Random(2)
        for _ in range(200):
            c1 = _random_class(rng)
            c2 = _random_class(rng)
            n12 = intersection_number(c1, c2)
            assert n12 == intersection_number(c2, c1)
            same = (c1.p, c1.q) in ((c2.p, c2.q), (-c2.p, -c2.q))
            assert (n12 == 0) == same

    def test_class_validation(self):
        with pytest.raises(CurveError):
            CurveClass(2, 4)
        with pytest.raises(CurveError):
            CurveClass(0, 0)


class TestGeometricOracle:
    def test_matches_formula_on_random_pairs(self):
        # entries up to 60; every fifth pair is parallel or antiparallel
        rng = random.Random(3)
        for k in range(10**4):
            c1 = _random_class(rng, 60)
            c2 = _random_class(rng, 60) if k % 5 else CurveClass(*rng.choice(
                [(c1.p, c1.q), (-c1.p, -c1.q)]))
            assert geometric_intersection_count(c1, c2) == intersection_number(c1, c2)

    def test_large_classes_exact(self):
        c1, c2 = CurveClass(1, 1000), CurveClass(1000, 1)
        assert geometric_intersection_count(c1, c2) == 999_999

    def test_past_the_int64_bound_raises(self):
        with pytest.raises(CurveError, match="too large"):
            geometric_intersection_count(CurveClass(1, 50_000), CurveClass(50_000, 1))

    def test_matches_generic_polyline_path(self):
        rng = random.Random(4)
        o1 = point(F(1, 7), F(2, 9))
        o2 = point(F(3, 11), F(5, 13))
        for _ in range(40):
            c1 = _random_class(rng, 5)
            c2 = _random_class(rng, 5)
            slow = torus_crossing_count(straight_curve(c1, o1), straight_curve(c2, o2))
            assert slow == intersection_number(c1, c2)


def _random_class(rng, bound=20):
    while True:
        p, q = rng.randint(-bound, bound), rng.randint(-bound, bound)
        if (p, q) != (0, 0) and math.gcd(abs(p), abs(q)) == 1:
            return CurveClass(p, q)


class TestRealizedCurves:
    def test_closure_must_match_class(self):
        with pytest.raises(CurveError):
            RealizedCurve([point(0, 0), point(1, 1)], CurveClass(1, 0))

    def test_wraparound_counts(self):
        c = straight_curve(CurveClass(2, 3), (F(1, 7), F(1, 9)))
        delta = c.lifted_points[-1] - c.lifted_points[0]
        assert (delta.x, delta.y) == (2, 3)

    def test_self_crossing_detected(self):
        # doubles back in x, so the last leg crosses the first one
        pts = [point(0, 0), point(F(3, 4), F(1, 4)), point(F(1, 4), F(1, 2)),
               point(1, 0)]
        with pytest.raises(NonSimpleCurveError):
            RealizedCurve(pts, CurveClass(1, 0))

    def test_graph_curves_are_simple(self):
        gamma = line_image_curve(vnhn(3), CurveClass(1, 0), (0, F(1, 3)), samples=64)
        assert gamma.curve_class == CurveClass(1, 0)
        assert len(gamma.lifted_points) == 65


class TestFineAdjacency:
    def test_disjoint_parallel(self):
        a = straight_curve(CurveClass(1, 0), (0, 0))
        b = straight_curve(CurveClass(1, 0), (0, F(1, 2)))
        assert fine_adjacent(a, b)

    def test_one_crossing(self):
        a = straight_curve(CurveClass(1, 0), (0, F(1, 3)))
        b = straight_curve(CurveClass(0, 1), (F(1, 3), 0))
        assert fine_adjacent(a, b)
        assert torus_crossing_count(a, b) == 1

    def test_two_crossings_not_adjacent(self):
        a = straight_curve(CurveClass(1, 2), (F(1, 7), F(2, 9)))
        b = straight_curve(CurveClass(3, 4), (F(3, 11), F(5, 13)))
        assert torus_crossing_count(a, b) == 2
        assert not fine_adjacent(a, b)

    def test_tangency_rejected(self):
        # a diamond touching a straight line at one vertex without crossing
        diamond = RealizedCurve(
            [point(0, F(1, 4)), point(F(1, 2), F(1, 2)), point(1, F(1, 4))],
            CurveClass(1, 0),
        )
        line = straight_curve(CurveClass(1, 0), (0, F(1, 2)))
        with pytest.raises(DegenerateIntersectionError):
            torus_crossing_count(diamond, line)


class TestSegmentContacts:
    """Each contact case of the exact crossing count and the simplicity
    check, pinned by outcome, exception type and message."""

    # a polyline of class (0, 1) whose joint (1/2, 1/2) lies on y = 1/2,
    # with its neighbours on opposite sides of that line
    ZIGZAG = [point(F(1, 3), 0), point(F(1, 2), F(1, 2)), point(F(1, 3), 1)]

    def test_collinear_overlap_raises(self):
        a = straight_curve(CurveClass(1, 0), (0, F(1, 2)))
        b = straight_curve(CurveClass(1, 0), (F(1, 3), F(1, 2)))
        with pytest.raises(DegenerateIntersectionError, match="collinear overlap"):
            torus_crossing_count(a, b)

    def test_partial_collinear_overlap_raises(self):
        # b's horizontal segment starts left of a's and ends inside it
        a = RealizedCurve([point(0, 0), point(F(1, 4), F(1, 2)), point(F(1, 2), F(1, 2)),
                           point(1, 0)], CurveClass(1, 0))
        b = RealizedCurve([point(0, F(1, 2)), point(F(3, 8), F(1, 2)),
                           point(F(3, 4), F(3, 4)), point(1, F(1, 2))], CurveClass(1, 0))
        with pytest.raises(DegenerateIntersectionError, match="collinear overlap"):
            torus_crossing_count(a, b)

    def test_joint_on_joint_raises(self):
        a = straight_curve(CurveClass(1, 0), (0, F(1, 2)))
        b = straight_curve(CurveClass(0, 1), (0, F(1, 2)))
        with pytest.raises(DegenerateIntersectionError, match="joint-on-joint"):
            torus_crossing_count(a, b)

    def test_crossing_through_a_joint_of_b_counts_once(self):
        # the joint starts segment 1 of b: the u == 0 branch
        line = straight_curve(CurveClass(1, 0), (F(1, 7), F(1, 2)))
        zigzag = RealizedCurve(self.ZIGZAG, CurveClass(0, 1))
        assert torus_crossing_count(line, zigzag) == 1

    def test_crossing_through_a_joint_of_a_counts_once(self):
        # the joint starts segment 1 of a: the t == 0 branch
        line = straight_curve(CurveClass(1, 0), (F(1, 7), F(1, 2)))
        zigzag = RealizedCurve(self.ZIGZAG, CurveClass(0, 1))
        assert torus_crossing_count(zigzag, line) == 1

    def test_crossing_through_the_wraparound_joint_counts_once(self):
        # the joint is v_0, whose chained predecessor is v_{m-1} - (p, q)
        line = straight_curve(CurveClass(1, 0), (F(1, 7), F(1, 2)))
        zigzag = RealizedCurve([point(F(1, 2), F(1, 2)), point(F(1, 3), 1),
                                point(F(1, 2), F(3, 2))], CurveClass(0, 1))
        assert torus_crossing_count(line, zigzag) == 1
        assert torus_crossing_count(zigzag, line) == 1

    def test_consecutive_collinear_segments_accepted(self):
        # doubles back in x, so the simplicity check runs; segments 0 and 1
        # are collinear and continue in the same direction
        pts = [point(0, 0), point(F(1, 4), 0), point(F(1, 2), 0),
               point(F(3, 8), F(1, 4)), point(1, 0)]
        curve = RealizedCurve(pts, CurveClass(1, 0))
        assert curve.lifted_points == tuple(pts)

    def test_non_consecutive_endpoint_touch_raises(self):
        # segment 3 passes through the joint (1/2, 0) ending segment 0
        pts = [point(0, 0), point(F(1, 2), 0), point(F(1, 2), F(1, 2)),
               point(F(1, 4), F(1, 4)), point(F(3, 4), F(-1, 4)), point(1, 0)]
        with pytest.raises(NonSimpleCurveError, match="touch degenerately"):
            RealizedCurve(pts, CurveClass(1, 0))


ALPHA_SAMPLES = np.column_stack([np.arange(10**4) / 10**4, np.full(10**4, 1 / 3)])


class TestChainBound:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_bound_two_with_single_crossing(self, n):
        rep = chain_bound_vnhn(n)
        assert rep.bound.kind == "upper"
        assert rep.bound.value == 2
        assert rep.crossing_count == 1
        assert rep.alpha_beta_crossings == 1
        # step 1 on samples: H^n leaves y bit-identical on alpha
        for prof in (default_profile(), tent_profile()):
            img = eval_lift_array(HShear(prof, n), ALPHA_SAMPLES)
            assert np.array_equal(img[:, 1], ALPHA_SAMPLES[:, 1])

    def test_tent_profile(self):
        rep = chain_bound_vnhn(5, tent_profile())
        assert rep.crossing_count == 1 and rep.profile_kind == "pl"

    def test_all_n_up_to_64_both_profile_kinds(self):
        from rotwidth.verify import run_vnhn_suite

        result = run_vnhn_suite(64)
        assert result.passed, "\n".join(result.format_lines())

    def test_gn_substitution_fails_loudly(self):
        with pytest.raises(ChainVerificationError) as err:
            chain_bound_vnhn(2, gn_substitution=True)
        assert err.value.stage == "inner_fixes_alpha"
        assert "VShear" in str(err.value)
        # the rejected factor really moves alpha
        p = default_profile()
        img = eval_lift_array(Power(Compose((VShear(p, 1), HShear(p, 1))), 2), ALPHA_SAMPLES)
        assert np.abs(img[:, 1] - ALPHA_SAMPLES[:, 1]).max() > 0.1

    def test_vertical_circle_counter_matches_generic(self):
        # the graph lemma of step 2 against the exact polyline count
        beta = straight_curve(CurveClass(0, 1), (F(1, 3), 0))
        for prof in (default_profile(), tent_profile()):
            for n, samples in ((1, 64), (3, 64), (1, 256), (32, 256), (64, 256)):
                gamma = line_image_curve(vnhn(n, prof), CurveClass(1, 0), (0, F(1, 3)),
                                         samples=samples)
                assert torus_crossing_count(gamma, beta) == 1
                assert torus_crossing_count(beta, gamma) == 1


# ---------------------------------------------------------------------------
# The all-translates Fraction loop that the integer frame replaced, kept as
# the reference for torus_crossing_count and the simplicity check.

def _ref_contact(p1, d1, q1, d2):
    denom = d1.cross(d2)
    w = q1 - p1
    if denom == 0:
        if d1.cross(w) != 0:
            return None
        t0 = d1.dot(w)
        t1 = d1.dot(w + d2)
        if max(t0, t1) >= 0 and min(t0, t1) <= d1.dot(d1):
            return "overlap"
        return None
    t = w.cross(d2) / denom
    u = w.cross(d1) / denom
    if 0 <= t <= 1 and 0 <= u <= 1:
        return t, u
    return None


def _ref_box(pts):
    xs, ys = [v.x for v in pts], [v.y for v in pts]
    return min(xs), min(ys), max(xs), max(ys)


def _ref_neighbors(pts, cls, j):
    prev = pts[j - 1] if j >= 1 else pts[-2] - point(cls.p, cls.q)
    return prev, pts[j + 1]


def _ref_joint_side(line_a, line_d, prev, nxt):
    s1 = line_d.cross(prev - line_a)
    s2 = line_d.cross(nxt - line_a)
    if s1 == 0 or s2 == 0:
        raise DegenerateIntersectionError("collinear neighbor at a joint contact")
    if (s1 > 0) == (s2 > 0):
        raise DegenerateIntersectionError("tangential touch at a polyline joint")
    return True


def _ref_verify_simple(points, cls):
    """Raise NonSimpleCurveError where the Fraction constructor did."""
    pts = [points[0]]
    for v in points[1:]:
        if v != pts[-1]:
            pts.append(v)
    for coord, span in ((0, cls.p), (1, cls.q)):
        vals = [v.x if coord == 0 else v.y for v in pts]
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        if (span == 1 and all(d > 0 for d in diffs)) or (
                span == -1 and all(d < 0 for d in diffs)):
            return
    segs = [(p, q - p) for p, q in zip(pts, pts[1:])]
    m = len(segs)
    xmin, ymin, xmax, ymax = _ref_box(pts)
    for di in range(math.floor(xmin - xmax), math.ceil(xmax - xmin) + 1):
        for dj in range(math.floor(ymin - ymax), math.ceil(ymax - ymin) + 1):
            off = point(di, dj)
            k = None
            if di * cls.q == dj * cls.p:
                k = di // cls.p if cls.p != 0 else dj // cls.q
                k = k if (k * cls.p, k * cls.q) == (di, dj) else None
            for a in range(m):
                p1, da = segs[a]
                for b in range(m):
                    if (di, dj) == (0, 0) and b <= a:
                        continue
                    if k is not None and b + k * m == a:
                        continue
                    q1, db = segs[b]
                    contact = _ref_contact(p1, da, q1 + off, db)
                    if contact is None:
                        continue
                    if contact != "overlap" and all(0 < c < 1 for c in contact):
                        raise NonSimpleCurveError("cross")
                    if k is not None and b + k * m in (a - 1, a + 1):
                        if da.cross(db) != 0 or da.dot(db) > 0:
                            continue
                    raise NonSimpleCurveError("touch degenerately")


def _ref_crossing_count(a, b):
    pa, pb = a.lifted_points, b.lifted_points
    axmin, aymin, axmax, aymax = _ref_box(pa)
    bxmin, bymin, bxmax, bymax = _ref_box(pb)
    segs_a = [(p, q - p) for p, q in zip(pa, pa[1:])]
    segs_b = [(p, q - p) for p, q in zip(pb, pb[1:])]
    count = 0
    for di in range(math.floor(axmin - bxmax), math.ceil(axmax - bxmin) + 1):
        for dj in range(math.floor(aymin - bymax), math.ceil(aymax - bymin) + 1):
            off = point(di, dj)
            for ia, (p1, d1) in enumerate(segs_a):
                for ib, (q1_, d2) in enumerate(segs_b):
                    q1 = q1_ + off
                    contact = _ref_contact(p1, d1, q1, d2)
                    if contact is None:
                        continue
                    if contact == "overlap":
                        raise DegenerateIntersectionError("collinear overlap")
                    t, u = contact
                    if 0 < t < 1 and 0 < u < 1:
                        count += 1
                    elif t in (0, 1) and u in (0, 1):
                        raise DegenerateIntersectionError("joint-on-joint")
                    elif 0 < t < 1 and u == 0:
                        prev, nxt = _ref_neighbors(pb, b.curve_class, ib)
                        if _ref_joint_side(p1, d1, prev + off, nxt + off):
                            count += 1
                    elif 0 < u < 1 and t == 0:
                        prev, nxt = _ref_neighbors(pa, a.curve_class, ia)
                        if _ref_joint_side(q1, d2, prev, nxt):
                            count += 1
    return count


def _outcome(fn):
    """The value fn returns, or the class of the CurveError it raises."""
    try:
        return fn()
    except CurveError as err:
        return type(err)


# coordinates with denominators up to 4, so that vertices often land on
# each other's lines, on joints and on translates of both
_COORDS = st.sampled_from([1, 2, 3, 4]).flatmap(
    lambda d: st.integers(-d, 2 * d).map(lambda k: F(k, d)))
_POINTS = st.builds(point, _COORDS, _COORDS)
_CLASSES = st.sampled_from([(1, 0), (0, 1), (-1, 0), (1, 1), (1, -1), (2, 1), (1, 2)])


@st.composite
def _polylines(draw):
    p, q = draw(_CLASSES)
    pts = [draw(_POINTS)] + draw(st.lists(_POINTS, max_size=3))
    return pts + [pts[0] + point(p, q)], CurveClass(p, q)


def _curve_or_none(pts, cls):
    """The curve, after checking that the constructor and the reference
    agree on whether it is simple."""
    made = _outcome(lambda: RealizedCurve(pts, cls))
    ref = _outcome(lambda: _ref_verify_simple(pts, cls))
    assert (made if made is NonSimpleCurveError else None) == ref
    return None if made is NonSimpleCurveError else made


class TestIntegerFrameReference:
    """The integer frame and translate window against the Fraction loop."""

    @settings(max_examples=600, deadline=None)
    @given(_polylines(), _polylines())
    def test_matches_fraction_reference(self, pa, pb):
        a, b = _curve_or_none(*pa), _curve_or_none(*pb)
        if a is None or b is None:
            return
        for x, y in ((a, b), (b, a)):
            assert _outcome(lambda: torus_crossing_count(x, y)) == \
                _outcome(lambda: _ref_crossing_count(x, y))

    @settings(max_examples=300, deadline=None)
    @given(_polylines(), _polylines())
    def test_transverse_count_bounds_intersection_number(self, pa, pb):
        a, b = _curve_or_none(*pa), _curve_or_none(*pb)
        if a is None or b is None:
            return
        count = _outcome(lambda: torus_crossing_count(a, b))
        if count is DegenerateIntersectionError:
            return
        i = intersection_number(a.curve_class, b.curve_class)
        assert count >= i and (count - i) % 2 == 0


class TestConstants:
    def test_m_bound_values(self):
        assert m_bound(1) == F(1, 1110)
        assert m_bound(2) == F(1, 1776)
        assert m_bound(F(5, 4)) == F(1, 1110)  # crossover: 888 * 5/4 = 1110

    def test_m_bound_decreasing(self):
        values = [m_bound(F(k, 4)) for k in range(1, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_m_bound_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            m_bound(0)

    def test_t0_consistency(self):
        assert t0_constant() == F(1, 222)
        assert m_bound(1) == t0_constant() / 5
        assert F(1, 888) == t0_constant() / 4

    def test_length_lower_bound_values(self):
        assert length_lower_bound(1, 1).value == F(1, 1110)
        assert length_lower_bound(4, 4).value == F(1, 888)
        assert length_lower_bound(F(1, 2), 1).value == F(1, 2220)

    def test_length_lower_bound_never_exceeds_width(self):
        rng = random.Random(9)
        for _ in range(200):
            ew = F(rng.randint(1, 40), rng.randint(1, 8))
            c = ew + F(rng.randint(0, 20), 3)
            assert length_lower_bound(ew, c).value <= ew

    def test_length_lower_bound_preconditions(self):
        with pytest.raises(ValueError):
            length_lower_bound(5, 4)
        with pytest.raises(ValueError):
            length_lower_bound(0, 1)

    def test_bound_kind_validation(self):
        with pytest.raises(ValueError):
            TranslationLengthBound("sideways", F(1), "adjacency_chain")


class TestRootCertificates:
    def test_large_width_rules_out_roots(self):
        cert = certify_no_roots(2221, 2)
        assert cert.verdict == "no_roots_above_threshold"
        assert cert.threshold == 2221
        assert cert.recheck()

    def test_boundary_case_inconclusive(self):
        cert = certify_no_roots(2220, 2)  # exact equality: strictness fails
        assert cert.verdict == "inconclusive"
        assert cert.recheck()

    def test_weak_bound_inconclusive(self):
        assert certify_no_roots(1, 2).verdict == "inconclusive"

    def test_verdict_line_round_trip(self):
        cert = certify_no_roots(F(4443, 2), 2)
        last = cert.transcript.splitlines()[-1]
        assert last == cert.verdict_line()
        assert last.split() == ["VERDICT:", cert.verdict, "THRESHOLD:", str(cert.threshold)]

    def test_transcript_carries_exact_rationals(self):
        cert = certify_no_roots(2221, 2)
        assert "2221/1110" in cert.transcript
        assert cert.transcript.endswith(f"{cert.verdict_line()}\n")

    def test_rechecks_are_deterministic(self):
        for ew, upper in ((2221, 2), (2220, 2), (10**6, 17)):
            c1 = certify_no_roots(ew, upper)
            c2 = certify_no_roots(ew, upper)
            assert c1.transcript == c2.transcript
            assert c1.recheck() and c2.recheck()
