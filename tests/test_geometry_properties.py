"""Property tests for the essential width: invariance, homogeneity,
monotonicity, oracle equivalence, the reduced-basis certificate, the
interior-points bounds, and the lattice-point scan against brute force."""

import math
import random
from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from rotwidth.geometry import (
    ConvexPolygonQ,
    UnimodularMatrix,
    apply_unimodular,
    check_compare_width,
    closed_lattice_points,
    directional_width,
    essential_width,
    essential_width_detail,
    ew_oracle,
    interior_lattice_points,
    point,
)
from rotwidth.verify import random_unimodular

rational_coords = st.builds(
    F,
    st.integers(min_value=-80, max_value=80),
    st.integers(min_value=1, max_value=8),
)

points = st.builds(point, rational_coords, rational_coords)

polygons = st.lists(points, min_size=1, max_size=7).map(ConvexPolygonQ)

full_polygons = polygons.filter(lambda C: C.dimension == 2)

small_coords = st.builds(
    F,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=3),
)

# Small polygons under unimodular maps with entries up to 60: thin, sheared
# inputs whose width-norm reduction takes many steps.
sheared_polygons = st.builds(
    lambda C, seed: apply_unimodular(
        random_unimodular(random.Random(seed), entry_bound=60), C),
    st.lists(st.builds(point, small_coords, small_coords), min_size=3, max_size=5)
    .map(ConvexPolygonQ).filter(lambda C: C.dimension == 2),
    st.integers(min_value=0, max_value=10**6),
)

unimodulars = st.builds(
    lambda seed: random_unimodular(random.Random(seed)),
    st.integers(min_value=0, max_value=10**6),
)

ratios = st.sampled_from([F(1, 2), F(2), F(7, 3), F(3, 5)])

# Polygons small enough for a bounding-box scan: rational ones, and integer
# ones whose vertical edges, lattice vertices and degenerate hulls
# (points, vertical and horizontal segments) hit every boundary case.
scan_polygons = st.one_of(
    st.lists(st.builds(point,
                       st.builds(F, st.integers(-40, 40), st.integers(1, 8)),
                       st.builds(F, st.integers(-40, 40), st.integers(1, 8))),
             min_size=1, max_size=7).map(ConvexPolygonQ),
    st.lists(st.builds(point, st.integers(-6, 6), st.integers(-6, 6)),
             min_size=1, max_size=5).map(ConvexPolygonQ),
)


@settings(max_examples=150, deadline=None)
@given(polygons, unimodulars, st.integers(-5, 5), st.integers(-5, 5))
def test_invariance_under_unimodular_and_translation(C, A, zx, zy):
    moved = apply_unimodular(A, C).translate(point(zx, zy))
    assert essential_width(moved) == essential_width(C)


@settings(max_examples=150, deadline=None)
@given(polygons, ratios)
def test_homogeneity(C, r):
    assert essential_width(C.scale(r)) == r * essential_width(C)


@settings(max_examples=100, deadline=None)
@given(st.lists(points, min_size=2, max_size=7))
def test_monotonicity_under_inclusion(pts):
    sub = ConvexPolygonQ(pts[: max(1, len(pts) - 1)])
    full = ConvexPolygonQ(pts)
    assert full.contains_polygon(sub)
    assert essential_width(sub) <= essential_width(full)


@settings(max_examples=150, deadline=None)
@given(st.one_of(full_polygons, sheared_polygons))
def test_oracle_equivalence_at_reported_radius(C):
    detail = essential_width_detail(C)
    assert ew_oracle(C, detail.oracle_radius) == detail.value


@settings(max_examples=150, deadline=None)
@given(st.one_of(full_polygons, sheared_polygons))
def test_reduced_basis_certifies_the_minimum(C):
    """The Gauss-reduced basis is the proof that its first vector is a
    shortest vector of the width norm; check that proof directly."""
    detail = essential_width_detail(C)
    u, v = detail.reduced_basis
    assert u[0] * v[1] - u[1] * v[0] == 1
    wu = directional_width(C, u)
    wv = directional_width(C, v)
    assert wu == detail.value
    # width(v + k*u) is convex in k, so k = +/-1 is the whole condition
    neighbours = (directional_width(C, (v[0] + u[0], v[1] + u[1])),
                  directional_width(C, (v[0] - u[0], v[1] - u[1])))
    assert wu <= wv <= min(neighbours)
    assert detail.direction in (u, (-u[0], -u[1]))


@settings(max_examples=100, deadline=None)
@given(full_polygons)
def test_ew_bounded_by_every_enumerated_basis_change(C):
    """Horizontal width after any unimodular change of basis is at least
    the essential width, with equality achieved inside the enumeration box
    whenever the optimizer fits."""
    detail = essential_width_detail(C)
    widths = []
    box = 7
    for a in range(-box, box + 1):
        for b in range(0, box + 1):
            if (b == 0 and a != 1) or math.gcd(abs(a), max(b, 1) if b else abs(a)) != 1:
                continue
            if math.gcd(abs(a), b) != 1:
                continue
            widths.append(directional_width(C, (a, b)))
    best = min(widths)
    assert best >= detail.value
    if max(abs(detail.direction[0]), abs(detail.direction[1])) <= box:
        assert best == detail.value


@settings(max_examples=60, deadline=None)
@given(full_polygons)
def test_explicit_matrix_enumeration_lower_bound(C):
    """Width along the first row of explicit determinant-one matrices
    never beats the essential width."""
    ew = essential_width(C)
    for a in range(-4, 5):
        for b in range(-4, 5):
            if math.gcd(abs(a), abs(b)) != 1:
                continue
            # complete (a, b) to a determinant-one matrix via Bezout
            g, x, y = _xgcd(a, b)
            if g < 0:
                x, y = -x, -y
            A = UnimodularMatrix(a, b, -y, x)
            img = apply_unimodular(A, C)
            horizontal = directional_width(img, (1, 0))
            assert horizontal >= ew


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


@settings(max_examples=150, deadline=None)
@given(st.one_of(polygons, sheared_polygons))
def test_compare_width_implications(C):
    assert check_compare_width(C).ok


def _fraction_min_width_sq(C):
    """Square of the minimal Euclidean width from Fraction edge vectors:
    over edges, the largest squared vertex distance to the edge line."""
    best = None
    for a, b in C.edges():
        e = b - a
        reach = max(e.cross(v - a) for v in C.vertices)
        cand = reach * reach / e.dot(e)
        if best is None or cand < best:
            best = cand
    return best


@settings(max_examples=150, deadline=None)
@given(st.one_of(full_polygons, sheared_polygons))
def test_oracle_radius_matches_fraction_edge_formula(C):
    detail = essential_width_detail(C)
    q = detail.value * detail.value / _fraction_min_width_sq(C)
    r = math.isqrt(q.numerator // q.denominator)
    while r * r < q:
        r += 1
    assert detail.oracle_radius == max(1, r)


def _box_filter(C, strict):
    """Integer points of the bounding box that `contains` accepts, in
    column-major order with y ascending."""
    xs = [v.x for v in C.vertices]
    ys = [v.y for v in C.vertices]
    return [(ix, iy)
            for ix in range(math.floor(min(xs)), math.ceil(max(xs)) + 1)
            for iy in range(math.floor(min(ys)), math.ceil(max(ys)) + 1)
            if C.contains(point(ix, iy), strict=strict)]


@settings(max_examples=150, deadline=None)
@given(scan_polygons)
def test_lattice_scan_matches_bounding_box_filter(C):
    assert interior_lattice_points(C) == _box_filter(C, strict=True)
    assert closed_lattice_points(C) == _box_filter(C, strict=False)


@settings(max_examples=60, deadline=None)
@given(sheared_polygons, unimodulars, st.integers(-5, 5), st.integers(-5, 5))
def test_interior_points_equivariant_under_unimodular_and_translation(C, A, zx, zy):
    moved = apply_unimodular(A, C).translate(point(zx, zy))
    want = sorted((A.a * x + A.b * y + zx, A.c * x + A.d * y + zy)
                  for x, y in interior_lattice_points(C))
    assert sorted(interior_lattice_points(moved)) == want


@settings(max_examples=100, deadline=None)
@given(polygons)
def test_three_closed_nonaligned_points_force_width_one(C):
    pts = closed_lattice_points(C)
    nonaligned = False
    if len(pts) >= 3:
        x0, y0 = pts[0]
        base = None
        for x, y in pts[1:]:
            d = (x - x0, y - y0)
            if base is None and d != (0, 0):
                base = d
            elif base is not None and base[0] * d[1] - base[1] * d[0] != 0:
                nonaligned = True
                break
    if nonaligned:
        assert essential_width(C) >= 1


@settings(max_examples=100, deadline=None)
@given(polygons)
def test_degenerate_polygons_have_zero_width(C):
    if C.dimension <= 1:
        assert essential_width(C) == 0
    else:
        assert essential_width(C) > 0


def test_random_polygon_battery_small():
    """Deterministic smaller twin of the acceptance battery."""
    from rotwidth.verify import run_compare_width_suite

    result = run_compare_width_suite(count=300, seed=11)
    assert result.passed, "\n".join(result.format_lines())


def test_thousand_basis_changes_never_beat_essential_width():
    """Deterministic enumeration of > 10^3 primitive directions (first rows
    of determinant-one matrices) against a handful of fixed polygons."""
    fixtures = [
        ConvexPolygonQ([point(-1, 0), point(F(2, 3), F(5, 3)),
                        point(F(7, 3), F(-5, 3))]),
        ConvexPolygonQ([point(0, 0), point(5, 1), point(7, 6), point(2, 9),
                        point(-1, 4)]),
        apply_unimodular(UnimodularMatrix(5, 3, 3, 2),
                         ConvexPolygonQ([point(0, 0), point(1, 0),
                                         point(1, 1), point(0, 1)])),
    ]
    box = 29
    directions = [(a, b) for a in range(-box, box + 1)
                  for b in range(0, box + 1)
                  if (a, b) != (0, 0) and (b > 0 or a > 0)
                  and math.gcd(abs(a), b) == 1]
    assert len(directions) >= 1000
    for C in fixtures:
        detail = essential_width_detail(C)
        widths = [directional_width(C, d) for d in directions]
        assert min(widths) >= detail.value
        if max(abs(detail.direction[0]), abs(detail.direction[1])) <= box:
            assert min(widths) == detail.value
