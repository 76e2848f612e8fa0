"""Exact geometry: hulls, widths, lattice points, essential width."""

import math
import os
import re
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import rotwidth.geometry
from rotwidth.geometry import (
    ConvexPolygonQ,
    GeometryError,
    PolygonFormatError,
    PrimitiveVector,
    UnimodularMatrix,
    apply_unimodular,
    check_compare_width,
    closed_lattice_points,
    dilate_polygon_linf,
    directional_width,
    dump_polygon,
    essential_width,
    essential_width_detail,
    ew_oracle,
    hausdorff_distance,
    has_three_nonaligned_interior,
    interior_lattice_points,
    parse_polygon_text,
    point,
)


def paper_triangle():
    return ConvexPolygonQ([point(-1, 0), point("2/3", "5/3"), point("7/3", "-5/3")])


def unit_square():
    return ConvexPolygonQ([point(0, 0), point(1, 0), point(0, 1), point(1, 1)])


def brute_force_width_min(C, radius):
    """Independent essential-width oracle: raw double loop over directions,
    widths from scratch as max-min of dot products."""
    best = None
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            if (a, b) == (0, 0) or math.gcd(abs(a), abs(b)) != 1:
                continue
            dots = [a * v.x + b * v.y for v in C.vertices]
            w = max(dots) - min(dots)
            if best is None or w < best:
                best = w
    return best


class TestConvexHull:
    def test_single_point(self):
        C = ConvexPolygonQ([point(0, 0)])
        assert C.dimension == 0
        assert C.vertices == (point(0, 0),)

    def test_collinear_points_become_segment(self):
        C = ConvexPolygonQ([point(0, 0), point(1, 0), point(2, 0)])
        assert C.dimension == 1
        assert C.vertices == (point(0, 0), point(2, 0))

    def test_interior_point_dropped(self):
        pts = [point(0, 0), point(1, 0), point(0, 1), point(1, 1),
               point("1/2", "1/2")]
        C = ConvexPolygonQ(pts)
        assert C.vertices == unit_square().vertices
        # oracle: every input point lies in every edge half-plane of the hull
        for p in pts:
            for a, b in C.edges():
                assert (b - a).cross(p - a) >= 0

    def test_ccw_and_canonical_start(self):
        C = unit_square()
        v = C.vertices
        assert v[0] == min(v, key=lambda p: (p.x, p.y))
        area2 = sum(v[i].cross(v[(i + 1) % len(v)]) for i in range(len(v)))
        assert area2 > 0  # counter-clockwise

    def test_empty_input_rejected(self):
        with pytest.raises(GeometryError):
            ConvexPolygonQ([])


def fraction_hull(points):
    """The Fraction monotone chain the hull was once built with, kept as the
    reference for the integer-frame hull."""
    pts = sorted(set(points), key=lambda p: (p.x, p.y))
    if len(pts) == 1:
        return (pts[0],)
    base = pts[0]
    d0 = pts[-1] - base
    if all(d0.cross(p - base) == 0 for p in pts[1:-1]):
        return (pts[0], pts[-1])

    def chain(ordered):
        out = []
        for p in ordered:
            while len(out) > 1 and (out[-1] - out[-2]).cross(p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out

    return tuple(chain(pts)[:-1] + chain(list(reversed(pts)))[:-1])


@st.composite
def hull_inputs(draw):
    """1-12 points with denominators up to 6, heavy in repeats and in
    collinear runs (numerators a + i*d over one denominator)."""
    n = draw(st.integers(1, 12))
    small = st.integers(-6, 6)
    q = draw(st.integers(1, 6))
    pts = []
    while len(pts) < n:
        kind = draw(st.sampled_from(("free", "repeat", "run")))
        if kind == "repeat" and pts:
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "run":
            ax, ay, dx, dy = (draw(small) for _ in range(4))
            steps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=n - len(pts)))
            pts.extend(point(F(ax + i * dx, q), F(ay + i * dy, q)) for i in steps)
        else:
            pts.append(point(F(draw(small), draw(st.integers(1, 6))),
                             F(draw(small), draw(st.integers(1, 6)))))
    return draw(st.permutations(pts))


@settings(max_examples=500, deadline=None)
@given(hull_inputs())
def test_hull_matches_fraction_reference(pts):
    C = ConvexPolygonQ(pts)
    assert C.vertices == fraction_hull(pts)
    D, ints = C._frame
    assert type(D) is int and all(type(c) is int for q in ints for c in q)
    assert [(D * v.x, D * v.y) for v in C.vertices] == list(ints)


class TestDirectionalWidth:
    def test_unit_square_axis(self):
        assert directional_width(unit_square(), (1, 0)) == 1

    def test_unit_square_diagonal(self):
        C = unit_square()
        w = PrimitiveVector(1, 1)
        # oracle: evaluate <w, .> at all four vertices
        dots = [v.x + v.y for v in C.vertices]
        assert directional_width(C, w) == max(dots) - min(dots) == 2

    def test_point_polygon_zero(self):
        assert directional_width(ConvexPolygonQ([point(3, 4)]), (5, -7)) == 0

    def test_rejects_non_primitive(self):
        with pytest.raises(GeometryError):
            directional_width(unit_square(), (2, 2))


class TestUnimodular:
    def test_identity(self):
        C = paper_triangle()
        assert apply_unimodular(UnimodularMatrix.identity(), C) == C

    def test_shear_square(self):
        A = UnimodularMatrix(1, 1, 0, 1)
        img = apply_unimodular(A, unit_square())
        want = ConvexPolygonQ([point(0, 0), point(1, 0), point(2, 1), point(1, 1)])
        assert img == want
        assert len(img.vertices) == 4

    def test_point_maps_to_point(self):
        C = ConvexPolygonQ([point("1/2", "-3/4")])
        img = apply_unimodular(UnimodularMatrix(2, 1, 1, 1), C)
        assert img.dimension == 0
        assert img.vertices[0] == point("1/4", "-1/4")

    def test_determinant_checked(self):
        with pytest.raises(GeometryError):
            UnimodularMatrix(1, 0, 0, 2)


class TestEssentialWidth:
    def test_paper_triangle_value(self):
        assert essential_width(paper_triangle()) == F(10, 3)

    def test_unit_square(self):
        C = unit_square()
        assert essential_width(C) == 1
        assert brute_force_width_min(C, 10) == 1

    def test_scaled_square(self):
        C = unit_square().scale(3)
        assert essential_width(C) == 3
        assert brute_force_width_min(C, 10) == 3

    def test_segment_annihilated(self):
        seg = ConvexPolygonQ([point(0, 0), point(3, 6)])
        detail = essential_width_detail(seg)
        assert detail.value == 0
        a, b = detail.direction
        assert a * 3 + b * 6 == 0  # direction annihilates the segment

    def test_point_zero(self):
        assert essential_width(ConvexPolygonQ([point("1/3", 5)])) == 0

    def test_matches_brute_force_on_triangle(self):
        assert brute_force_width_min(paper_triangle(), 5) == F(10, 3)


class TestEwOracle:
    def test_paper_triangle_radius5(self):
        assert ew_oracle(paper_triangle(), 5) == F(10, 3)

    def test_unit_square_radius1(self):
        assert ew_oracle(unit_square(), 1) == 1

    def test_scaled_square_radius2(self):
        assert ew_oracle(unit_square().scale(3), 2) == 3

    def test_radius_validated(self):
        with pytest.raises(GeometryError):
            ew_oracle(unit_square(), 0)


class TestLatticePoints:
    def test_paper_triangle_interior(self):
        assert interior_lattice_points(paper_triangle()) == [(0, 0), (1, 0)]

    def test_unit_square_boundary_excluded(self):
        assert interior_lattice_points(unit_square()) == []

    def test_three_halves_box(self):
        C = ConvexPolygonQ([point("-3/2", "-3/2"), point("3/2", "-3/2"),
                            point("3/2", "3/2"), point("-3/2", "3/2")])
        pts = interior_lattice_points(C)
        assert pts == [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]

    def test_segment_has_no_interior(self):
        assert interior_lattice_points(ConvexPolygonQ([point(0, 0), point(5, 0)])) == []

    def test_vertical_edge_on_integer_x(self):
        # left edge x = 0 and right edge x = 3; both are boundary only
        C = ConvexPolygonQ([point(0, 0), point(3, "1/2"), point(3, "7/2"),
                            point(0, 2)])
        assert interior_lattice_points(C) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        # (2, 3) lies on the top edge y = 2 + x/2
        assert closed_lattice_points(C) == [
            (0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3),
            (3, 1), (3, 2), (3, 3)]

    def test_vertices_on_lattice_points(self):
        C = ConvexPolygonQ([point(0, 0), point(4, 0), point(0, 4)])
        assert interior_lattice_points(C) == [(1, 1), (1, 2), (2, 1)]
        assert closed_lattice_points(C) == [
            (x, y) for x in range(5) for y in range(5 - x)]

    def test_interior_with_one_column(self):
        C = ConvexPolygonQ([point("1/2", "-3/2"), point("3/2", "-3/2"),
                            point("3/2", "3/2"), point("1/2", "3/2")])
        assert interior_lattice_points(C) == [(1, -1), (1, 0), (1, 1)]
        assert closed_lattice_points(C) == [(1, -1), (1, 0), (1, 1)]

    def test_interior_with_no_column(self):
        # x runs over [0, 1]: both integer columns lie on the boundary
        C = ConvexPolygonQ([point(0, 0), point(1, 0), point(1, 5), point(0, 5)])
        assert interior_lattice_points(C) == []
        assert closed_lattice_points(C) == [(x, y) for x in (0, 1) for y in range(6)]
        # x runs over [1/4, 3/4]: no integer column at all
        thin = ConvexPolygonQ([point("1/4", 0), point("3/4", 0), point("1/2", 5)])
        assert interior_lattice_points(thin) == []
        assert closed_lattice_points(thin) == []

    def test_degenerate_closed_points(self):
        assert closed_lattice_points(ConvexPolygonQ([point(2, -1)])) == [(2, -1)]
        assert closed_lattice_points(ConvexPolygonQ([point("1/2", 1)])) == []
        vertical = ConvexPolygonQ([point(1, "-1/2"), point(1, "5/2")])
        assert closed_lattice_points(vertical) == [(1, 0), (1, 1), (1, 2)]
        slanted = ConvexPolygonQ([point(-1, -2), point(3, 6)])
        assert closed_lattice_points(slanted) == [(x, 2 * x) for x in range(-1, 4)]


class TestThreeNonaligned:
    def test_paper_triangle_two_collinear(self):
        assert not has_three_nonaligned_interior(paper_triangle())

    def test_three_halves_box(self):
        C = ConvexPolygonQ([point("-3/2", "-3/2"), point("3/2", "-3/2"),
                            point("3/2", "3/2"), point("-3/2", "3/2")])
        assert has_three_nonaligned_interior(C)

    def test_segment(self):
        assert not has_three_nonaligned_interior(ConvexPolygonQ([point(0, 0), point(9, 3)]))


class TestCompareWidth:
    def test_paper_triangle(self):
        v = check_compare_width(paper_triangle())
        assert v.ew == F(10, 3) and not v.has_three and v.ok

    def test_big_square(self):
        C = unit_square().scale(5)
        v = check_compare_width(C)
        assert v.ew == 5 and v.has_three and v.ok
        assert {(1, 1), (1, 2), (2, 1)} <= set(interior_lattice_points(C))

    def test_unit_square(self):
        v = check_compare_width(unit_square())
        assert v.ew == 1 and not v.has_three and v.ok


class TestPolygonIO:
    def test_round_trip(self):
        C = paper_triangle()
        assert ConvexPolygonQ(parse_polygon_text(dump_polygon(C))) == C

    def test_comments_and_blanks(self):
        pts = parse_polygon_text("# header\n\n 0 0 # origin\n1/2 3\n")
        assert pts == [point(0, 0), point("1/2", 3)]

    def test_bad_line_number(self):
        with pytest.raises(PolygonFormatError) as err:
            parse_polygon_text("0 0\n1 2 3\n")
        assert err.value.line == 2

    def test_unparseable_coordinate(self):
        with pytest.raises(PolygonFormatError) as err:
            parse_polygon_text("0 0\n\nx y\n")
        assert err.value.line == 3

    def test_decimal_exponents(self):
        pts = parse_polygon_text("2.5e3 1E-3\n1e1000 -1e-1000\n")
        assert pts == [point(2500, F(1, 1000)), point(10 ** 1000, F(-1, 10 ** 1000))]
        for token in ("1e1001", "1E-1001", "1e10000000", "1e+99999999999"):
            message = re.escape(f"line 2: not a rational: '{token}'")
            with pytest.raises(PolygonFormatError, match=message):
                parse_polygon_text(f"0 0\n0 {token}\n")


# str.splitlines() also breaks at these; the polygon format breaks only at "\n"
_OTHER_BREAKS = ["\x85", "\x0c", "\u2028", "\r"]
_POLYGON_LINES = st.one_of(
    st.sampled_from(["0 0", "1/2 3", "-1 2.5e1", "# comment", "", "1 2 3", "x y", "1/0 1",
                     "1e1001 0", "0 0 # note"]),
    st.text(alphabet="0123456789/.-+eE #x" + "".join(_OTHER_BREAKS), max_size=12),
)
_POLYGON_TEXTS = st.lists(
    st.tuples(_POLYGON_LINES, st.sampled_from(["\n", "\n", *_OTHER_BREAKS])), max_size=8,
).map(lambda parts: "".join(line + sep for line, sep in parts))


@settings(max_examples=300, deadline=None)
@given(text=_POLYGON_TEXTS)
def test_polygon_fuzz_gives_points_or_located_error(text):
    try:
        pts = parse_polygon_text(text)
    except PolygonFormatError as err:
        assert 1 <= err.line <= text.count("\n") + 1
        return
    assert pts


class TestHausdorffAndDilate:
    def test_identical_polygons(self):
        assert hausdorff_distance(unit_square(), unit_square()) == 0.0

    def test_nested_squares(self):
        d = hausdorff_distance(unit_square(), unit_square().scale(3))
        assert abs(d - 2 * math.sqrt(2)) < 1e-12  # corner (3,3) to corner (1,1)

    def test_dilation_contains(self):
        C = paper_triangle()
        D = dilate_polygon_linf(C, F(1, 4))
        assert D.contains_polygon(C)
        assert essential_width(D) >= essential_width(C)


def test_import_leaves_scipy_unloaded():
    # a fresh interpreter: the package import must not load the flow layer
    src = os.path.dirname(os.path.dirname(rotwidth.geometry.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, rotwidth.geometry; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"
