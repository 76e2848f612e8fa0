"""Exact rational plane geometry: convex polygons, directional widths, and
the lattice ("essential") width.

Vertices are stored as `fractions.Fraction` coordinates, and every
predicate, width, and lattice-point query is exact.  `integer_frame` is
the one place that clears denominators: a polygon frames its input once,
scaling by D, the lcm of the denominators, to Python ints, and keeps D
with its hull's scaled vertices.  The hull (`monotone_hull`, the one
Andrew chain), the width-norm reduction and the lattice-point scan run on
those ints; a single Fraction is built from each result.  `contains`,
`ew_oracle` and the float `hausdorff_distance` (a diagnostic for the
numerical estimators) stay on the Fraction vertices, so the checkers
share no code with the kernels.

The essential width of a compact convex set is the smallest horizontal
width it can be given by a unimodular change of basis of the integer
lattice.  Horizontal width after acting by a unimodular matrix with first
row w equals the directional width along w, and every primitive integer
vector occurs as such a first row, so the essential width is the minimum
of the directional width over primitive integer directions.  For a
full-dimensional polygon C the map w -> width_C(w) is a norm on the plane
(the support function of C - C), and in any planar norm the first vector
of a Gauss-reduced lattice basis is a shortest nonzero lattice vector
(Kaib & Schnorr, "The generalized Gauss reduction algorithm", J.
Algorithms 21, 1996).  The essential width is therefore the width of that
vector, and no direction search is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rational = Fraction
RationalLike = Union[Fraction, int, str, float]


class GeometryError(ValueError):
    """Bad input to a geometric operation."""


class DegeneratePolygonError(GeometryError):
    """Operation requires a full-dimensional polygon."""


class PolygonFormatError(GeometryError):
    """Unparseable polygon text; carries a 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def to_rational(value: RationalLike) -> Fraction:
    """Coerce to an exact Fraction.

    Accepts Fractions, ints, floats (exact binary value), and strings in
    the forms "p/q", "n", or a decimal like "1.25" (converted exactly).
    A decimal exponent above 1000 in magnitude is refused: Fraction would
    expand it digit by digit.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, float)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            text = value.strip()
            if ("e" in text or "E" in text) and abs(int(text.lower().rpartition("e")[2])) > 1000:
                raise ValueError("decimal exponent above 1000 in magnitude")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise GeometryError(f"not a rational: {value!r}") from exc
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


@dataclass(frozen=True)
class Point2Q:
    """A point of the plane with exact rational coordinates."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", to_rational(self.x))
        object.__setattr__(self, "y", to_rational(self.y))

    def __add__(self, other: "Point2Q") -> "Point2Q":
        return Point2Q(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2Q") -> "Point2Q":
        return Point2Q(self.x - other.x, self.y - other.y)

    def __mul__(self, s: RationalLike) -> "Point2Q":
        s = to_rational(s)
        return Point2Q(self.x * s, self.y * s)

    def dot(self, other: "Point2Q") -> Fraction:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point2Q") -> Fraction:
        return self.x * other.y - self.y * other.x

    def as_floats(self) -> tuple[float, float]:
        return (float(self.x), float(self.y))

    def __str__(self):
        return f"({self.x}, {self.y})"


def point(x: RationalLike, y: RationalLike) -> Point2Q:
    """Shorthand constructor accepting anything `to_rational` does."""
    return Point2Q(to_rational(x), to_rational(y))


@dataclass(frozen=True)
class PrimitiveVector:
    """Integer vector with coprime entries; a lattice direction."""

    a: int
    b: int

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise GeometryError("primitive vector entries must be integers")
        if (self.a, self.b) == (0, 0):
            raise GeometryError("(0, 0) is not a direction")
        if math.gcd(abs(self.a), abs(self.b)) != 1:
            raise GeometryError(f"({self.a}, {self.b}) is not primitive")


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 integer matrix with determinant one."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise GeometryError("matrix determinant must be 1")

    def apply(self, p: Point2Q) -> Point2Q:
        return Point2Q(self.a * p.x + self.b * p.y, self.c * p.x + self.d * p.y)

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @staticmethod
    def identity() -> "UnimodularMatrix":
        return UnimodularMatrix(1, 0, 0, 1)


def integer_frame(points: Sequence[Point2Q]) -> tuple[int, list[tuple[int, int]]]:
    """(D, [(D*x, D*y), ...]) for the points, where D is the lcm of their
    coordinate denominators, so every scaled coordinate is an int."""
    D = math.lcm(*(c.denominator for v in points for c in (v.x, v.y)))
    return D, [(v.x.numerator * (D // v.x.denominator),
                v.y.numerator * (D // v.y.denominator)) for v in points]


def monotone_hull(pts: Sequence[tuple]) -> list[tuple]:
    """Andrew's monotone chain over distinct (x, y) pairs sorted by (x, y):
    the extreme points counter-clockwise from the first pair (the two end
    points of a collinear input).  It runs on the ints of
    `integer_frame` only, so it is exact."""
    if len(pts) == 1:
        return list(pts)

    def chain(ordered):
        out = []
        for p in ordered:
            px, py = p
            # pop while the turn is clockwise or straight (drops collinear)
            while len(out) > 1 and ((out[-1][0] - out[-2][0]) * (py - out[-2][1])
                                    - (out[-1][1] - out[-2][1]) * (px - out[-2][0])) <= 0:
                out.pop()
            out.append(p)
        return out

    return chain(pts)[:-1] + chain(reversed(pts))[:-1]


class ConvexPolygonQ:
    """Convex polygon with exact rational vertices.

    The stored vertex tuple is canonical: counter-clockwise, extreme points
    only, starting at the lexicographically smallest vertex.  Degenerate
    inputs are allowed and reported via `dimension` (0 point, 1 segment,
    2 full-dimensional).  The hull is taken once, on the input's integer
    frame; `_frame` keeps D and the hull's D-scaled vertices for the exact
    kernels, and `vertices` are the input points at those ints.
    """

    __slots__ = ("vertices", "_frame")

    def __init__(self, points: Iterable[Point2Q | tuple]):
        coerced = []
        for p in points:
            if isinstance(p, Point2Q):
                coerced.append(p)
            else:
                x, y = p
                coerced.append(point(x, y))
        if not coerced:
            raise GeometryError("convex hull of an empty point set")
        D, ints = integer_frame(coerced)
        at = dict(zip(ints, coerced))
        hull = monotone_hull(sorted(at))
        self.vertices: tuple[Point2Q, ...] = tuple(at[q] for q in hull)
        self._frame = (D, tuple(hull))

    @property
    def dimension(self) -> int:
        n = len(self.vertices)
        return 0 if n == 1 else (1 if n == 2 else 2)

    def edges(self):
        v = self.vertices
        m = len(v)
        for i in range(m):
            yield v[i], v[(i + 1) % m]

    def bounding_box(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return min(xs), min(ys), max(xs), max(ys)

    def translate(self, v: Point2Q | tuple) -> "ConvexPolygonQ":
        if not isinstance(v, Point2Q):
            v = point(*v)
        return ConvexPolygonQ([p + v for p in self.vertices])

    def scale(self, r: RationalLike) -> "ConvexPolygonQ":
        """Homothety of ratio r > 0 centered at the origin."""
        r = to_rational(r)
        if r <= 0:
            raise GeometryError("scaling ratio must be positive")
        return ConvexPolygonQ([p * r for p in self.vertices])

    def contains(self, p: Point2Q, *, strict: bool = False) -> bool:
        """Exact membership test; `strict` restricts to the interior."""
        if self.dimension == 0:
            return (not strict) and p == self.vertices[0]
        if self.dimension == 1:
            if strict:
                return False
            a, b = self.vertices
            d = b - a
            if d.cross(p - a) != 0:
                return False
            t = d.dot(p - a)
            return 0 <= t <= d.dot(d)
        for a, b in self.edges():
            c = (b - a).cross(p - a)
            if c < 0 or (strict and c == 0):
                return False
        return True

    def contains_polygon(self, other: "ConvexPolygonQ") -> bool:
        return all(self.contains(v) for v in other.vertices)

    def __eq__(self, other):
        return isinstance(other, ConvexPolygonQ) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        inner = ", ".join(str(v) for v in self.vertices)
        return f"ConvexPolygonQ[{inner}]"


def _width_int(C: ConvexPolygonQ, a: int, b: int) -> Fraction:
    vals = [a * v.x + b * v.y for v in C.vertices]
    return max(vals) - min(vals)


def directional_width(C: ConvexPolygonQ, w: PrimitiveVector | tuple[int, int]) -> Fraction:
    """Exact width of C along the integer direction w: max<w,x> - min<w,x>."""
    if not isinstance(w, PrimitiveVector):
        w = PrimitiveVector(*w)
    return _width_int(C, w.a, w.b)


def apply_unimodular(A: UnimodularMatrix, C: ConvexPolygonQ) -> ConvexPolygonQ:
    """Image polygon A*C, re-canonicalized."""
    return ConvexPolygonQ([A.apply(v) for v in C.vertices])


def _scaled_width(pts: Sequence[tuple[int, int]], a: int, b: int) -> int:
    """D times the width along (a, b) of the polygon with D-scaled vertices."""
    vals = [a * x + b * y for x, y in pts]
    return max(vals) - min(vals)


def _min_width_sq(D: int, pts: Sequence[tuple[int, int]]) -> Fraction:
    """Exact square of the minimal Euclidean width of a dimension-2 polygon,
    given by its D-scaled vertices in counter-clockwise order.

    The minimal width of a convex polygon is attained normal to one of its
    edges, so it is min over edges e of reach^2/|e|^2, where reach is the
    largest cross product of e with a vertex offset.  On scaled vertices
    reach grows by D^2 and |e|^2 by D^2, so the minimum is compared in ints
    and returned as reach^2 / (|e|^2 * D^2) to keep the oracle radius exact.
    """
    if len(pts) < 3:
        raise DegeneratePolygonError("minimal width needs a full-dimensional polygon")
    best_r2 = best_len_sq = None
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        ex, ey = bx - ax, by - ay
        len_sq = ex * ex + ey * ey
        reach = max(ex * (y - ay) - ey * (x - ax) for x, y in pts)  # >= 0 for CCW
        r2 = reach * reach
        if best_len_sq is None or r2 * best_len_sq < best_r2 * len_sq:
            best_r2, best_len_sq = r2, len_sq
    return Fraction(best_r2, best_len_sq * D * D)


@dataclass
class EWResult:
    """Essential width together with the optimizing direction and the data
    needed for independent cross-checks.

    `reduced_basis` is the width-norm Gauss-reduced basis (u, v) whose first
    vector is the optimizer; `oracle_radius` is a sup-norm radius at which
    `ew_oracle` must reproduce `value`.  `enum_radius` is always 0: no
    directions are enumerated.
    """

    value: Fraction
    direction: tuple[int, int]
    enum_radius: int
    oracle_radius: int
    reduced_basis: tuple[tuple[int, int], tuple[int, int]] | None


def _argmin_on_line(pts: Sequence[tuple[int, int]], v: tuple[int, int],
                    u: tuple[int, int]):
    """Integer k minimizing the scaled width along v + k*u (the map is
    convex in k)."""

    def f(k: int) -> int:
        return _scaled_width(pts, v[0] + k * u[0], v[1] + k * u[1])

    f0 = f(0)
    fp, fm = f(1), f(-1)
    if f0 <= fp and f0 <= fm:
        return 0, f0
    sign = 1 if fp < f0 else -1
    k_prev, f_prev = 0, f0
    k_cur, f_cur = sign, min(fp, fm)
    while True:
        k_next = k_cur * 2 if k_cur != 0 else sign
        f_next = f(k_next)
        if f_next >= f_cur:
            break
        k_prev, f_prev = k_cur, f_cur
        k_cur, f_cur = k_next, f_next
    lo, hi = sorted((k_prev, k_next))
    while hi - lo > 2:
        m1 = lo + (hi - lo) // 3
        m2 = hi - (hi - lo) // 3
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    best_k, best_f = lo, f(lo)
    for k in range(lo + 1, hi + 1):
        fk = f(k)
        if fk < best_f:
            best_k, best_f = k, fk
    return best_k, best_f


def _width_reduced_basis(pts: Sequence[tuple[int, int]]):
    """Generalized Gauss reduction of the standard basis under the width norm
    of the polygon with D-scaled vertices `pts`.

    Returns a determinant-one pair (u, v) with width(u) <= width(v) <=
    width(v + k*u) for every integer k.  Scaling by D > 0 scales every width
    alike, so the basis is that of the unscaled polygon.  For a
    full-dimensional polygon this is a Gauss-reduced basis of the width
    norm, so u is a shortest nonzero lattice vector (Kaib & Schnorr, J.
    Algorithms 21, 1996).

    Termination: all scaled widths are positive ints.  Every pass either
    stops or replaces v by a vector of strictly smaller width, so width(u) +
    width(v) strictly decreases on a set bounded below and the loop ends.
    """
    u, v = (1, 0), (0, 1)
    nu, nv = _scaled_width(pts, *u), _scaled_width(pts, *v)
    while True:
        if nu > nv:
            u, v = v, u
            nu, nv = nv, nu
        k, nk = _argmin_on_line(pts, v, u)
        if k != 0 and nk < nv:
            v = (v[0] + k * u[0], v[1] + k * u[1])
            nv = nk
        else:
            break
    det = u[0] * v[1] - u[1] * v[0]
    if det == -1:
        v = (-v[0], -v[1])
    return u, v


def _canonical_direction(a: int, b: int) -> tuple[int, int]:
    if b < 0 or (b == 0 and a < 0):
        return (-a, -b)
    return (a, b)


def _ceil_sqrt(q: Fraction) -> int:
    if q <= 0:
        return 0
    r = math.isqrt(q.numerator // q.denominator)
    while Fraction(r * r) < q:
        r += 1
    return r


def essential_width_detail(C: ConvexPolygonQ) -> EWResult:
    """Exact essential width with its optimizer and cross-check metadata.

    For a full-dimensional polygon, w -> width_C(w) is a norm, and the first
    vector u of the width-norm Gauss-reduced basis is a shortest lattice
    vector in it (Kaib & Schnorr, J. Algorithms 21, 1996); shortest vectors
    are primitive, so the essential width is width(u), attained along u.
    Degenerate polygons have essential width zero.
    """
    if C.dimension == 0:
        return EWResult(Fraction(0), (1, 0), 0, 1, None)
    D, pts = C._frame
    if C.dimension == 1:
        (ax, ay), (bx, by) = pts
        g = math.gcd(bx - ax, by - ay)
        # the primitive vector normal to the segment annihilates it
        direction = _canonical_direction((by - ay) // g, (ax - bx) // g)
        return EWResult(Fraction(0), direction, 0, max(map(abs, direction)), None)

    u, v = _width_reduced_basis(pts)
    best = Fraction(_scaled_width(pts, *u), D)
    oracle_radius = max(1, _ceil_sqrt(best * best / _min_width_sq(D, pts)))
    return EWResult(best, _canonical_direction(*u), 0, oracle_radius, (u, v))


def essential_width(C: ConvexPolygonQ) -> Fraction:
    """Exact minimum of directional width over primitive lattice directions."""
    return essential_width_detail(C).value


def ew_oracle(C: ConvexPolygonQ, radius: int) -> Fraction:
    """Brute-force width minimum over primitive directions with sup-norm
    at most `radius`.

    Always an upper bound on the essential width; exact once `radius`
    reaches the `oracle_radius` reported by `essential_width_detail`.
    """
    if radius < 1:
        raise GeometryError("oracle radius must be >= 1")
    best: Fraction | None = None
    for b in range(0, radius + 1):
        for a in range(-radius, radius + 1):
            if b == 0 and a != 1:
                continue
            if b > 0 and math.gcd(abs(a), b) != 1:
                continue
            wd = _width_int(C, a, b)
            if best is None or wd < best:
                best = wd
    return best


def _lattice_columns(C: ConvexPolygonQ, strict: bool) -> list[tuple[int, int]]:
    """Integer points of C (of its interior when `strict`), column by column
    with y ascending.

    A point lies in C iff it lies on the inner side of every edge line.  On
    the D-scaled vertices, the edge from (ax, ay) to (bx, by) with
    dx = bx - ax != 0 bounds the integer y in column x by the line value
    (dy*D*x + dx*ay - dy*ax) / (D*dx): from below when dx > 0 (the lower
    chain of a counter-clockwise polygon) and from above when dx < 0.
    Vertical edges bound only x, which the column range does.  The lines
    y = ymin and y = ymax bound y for points and vertical segments, which
    have no other edge.  Each bound (p*x + q) / r, with r > 0, becomes a
    floor division: ceil(t/r) = (t + r - 1) // r, floor(t/r) + 1 =
    (t + r) // r, ceil(t/r) - 1 = (t - 1) // r.
    """
    D, pts = C._frame
    s = 1 if strict else 0
    xs = [x for x, _ in pts]
    ys = [y for _, y in pts]
    lower = [(0, min(ys) + D - 1 + s, D)]
    upper = [(0, max(ys) - s, D)]
    for (ax, ay), (bx, by) in zip(pts, pts[1:] + pts[:1]):
        dx, dy = bx - ax, by - ay
        p, q, r = dy * D, dx * ay - dy * ax, dx * D
        if dx > 0:
            lower.append((p, q + r - 1 + s, r))
        elif dx < 0:
            upper.append((-p, -q - s, -r))
    out = []
    for x in range((min(xs) + D - 1 + s) // D, (max(xs) - s) // D + 1):
        lo = max((p * x + q) // r for p, q, r in lower)
        hi = min((p * x + q) // r for p, q, r in upper)
        out.extend((x, y) for y in range(lo, hi + 1))
    return out


def interior_lattice_points(C: ConvexPolygonQ) -> list[tuple[int, int]]:
    """Integer points strictly inside C (empty for dimension <= 1)."""
    return _lattice_columns(C, strict=True)


def closed_lattice_points(C: ConvexPolygonQ) -> list[tuple[int, int]]:
    """Integer points of C including its boundary."""
    return _lattice_columns(C, strict=False)


def _has_three_nonaligned(pts: Sequence[tuple[int, int]]) -> bool:
    if len(pts) < 3:
        return False
    x0, y0 = pts[0]
    base = None
    for x, y in pts[1:]:
        d = (x - x0, y - y0)
        if base is None:
            base = d
        elif base[0] * d[1] - base[1] * d[0] != 0:
            return True
    return False


def has_three_nonaligned_interior(C: ConvexPolygonQ) -> bool:
    """True iff the interior holds three affinely independent integer points."""
    return _has_three_nonaligned(interior_lattice_points(C))


@dataclass(frozen=True)
class CompareWidthVerdict:
    """Joint record of the two width-versus-interior-points implications.

    implication1_ok: three non-aligned interior integer points force
    essential width > 1.  implication2_ok: essential width > 4 forces three
    non-aligned interior integer points.  Both must hold for every polygon.
    """

    ew: Fraction
    has_three: bool
    implication1_ok: bool
    implication2_ok: bool

    @property
    def ok(self) -> bool:
        return self.implication1_ok and self.implication2_ok


def check_compare_width(C: ConvexPolygonQ) -> CompareWidthVerdict:
    ew = essential_width(C)
    has3 = has_three_nonaligned_interior(C)
    return CompareWidthVerdict(
        ew=ew,
        has_three=has3,
        implication1_ok=(not has3) or ew > 1,
        implication2_ok=(ew <= 4) or has3,
    )


def dilate_polygon_linf(C: ConvexPolygonQ, r: RationalLike) -> ConvexPolygonQ:
    """Minkowski sum with the square [-r, r]^2 (exact)."""
    r = to_rational(r)
    if r < 0:
        raise GeometryError("dilation radius must be >= 0")
    if r == 0:
        return C
    offs = [point(sx * r, sy * r) for sx in (-1, 1) for sy in (-1, 1)]
    return ConvexPolygonQ([v + o for v in C.vertices for o in offs])


# ---------------------------------------------------------------------------
# Float diagnostics (Hausdorff distance between convex polygons)

def _point_segment_distance(p, a, b) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    if dd == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / dd
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _point_polygon_distance(p: Point2Q, Q: ConvexPolygonQ) -> float:
    if Q.contains(p):
        return 0.0
    pf = p.as_floats()
    vf = [v.as_floats() for v in Q.vertices]
    if len(vf) == 1:
        return math.hypot(pf[0] - vf[0][0], pf[1] - vf[0][1])
    m = len(vf)
    return min(
        _point_segment_distance(pf, vf[i], vf[(i + 1) % m]) for i in range(m)
    )


def hausdorff_distance(P: ConvexPolygonQ, Q: ConvexPolygonQ) -> float:
    """Hausdorff distance between two convex polygons (float diagnostic).

    For convex sets the directed distance is attained at a vertex of the
    source polygon, so vertex sweeps in both directions suffice.
    """
    d1 = max(_point_polygon_distance(v, Q) for v in P.vertices)
    d2 = max(_point_polygon_distance(v, P) for v in Q.vertices)
    return max(d1, d2)


# ---------------------------------------------------------------------------
# Polygon text format: one vertex per line, two whitespace-separated
# rationals ("p/q", integer, or decimal); '#' starts a comment.

def parse_polygon_text(text: str) -> list[Point2Q]:
    pts = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise PolygonFormatError(
                f"expected two coordinates, got {len(fields)}", lineno
            )
        try:
            pts.append(point(fields[0], fields[1]))
        except (GeometryError, ValueError) as exc:
            raise PolygonFormatError(str(exc), lineno) from exc
    if not pts:
        raise PolygonFormatError("no vertices found", 1)
    return pts


def load_polygon(path) -> ConvexPolygonQ:
    with open(path, "r", encoding="utf-8") as fh:
        return ConvexPolygonQ(parse_polygon_text(fh.read()))


def dump_polygon(C: ConvexPolygonQ) -> str:
    """Canonical text form: reduced fractions, one vertex per line."""
    return "".join(f"{v.x} {v.y}\n" for v in C.vertices)


def save_polygon(path, C: ConvexPolygonQ) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_polygon(C))
