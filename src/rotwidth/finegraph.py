"""Curve crossing counts on the torus, adjacency-chain upper bounds on
the asymptotic translation length, and exact no-root certificates.

Conventions.  An essential simple closed curve on the torus carries a
primitive homotopy class (p, q).  Two curves are adjacent in the fine
graph of curves when they are disjoint or meet in exactly one point.
Realized curves are stored as one lifted period of a closed polyline:
exact rational vertices v_0 .. v_m with v_m = v_0 + (p, q).  Crossing
counts and the simplicity check are exact and run on one integer frame:
the vertices are scaled once by the lcm D of their denominators, every
segment test is integer arithmetic, and a segment pair tries only the
integer translates whose closed boxes meet.  Tangential or
vertex-touching contacts are rejected rather than guessed at.

The chain bound |V^n H^n| <= 2 is proved from the structure of the word,
not sampled: the inner factor is checked to be made of horizontal shears,
so it fixes the horizontal circle alpha, and the image of alpha is then a
graph meeting the vertical circle beta once; only alpha . beta = 1 is
counted.  The independent intersection oracle uses one offset that a
short lemma shows cannot degenerate.

The quantitative constants live at the bottom: the width-to-length
constant 1/max(888c, 1110), the imported curve-graph constant 1/222, and
the certificate arithmetic ruling out p/q-th roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dynamics import (
    Compose,
    HShear,
    MapExpr,
    Power,
    Profile,
    VShear,
    _steps,
    default_profile,
    eval_lift_array,
)
from .geometry import Point2Q, integer_frame, point, to_rational


class CurveError(ValueError):
    """Invalid curve data."""


class NonSimpleCurveError(CurveError):
    """A realized curve crosses itself."""


class DegenerateIntersectionError(CurveError):
    """Tangential or vertex contact: the crossing count is not transverse."""


class ChainVerificationError(RuntimeError):
    """A step of an adjacency-chain verification failed.

    Carries the failing stage and, for crossing-count failures, the
    offending count.
    """

    def __init__(self, stage: str, detail: str, *, crossing_count: int | None = None):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.crossing_count = crossing_count


@dataclass(frozen=True)
class CurveClass:
    """Primitive homotopy class (p, q) of an essential simple closed curve."""

    p: int
    q: int

    def __post_init__(self):
        if (self.p, self.q) == (0, 0):
            raise CurveError("(0, 0) is not an essential class")
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise CurveError(f"({self.p}, {self.q}) is not primitive")

    def as_point(self) -> Point2Q:
        return point(self.p, self.q)


def intersection_number(c1: CurveClass, c2: CurveClass) -> int:
    """Geometric intersection number of two classes: |p1 q2 - q1 p2|."""
    return abs(c1.p * c2.q - c1.q * c2.p)


# ---------------------------------------------------------------------------
# Realized curves

class RealizedCurve:
    """One lifted period of a closed polyline on the torus.

    `lifted_points` are exact rational plane points v_0 .. v_m whose
    endpoints differ by exactly the class vector (p, q); the torus curve
    is their projection mod 1.  Simplicity is verified on construction
    unless the polyline is monotone in one coordinate with unit span
    (a graph over a base circle, which cannot self-cross).  Both checks run
    on `_ints`, the vertices times `_denominator`, their lcm denominator.
    """

    __slots__ = ("lifted_points", "curve_class", "provenance", "_denominator", "_ints")

    def __init__(self, lifted_points: Sequence[Point2Q], curve_class: CurveClass,
                 provenance: str = ""):
        pts = list(lifted_points)
        if len(pts) < 2:
            raise CurveError("a curve needs at least two polyline points")
        cleaned = [pts[0]]
        for p in pts[1:]:
            if p != cleaned[-1]:
                cleaned.append(p)
        closure = cleaned[-1] - cleaned[0]
        if closure != curve_class.as_point():
            raise CurveError(
                f"polyline closes up by {closure}, class says ({curve_class.p}, {curve_class.q})"
            )
        self.lifted_points = tuple(cleaned)
        self.curve_class = curve_class
        self.provenance = provenance
        self._denominator, self._ints = integer_frame(cleaned)
        if not self._is_monotone_graph():
            self._verify_simple()

    def segments(self):
        return list(zip(self.lifted_points, self.lifted_points[1:]))

    def bounding_box(self):
        xs = [v.x for v in self.lifted_points]
        ys = [v.y for v in self.lifted_points]
        return min(xs), min(ys), max(xs), max(ys)

    def _is_monotone_graph(self) -> bool:
        pts = self._ints
        for coord, span in ((0, self.curve_class.p), (1, self.curve_class.q)):
            if abs(span) == 1 and all((w[coord] - v[coord]) * span > 0
                                      for v, w in zip(pts, pts[1:])):
                return True
        return False

    def _verify_simple(self):
        _, segs = _frame(self, self._denominator)
        m = len(segs)
        p, q = self.curve_class.p, self.curve_class.q
        for a, b, di, dj, contact in _contacts(segs, segs, self._denominator):
            if (di, dj) == (0, 0) and b <= a:
                continue
            # a translate by k periods, k (p, q) with (p, q) primitive, moves
            # segment b to b + k*m on the bi-infinite chained polyline
            k = (di // p if p else dj // q) if di * q == dj * p else None
            if k is not None and b + k * m == a:
                continue  # the same chained segment
            t, u, den = (0, 0, 1) if contact == "overlap" else contact
            if 0 < t < den and 0 < u < den:
                raise NonSimpleCurveError(f"segments {a} and {b} (offset {di},{dj}) cross")
            # endpoint contact: fine only between consecutive chained
            # segments that do not double back
            if k is not None and b + k * m in (a - 1, a + 1):
                (_, _, ax, ay), (_, _, bx, by) = segs[a][0], segs[b][0]
                if ax * by - ay * bx != 0 or ax * bx + ay * by > 0:
                    continue
            raise NonSimpleCurveError(
                f"segments {a} and {b} (offset {di},{dj}) touch degenerately"
            )


def _frame(curve: RealizedCurve, D: int):
    """The curve's vertices and segments in the integer frame of
    denominator D, a multiple of the curve's own.  A segment is its start
    and direction (x, y, dx, dy) with its closed box (xlo, xhi, ylo, yhi)."""
    c = D // curve._denominator
    pts = [(x * c, y * c) for x, y in curve._ints]
    segs = [((x0, y0, x1 - x0, y1 - y0), (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1)))
            for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
    return pts, segs


def _contacts(segs_a, segs_b, D: int):
    """Every contact (ia, ib, di, dj, contact) of a segment of segs_a with
    an integer translate (di, dj) of a segment of segs_b, as classified by
    `_segment_contact`.  Only the translates whose closed box meets the
    other box are tried: disjoint boxes hold no contact."""
    for ia, (sa, (axlo, axhi, aylo, ayhi)) in enumerate(segs_a):
        for ib, (sb, (bxlo, bxhi, bylo, byhi)) in enumerate(segs_b):
            for di in range(-((bxhi - axlo) // D), (axhi - bxlo) // D + 1):
                for dj in range(-((byhi - aylo) // D), (ayhi - bylo) // D + 1):
                    contact = _segment_contact(sa, sb, di * D, dj * D)
                    if contact is not None:
                        yield ia, ib, di, dj, contact


def _segment_contact(s1, s2, ox: int, oy: int):
    """Contact of the closed segments s1 and s2 + (ox, oy), each given as
    (x, y, dx, dy) in one integer frame.

    Returns None when they do not meet, "overlap" when they are collinear
    and share a point, and otherwise (t, u, den) with den > 0 and both t, u
    in [0, den]: the one common point is s1 + (t/den) d1 = s2 + (u/den) d2.
    """
    x1, y1, dx1, dy1 = s1
    x2, y2, dx2, dy2 = s2
    wx, wy = x2 + ox - x1, y2 + oy - y1
    den = dx1 * dy2 - dy1 * dx2
    if den == 0:
        if dx1 * wy - dy1 * wx != 0:
            return None  # parallel, distinct lines
        # collinear: overlap iff parameter intervals intersect
        t0 = dx1 * wx + dy1 * wy
        t1 = t0 + dx1 * dx2 + dy1 * dy2
        if max(t0, t1) >= 0 and min(t0, t1) <= dx1 * dx1 + dy1 * dy1:
            return "overlap"
        return None
    t = wx * dy2 - wy * dx2
    u = wx * dy1 - wy * dx1
    if den < 0:
        t, u, den = -t, -u, -den
    if 0 <= t <= den and 0 <= u <= den:
        return t, u, den
    return None


def _chained_neighbors(pts, j: int, ox: int, oy: int):
    """Vertices before and after joint j of the bi-infinite chained polyline
    whose one period is pts (pts[-1] - pts[0] is the class vector),
    translated by (ox, oy)."""
    (xp, yp), (xn, yn) = pts[j - 1] if j >= 1 else pts[-2], pts[j + 1]
    if j == 0:
        xp, yp = xp - pts[-1][0] + pts[0][0], yp - pts[-1][1] + pts[0][1]
    return (xp + ox, yp + oy), (xn + ox, yn + oy)


def _check_joint_crossing(line, prev, nxt) -> None:
    """A polyline must pass transversally through the line of the segment
    `line` at a joint with the given neighbors; tangential touches are
    degenerate."""
    x, y, dx, dy = line
    s1 = dx * (prev[1] - y) - dy * (prev[0] - x)
    s2 = dx * (nxt[1] - y) - dy * (nxt[0] - x)
    if s1 == 0 or s2 == 0:
        raise DegenerateIntersectionError("collinear neighbor at a joint contact")
    if (s1 > 0) == (s2 > 0):
        raise DegenerateIntersectionError("tangential touch at a polyline joint")


def torus_crossing_count(a: RealizedCurve, b: RealizedCurve) -> int:
    """Number of transverse intersection points of two torus curves.

    Counts crossings of one period of `a` against every integer translate
    of one period of `b`; each event is a distinct torus point.  A crossing
    exactly at a polyline joint is attributed to the segment that starts
    there and counted only if the curve genuinely changes sides;
    tangential contacts, joint-on-joint hits, and collinear overlaps raise
    DegenerateIntersectionError.

    Every test is on Python ints: both curves are scaled once by the lcm D
    of their vertex denominators, contact parameters t/den are compared as
    0 <= t <= den, and each segment pair tries only the translates whose
    closed boxes meet, di in [ceil((a_xlo - b_xhi)/D), floor((a_xhi - b_xlo)/D)]
    and likewise dj.
    """
    D = math.lcm(a._denominator, b._denominator)
    pts_a, segs_a = _frame(a, D)
    pts_b, segs_b = _frame(b, D)
    count = 0
    for ia, ib, di, dj, contact in _contacts(segs_a, segs_b, D):
        if contact == "overlap":
            raise DegenerateIntersectionError(f"collinear overlap at translate ({di}, {dj})")
        t, u, den = contact
        a_interior = 0 < t < den
        b_interior = 0 < u < den
        if a_interior and b_interior:
            count += 1
        elif t in (0, den) and u in (0, den):
            raise DegenerateIntersectionError(
                f"joint-on-joint contact at translate ({di}, {dj})"
            )
        elif a_interior and u == 0:
            _check_joint_crossing(segs_a[ia][0], *_chained_neighbors(pts_b, ib, di * D, dj * D))
            count += 1
        elif b_interior and t == 0:
            # sides of b's line, with a moved by -(di, dj) instead
            _check_joint_crossing(segs_b[ib][0], *_chained_neighbors(pts_a, ia, -di * D, -dj * D))
            count += 1
        # t == den or u == den contacts are counted at the joint's
        # starting segment, possibly in another translate
    return count


def straight_curve(cls: CurveClass, offset: Point2Q | tuple = (0, 0)) -> RealizedCurve:
    """The straight-line (geodesic) representative through `offset`."""
    if not isinstance(offset, Point2Q):
        offset = point(*offset)
    return RealizedCurve([offset, offset + cls.as_point()], cls,
                         provenance=f"straight ({cls.p},{cls.q})")


def line_image_curve(expr: MapExpr, cls: CurveClass, offset: Point2Q | tuple,
                     samples: int = 256) -> RealizedCurve:
    """Image of a straight representative under a lift, as a sampled
    polyline with vertices snapped to exact rationals.

    The lift commutes with integer translations, so the image closes up by
    exactly the class vector; closure is enforced exactly after snapping.
    """
    if samples < 2:
        raise CurveError("need at least two samples")
    if not isinstance(offset, Point2Q):
        offset = point(*offset)
    ts = np.arange(samples + 1) / samples
    base = np.empty((samples + 1, 2))
    base[:, 0] = float(offset.x) + ts * cls.p
    base[:, 1] = float(offset.y) + ts * cls.q
    img = eval_lift_array(expr, base)
    pts = [point(Fraction(float(x)), Fraction(float(y))) for x, y in img[:-1]]
    pts.append(pts[0] + cls.as_point())
    return RealizedCurve(pts, cls, provenance=f"image of ({cls.p},{cls.q})")


def geometric_intersection_count(c1: CurveClass, c2: CurveClass) -> int:
    """Independent crossing-count oracle via straight representatives.

    Counts the transverse crossings of the segment from 0 to (p, q) with
    every integer translate of the segment from delta to delta + (r, s),
    where delta = (1/M, 1/M^2) and M = |p| + |q| + |r| + |s| + 2.  This
    offset cannot degenerate: a segment endpoint lies on a translate of the
    other line only if delta x (r, s) or delta x (p, q) is an integer, and
    delta x (r, s) = (sM - r)/M^2 with 0 < |sM - r| < M^2 (likewise for
    (p, q)).  The same condition rules out collinear parallel lines.
    Agrees with `intersection_number` but never uses its formula.

    Every test is an int64 sign check: with the offsets scaled by M^2 and
    the class vectors left unscaled, every product stays below M^4, so
    classes with 2 M^4 >= 2^63 are refused with CurveError.
    """
    p, q, r, s = c1.p, c1.q, c2.p, c2.q
    M = abs(p) + abs(q) + abs(r) + abs(s) + 2
    if 2 * M**4 >= 2**63:
        raise CurveError(f"({p},{q}) x ({r},{s}) is too large for the int64 oracle")
    den = M * M
    # translates (i, j) whose segment can reach the first one's box
    ii, jj = np.meshgrid(
        np.arange(min(0, p) - max(0, r) - 1, max(0, p) - min(0, r) + 1, dtype=np.int64),
        np.arange(min(0, q) - max(0, s) - 1, max(0, q) - min(0, s) + 1, dtype=np.int64),
        indexing="ij")
    wx = ii * den + M  # den * (delta + (i, j))
    wy = jj * den + 1
    denom = den * (p * s - q * r)
    if denom == 0:
        if np.any(wx * q == wy * p):
            raise DegenerateIntersectionError("collinear straight representatives")
        return 0
    t_num = wx * s - wy * r
    u_num = wx * q - wy * p
    if denom < 0:
        t_num, u_num, denom = -t_num, -u_num, -denom
    on_edge = ((t_num == 0) | (t_num == denom)) & (u_num >= 0) & (u_num <= denom)
    on_edge |= ((u_num == 0) | (u_num == denom)) & (t_num >= 0) & (t_num <= denom)
    if np.any(on_edge):
        raise DegenerateIntersectionError("crossing on a segment endpoint")
    inside = (t_num > 0) & (t_num < denom) & (u_num > 0) & (u_num < denom)
    return int(np.count_nonzero(inside))


def fine_adjacent(a: RealizedCurve, b: RealizedCurve) -> bool:
    """Fine-graph adjacency on the torus: disjoint or meeting once."""
    return torus_crossing_count(a, b) <= 1


# ---------------------------------------------------------------------------
# Translation length bounds

_PROVENANCES = ("adjacency_chain", "width_lower_bound", "curve_graph_constant")


@dataclass(frozen=True)
class TranslationLengthBound:
    """A provenance-carrying one-sided bound on the asymptotic translation
    length of a torus map acting on the fine graph of curves."""

    kind: str  # "upper" | "lower"
    value: Fraction
    provenance: str

    def __post_init__(self):
        if self.kind not in ("upper", "lower"):
            raise ValueError(f"bad bound kind {self.kind!r}")
        if self.provenance not in _PROVENANCES:
            raise ValueError(f"bad provenance {self.provenance!r}")
        object.__setattr__(self, "value", to_rational(self.value))
        if self.value < 0:
            raise ValueError("translation length bounds are nonnegative")


@dataclass
class ChainBoundReport:
    """Verified two-edge chain alpha -- beta -- f(alpha) for f = V^n H^n."""

    n: int
    profile_kind: str
    bound: TranslationLengthBound
    crossing_count: int
    alpha_beta_crossings: int


def chain_bound_vnhn(n: int, profile: Profile | None = None, *,
                     gn_substitution: bool = False) -> ChainBoundReport:
    """Verify the adjacency chain giving |V^n H^n| <= 2 in the fine graph.

    alpha is the horizontal circle {y = 1/3} and beta the vertical circle
    {x = 1/3}.  Steps, each of which fails loudly:
      1. every generator of the inner factor is a horizontal shear, checked
         exactly on the expression.  H^k moves only x, by k*phi(y), which
         is constant on alpha; so the inner factor maps alpha onto itself
         by a rotation x -> x + c.
      2. hence f(alpha) meets beta exactly once: along the image of alpha
         under the inner factor the x-coordinate is x + c, and the outer
         factor V^n leaves x alone, so f(alpha) is the graph of a function
         over the horizontal circle, and such a graph meets every vertical
         circle in exactly one point.  `crossing_count` records this 1.
      3. alpha and beta themselves meet exactly once (exact crossing count
         of the straight curves).
    Then d(alpha, f(alpha)) <= d(alpha, beta) + d(beta, f(alpha)) = 2 for
    every iterate, hence the asymptotic translation length is at most 2.

    With `gn_substitution` the inner factor is replaced by (V H)^n, whose
    vertical shear fails step 1 and exercises the error path.
    """
    if n < 1:
        raise CurveError("n must be >= 1")
    prof = profile or default_profile()
    if gn_substitution:
        inner: MapExpr = Power(Compose((VShear(prof, 1), HShear(prof, 1))), n)
    else:
        inner = HShear(prof, n)

    for step in _steps(inner):
        if not isinstance(step, HShear):
            raise ChainVerificationError(
                "inner_fixes_alpha",
                f"inner factor applies {step!r}, which is not a horizontal shear",
            )

    third = Fraction(1, 3)
    alpha = straight_curve(CurveClass(1, 0), point(0, third))
    beta = straight_curve(CurveClass(0, 1), point(third, 0))
    ab = torus_crossing_count(alpha, beta)
    if ab != 1:
        raise ChainVerificationError(
            "alpha_meets_beta_once", f"crossing count {ab}", crossing_count=ab
        )

    bound = TranslationLengthBound("upper", Fraction(2), "adjacency_chain")
    return ChainBoundReport(n=n, profile_kind=prof.kind, bound=bound, crossing_count=1,
                            alpha_beta_crossings=ab)


# ---------------------------------------------------------------------------
# Quantitative constants and certificates

def t0_constant() -> Fraction:
    """Imported lower bound 1/222 for the translation length of torus maps
    whose rotation set contains the three unit-triangle lattice points in
    its interior.  Reproducing it would require pseudo-Anosov curve-graph
    machinery; only the downstream arithmetic is checked here."""
    return Fraction(1, 222)


def m_bound(c) -> Fraction:
    """The width-to-length constant 1/max(888c, 1110), exactly."""
    c = to_rational(c)
    if c <= 0:
        raise ValueError("c must be positive")
    return 1 / max(888 * c, Fraction(1110))


def length_lower_bound(ew, c) -> TranslationLengthBound:
    """Lower bound m_c * ew on the translation length, valid when the
    essential width of the rotation set is ew and ew <= c."""
    ew = to_rational(ew)
    c = to_rational(c)
    if ew <= 0:
        raise ValueError("essential width must be positive")
    if ew > c:
        raise ValueError(f"bound requires ew <= c, got {ew} > {c}")
    return TranslationLengthBound("lower", m_bound(c) * ew, "width_lower_bound")


@dataclass
class RootCertificate:
    """Exact-arithmetic verdict on the existence of p/q-th roots.

    A map h is a p/q-th root of f when h^p = f^q.  Given the essential
    width `ew` of f's rotation set and an upper bound `length_upper` on
    |f|, a root with p/q >= ew would have a rotation set of essential
    width (q/p)*ew <= 1 and translation length at most (q/p)*length_upper,
    while the c=1 width-to-length bound forces at least m1*(q/p)*ew.
    Cancelling q/p: m1*ew <= length_upper.  So length_upper < m1*ew rules
    out every p/q-th root with p/q >= ew.

    The verdict is `no_roots_above_threshold` only when every inequality
    in the transcript holds exactly; `recheck()` re-runs them.
    """

    ew: Fraction
    length_upper: Fraction
    threshold: Fraction
    verdict: str
    inequalities: tuple
    transcript: str

    def recheck(self) -> bool:
        ops = {"<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
               "==": lambda a, b: a == b, ">": lambda a, b: a > b}
        return all(ops[op](lhs, rhs) for _, lhs, op, rhs in self.inequalities)

    def verdict_line(self) -> str:
        return f"VERDICT: {self.verdict} THRESHOLD: {self.threshold}"


def certify_no_roots(ew, length_upper) -> RootCertificate:
    """Decide whether the pair (ew, length_upper) rules out p/q-th roots
    with p/q >= ew, and produce an exact transcript either way."""
    ew = to_rational(ew)
    length_upper = to_rational(length_upper)
    if ew <= 0:
        raise ValueError("essential width must be positive")
    if length_upper < 0:
        raise ValueError("length upper bound must be nonnegative")

    m1 = m_bound(1)
    conclusive = length_upper < m1 * ew
    checks = [
        ("m1 equals 1/1110", m1, "==", Fraction(1, 1110)),
        ("m1 equals t0/5", m1, "==", t0_constant() / 5),
    ]
    if conclusive:
        checks.append(("length bound beats m1*ew", length_upper, "<", m1 * ew))
    verdict = "no_roots_above_threshold" if conclusive else "inconclusive"

    lines = [
        "no-root certificate",
        f"  essential width of the rotation set: EW = {ew}",
        f"  upper bound on the translation length: L = {length_upper}",
        f"  width-to-length constant at c = 1: m1 = {m1}",
        "  hypothetical p/q-th root g of f (g^p = f^q) with p/q >= EW:",
        f"    EW(rho(g)) = (q/p) * EW <= 1        [powers scale the rotation set]",
        f"    |g| <= (q/p) * L                     [powers scale the length]",
        f"    |g| >= m1 * EW(rho(g))               [width-to-length bound, c = 1]",
        f"    cancelling q/p: m1 * EW <= L, i.e. {m1 * ew} <= {length_upper}",
    ]
    if conclusive:
        lines.append(
            f"  but L = {length_upper} < m1 * EW = {m1 * ew}: contradiction."
        )
        lines.append(f"  no p/q-th root exists with p/q >= {ew}.")
    else:
        lines.append(
            f"  the strict inequality L < m1 * EW fails"
            f" ({length_upper} >= {m1 * ew}): no conclusion."
        )
    cert = RootCertificate(
        ew=ew, length_upper=length_upper, threshold=ew, verdict=verdict,
        inequalities=tuple(checks), transcript="",
    )
    lines.append(cert.verdict_line())
    cert.transcript = "\n".join(lines) + "\n"
    return cert
