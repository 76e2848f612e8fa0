"""Seeded input generators owned by the benchmark.

Nothing here imports rotwidth: every input is plain data (Fractions,
ints, floats, strings) built from `random.Random(seed)`, so a change to a
program helper such as `rotwidth.verify.random_polygon` cannot silently
change a workload.  The same (seed, size) always gives the same inputs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# The paper triangle: essential width 10/3, interior points (0,0), (1,0).
PAPER_TRIANGLE = ((Fraction(-1), Fraction(0)), (Fraction(2, 3), Fraction(5, 3)),
                  (Fraction(7, 3), Fraction(-5, 3)))

HOMOGENEITY_RATIOS = (Fraction(1, 2), Fraction(2), Fraction(7, 3))

# Every WIDE_EVERY-th polygon comes from the wide tail, which cycles
# through these box half-widths so that every run holds the same number
# of wide polygons of each size.
WIDE_EVERY = 10
WIDE_HALF_WIDTHS = (8, 12, 16)


def _c02_polygon(rng: random.Random) -> tuple:
    """Vertices as drawn by the c02 battery: 3..6 points, coordinates
    within [-10, 10], denominators up to 8."""
    pts = []
    for _ in range(rng.randint(3, 6)):
        dx = rng.randint(1, 8)
        dy = rng.randint(1, 8)
        pts.append((Fraction(rng.randint(-10 * dx, 10 * dx), dx),
                    Fraction(rng.randint(-10 * dy, 10 * dy), dy)))
    return tuple(pts)


def _rational_in(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    d = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * d, hi * d), d)


def _wide_polygon(rng: random.Random, half_width: int) -> tuple:
    """Two vertices on each side of a square box of the given half-width,
    centred anywhere that keeps coordinates within [-50, 50]; denominators
    up to 30.  Fixing the box fixes the interior-scan candidate count,
    which keeps the cost of the tail steady across seeds."""
    h = half_width
    cx = _rational_in(rng, -50 + h, 50 - h, 30)
    cy = _rational_in(rng, -50 + h, 50 - h, 30)
    x0, x1, y0, y1 = cx - h, cx + h, cy - h, cy + h

    def along(lo, hi):
        return _rational_in(rng, math.ceil(lo), math.floor(hi), 30)

    pts = []
    for _ in range(2):
        pts += [(along(x0, x1), y0), (x1, along(y0, y1)),
                (along(x0, x1), y1), (x0, along(y0, y1))]
    return tuple(pts)


def _unimodular(rng: random.Random, entry_bound: int = 20) -> tuple:
    """Entries (a, b, c, d) of a random product of elementary shears."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(rng.randint(1, 6)):
        m = rng.randint(-3, 3)
        if rng.random() < 0.5:
            cand = (a, a * m + b, c, c * m + d)
        else:
            cand = (a + b * m, b, c + d * m, d)
        if max(map(abs, cand)) <= entry_bound:
            a, b, c, d = cand
    return (a, b, c, d)


def width_battery_inputs(seed: int, count: int) -> list[dict]:
    """`count` polygons, each with its invariance transform and shift."""
    rng = random.Random(f"width-battery:{seed}")
    out = []
    for i in range(count):
        if i % WIDE_EVERY == WIDE_EVERY - 1:
            j = (i // WIDE_EVERY) % len(WIDE_HALF_WIDTHS)
            verts, kind = _wide_polygon(rng, WIDE_HALF_WIDTHS[j]), "wide"
        else:
            verts, kind = _c02_polygon(rng), "c02"
        out.append({
            "kind": kind,
            "vertices": verts,
            "unimodular": _unimodular(rng),
            "shift": (rng.randint(-5, 5), rng.randint(-5, 5)),
        })
    return out


def width_battery_canary() -> list[dict]:
    """Fixed polygons (independent of the run seed) whose exact outputs
    are compared with the digest recorded at the seed commit."""
    rng = random.Random("width-battery:canary")
    polys = [PAPER_TRIANGLE]
    polys += [_c02_polygon(rng) for _ in range(8)]
    polys += [_wide_polygon(rng, h) for h in WIDE_HALF_WIDTHS]
    polys.append(((Fraction(0), Fraction(0)), (Fraction(3, 2), Fraction(1, 2))))  # segment
    return [{"kind": "canary", "vertices": v, "unimodular": (1, 2, 0, 1),
             "shift": (1, -1)} for v in polys]


def paper_chain_ns(seed: int, pairs: int, n_max: int = 64) -> list[int]:
    """Values of n in antithetic pairs (n, n_max + 1 - n).

    The pairs (1, n_max) and (n_max/2, n_max/2 + 1) are always present:
    the ends of the chain's range, and the middle.  The other pairs are
    drawn without replacement from 2..n_max/2 - 1.  The cost of an item
    grows with n, so every run does about the same total work, and the
    median and the most expensive item are the same inputs on every seed."""
    rng = random.Random(f"paper-chain:{seed}")
    half = n_max // 2
    lows = [1, half][:pairs]
    lows += rng.sample(range(2, half), min(pairs - len(lows), half - 2))
    ns = []
    for n in lows:
        ns += [n, n_max + 1 - n]
    rng.shuffle(ns)
    return ns


def halton_seed(seed: int) -> int:
    return random.Random(f"halton:{seed}").randrange(2**31)


def pl_profile_text(seed: int) -> str:
    """A piecewise-linear speed profile: 0 at 0 and 1, exactly 1 at 1/2,
    seeded values in (0, 1) at t = 1/4 and 3/4."""
    rng = random.Random(f"pl-profile:{seed}")
    lo = Fraction(rng.randint(1, 9), 10)
    hi = Fraction(rng.randint(1, 9), 10)
    return (f"# seeded benchmark profile\n0 0\n1/4 {float(lo)}\n1/2 1\n"
            f"3/4 {float(hi)}\n1 0\n")


def rotset_dsl_map(seed: int, profile_path: str) -> tuple[str, int, int, tuple[int, int]]:
    """DSL text `T(a,b) (V^n H^n)^k @pl:<file>` with its n, k and shift.

    An integer translation commutes with the lift, so the rotation set is
    k * [0, n]^2 + (a, b)."""
    rng = random.Random(f"rotset-dsl:{seed}")
    n = rng.randint(1, 3)
    k = 2
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    return f"T({a},{b}) (V^{n} H^{n})^{k} @pl:{profile_path}", n, k, (a, b)


def flow_params(seed: int, index: int) -> dict:
    """Seeded parameters of one set of c08/c09 flow experiments, kept in
    ranges where every acceptance tolerance holds."""
    rng = random.Random(f"flow-lab:{seed}:{index}")
    return {
        "depth": rng.uniform(0.4, 0.6),
        "margin": rng.uniform(0.2, 0.3),
        "slow_field": rng.uniform(0.08, 0.1),
        "amplitude": rng.uniform(0.04, 0.06),
        "section_level": rng.uniform(0.4, 0.6),
        "arc_quadratic": rng.uniform(0.05, 0.15),
        "arc_target": rng.uniform(0.3, 0.45),
    }
