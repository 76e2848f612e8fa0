"""Verification suites shared by the command line and the acceptance tests.

Each suite runs a batch of checks and returns a SuiteResult with one line
per check; suites are deterministic given their seed.  Each suite imports
the layers it runs, so importing this module loads only rotwidth.geometry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import geometry as geo
from .geometry import ConvexPolygonQ, UnimodularMatrix, apply_unimodular, point


@dataclass
class CheckLine:
    label: str
    passed: bool
    detail: str = ""

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" ({self.detail})" if self.detail else ""
        return f"[{status}] {self.label}{suffix}"


@dataclass
class SuiteResult:
    name: str
    checks: list[CheckLine] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, label: str, passed: bool, detail: str = ""):
        self.checks.append(CheckLine(label, passed, detail))

    def format_lines(self) -> list[str]:
        lines = [c.format() for c in self.checks]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"suite {self.name}: {verdict}"
                     f" ({sum(c.passed for c in self.checks)}/{len(self.checks)} checks)")
        return lines


def random_polygon(rng: random.Random, *, coord_range: int = 10,
                   max_denominator: int = 8, max_vertices: int = 6) -> ConvexPolygonQ:
    """Random rational polygon with vertices in the given box."""
    pts = []
    for _ in range(rng.randint(3, max_vertices)):
        dx = rng.randint(1, max_denominator)
        dy = rng.randint(1, max_denominator)
        pts.append(point(Fraction(rng.randint(-coord_range * dx, coord_range * dx), dx),
                         Fraction(rng.randint(-coord_range * dy, coord_range * dy), dy)))
    return ConvexPolygonQ(pts)


def random_unimodular(rng: random.Random, *, entry_bound: int = 20) -> UnimodularMatrix:
    """Random product of elementary shears with entries within the bound."""
    M = UnimodularMatrix.identity()
    for _ in range(rng.randint(1, 6)):
        m = rng.randint(-3, 3)
        S = UnimodularMatrix(1, m, 0, 1) if rng.random() < 0.5 else UnimodularMatrix(1, 0, m, 1)
        cand = M @ S
        if max(abs(cand.a), abs(cand.b), abs(cand.c), abs(cand.d)) <= entry_bound:
            M = cand
    return M


_HOMOGENEITY_RATIOS = (Fraction(1, 2), Fraction(2), Fraction(7, 3))


def run_compare_width_suite(count: int = 10**4, seed: int = 7) -> SuiteResult:
    """Property battery over random rational polygons.

    Per polygon: essential width invariance under a random unimodular map
    plus integer translation (exact), homogeneity under scaling ratios
    {1/2, 2, 7/3} (exact), agreement with the brute-force direction oracle
    at the reported radius (exact), and both width-versus-interior-points
    implications.
    """
    if count < 1:
        raise ValueError(f"polygon count must be >= 1, got {count}")
    rng = random.Random(seed)
    result = SuiteResult(f"compare-width[count={count},seed={seed}]")
    inv_ok = hom_ok = orc_ok = cw_ok = 0
    for _ in range(count):
        C = random_polygon(rng)
        detail = geo.essential_width_detail(C)
        ew = detail.value

        A = random_unimodular(rng)
        z = point(rng.randint(-5, 5), rng.randint(-5, 5))
        moved = apply_unimodular(A, C).translate(z)
        inv_ok += geo.essential_width(moved) == ew

        hom_ok += all(geo.essential_width(C.scale(r)) == r * ew
                      for r in _HOMOGENEITY_RATIOS)

        if C.dimension == 2:
            orc_ok += geo.ew_oracle(C, detail.oracle_radius) == ew
        else:
            orc_ok += ew == 0

        cw_ok += geo.check_compare_width(C).ok

    result.add(f"unimodular + translation invariance exact: {inv_ok}/{count}",
               inv_ok == count)
    result.add(f"homogeneity exact for ratios 1/2, 2, 7/3: {hom_ok}/{count}",
               hom_ok == count)
    result.add(f"oracle equivalence at the reported radius: {orc_ok}/{count}",
               orc_ok == count)
    result.add(f"width/interior-points implications: {cw_ok}/{count}",
               cw_ok == count)
    return result


def run_vnhn_suite(max_n: int = 64) -> SuiteResult:
    """Adjacency-chain bound |V^n H^n| <= 2 for every n up to max_n, for
    both profile kinds, plus the (VH)^n substitution failure path."""
    from .dynamics import default_profile, tent_profile
    from .finegraph import ChainVerificationError, chain_bound_vnhn

    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    result = SuiteResult(f"vnhn[max_n={max_n}]")
    for prof_name, prof in (("sinsq", default_profile()), ("tent", tent_profile())):
        ok = 0
        worst = ""
        for n in range(1, max_n + 1):
            try:
                rep = chain_bound_vnhn(n, prof)
                if rep.crossing_count == 1 and rep.bound.value == 2:
                    ok += 1
                else:
                    worst = f"n={n}: crossings {rep.crossing_count}"
            except ChainVerificationError as exc:
                worst = f"n={n}: {exc}"
        result.add(f"chain bound 2 with crossing count 1, {prof_name} profile:"
                   f" {ok}/{max_n}", ok == max_n, worst)
    try:
        chain_bound_vnhn(max(2, min(4, max_n)), gn_substitution=True)
        result.add("(VH)^n substitution rejected", False, "no error raised")
    except ChainVerificationError as exc:
        result.add("(VH)^n substitution rejected", exc.stage == "inner_fixes_alpha",
                   f"stage {exc.stage}")
    return result


def run_power_scaling_suite(k: int = 3, grid: int = 48, iterates: int = 300, *,
                            seed: int = 0) -> SuiteResult:
    """Hausdorff comparison of the rotation set of (V H)^k against k times
    the rotation set of V H, at matched iterate budgets."""
    from .dynamics import power_scaling_check, vnhn

    rep = power_scaling_check(vnhn(1), k, grid, iterates, seed=seed)
    tol = 0.1 * k
    result = SuiteResult(f"power-scaling[k={k},grid={grid},iters={iterates}]")
    result.add(f"Hausdorff(estimate(expr^{k}), {k}*estimate(expr))"
               f" = {rep.distance:.3g} <= {tol:.3g}", rep.distance <= tol)
    return result


def run_flow_suite(floors, field) -> SuiteResult:
    """Stopping-limit experiment: the slowdown time-one maps must approach
    the stopping time-one map as the floors shrink."""
    from .flows import stopping_limit_experiment

    series = stopping_limit_experiment(field, floors)
    result = SuiteResult(f"flow[floors={','.join(str(f) for f in floors)}]")
    dists = ", ".join(f"{d:.4g}" for d in series.distances())
    result.add(f"sup-distance series weakly decreasing: [{dists}]",
               series.is_weakly_decreasing())
    result.add(f"final distance {series.final_distance:.4g} < 1e-2",
               series.final_distance < 1e-2)
    result.series = series  # attached for CSV emission
    return result
