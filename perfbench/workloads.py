"""The four benchmark workloads, each a list of items run serially.

An item is one unit of user-visible work (one polygon, one rotation-set
estimate, one `n` of the chain, one flow experiment).  Its function runs
the work through rotwidth's public API and checks every output, returning
the names of the checks that failed and a canonical text of its exact
outputs.  Checks count rather than abort.

Program functions are always called as module attributes (`geo.f(...)`,
never a name imported with `from ... import f`), so the traced run can
wrap them by rebinding the module attribute.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import inputs
from rotwidth import dynamics as dyn
from rotwidth import finegraph as fg
from rotwidth import flows
from rotwidth import geometry as geo
from rotwidth import mapdsl


@dataclass
class Outcome:
    failures: list[str]
    exact: str


@dataclass
class Item:
    label: str
    fn: Callable[[], Outcome]
    # Key of the digest recorded at the seed commit, for items whose exact
    # outputs do not depend on the run seed.
    ref_key: str | None = None
    # Work done once per run rather than per input: it counts in wall_s and
    # in the checks but not among the item latencies.
    per_run: bool = False


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _q(x: Fraction) -> str:
    return str(Fraction(x))


def _vertices(C) -> str:
    return " ".join(f"({_q(v.x)},{_q(v.y)})" for v in C.vertices)


def _box(lo_x, lo_y, side):
    return geo.ConvexPolygonQ([(lo_x, lo_y), (lo_x + side, lo_y),
                               (lo_x + side, lo_y + side), (lo_x, lo_y + side)])


# ---------------------------------------------------------------------------
# width-battery: the c02 property set on seeded rational polygons

POLYGONS_PER_SECOND = 35


def _polygon_item(p: dict, with_points: bool) -> Outcome:
    fails = []
    C = geo.ConvexPolygonQ(p["vertices"])
    detail = geo.essential_width_detail(C)
    ew = detail.value

    A = geo.UnimodularMatrix(*p["unimodular"])
    moved = geo.apply_unimodular(A, C).translate(p["shift"])
    if geo.essential_width(moved) != ew:
        fails.append("unimodular + translation invariance")
    for r in inputs.HOMOGENEITY_RATIOS:
        if geo.essential_width(C.scale(r)) != r * ew:
            fails.append(f"homogeneity at {r}")
    if C.dimension == 2:
        if geo.ew_oracle(C, detail.oracle_radius) != ew:
            fails.append("oracle at the reported radius")
    elif ew != 0:
        fails.append("degenerate polygon has width 0")
    verdict = geo.check_compare_width(C)
    if not verdict.ok:
        fails.append("width/interior-point implications")

    exact = f"{_vertices(C)} ew={_q(ew)} dir={detail.direction} three={verdict.has_three}"
    if with_points:
        exact += f" interior={geo.interior_lattice_points(C)}"
    return Outcome(fails, exact)


def width_battery(seed: int, seconds: float, work_dir: str) -> list[Item]:
    items = [Item(f"canary polygon {i}", lambda p=p: _polygon_item(p, True),
                  ref_key=f"canary:{i}")
             for i, p in enumerate(inputs.width_battery_canary())]
    count = max(10, round(POLYGONS_PER_SECOND * seconds))
    items += [Item(f"{p['kind']} polygon {i}", lambda p=p: _polygon_item(p, False))
              for i, p in enumerate(inputs.width_battery_inputs(seed, count))]
    return items


# ---------------------------------------------------------------------------
# rotset-wide: 256^2-grid rotation-set estimates with a short iterate budget

ROTSET_GRID = 256
ROTSET_ITERATES_PER_SECOND = 18

_HALF_INTEGER_POINTS = ((0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5))


def _fixed_point_checks(expr, n: int, k: int, shift) -> tuple[list[str], str]:
    """The four half-integer points are fixed on the torus, with exact
    displacement k * (n * corner) + shift, for T(shift) (V^n H^n)^k."""
    fails, parts = [], []
    for p in _HALF_INTEGER_POINTS:
        want = (k * n * 2 * p[1] + shift[0], k * n * 2 * p[0] + shift[1])
        img = dyn.eval_lift(expr, p)
        vec = dyn.displacement(expr, p, 1).vector
        if (img[0] % 1.0, img[1] % 1.0) != p:
            fails.append(f"fixed point {p} not fixed")
        if vec != want:
            fails.append(f"fixed point {p} displacement {vec} != {want}")
        parts.append(f"{p}->{img!r}:{vec!r}")
    return fails, " ".join(parts)


def _estimate_checks(est, box, fixed_points_sampled: bool = True) -> list[str]:
    fails = []
    side = box.vertices[1].x - box.vertices[0].x
    if fixed_points_sampled:
        dist = geo.hausdorff_distance(est.inner_hull, box)
        if not dist <= 0.05 * float(side):
            fails.append(f"Hausdorff(inner hull, box) = {dist:.3g} > {0.05 * float(side):.3g}")
    elif not geo.dilate_polygon_linf(box, side / 10**9).contains_polygon(est.inner_hull):
        # Halton points miss the exact fixed points, so a short budget leaves
        # the corners uncovered; every average still stays inside the box,
        # since every one-step displacement does.
        fails.append("inner hull leaves the box")
    if not est.outer_hull.contains_polygon(est.inner_hull):
        fails.append("outer hull does not contain the inner hull")
    if not est.converged_fraction > 0:
        fails.append("no orbit passed the convergence proxy")
    return fails


def _vnhn_estimate(n: int, iterates: int) -> Outcome:
    expr = dyn.vnhn(n)
    fails, exact = _fixed_point_checks(expr, n, 1, (0, 0))
    est = dyn.rotation_set_estimate(expr, ROTSET_GRID, iterates)
    fails += _estimate_checks(est, _box(0, 0, n))
    return Outcome(fails, exact)


def _halton_estimate(n: int, iterates: int, halton_seed: int) -> Outcome:
    est = dyn.rotation_set_estimate(dyn.vnhn(n), ROTSET_GRID, iterates,
                                    sampler="halton", seed=halton_seed)
    return Outcome(_estimate_checks(est, _box(0, 0, n), fixed_points_sampled=False), "")


def _dsl_estimate(dsl: tuple, iterates: int) -> Outcome:
    text, n, k, shift = dsl
    expr = mapdsl.parse_map(text)
    fails, exact = _fixed_point_checks(expr, n, k, shift)
    est = dyn.rotation_set_estimate(expr, ROTSET_GRID, iterates)
    fails += _estimate_checks(est, _box(shift[0], shift[1], k * n))
    return Outcome(fails, exact)


def rotset_wide(seed: int, seconds: float, work_dir: str) -> list[Item]:
    iterates = max(10, round(ROTSET_ITERATES_PER_SECOND * seconds))
    items = [Item(f"V^{n} H^{n} estimate", lambda n=n: _vnhn_estimate(n, iterates),
                  ref_key=f"vnhn:{n}")
             for n in (1, 2, 3, 4)]
    path = os.path.join(work_dir, f"profile-{seed}.pl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs.pl_profile_text(seed))
    dsl = inputs.rotset_dsl_map(seed, path)
    items.append(Item("DSL map estimate", lambda: _dsl_estimate(dsl, iterates)))
    hs = inputs.halton_seed(seed)
    items.append(Item("V^2 H^2 Halton estimate",
                      lambda: _halton_estimate(2, iterates, hs)))
    return items


# ---------------------------------------------------------------------------
# paper-chain: rotation set -> exact width -> chain bound -> certificate

CHAIN_N_PER_SECOND = 21
CHAIN_ESTIMATE_GRID = 32
CHAIN_ESTIMATE_ITERATES = 400
LENGTH_UPPER = Fraction(2)


def _expected_verdict(ew: Fraction) -> str:
    return ("no_roots_above_threshold" if LENGTH_UPPER < Fraction(1, 1110) * ew
            else "inconclusive")


def chain_item(n: int) -> Outcome:
    fails = []
    expr = mapdsl.parse_map(f"V^{n} H^{n}")
    est = dyn.rotation_set_estimate(expr, CHAIN_ESTIMATE_GRID, CHAIN_ESTIMATE_ITERATES)
    fails += _estimate_checks(est, _box(0, 0, n))
    detail = geo.essential_width_detail(est.inner_hull)
    if detail.value != n:
        fails.append(f"EW(inner hull) = {detail.value} != {n}")

    reports = []
    for prof in (dyn.default_profile(), dyn.tent_profile()):
        rep = fg.chain_bound_vnhn(n, prof)
        if rep.crossing_count != 1 or rep.bound.value != 2:
            fails.append(f"chain bound ({prof.kind}): crossings {rep.crossing_count},"
                         f" bound {rep.bound.value}")
        reports.append(f"{rep.profile_kind}:{rep.crossing_count}:{rep.alpha_beta_crossings}"
                       f":{rep.bound.kind}:{rep.bound.value}:{rep.bound.provenance}")

    gamma = fg.line_image_curve(expr, fg.CurveClass(1, 0), geo.point(0, Fraction(1, 3)),
                                samples=256)
    beta = fg.straight_curve(fg.CurveClass(0, 1), geo.point(Fraction(1, 3), 0))
    crossings = fg.torus_crossing_count(gamma, beta)
    if crossings != 1:
        fails.append(f"image of alpha meets beta {crossings} times")

    cert = fg.certify_no_roots(detail.value, LENGTH_UPPER)
    if not cert.recheck():
        fails.append("certificate recheck")
    if cert.verdict != _expected_verdict(detail.value):
        fails.append(f"verdict {cert.verdict}")
    exact = (f"n={n} ew={_q(detail.value)} dir={detail.direction} {' '.join(reports)}"
             f" crossings={crossings}\n{cert.transcript}")
    return Outcome(fails, exact)


def verdict_pair() -> Outcome:
    fails, texts = [], []
    for ew in (2221, 2220):
        cert = fg.certify_no_roots(ew, LENGTH_UPPER)
        if cert.verdict != _expected_verdict(Fraction(ew)) or not cert.recheck():
            fails.append(f"certificate for EW={ew}: {cert.verdict}")
        texts.append(cert.transcript)
    return Outcome(fails, "".join(texts))


def _chain_ns(seed: int, seconds: float) -> list[int]:
    n_max = max(4, min(64, round(8 * seconds)))
    pairs = max(1, round(CHAIN_N_PER_SECOND * seconds / (n_max + 1)))
    return inputs.paper_chain_ns(seed, pairs, n_max)


def paper_chain(seed: int, seconds: float, work_dir: str) -> list[Item]:
    items = [Item("EW 2221/2220 verdicts", verdict_pair, ref_key="verdicts", per_run=True)]
    items += [Item(f"chain n={n}", lambda n=n: chain_item(n), ref_key=f"n={n}")
              for n in _chain_ns(seed, seconds)]
    return items


# ---------------------------------------------------------------------------
# flow-lab: the c08/c09 conjugacy, stopping-limit and annulus experiments

FLOW_SET_SECONDS = 11.0
STOPPING_FLOORS = (0.5, 0.25, 0.1, 0.05, 0.02)


def _conjugacy(prm) -> Outcome:
    s = flows.box_profile(0.0, 1.0, depth=prm["depth"], margin=prm["margin"])
    rep = flows.verify_conjugacy(flows.constant_field(1.0), slowdown=s, step=1e-3, tol=1e-4)
    ok = rep.sup_residual < 1e-4
    return Outcome([] if ok else [f"conjugacy residual {rep.sup_residual:.3g}"], str(ok))


def _tail_shifts(prm) -> Outcome:
    s = flows.box_profile(0.0, 1.0, depth=prm["depth"], margin=prm["margin"])
    conj = flows.slowdown_conjugacy_1d(s)
    lower = np.linspace(conj.lower_tail_start - 4, conj.lower_tail_start - 1, 7)
    upper = np.linspace(conj.upper_tail_start + 1, conj.upper_tail_start + 4, 7)
    dev = max(max(abs(conj.map(x) - x - conj.t_minus) for x in lower),
              max(abs(conj.map(x) - x - conj.t_plus) for x in upper))
    ok = dev < 1e-8
    return Outcome([] if ok else [f"tail deviation {dev:.3g}"], str(ok))


def _stopping(prm) -> Outcome:
    series = flows.stopping_limit_experiment(flows.constant_field(prm["slow_field"]),
                                             list(STOPPING_FLOORS))
    fails = []
    if not series.is_weakly_decreasing():
        fails.append(f"stopping series not decreasing: {series.distances()}")
    if not series.final_distance < 1e-2:
        fails.append(f"final distance {series.final_distance:.3g}")
    return Outcome(fails, str(not fails))


def _annulus(prm) -> Outcome:
    rep = flows.annulus_model(flows.make_annulus_tau(1.0),
                              flows.make_annulus_v(prm["amplitude"]), expected_period=1.0)
    fails = [f"checklist: {i.name}" for i in rep.items if not i.passed]
    if rep.degenerate_fibered_rotation or abs(rep.measured_period - 1.0) >= 1e-3:
        fails.append(f"period {rep.measured_period}")
    return Outcome(fails, str(not fails))


def _annulus_degenerate(prm) -> Outcome:
    rep = flows.annulus_model(flows.make_annulus_tau(1.0), lambda y: 0.0 * np.asarray(y))
    ok = rep.degenerate_fibered_rotation and not rep.items[1].passed
    return Outcome([] if ok else ["degenerate case not flagged"], str(ok))


def _conley(prm) -> Outcome:
    fld = flows.AnnulusField(tau=flows.make_annulus_tau(1.0),
                             v=flows.make_annulus_v(prm["amplitude"]))
    rep = flows.ConleySection(level=prm["section_level"]).validate(fld, horizon=30.0)
    ok = rep.max_crossings == 0 and rep.future_side == "below"
    return Outcome([] if ok else [f"section report {rep}"], str(ok))


def _arc(prm) -> Outcome:
    c, t = prm["arc_quadratic"], prm["arc_target"]
    ac = flows.equivariant_arc_conjugacy(lambda x: 0.5 * x + c * x * abs(x),
                                         lambda x: t * x)
    ok = ac.residual < 1e-6
    return Outcome([] if ok else [f"arc residual {ac.residual:.3g}"], str(ok))


_FLOW_EXPERIMENTS = (
    ("conjugacy", _conjugacy), ("tail shifts", _tail_shifts),
    ("stopping limit", _stopping), ("annulus model", _annulus),
    ("degenerate annulus", _annulus_degenerate), ("Conley section", _conley),
    ("arc conjugacy", _arc),
)


def flow_lab(seed: int, seconds: float, work_dir: str) -> list[Item]:
    items = []
    for index in range(max(1, round(seconds / FLOW_SET_SECONDS))):
        prm = inputs.flow_params(seed, index)
        items += [Item(f"{name} [{index}]", lambda fn=fn, prm=prm: fn(prm))
                  for name, fn in _FLOW_EXPERIMENTS]
    return items


WORKLOADS = {
    "width-battery": width_battery,
    "rotset-wide": rotset_wide,
    "paper-chain": paper_chain,
    "flow-lab": flow_lab,
}
