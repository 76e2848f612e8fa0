"""Spans around the calls into each layer, installed from outside the
program for the traced run only.

`install(tracer)` rebinds public functions in the rotwidth module
namespaces (and methods on their classes) to wrappers that open and close
a span; the untraced run never calls it, so it runs the program as is.
Counts marked *computed* are derived by the benchmark from public inputs
and results (argument sizes, `EWResult.enum_radius`, `bounding_box()`),
not counted inside the program.
"""

from __future__ import annotations

import functools
import json
import math
import re
import types
from collections import defaultdict
from time import perf_counter_ns

import numpy as np


class Tracer:
    """In-memory span log: (name, start_ns, end_ns, parent index, item id)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.item_ids: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.item_id = -1

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.item_ids.append(self.item_id)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the part of it that its
        child spans cover, so nested calls are not counted twice."""
        child = [0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i] - child[i]) / 1e9
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "item"],
                       "spans": list(zip(self.names, self.starts, self.ends,
                                         self.parents, self.item_ids))}, fh)


def _wrap(tracer: Tracer, owner, attr: str, name: str, after=None) -> None:
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer.counts, args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)


@functools.lru_cache(maxsize=None)
def _directions_in_disk(radius: int) -> int:
    """Primitive (a, b) with b > 0, plus (1, 0), of norm at most radius."""
    total = 1 if radius >= 1 else 0
    for b in range(1, radius + 1):
        total += sum(1 for a in range(-radius, radius + 1)
                     if a * a + b * b <= radius * radius and math.gcd(abs(a), b) == 1)
    return total


def _after_ew(counts, args, kwargs, result):
    counts["geometry.ew_directions"] += _directions_in_disk(result.enum_radius)


def _after_interior(counts, args, kwargs, result):
    C = args[0]
    if C.dimension == 2:
        xmin, ymin, xmax, ymax = C.bounding_box()
        counts["geometry.interior_candidates"] += (
            max(0, math.ceil(xmax) - math.floor(xmin) - 1)
            * max(0, math.ceil(ymax) - math.floor(ymin) - 1))
    counts["geometry.interior_points"] += len(result)


def _after_rotset(counts, args, kwargs, result):
    points = result.grid * result.grid
    counts["dynamics.orbit_steps"] += points * result.iterates
    counts["dynamics.orbits"] += points
    counts["dynamics.converged_orbits"] += points * result.converged_fraction


def _after_crossings(counts, args, kwargs, result):
    a, b = args[0], args[1]
    axmin, aymin, axmax, aymax = a.bounding_box()
    bxmin, bymin, bxmax, bymax = b.bounding_box()
    translates = ((math.ceil(axmax - bxmin) + 1 - math.floor(axmin - bxmax))
                  * (math.ceil(aymax - bymin) + 1 - math.floor(aymin - bymax)))
    counts["finegraph.segment_tests"] += translates * len(a.segments()) * len(b.segments())


def install(tracer: Tracer) -> None:
    """Rebind the public layer functions to span-recording wrappers."""
    from rotwidth import dynamics, finegraph, flows, geometry, mapdsl

    def after_flow(counts, args, kwargs, result):
        field, x, t = args[0], args[1], args[2]
        if t == 0.0:
            return
        states = np.asarray(x).size // (2 if isinstance(field, flows.AnnulusField) else 1)
        counts["flows.rk4_steps"] += states * max(1, math.ceil(abs(t) / kwargs.get("step", 1e-3)))

    geo_cls = geometry.ConvexPolygonQ
    _wrap(tracer, geometry, "essential_width_detail", "geometry.essential_width", _after_ew)
    _wrap(tracer, geometry, "ew_oracle", "geometry.ew_oracle")
    _wrap(tracer, geometry, "interior_lattice_points", "geometry.interior_lattice_points",
          _after_interior)
    _wrap(tracer, geo_cls, "__init__", "geometry.polygon_build")
    _wrap(tracer, geo_cls, "translate", "geometry.polygon_build")
    _wrap(tracer, geo_cls, "scale", "geometry.polygon_build")
    _wrap(tracer, geometry, "apply_unimodular", "geometry.polygon_build")

    _wrap(tracer, dynamics, "rotation_set_estimate", "dynamics.rotation_set_estimate",
          _after_rotset)
    _wrap(tracer, dynamics, "eval_lift", "dynamics.eval_lift")
    _wrap(tracer, dynamics, "displacement", "dynamics.displacement")
    _wrap(tracer, mapdsl, "parse_map", "mapdsl.parse_map")

    _wrap(tracer, finegraph, "torus_crossing_count", "finegraph.torus_crossing_count",
          _after_crossings)
    _wrap(tracer, finegraph, "line_image_curve", "finegraph.line_image_curve")
    _wrap(tracer, finegraph, "chain_bound_vnhn", "finegraph.chain_bound_vnhn")
    _wrap(tracer, finegraph, "certify_no_roots", "finegraph.certify_no_roots")

    _wrap(tracer, flows, "flow", "flows.flow", after_flow)
    _wrap(tracer, flows, "quad", "flows.quad")
    _wrap(tracer, flows, "brentq", "flows.brentq")
    _wrap(tracer, flows, "verify_conjugacy", "flows.verify_conjugacy")
    _wrap(tracer, flows, "stopping_limit_experiment", "flows.stopping_limit_experiment")
    _wrap(tracer, flows, "annulus_model", "flows.annulus_model")
    _wrap(tracer, flows.ConleySection, "validate", "flows.conley_validate")
    _wrap(tracer, flows, "equivariant_arc_conjugacy", "flows.arc_conjugacy")


# Written to stderr by the child once `import rotwidth.cli` is done, so
# that only the set-up imports are read from the -X importtime output.
IMPORT_DONE_MARK = "perfbench: import done"

# Modules whose import self time is reported, as named by -X importtime.
ROTWIDTH_MODULES = ("rotwidth", "rotwidth.geometry", "rotwidth.dynamics", "rotwidth.mapdsl",
                    "rotwidth.finegraph", "rotwidth.flows", "rotwidth.verify",
                    "rotwidth.svg", "rotwidth.cli")

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)")


def _import_metric(module: str) -> str:
    return "import.rotwidth.pkg.s" if module == "rotwidth" else f"import.{module}.s"


def import_self_times(stderr_text: str) -> dict[str, float]:
    """Seconds of import self time from `python -X importtime` output:
    each rotwidth module on its own, and the numpy.* and scipy.* trees."""
    out = {_import_metric(m): 0.0 for m in ROTWIDTH_MODULES + ("numpy", "scipy")}
    for line in stderr_text.splitlines():
        m = _IMPORTTIME.match(line)
        if m is None:
            continue
        module = m.group(2)
        top = module.split(".")[0]
        if top in ("numpy", "scipy"):
            out[_import_metric(top)] += int(m.group(1)) / 1e6
        elif module in ROTWIDTH_MODULES:
            out[_import_metric(module)] += int(m.group(1)) / 1e6
    return out


# Counts the benchmark derives from public inputs and results.
COMPUTED = ("geometry.ew_directions", "geometry.interior_candidates",
            "geometry.interior_hit_ratio", "dynamics.orbit_steps",
            "dynamics.orbit_steps_per_s", "dynamics.converged_fraction",
            "finegraph.segment_tests", "flows.rk4_steps", "trace.wrapper_cost_s")


def wrapper_cost_s(spans: int, calls: int = 20000) -> float:
    """`spans` times the measured cost of one call through a wrapper
    around a no-op (the no-op call itself included)."""
    holder = types.SimpleNamespace(noop=lambda: None)
    _wrap(Tracer(), holder, "noop", "noop")
    t0 = perf_counter_ns()
    for _ in range(calls):
        holder.noop()
    return spans * (perf_counter_ns() - t0) / calls / 1e9


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_fraction")):
        return "ratio"
    return "count"


_SPANS = {
    "geometry": ("essential_width", "ew_oracle", "interior_lattice_points", "polygon_build"),
    "dynamics": ("rotation_set_estimate", "eval_lift", "displacement"),
    "mapdsl": ("parse_map",),
    "finegraph": ("torus_crossing_count", "line_image_curve", "chain_bound_vnhn",
                  "certify_no_roots"),
    "flows": ("flow", "quad", "brentq", "verify_conjugacy", "stopping_limit_experiment",
              "annulus_model", "conley_validate", "arc_conjugacy"),
}
_CALLS = ("geometry.essential_width", "flows.flow", "flows.quad", "flows.brentq")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced run: self time of every span name,
    call counts, and the computed work counts and ratios."""
    st = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counts
    out = {}
    for layer, spans in _SPANS.items():
        for span in spans:
            name = f"{layer}.{span}"
            out[f"{name}.s"] = st.get(name, 0.0)
            if name in _CALLS:
                out[f"{name}.calls"] = calls.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out["geometry.ew_directions"] = c["geometry.ew_directions"]
    out["geometry.interior_candidates"] = c["geometry.interior_candidates"]
    out["geometry.interior_hit_ratio"] = ratio(c["geometry.interior_points"],
                                               c["geometry.interior_candidates"])
    out["dynamics.orbit_steps"] = c["dynamics.orbit_steps"]
    out["dynamics.orbit_steps_per_s"] = ratio(c["dynamics.orbit_steps"],
                                              st.get("dynamics.rotation_set_estimate", 0.0))
    out["dynamics.converged_fraction"] = ratio(c["dynamics.converged_orbits"],
                                               c["dynamics.orbits"])
    out["finegraph.segment_tests"] = c["finegraph.segment_tests"]
    out["flows.rk4_steps"] = c["flows.rk4_steps"]
    out["trace.unattributed.s"] = st.get("item", 0.0)
    out["trace.spans"] = len(tracer.names)
    out["trace.wrapper_cost_s"] = wrapper_cost_s(len(tracer.names))
    return out
