"""Command-line front end.

Subcommands: ew (exact essential width of a polygon file), rotset
(rotation-set estimate and certified outer box of a map DSL expression),
roots (no-root certificates), verify (verification suites), flow
(stopping-limit experiment), search (random search for wide polygons
with few interior lattice points; reporting only, no claims).

Each subcommand imports the layers it runs when it runs, so the import
of this module loads only the standard library and rotwidth.geometry.
ew, search and verify --suite compare-width run on exact geometry alone
and load neither NumPy nor SciPy.  roots, rotset and verify --suite vnhn
or power-scaling load NumPy; rotset --sampler halton loads
scipy.stats as well.  flow and verify --suite flow load SciPy's quad and
brentq.

Exit codes: 0 success, 1 verification failure, 2 input error.  Each
subcommand runs first and prints afterwards, so an input error exits 2
with empty stdout.  Every finished run prints a reproducibility header;
with --no-meta, outputs contain no timing or other non-reproducible
fields, so identical invocations produce byte-identical text.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction

from . import __version__
from . import geometry as geo
from .geometry import PolygonFormatError, hausdorff_distance

OK, VERIFY_FAILED, INPUT_ERROR = 0, 1, 2


def _header(cmd: str, seed, params: str) -> str:
    return f"# rotwidth {__version__} | {cmd} | seed={seed} | {params}"


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def cmd_ew(args) -> int:
    C = geo.load_polygon(args.polygon)
    detail = geo.essential_width_detail(C)
    oracle = None if args.oracle_radius is None else geo.ew_oracle(C, args.oracle_radius)
    print(_header("ew", "-", f"file={args.polygon} oracle_radius={args.oracle_radius}"))
    print(f"EW = {detail.value}")
    print(f"direction = ({detail.direction[0]}, {detail.direction[1]})")
    print(f"dimension = {C.dimension}")
    if oracle is not None:
        agrees = "agrees" if oracle == detail.value else "DISAGREES"
        print(f"oracle(radius={args.oracle_radius}) = {oracle} [{agrees}]")
        if oracle != detail.value and args.oracle_radius >= detail.oracle_radius:
            return VERIFY_FAILED
    return OK


def cmd_rotset(args) -> int:
    from .dynamics import rotation_set_estimate
    from .mapdsl import DslParseError, format_caret, parse_map
    from .svg import rotation_set_svg

    if args.expect_box is not None and args.expect_box < 1:
        raise ValueError(f"--expect-box must be >= 1, got {args.expect_box}")
    try:
        expr = parse_map(args.expr)
    except DslParseError as exc:
        print("map DSL parse error:", file=sys.stderr)
        print(format_caret(args.expr, exc), file=sys.stderr)
        return INPUT_ERROR
    est = rotation_set_estimate(expr, args.grid, args.iters,
                                sampler=args.sampler, seed=args.seed)
    print(_header("rotset", args.seed,
                  f'expr="{args.expr}" grid={args.grid} iters={args.iters}'
                  f" sampler={args.sampler}"))
    x0, y0, x1, y1 = est.outer_hull.bounding_box()
    print(f"inner hull vertices = {len(est.inner_hull.vertices)}")
    print(f"converged fraction = {est.converged_fraction:.4f}")
    print(f"certified outer box = [{x0}, {x1}] x [{y0}, {y1}]")
    print(f"EW of the outer box = {geo.essential_width(est.outer_hull)} (certified upper bound)")
    ix0, iy0, ix1, iy1 = est.inner_hull.bounding_box()
    excess = max(0, x0 - ix0, ix1 - x1, y0 - iy0, iy1 - y1)
    tol = 8 * math.ulp(float(max(1, -x0, x1, -y0, y1)))
    if excess:
        print(f"inner hull leaves the outer box by {float(excess):.6g}, "
              f"{'within' if excess <= tol else 'beyond'} the float rounding tolerance"
              f" {tol:.6g} (8 ulps of the box scale)")
    if args.out_prefix:
        geo.save_polygon(f"{args.out_prefix}_inner.txt", est.inner_hull)
        geo.save_polygon(f"{args.out_prefix}_outer.txt", est.outer_hull)
        print(f"wrote {args.out_prefix}_inner.txt, {args.out_prefix}_outer.txt")
    if args.expect_box is not None:
        n = args.expect_box
        box = geo.ConvexPolygonQ([(0, 0), (n, 0), (n, n), (0, n)])
        dist = hausdorff_distance(est.inner_hull, box)
        print(f"Hausdorff distance to [0,{n}]^2 = {dist:.6g}")
    if args.svg:
        meta = None if args.no_meta else (
            f'rotwidth {__version__} rotset expr="{args.expr}"'
            f" grid={args.grid} iters={args.iters} seed={args.seed}"
        )
        _write(args.svg, rotation_set_svg(est.inner_hull, est.outer_hull,
                                          reference_box=args.expect_box, meta=meta))
    return OK


def cmd_roots(args) -> int:
    from .finegraph import certify_no_roots

    cert = certify_no_roots(args.ew, args.length_upper)
    print(_header("roots", "-", f"ew={cert.ew} length_upper={cert.length_upper}"))
    if args.out:
        _write(args.out, cert.transcript)
    print(cert.transcript, end="")
    return OK


def cmd_verify(args) -> int:
    from . import verify

    if args.out is not None and args.suite != "flow":
        raise ValueError(f"--out applies only to --suite flow, not {args.suite}")
    if args.svg is not None and args.suite != "vnhn":
        raise ValueError(f"--svg applies only to --suite vnhn, not {args.suite}")
    if args.suite == "compare-width":
        result = verify.run_compare_width_suite(args.count, args.seed)
    elif args.suite == "vnhn":
        result = verify.run_vnhn_suite(args.n)
    elif args.suite == "power-scaling":
        result = verify.run_power_scaling_suite(args.k, args.grid, args.iters, seed=args.seed)
    else:
        from .flows import config_value

        result = verify.run_flow_suite(
            config_value("floors", args.floors, "--floors"),
            config_value("field", f"const:{args.field_value}", "--field-value"))
    print(_header("verify", args.seed, f"suite={args.suite}"))
    if args.svg:
        from .svg import scatter_svg

        # sampled (essential width, length upper bound) pairs for the
        # shear family: width of [0,n]^2 against the chain bound 2.
        # A reproduction aid; no boundary of the attainable region is
        # claimed.
        pairs = []
        for n in range(1, args.n + 1):
            box = geo.ConvexPolygonQ([(0, 0), (n, 0), (n, n), (0, n)])
            pairs.append((float(geo.essential_width(box)), 2.0))
        meta = None if args.no_meta else f"rotwidth {__version__} vnhn scatter"
        _write(args.svg, scatter_svg(pairs, meta=meta))
    if args.out:
        _write(args.out, result.series.to_csv(include_runtime=not args.no_meta))
    for line in result.format_lines():
        print(line)
    return OK if result.passed else VERIFY_FAILED


def cmd_flow(args) -> int:
    from .flows import (FlowError, config_value, constant_field, parse_experiment_config,
                        stopping_limit_experiment)
    from .svg import series_svg

    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            kwargs = parse_experiment_config(fh.read())
    elif not args.floors:
        raise FlowError("need --config or --floors")
    else:
        kwargs = {key: config_value(key, text, f"--{key}")
                  for key in ("field", "floors", "window", "margin", "step", "horizon")
                  if (text := getattr(args, key)) is not None}
    kwargs.setdefault("field", constant_field(0.1))
    series = stopping_limit_experiment(**kwargs)
    print(_header("flow", "-",
                  f"field={series.field_name}"
                  f" floors={','.join(str(r.floor) for r in series.rows)}"
                  f" window={series.window[0]},{series.window[1]} margin={series.margin}"))
    csv_text = series.to_csv(include_runtime=not args.no_meta)
    if args.out:
        _write(args.out, csv_text)
    else:
        print(csv_text, end="")
    if args.svg:
        meta = None if args.no_meta else f"rotwidth {__version__} flow"
        _write(args.svg, series_svg([r.floor for r in series.rows], series.distances(),
                                    meta=meta))
    decreasing = series.is_weakly_decreasing()
    print(f"weakly decreasing: {'yes' if decreasing else 'NO'}")
    return OK if decreasing else VERIFY_FAILED


def cmd_search(args) -> int:
    """Random search for wide polygons whose interior misses three
    non-aligned lattice points.  Reports the best sample found; this is a
    search aid only and asserts nothing about maximality."""
    from .verify import random_polygon

    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    rng = random.Random(args.seed)
    best = None
    best_ew = Fraction(0)
    for _ in range(args.count):
        C = random_polygon(rng, coord_range=4, max_denominator=6)
        if C.dimension < 2 or geo.has_three_nonaligned_interior(C):
            continue
        ew = geo.essential_width(C)
        if ew > best_ew:
            best, best_ew = C, ew
    print(_header("search", args.seed, f"count={args.count}"))
    if best is None:
        print("no admissible polygon sampled")
    else:
        print(f"best essential width found = {best_ew} (no maximality claim)")
        for v in best.vertices:
            print(f"  {v.x} {v.y}")
    return OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rotwidth",
        description="exact lattice widths, rotation-set estimation, "
                    "translation-length bounds, and slowdown-flow experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ew", help="exact essential width of a polygon file")
    p.add_argument("polygon", help="polygon text file (one 'x y' vertex per line)")
    p.add_argument("--oracle-radius", type=int, default=None,
                   help="cross-check with the brute-force direction oracle")
    p.set_defaults(fn=cmd_ew)

    p = sub.add_parser("rotset", help="estimate the rotation set of a map DSL expression")
    p.add_argument("expr", help="map DSL, e.g. 'V^2 H^2' or 'T(1/3,1/4)'")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--sampler", choices=("uniform", "halton"), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--expect-box", type=int, default=None,
                   help="report Hausdorff distance to [0,n]^2")
    p.add_argument("--out-prefix", default=None,
                   help="write the inner hull and the outer box as polygon files")
    p.add_argument("--svg", default=None, help="write an overlay SVG")
    p.add_argument("--no-meta", action="store_true",
                   help="omit non-reproducible metadata from outputs")
    p.set_defaults(fn=cmd_rotset)

    p = sub.add_parser("roots", help="no-root certificate from width and length bounds")
    p.add_argument("--ew", required=True, help="essential width (rational)")
    p.add_argument("--length-upper", required=True,
                   help="upper bound on the translation length (rational)")
    p.add_argument("--out", default=None, help="also write the transcript to a file")
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=("compare-width", "vnhn", "power-scaling", "flow"))
    p.add_argument("--count", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--grid", type=int, default=48)
    p.add_argument("--iters", type=int, default=300)
    p.add_argument("--floors", default="0.5,0.25,0.1,0.05")
    p.add_argument("--field-value", default="0.1")
    p.add_argument("--out", default=None, help="write the flow CSV here")
    p.add_argument("--svg", default=None,
                   help="vnhn: write the sampled width/length-bound scatter")
    p.add_argument("--no-meta", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("flow", help="stopping-limit experiment (CSV/SVG)")
    p.add_argument("--config", default=None, help="key=value experiment file")
    p.add_argument("--floors", default=None, help="comma-separated slowdown floors")
    for flag in ("--field", "--window", "--margin", "--step", "--horizon"):
        p.add_argument(flag, help="value as in a config file")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--svg", default=None)
    p.add_argument("--no-meta", action="store_true")
    p.set_defaults(fn=cmd_flow)

    p = sub.add_parser("search", help="random search for wide few-point polygons")
    p.add_argument("--count", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_search)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PolygonFormatError as exc:
        print(f"polygon parse error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
