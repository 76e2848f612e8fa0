"""One workload run in a fresh interpreter; started by run.py.

Its first act is `import rotwidth.cli`.  It then builds the workload's
inputs from the seed, runs the items serially, checks every output and
prints one JSON object on stdout.  With --trace it installs the span
wrappers from tracing.py before the first item and also writes the spans
to the work directory when the run ends.
"""

import time

_t0 = time.perf_counter()
import rotwidth.cli  # noqa: E402  (timed: the first act of the child)
IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    sys.stderr.write(tracing.IMPORT_DONE_MARK + "\n")
    sys.stderr.flush()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--src", required=True, help="the src directory the program must come from")
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    pkg_dir = os.path.dirname(os.path.realpath(rotwidth.cli.__file__))
    if pkg_dir != os.path.realpath(os.path.join(args.src, "rotwidth")):
        print(f"rotwidth was imported from {pkg_dir}, not from {args.src}", file=sys.stderr)
        return 2

    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    items = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.work_dir)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(args.workload, {})

    durations, failures, texts = [], [], []
    start = time.perf_counter()
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.item_id = i
            span = tracer.open("item")
        try:
            outcome = item.fn()
            fails, text = outcome.failures, outcome.exact
        except Exception:  # an item that raises counts as failed; the run goes on
            fails, text = [traceback.format_exc(limit=3).strip()], ""
        finally:
            if tracer is not None:
                tracer.close(span)
        durations.append(time.perf_counter() - t0)
        failures.append(fails)
        texts.append(text)
    wall = time.perf_counter() - start

    compared = 0
    for item, fails, text in zip(items, failures, texts):
        want = reference.get(item.ref_key) if item.ref_key else None
        if want is not None:
            compared += 1
            if workloads.digest(text) != want:
                fails.append(f"exact outputs differ from the reference digest {item.ref_key}")
    failed = [(item.label, f) for item, f in zip(items, failures) if f]
    for label, fails in failed:
        print(f"FAILED {label}: {'; '.join(fails)}", file=sys.stderr)

    result = {
        "workload": args.workload,
        "import_s": IMPORT_S,
        "wall_s": wall,
        "item_s": [d for d, item in zip(durations, items) if not item.per_run],
        "attempted": len(items),
        "failed": len(failed),
        "reference_compared": compared,
        "digest": workloads.digest("\n".join(texts)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.dump(os.path.join(args.work_dir, f"spans-{args.workload}-{args.seed}.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
