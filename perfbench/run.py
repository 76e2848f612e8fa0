"""rotwidth benchmark: run one workload (or all four) and print its metrics.

    python3 perfbench/run.py --workload width-battery --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Load shape: closed loop, one
process at a time, no threads.  Every run starts fresh interpreters with
PYTHONPATH pointing at the checkout's `src`:

  * --trace 0: five interpreters that only `import rotwidth.cli` (their
    median spawn-to-exit time is `setup_s`), then one child that runs the
    workload's items untraced.  Prints the end-to-end metrics.
  * --trace 1: one untraced child and one traced child (span wrappers
    from tracing.py, `-X importtime`).  Prints the per-layer metrics and
    the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it say the same
for a reader.  The exit code is 0 when every check passed, 1 when a check
failed, and 2 when the program could not be run at all (no result line).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(HERE, ".work")
WORKLOADS = ("width-battery", "rotset-wide", "paper-chain", "flow-lab")
SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170  # a run of one workload must end within 180 s


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # single-threaded, as the load shape says
    return env


def _run(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"{' '.join(cmd[1:3])} did not end within the run deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:3])} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc


def setup_seconds(deadline: float) -> list[float]:
    """Spawn-to-exit times of fresh interpreters that import rotwidth.cli."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        _run([sys.executable, "-c", "import rotwidth.cli"], deadline)
        out.append(time.perf_counter() - t0)
    return out


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              deadline: float) -> tuple[dict, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
        os.path.join(HERE, "child.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--src", SRC, "--work-dir", WORK_DIR]
    if trace:
        cmd.append("--trace")
    proc = _run(cmd, deadline)
    sys.stderr.write("".join(line + "\n" for line in proc.stderr.splitlines()
                             if line.startswith("FAILED")))
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def tail_ms(item_ms: list[float]) -> tuple[float, str]:
    """The highest whole percentile with at least ten items beyond it.

    With fewer than 20 items that percentile would fall below the median,
    so the maximum is reported instead and labelled as such."""
    n = len(item_ms)
    q = math.floor(100 * (n - 10) / n) if n > 10 else 0
    ordered = sorted(item_ms)
    if q < 50:
        return ordered[-1], f"max of {n} items (fewer than 20)"
    rank = math.ceil(q * n / 100)
    return ordered[rank - 1], f"p{q} of {n} items, {n - rank} beyond"


def end_to_end(workload: str, seed: int, seconds: float,
               deadline: float) -> tuple[dict, dict, dict]:
    setups = setup_seconds(deadline)
    res, _ = run_child(workload, seed, seconds, False, deadline)
    item_ms = [1000 * s for s in res["item_s"]]
    tail, tail_note = tail_ms(item_ms)
    metrics = {
        "wall_s": (res["wall_s"], "s"),
        "setup_s": (statistics.median(setups), "s"),
        "item_ms_p50": (statistics.median(item_ms), "ms"),
        "item_ms_tail": (tail, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "item_ms_p50": f"median of {len(item_ms)} items",
        "item_ms_tail": tail_note,
    }
    return metrics, notes, res


def per_layer(workload: str, seed: int, seconds: float,
              deadline: float) -> tuple[dict, dict, dict]:
    import tracing

    plain, _ = run_child(workload, seed, seconds, False, deadline)
    traced, stderr = run_child(workload, seed, seconds, True, deadline)
    setup_part = stderr.split(tracing.IMPORT_DONE_MARK, 1)[0]
    metrics = {"import.rotwidth_cli.s": (traced["import_s"], "s")}
    for name, value in tracing.import_self_times(setup_part).items():
        metrics[name] = (value, "s")
    for name, value in traced["layers"].items():
        metrics[name] = (value, tracing.unit_of(name))
    overhead = traced["wall_s"] - plain["wall_s"]
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_ratio"] = (overhead / plain["wall_s"], "ratio")
    notes = {name: "computed" for name in tracing.COMPUTED if name in metrics}
    same = plain["digest"] == traced["digest"]
    if not same:
        print("FAILED tracing changed the exact outputs", file=sys.stderr)
    res = {"attempted": plain["attempted"] + traced["attempted"],
           "failed": plain["failed"] + traced["failed"] + (not same),
           "reference_compared": plain["reference_compared"] + traced["reference_compared"],
           "digest": plain["digest"]}
    return metrics, notes, res


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rotwidth", "__init__.py")):
        print(f"perfbench: no rotwidth sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        try:
            m, notes, res = measure(name, args.seed, args.seconds,
                                    time.monotonic() + RUN_DEADLINE_S)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        print(f"{name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        for key, (value, unit) in m.items():
            note = f" ({notes[key]})" if key in notes else ""
            print(f"  {key:30s} {value!r:>22} {unit}{note}")
            metrics[key if len(names) == 1 else f"{name}.{key}"] = {"value": value, "unit": unit}
        ratio = res["failed"] / res["attempted"]
        print(f"  {'failed_ratio':30s} {ratio!r:>22} ratio ({res['failed']}/{res['attempted']})")
        print(f"  exact outputs: {res['reference_compared']} items compared with the"
              f" recorded reference; run digest {res['digest'][:16]}")
        attempted += res["attempted"]
        failed += res["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
