"""Record the digests of the seed-independent exact outputs.

    PYTHONPATH=src python3 perfbench/record_reference.py

Writes perfbench/reference.json: for every item with a reference key
(the width-battery canary polygons, the fixed points of V^n H^n for
n = 1..4, every n = 1..64 of the paper chain, and the 2221/2220
verdicts) the SHA-256 of its canonical exact-output text.  Run it only at
a commit whose outputs are the reference; later runs compare against it.
It refuses to record an item whose own checks fail.
"""

import json
import os
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def record(items) -> dict:
    out = {}
    for item in items:
        if item.ref_key is None:
            continue
        outcome = item.fn()
        if outcome.failures:
            sys.exit(f"{item.label}: checks failed, not recording: {outcome.failures}")
        out[item.ref_key] = workloads.digest(outcome.exact)
        print(f"recorded {item.ref_key}", flush=True)
    return out


def main() -> None:
    work_dir = os.path.join(HERE, ".work")
    os.makedirs(work_dir, exist_ok=True)
    chain = [workloads.Item("EW 2221/2220 verdicts", workloads.verdict_pair, "verdicts")]
    chain += [workloads.Item(f"chain n={n}", lambda n=n: workloads.chain_item(n), f"n={n}")
              for n in range(1, 65)]
    reference = {
        "width-battery": record(workloads.width_battery(0, 0, work_dir)),
        # the fixed-point outputs do not depend on the iterate budget
        "rotset-wide": record(workloads.rotset_wide(0, 0, work_dir)),
        "paper-chain": record(chain),
    }
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
