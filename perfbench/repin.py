#!/usr/bin/env python3
"""Recompute pins.json from the current source tree.

    python3 perfbench/repin.py

Run it only for a change that alters the engine's outputs on purpose, and
say so where that change is described: every benchmark run checks its
outputs against these pins and fails on a mismatch.
"""

import json
import sys

import worker


def main():
    pins = {}
    for workload in worker.WORKLOADS:
        rec = worker.run_rep(workload, "traced", 0)
        if rec["error"] is not None or rec["failed"]:
            print(f"{workload}: {rec['error'] or 'rules failed'}", file=sys.stderr)
            return 1
        pins[workload] = rec["observed"]
    with open(worker.HERE / "pins.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
