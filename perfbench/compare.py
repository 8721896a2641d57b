#!/usr/bin/env python3
"""Compare two benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

The files are the out/<workload>-seed<n>-trace<t>.json records that run.py
writes.  Results from different backends (numpy against numba), workloads
or trace modes are not comparable, and the script refuses them with exit 2.
"""

import json
import sys


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    base, new = docs
    for label, a, b in (
        ("backend", base["environment"]["backend"], new["environment"]["backend"]),
        ("workload", base["workload"], new["workload"]),
        ("trace", base["trace"], new["trace"]),
    ):
        if a != b:
            print(f"refusing to compare: {label} differs ({a} vs {b})", file=sys.stderr)
            return 2
    print(f"# {base['workload']} trace={base['trace']} backend={base['environment']['backend']}")
    print(f"{'metric':<42} {'base':>14} {'new':>14} {'change':>8}")
    for name, b in base["metrics"].items():
        n = new["metrics"].get(name)
        if n is None:
            continue
        change = f"{(n['value'] - b['value']) / b['value']:+.1%}" if b["value"] else "n/a"
        print(f"{name:<42} {b['value']:>14.6g} {n['value']:>14.6g} {change:>8} {b['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
