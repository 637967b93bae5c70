#!/usr/bin/env python3
"""Print the metric ratios of two results that run.py wrote to .bench_out/.

    python3 perfbench/compare.py BASE.json HEAD.json

Refuses (exit 3) when the two runs' host fingerprints differ -- CPU model,
nproc, compiler, build type or LLC size -- or when they measured different
workloads or trace modes: such figures are not comparable.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, head = load(sys.argv[1]), load(sys.argv[2])
    if base["host"] != head["host"]:
        for key in sorted(set(base["host"]) | set(head["host"])):
            if base["host"].get(key) != head["host"].get(key):
                print(f"{key}: {base['host'].get(key)!r} != "
                      f"{head['host'].get(key)!r}", file=sys.stderr)
        print("refusing to compare runs with different host fingerprints",
              file=sys.stderr)
        sys.exit(3)
    if (base["workload"], base["trace"]) != (head["workload"], head["trace"]):
        print("refusing to compare different workloads or trace modes",
              file=sys.stderr)
        sys.exit(3)
    print(f"{'metric':26} {'base':>14} {'head':>14} {'head/base':>9}")
    for name, b in base["metrics"].items():
        h = head["metrics"].get(name)
        if h is None:
            continue
        ratio = h["value"] / b["value"] if b["value"] else float("nan")
        print(f"{name:26} {b['value']:14.6g} {h['value']:14.6g} "
              f"{ratio:9.3f}  {b['unit']}")


if __name__ == "__main__":
    main()
