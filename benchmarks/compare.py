"""Compare two sets of benchmark records, refusing if their environments differ.

    python3 benchmarks/compare.py BASE_DIR NEW_DIR

Each directory holds the ``.bench_out/*.json`` records of one commit's runs.
For every workload and end-to-end metric, prints both sides' median and
quartiles and the change of the median, marking a change beyond the metric's
bound in BENCHMARK.json.  Records whose environments differ in anything but
the seed (core count, CPU, Python, numpy, BLAS build or thread count) are not
compared: the command says what differs and exits with code 2.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from environment import differences

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    return records


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = _load(argv[0]), _load(argv[1])
    if not base or not new:
        print("error: each directory needs at least one *-trace0.json record", file=sys.stderr)
        return 2
    reference = base[0]["environment"]
    for record in base + new:
        env = record["environment"]
        diff = [k for k in differences(reference, env) if k != "workload"]
        if diff:
            print(f"refusing to compare: environments differ in {diff}", file=sys.stderr)
            return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        sides = [[r for r in rs if r["environment"]["workload"] == workload] for rs in (base, new)]
        if not all(sides):
            continue
        print(f"{workload}: {len(sides[0])} base runs, {len(sides[1])} new runs")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            (b1, b2, b3), (n1, n2, n3) = (
                _quartiles([r["result"]["metrics"][name]["value"] for r in side]) for side in sides
            )
            change = n2 / b2 - 1.0 if b2 else 0.0
            regressed = (change if metric["better"] == "lower" else -change) > metric["bound"]
            worse += regressed
            print(f"  {name:14s} base {b2:.4g} [{b1:.4g}, {b3:.4g}]  new {n2:.4g} "
                  f"[{n1:.4g}, {n3:.4g}]  {change:+.1%}{'  WORSE' if regressed else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
