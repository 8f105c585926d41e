#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records `run.py --out FILE` appends, one run per
line, any mix of workloads and seeds. For every workload and metric
present on both sides this prints each side's median and quartiles and a
verdict for the change:

  better      the median moved the metric's good way by more than its
              bound, or by more than the base's own quartile spread with
              the two quartile ranges apart
  worse       the median moved the bad way by more than the bound
  unresolved  anything else: within the bound, or inside the noise

Bounds and directions come from BENCHMARK.json next to perfbench/.
Per-layer metrics have no bound; their rows show the medians and a
"moved"/"same" note (counts that repeat exactly read "same").
Exit status 1 when any end-to-end metric is worse, else 0.
"""

import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(workload, trace): {metric: [values]}} from a JSON-lines file."""
    out = defaultdict(lambda: defaultdict(list))
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            for name, m in rec["result"]["metrics"].items():
                out[key][name].append(m["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """better / worse / unresolved for one metric (see module docstring)."""
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    if bm == 0:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    gain = sign * (cm - bm) / abs(bm)  # > 0: the change is better
    if gain < -bound:
        return "worse"
    spread = (b3 - b1) / abs(bm)
    apart = c1 > b3 if sign > 0 else c3 < b1
    if gain > bound or (gain > spread and apart):
        return "better"
    return "unresolved"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base, change = load(argv[1]), load(argv[2])
    any_worse = False
    fmt = "%-8s %-34s %12s %12s %12s | %12s %12s %12s  %s"
    print(fmt % ("workload", "metric", "base q1", "median", "q3",
                 "change q1", "median", "q3", "verdict"))
    for key in sorted(set(base) & set(change)):
        workload, _ = key
        for name in sorted(set(base[key]) & set(change[key])):
            b, c = base[key][name], change[key][name]
            if name in e2e:
                v = verdict(b, c, e2e[name]["better"], e2e[name]["bound"])
                any_worse |= v == "worse"
            else:
                v = "same" if sorted(b) == sorted(c) else "moved"
            bq, cq = quartiles(b), quartiles(c)
            print(fmt % ((workload, name) + tuple("%.6g" % x for x in bq) +
                         tuple("%.6g" % x for x in cq) + (v,)))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
