#!/usr/bin/env python3
"""Compare two sets of benchmark results (files written by
`benchmark/run.py --out PATH`), parent ("base") against change.

  python3 benchmark/compare.py --base p1.json p2.json ... \\
                               --change c1.json c2.json ...

The i-th base file and the i-th change file form a pair; run the pairs
alternating which side goes first. For every workload and end-to-end
metric of BENCHMARK.json it reports each side's median and quartiles,
the pairs the change won, and a verdict:

  gain          >= 10 pairs, the change wins >= 9/10 of them (ties count
                for neither) and the medians differ by more than the
                base's interquartile range
  REGRESSION    the change's median is worse than the base's by more
                than the metric's bound
  unresolved    a side's spread (IQR / median) exceeds the bound and not
                every change run beats every base run
  ok            none of the above

Simulated counts among the per-layer metrics must be identical between
files of the same seed; any difference is reported. Exits 1 on a
regression, a count difference, or more failed jobs in the change.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Per-layer metrics that are simulated counts, not host times: a change
# that only speeds up the simulator must leave them identical.
EXACT_COUNTS = (
    "workloads.same_page_share", "cpu.instr_per_ref",
    "cpu.mispredicts_per_kref", "mmu.stlb_hits_per_kref",
    "mmu.walks_per_kref", "mmu.ptw_loads_per_walk", "cache.l1d_hit_share",
)
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    docs = []
    for path in paths:
        with open(path) as f:
            docs.append(json.load(f))
    return docs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """Returns (verdict, wins, pairs)."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = min(len(base), len(change))
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    spread = max((bq3 - bq1) / abs(bmed) if bmed else 0.0,
                 (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    every_better = all(sign * (c - b) > 0 for c in change for b in base)
    worse_by = -sign * (cmed - bmed) / abs(bmed) if bmed else 0.0
    if spread > bound and not every_better:
        return "unresolved", wins, pairs
    if worse_by > bound:
        return "REGRESSION", wins, pairs
    if (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
            and sign * (cmed - bmed) > bq3 - bq1):
        return "gain", wins, pairs
    return "ok", wins, pairs


def values(docs, workload, metric):
    out = []
    for doc in docs:
        value = doc["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if value is not None:
            out.append(value)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    base, change = load(args.base), load(args.change)
    hosts = {tuple((d.get("host") or {}).get(k) for k in ("nproc", "cpu_model"))
             for d in base + change}
    if len(hosts) > 1:
        print("warning: results come from different hosts", file=sys.stderr)

    # A gain does not count when more jobs fail than at the parent.
    base_failed = sum(d.get("failed", 0) for d in base)
    change_failed = sum(d.get("failed", 0) for d in change)
    failed = change_failed > base_failed
    if failed:
        print("FAILED JOBS: %d in the change against %d in the base"
              % (change_failed, base_failed))
    print("%-15s %-16s %28s %28s %8s %6s  %s" % (
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]",
        "delta", "wins", "verdict"))
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            b, c = values(base, w, m["name"]), values(change, w, m["name"])
            if not b or not c:
                continue
            v, wins, pairs = verdict(b, c, m["better"], m["bound"])
            failed = failed or v == "REGRESSION"
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            print("%-15s %-16s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %+7.1f%% %3d/%-3d %s" % (
                w, m["name"], bmed, bq1, bq3, cmed, cq1, cq3,
                100.0 * (cmed - bmed) / bmed if bmed else 0.0, wins, pairs, v))

    # Simulated counts: identical for equal seeds, whatever the host did.
    for bdoc in base:
        for cdoc in change:
            if bdoc.get("seed") != cdoc.get("seed"):
                continue
            for w, bw in bdoc["workloads"].items():
                cw = cdoc["workloads"].get(w)
                if cw is None:
                    continue
                for name in EXACT_COUNTS:
                    bv, cv = bw["metrics"].get(name), cw["metrics"].get(name)
                    if bv is not None and cv is not None and bv != cv:
                        failed = True
                        print("COUNT DIFFERS seed %s %s %s: %r -> %r"
                              % (bdoc["seed"], w, name, bv, cv))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
