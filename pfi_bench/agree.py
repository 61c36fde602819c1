#!/usr/bin/env python3
"""Compare two sets of pfi_bench results against BENCHMARK.json's bounds.

    python3 pfi_bench/agree.py A B            # do two sets agree?
    python3 pfi_bench/agree.py --pairs A B    # does B (change) beat A (parent)?

A and B are directories of result files written by `pfi_bench --out` (or by
run.py into .bench_build/results/; traced results are skipped). Runs are
grouped by workload; there is one row per workload x end_to_end metric with
each side's median and quartiles across runs.

Default mode: a row agrees when B's median is no worse than A's by more than
the metric's bound. Runs of the same workload and seed on both sides must
report identical counts (cells and digests per rep, failed cells). Exits 1
if any row or count disagrees.

--pairs applies the rule for claiming a gain: runs pair up by workload and
seed (run them alternating, parent first on odd pairs); a metric improves
when there are at least 10 pairs, B wins at least 9 in 10 of them (ties
count for neither), and the medians differ by more than A's interquartile
range.

Both modes refuse (exit 2) result sets whose stamps differ in build type or
nproc: those measure different programs or machines.
"""
import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    runs = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        try:
            with open(path) as f:
                r = json.load(f)
        except (OSError, ValueError):
            continue
        if isinstance(r, dict) and "workload" in r and not r.get("traced"):
            runs.append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(metric, a, b):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    gap = (b - a) / abs(a)
    return gap if metric["better"] == "lower" else -gap


def check_stamps(runs):
    seen = {(r["stamp"]["build_type"], r["stamp"]["nproc"]) for r in runs}
    if len(seen) > 1:
        print("refusing: stamps differ in build type or nproc: "
              + ", ".join(f"{b}/nproc={n}" for b, n in sorted(seen)),
              file=sys.stderr)
        return False
    return True


def by_workload(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], []).append(r)
    return out


def fmt(v):
    return f"{v:.6g}"


def span(q):
    return f"{fmt(q[1])} [{fmt(q[0])}, {fmt(q[2])}]"


def agree(bench, a_runs, b_runs):
    ok = True
    a_by, b_by = by_workload(a_runs), by_workload(b_runs)
    print(f"{'workload':14} {'metric':14} {'A median [q1, q3]':36} "
          f"{'B median [q1, q3]':36} {'worse':>7} {'bound':>6}  verdict")
    for w in sorted(set(a_by) & set(b_by)):
        for m in bench["end_to_end"]:
            av = [r["metrics"][m["name"]]["value"] for r in a_by[w]]
            bv = [r["metrics"][m["name"]]["value"] for r in b_by[w]]
            aq, bq = quartiles(av), quartiles(bv)
            worse = worse_by(m, aq[1], bq[1])
            good = worse <= m["bound"]
            ok = ok and good
            print(f"{w:14} {m['name']:14} {span(aq):36} {span(bq):36} "
                  f"{worse:+7.3f} {m['bound']:6.2f}  "
                  + ("ok" if good else "OUT OF BOUND"))
        a_seed = {r["seed"]: r for r in a_by[w]}
        for r in b_by[w]:
            other = a_seed.get(r["seed"])
            if other is None:
                continue
            for key, x, y in [("failed", other["failed"], r["failed"])] + [
                    (k, other["counts"][k], r["counts"].get(k))
                    for k in other["counts"]]:
                if x != y:
                    ok = False
                    print(f"{w:14} count {key} differs at seed {r['seed']}: "
                          f"{x} vs {y}")
    missing = set(a_by) ^ set(b_by)
    if missing:
        print("workloads on one side only: " + ", ".join(sorted(missing)))
    return ok


def pairs(bench, a_runs, b_runs):
    a_by, b_by = by_workload(a_runs), by_workload(b_runs)
    print(f"{'workload':14} {'metric':14} {'pairs':>5} {'wins':>5} "
          f"{'A median':>12} {'B median':>12} {'A IQR':>10}  claim")
    for w in sorted(set(a_by) & set(b_by)):
        a_seed = {r["seed"]: r for r in a_by[w]}
        matched = [(a_seed[r["seed"]], r) for r in b_by[w] if r["seed"] in a_seed]
        if not matched:
            continue
        for m in bench["end_to_end"]:
            name = m["name"]
            av = [a["metrics"][name]["value"] for a, _ in matched]
            bv = [b["metrics"][name]["value"] for _, b in matched]
            wins = sum(1 for x, y in zip(av, bv) if worse_by(m, x, y) < 0)
            aq, bq = quartiles(av), quartiles(bv)
            iqr = aq[2] - aq[0]
            met = (len(matched) >= 10 and wins * 10 >= 9 * len(matched)
                   and worse_by(m, aq[1], bq[1]) < 0
                   and abs(bq[1] - aq[1]) > iqr)
            print(f"{w:14} {name:14} {len(matched):5d} {wins:5d} "
                  f"{fmt(aq[1]):>12} {fmt(bq[1]):>12} {fmt(iqr):>10}  "
                  + ("MET" if met else "not met"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", action="store_true",
                    help="apply the rule for claiming a gain of B over A")
    ap.add_argument("--benchmark", default=os.path.join(HERE, "..",
                                                        "BENCHMARK.json"))
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    a_runs, b_runs = load(args.a), load(args.b)
    if not a_runs or not b_runs:
        print("no results found", file=sys.stderr)
        return 2
    if not check_stamps(a_runs + b_runs):
        return 2
    if args.pairs:
        pairs(bench, a_runs, b_runs)
        return 0
    return 0 if agree(bench, a_runs, b_runs) else 1


if __name__ == "__main__":
    sys.exit(main())
