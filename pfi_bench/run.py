#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, print one result line.

    python3 pfi_bench/run.py --workload W --seed S --seconds N --trace 0|1

Run it from the repository root. The first run configures and builds
pfi_bench and pfi_bench_trace (CMake, Release) into .bench_build/; later runs
only re-check the build. The last line of stdout is one JSON object,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json (--trace 0) or its
per_layer metrics (--trace 1). With --trace 1 the seconds are split between
an untraced run, which gives the baseline for trace_overhead_pct, and the
traced run. A failed build or run exits non-zero without a result line; a
run whose outputs fail a check prints its result with "correct": false and
exits 1.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RESULTS = os.path.join(BUILD, "results")


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build both programs; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)  # retry from scratch
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "pfi_bench",
           "pfi_bench_trace"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run(program, args, out):
    """Run one benchmark program; returns (exit code, result JSON or None)."""
    if os.path.exists(out):
        os.remove(out)
    cmd = [os.path.join(BUILD, program)] + args + ["--out", out, "--tmp", BUILD]
    code = subprocess.run(cmd, stdout=sys.stderr).returncode
    if not os.path.exists(out):
        return code, None
    with open(out) as f:
        return code, json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if a.workload not in [w["name"] for w in bench["workloads"]]:
        log(f"unknown workload {a.workload}")
        return 2
    if not build():
        log("build failed")
        return 1
    os.makedirs(RESULTS, exist_ok=True)

    stem = os.path.join(RESULTS, f"{a.workload}-s{a.seed}")
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    if a.trace == "0":
        code, res = run("pfi_bench", common + ["--seconds", str(a.seconds)],
                        stem + ".json")
        wanted = bench["end_to_end"]
        correct = res is not None and res["correct"]
    else:
        half = str(max(1.0, a.seconds / 2))
        code, base = run("pfi_bench", common + ["--seconds", half],
                         stem + ".json")
        if base is None:
            log("untraced run produced no result")
            return 1
        untraced_cps = base["metrics"]["cells_per_s"]["value"]
        code2, res = run("pfi_bench_trace",
                         common + ["--seconds", half, "--trace",
                                   stem + ".trace.json", "--untraced-cps",
                                   repr(untraced_cps)],
                         stem + ".traced.json")
        code = code or code2
        wanted = bench["per_layer"]
        correct = res is not None and res["correct"] and base["correct"]
    if res is None:
        log(f"{a.workload} produced no result (exit {code})")
        return 1

    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} missing or not in {m['unit']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]),
                      "metrics": metrics}), flush=True)
    return 0 if correct and code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
