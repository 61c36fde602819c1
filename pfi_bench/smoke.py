#!/usr/bin/env python3
"""pfi_bench_smoke: every workload once in --quick mode, untraced and traced.

    python3 pfi_bench/smoke.py PFI_BENCH PFI_BENCH_TRACE

--quick runs one short rep per workload with every correctness check. Each
run must exit 0 and write its result; each traced run must also write a
trace file that parses as JSON. Registered as a ctest by CMakeLists.txt.
"""
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ["gmp_campaign", "tcp_suite", "search_gmp", "fabric_tpc"]


def main():
    bench, traced = sys.argv[1], sys.argv[2]
    failures = 0
    with tempfile.TemporaryDirectory(dir=os.getcwd()) as tmp:
        for w in WORKLOADS:
            for program in (bench, traced):
                out = os.path.join(tmp, "result.json")
                trace = os.path.join(tmp, "trace.json")
                cmd = [program, "--workload", w, "--seed", "1", "--quick",
                       "--out", out, "--tmp", tmp]
                if program == traced:
                    cmd += ["--trace", trace]
                code = subprocess.run(cmd).returncode
                try:
                    with open(out) as f:
                        ok = json.load(f)["correct"]
                    if program == traced:
                        with open(trace) as f:
                            ok = ok and bool(json.load(f)["traceEvents"])
                except (OSError, ValueError, KeyError) as e:
                    print(f"{w}: {e}", file=sys.stderr)
                    ok = False
                if code != 0 or not ok:
                    print(f"FAIL {os.path.basename(program)} {w} (exit {code})",
                          file=sys.stderr)
                    failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
