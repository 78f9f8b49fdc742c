#!/usr/bin/env python3
"""Run workloads over several seeds and report each end-to-end metric's
median and spread (quartile distance over median, as
statistics.quantiles(values, n=4) gives the quartiles) against a third of
its bound in BENCHMARK.json.

    python3 benchmark/spread.py [--workloads a,b] [--seeds 1,2,...]
                                [--seconds S] [--baseline FILE]

--baseline writes the medians, quartiles and spreads, with the build type
and the machine's core count, to FILE as JSON, together with one traced
run's per-layer metrics per workload (first seed).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", seed, "--seconds", seconds, "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        check=True).stdout.decode()
    lines = out.strip().splitlines()
    head = json.loads(lines[-2])
    return json.loads(lines[-1]), dict(head["details"], digest=head["digest"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", default=str(bench["run_seconds"]))
    parser.add_argument("--baseline")
    args = parser.parse_args()

    report = {"build_type": "RelWithDebInfo", "nproc": os.cpu_count(),
              "machine": platform.machine(), "seconds": float(args.seconds),
              "seeds": [int(s) for s in args.seeds.split(",")],
              "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        failed = 0
        for seed in args.seeds.split(","):
            started = time.time()
            result, details = run(workload, seed, args.seconds, "0")
            print("%-12s seed %-6s %5.1f s  %s | %s" % (
                workload, seed, time.time() - started,
                " ".join("%s=%.4g" % (k, v["value"])
                         for k, v in sorted(result["metrics"].items())),
                " ".join("%s=%s" % (k, v if isinstance(v, str) else "%.4g" % v)
                         for k, v in sorted(details.items()))),
                flush=True)
            failed += result["failed"] + (0 if result["correct"] else 1)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for name, vals in sorted(values.items()):
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            ok = spread < bounds[name] / 3
            steady = steady and ok
            rows[name] = {"median": q2, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name]}
            print("%-12s %-16s median %12.6g  spread %6.3f  bound/3 %6.3f  %s"
                  % (workload, name, q2, spread, bounds[name] / 3,
                     "ok" if ok else "WIDE"), flush=True)
        print("%-12s failed operations: %d" % (workload, failed), flush=True)
        report["workloads"][workload] = {"failed": failed, "metrics": rows}
        if args.baseline:
            traced, _ = run(workload, args.seeds.split(",")[0], args.seconds,
                            "1")
            failed += traced["failed"]
            report["workloads"][workload]["failed"] = failed
            report["workloads"][workload]["per_layer"] = {
                name: m["value"] for name, m in traced["metrics"].items()}
    if args.baseline:
        with open(args.baseline, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
