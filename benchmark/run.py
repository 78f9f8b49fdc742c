#!/usr/bin/env python3
"""The repo's benchmark: build the program from source, run one workload.

    python3 benchmark/run.py --workload cold_audit|daemon_mix \\
        --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-check

Run it from the repository root. The first call configures and builds the
benchmark package (benchmark/CMakeLists.txt: the repo's libraries, the CLIs
the workloads spawn, and the rdbench runner) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally. Build
output goes to stderr. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric for --trace 0 and every per-layer metric for
--trace 1; every workload prints the same metrics. The line before it
names the workload, seed, a digest of the checked outputs and the sample
counts.

--self-check runs every workload briefly, traced and untraced, and fails on
a failed operation, a missing metric, or two digests that differ at one
seed; it also feeds the gate one wrong output and expects it counted,
compares the input shape of two seeds, and checks that no rdd, socket or
store outlives a run.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_audit", "daemon_mix")
TARGETS = ("rdbench", "audit_network", "rdlint", "rdd")
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("src/CMakeLists.txt", "examples/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("no %s: run from a full checkout of the repository" % needed)
    out = os.path.join(build_dir(), "rdbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 4),
                    "--target"] + list(TARGETS),
                   stdout=sys.stderr, check=True)
    return out


def rdbench(out, args, capture=False):
    """Run rdbench from the repo root with short relative paths (the
    daemon's Unix socket lives under the work directory)."""
    rel = lambda p: os.path.relpath(p, ROOT)
    argv = [os.path.join(out, "rdbench")] + args + [
        "--bin", rel(os.path.join(out, "rd_examples")),
        "--work", rel(os.path.join(build_dir(), "work")),
        "--traces", rel(os.path.join(build_dir(), "traces"))]
    # Own process group, so a timeout also takes down any rdd it started.
    child = subprocess.Popen(argv, cwd=ROOT, start_new_session=True,
                             stdout=subprocess.PIPE if capture else None)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        fail("rdbench timed out")
    finally:
        # rdbench removes its work directory itself unless it was killed.
        work = os.path.join(build_dir(), "work")
        for name in (os.listdir(work) if os.path.isdir(work) else []):
            if name.endswith("-%d" % child.pid):
                shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    return child.returncode, (stdout.decode() if capture else "")


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return [json.loads(line) for line in lines[-2:]] if len(lines) >= 2 else None


def self_check(out):
    with open(os.path.join(HERE, "metrics.json")) as f:
        catalogue = json.load(f)["metrics"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    listed = {(kind, m["name"], m["unit"], m["better"])
              for kind in ("end_to_end", "per_layer") for m in declared[kind]}
    catalogued = {(m["kind"], name, m["unit"], m["better"])
                  for name, m in catalogue.items()}
    expect(listed == catalogued, "BENCHMARK.json and metrics.json list the "
           "same metrics (differ: %s)" % sorted(listed ^ catalogued))

    for workload in WORKLOADS:
        digests = []
        for trace in ("0", "1"):
            started = time.time()
            rc, stdout = rdbench(out, ["--workload", workload, "--seed", "7",
                                       "--seconds", "2", "--trace", trace],
                                 capture=True)
            parsed = last_json(stdout)
            what = "%s --trace %s (%.0f s)" % (workload, trace,
                                                time.time() - started)
            if rc != 0 or parsed is None:
                expect(False, what + ": exit %d, no result" % rc)
                continue
            digests.append(parsed[0]["digest"])
            result = parsed[1]
            kind = "per_layer" if trace == "1" else "end_to_end"
            want = sorted(name for name, m in catalogue.items()
                          if m["kind"] == kind)
            missing = [m for m in want if m not in result["metrics"]]
            extra = [m for m in result["metrics"] if m not in want]
            expect(sorted(result) == ["attempted", "correct", "failed",
                                      "metrics"], what + ": result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   what + ": %d of %d operations failed"
                   % (result["failed"], result["attempted"]))
            expect(not missing and not extra,
                   what + ": metrics (missing %s, unexpected %s)"
                   % (missing, extra))
        expect(len(digests) == 2 and digests[0] == digests[1],
               "%s: two runs at seed 7 print the same digest %s"
               % (workload, digests))

    rc, stdout = rdbench(out, ["--workload", "cold_audit", "--seed", "7",
                               "--seconds", "1", "--trace", "0",
                               "--corrupt-one"], capture=True)
    parsed = last_json(stdout)
    expect(rc == 0 and parsed is not None and parsed[1]["failed"] == 1
           and parsed[1]["correct"] is False,
           "a planted wrong output is counted as one failed operation")

    for workload in WORKLOADS:
        shapes = []
        for seed in ("1", "2"):
            rc, stdout = rdbench(out, ["--workload", workload, "--seed", seed,
                                       "--seconds", "1", "--trace", "0",
                                       "--shape"], capture=True)
            parsed = last_json(stdout)
            shapes.append(parsed[0]["details"] if rc == 0 and parsed else {})
        a, b = shapes
        routers = [k for k in a if k.endswith("routers")]
        same = bool(a) and bool(b) and bool(routers) and all(
            abs(a[k] - b[k]) <= 0.1 * a[k] for k in routers)
        same = same and a.get("diagnostics") == 0 == b.get("diagnostics")
        if workload == "cold_audit":
            same = same and a.get("intents", 0) > 0 and b.get("intents", 0) > 0
        expect(same, "%s: seeds 1 and 2 give the same shape %s / %s"
               % (workload, a, b))

    work = os.path.join(build_dir(), "work")
    leftovers = os.listdir(work) if os.path.isdir(work) else []
    expect(not leftovers, "no work directory, socket or store left: %s"
           % leftovers)
    daemons = subprocess.run(["pgrep", "-f", os.path.relpath(work, ROOT)],
                             stdout=subprocess.PIPE).stdout.split()
    expect(not daemons, "no rdd left running")
    print("self-check: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload or --self-check is required")
    out = build()
    if args.self_check:
        sys.exit(self_check(out))
    rc, _ = rdbench(out, ["--workload", args.workload, "--seed",
                          str(args.seed), "--seconds", str(args.seconds),
                          "--trace", args.trace])
    sys.exit(rc)


if __name__ == "__main__":
    main()
