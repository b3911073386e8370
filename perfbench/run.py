#!/usr/bin/env python3
"""Builds and runs the repo benchmark (perfbench/src, binary fwperf).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                   # every workload, untraced then traced

Builds the simulator from ../src and fwperf into $CARGO_TARGET_DIR (default
.bench_build) under the repo root, then runs one workload. fwperf prints
every metric by name with its unit and basis, checks its outputs, and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the spans of the last traced pass go to <build>/spans/<workload>.tsv.

Exit status: 0 when the run is correct; nonzero, without a result line, when
the build fails (for example when the simulator sources are missing), and
nonzero with correct=false when a check fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["fleet-steady", "full-fidelity", "elastic-churn"]
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds fwperf; returns its path or None on failure."""
    out = build_dir()
    configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", out, "-j", jobs]):
        # Build logs go to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, "fwperf")


def run(binary, workload, seed, seconds, trace):
    """Runs one workload, echoing its output; returns (exit code, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, workload + ".tsv")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out" % workload, file=sys.stderr)
        return 1, None
    finally:
        # Never leave fwperf running: on a timeout or a signal, stop it and
        # wait for it to end.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        pass
    if result is None:
        sys.stdout.write(stdout)
        print("perfbench: %s printed no result (exit %d)" % (workload, proc.returncode),
              file=sys.stderr)
        return proc.returncode or 1, None
    # Everything but the result line; the caller prints the result.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return proc.returncode, result


def main():
    # SIGTERM unwinds like an exception, so run() stops fwperf first.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="default: 0 for one workload; both for --workload all")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build()
    if binary is None:
        return 1

    if args.workload != "all":
        code, result = run(binary, args.workload, args.seed, args.seconds, args.trace or 0)
        if result is None:
            return code
        print(json.dumps(result))
        return code

    # Every workload: the end-to-end table, then the per-layer table from a
    # separate traced run. The summary line prefixes each metric with its
    # workload.
    traces = [args.trace] if args.trace is not None else [0, 1]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        for trace in traces:
            code, result = run(binary, workload, args.seed, args.seconds, trace)
            worst = worst or code
            if result is None:
                return code
            summary["correct"] = summary["correct"] and result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"]["%s/%s" % (workload, name)] = metric
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
