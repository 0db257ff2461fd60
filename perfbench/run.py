#!/usr/bin/env python3
"""Build and run the wall-clock serving benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload chat_churn --seed 42 \
        --seconds 10 --trace 0

Builds perfbench/ (which builds the repository's a3 library and
shard_worker tool) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the driver. The driver prints a
report line and, last, the result object
{"correct", "attempted", "failed", "metrics"}. --trace 1 prints the
per-layer metrics instead of the end-to-end ones and writes a Chrome
trace-event file next to the build. --tamper corrupts one sampled
result to show that the output check fails the run.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("chat_churn", "rag_longdoc", "remote_fanout")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no a3 source tree next to " + BENCH_DIR)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "serving_bench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build step failed: " + " ".join(step))


def stop_group(pgid):
    """Kill whatever the driver left in its process group and wait
    until the group is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.join(ROOT, target), "perfbench")
    build(build_dir)

    binary = os.path.join(build_dir, "serving_bench")
    worker = os.path.join(build_dir, "tools", "shard_worker")
    # Sockets live in the work dir, so keep it relative and short.
    work_dir = os.path.relpath(
        os.path.join(build_dir, "run-%d" % os.getpid()), ROOT)
    command = [binary, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--worker-bin", worker]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.tamper:
        command.append("--tamper")

    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
        fail("driver exceeded %d s" % RUN_TIMEOUT_S)
    stop_group(proc.pid)
    shutil.rmtree(os.path.join(ROOT, work_dir), ignore_errors=True)
    if proc.returncode != 0:
        sys.stdout.write(out)
        sys.stdout.flush()
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        sys.exit(proc.returncode if proc.returncode > 0 else 3)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
