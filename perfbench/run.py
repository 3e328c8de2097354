#!/usr/bin/env python3
"""Build and run the dynsld benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --pool-threads 1 --workload ingest_graph \
        --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which pulls in the repository's library sources)
into .perfbench/build with CMake, then runs the benchmark binary with
the fork-join pool pinned to --pool-threads workers. --seconds sizes
the run: the op and request counts are fixed multiples of it. The
binary's last stdout line is the JSON result; build output goes to
stderr. WAL directories live under .perfbench/work and are removed by
the binary.
Exits non-zero when the build fails, the sources are missing, the run
times out, or the benchmark reports a wrong answer or an invalid run.
"""
import argparse
import fcntl
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("ingest_graph", "ingest_forest")
RUN_TIMEOUT_S = 170
SETTLE_S = 10


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build the benchmark binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"library sources not found under {ROOT}")
    build_dir = OUT / "build"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    with open(OUT / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "perfbench", "-j", jobs])
        binary = build_dir / "perfbench"
        before = binary.stat().st_mtime_ns if binary.exists() else None
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail("build failed: " + " ".join(cmd))
        if binary.stat().st_mtime_ns != before:
            # A fresh build leaves dirty pages and a busy machine behind;
            # the first seconds of a run right after one were several
            # times slower than the rest.
            os.sync()
            time.sleep(SETTLE_S)
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    # The write and read counts scale with it (BENCHMARK.json's
    # run_seconds is passed here); a run ends when that work is done.
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool-threads", type=int, default=1)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (metrics are not comparable)")
    args = ap.parse_args()

    binary = build()
    env = dict(os.environ, DYNSLD_NUM_THREADS=str(args.pool_threads))
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(OUT / "work")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
