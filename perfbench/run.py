#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all   # every workload, one process each

Configures and builds perfbench/CMakeLists.txt (the library sources under
src/ plus the benchmark program in perfbench/src/) into .bench_build/perfbench
with an optimized build, then runs it. Build output goes to stderr; the
program's report goes to stdout, and its last line is the JSON result
{"correct", "attempted", "failed", "metrics"}. Exits nonzero, without a
result, when the sources are missing or the build fails, and nonzero when an
output check fails (with --workload all: when any workload fails).
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve-dense", "wide-lookahead", "durable-recover")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def git_sha(root):
    if not (root / ".git").exists():
        return "unavailable"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_sha256(root):
    """Hash of the library sources the benchmark is built from."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def build(root, build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "pss.hpp").is_file():
        fail(f"library sources not found under {root / 'src'}")
    build_dir = root / ".bench_build" / "perfbench"
    build(root, build_dir)

    provenance = ["--work-dir", str(root / ".bench_build" / "work"),
                  "--git-sha", git_sha(root),
                  "--source-sha256", source_sha256(root)]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        cmd = [str(build_dir / "pss_perfbench"),
               "--workload", workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace)] + provenance
        sys.stdout.flush()
        try:
            done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: {workload} timed out", file=sys.stderr)
            sys.exit(1)
        status = status or done.returncode
    sys.exit(status)


if __name__ == "__main__":
    main()
