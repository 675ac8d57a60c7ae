#!/usr/bin/env python3
"""Build lrb_perfbench from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere; the build goes to .bench_build/perfbench and scratch files
(the persist probe's journal, trace JSON) to .bench_work under the repository
root.  Build output
goes to stderr; stdout carries the benchmark's report, whose last line is the
JSON result.  The exit code is the benchmark's (non-zero on any failed or
mismatched op, or when the build fails).
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["gen_sparse", "replay_dense", "tenant_churn"]
ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
BINARY = BUILD_DIR / "lrb_perfbench"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def _cached_source_dir():
    """Source directory of a build tree that configured successfully."""
    cache = BUILD_DIR / "CMakeCache.txt"
    if not cache.exists() or not (BUILD_DIR / "Makefile").exists():
        return None
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return line.split("=", 1)[1]
    return None


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    source = ROOT / "perfbench"
    cached = _cached_source_dir()
    if cached is None or Path(cached) != source:
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        cached = None
    steps = []
    if cached is None:
        steps.append(["cmake", "-S", str(source), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "lrb_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return BINARY


def git_describe():
    # The benchmark may run from an exported tree with no .git; never let git
    # walk up into an enclosing repository.
    if not (ROOT / ".git").exists():
        return "no-git-checkout"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                              "--tags"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    args = p.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    env = dict(os.environ)
    env.pop("LRB_TRACE", None)  # end-to-end figures come from an untraced library
    WORK_DIR.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(WORK_DIR), "--git", git_describe()]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
