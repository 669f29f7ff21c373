#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sv_two_level --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --selfcheck

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and its log to stderr, so the last line of stdout is the harness's JSON
result. Exits non-zero without a result when the build or the run fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sv_two_level", "tn_search", "tn_cvar", "wire_tenants")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def source_hash():
    """SHA-256 over the library sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              check=True, capture_output=True,
                              text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true",
                    help="run every workload at tiny sizes with every check on")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "qarch.hpp")):
        print("perfbench: no qarch sources beside perfbench/", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    header = ["--git-sha", git_sha(), "--src-hash", source_hash()]
    if args.selfcheck:
        return run(binary, "selfcheck", header + ["--selfcheck"])
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        code = run(binary, f"{workload}-{args.seed}", header + [
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or code
    return status


def run(binary, name, args):
    """Runs the harness once; its stdout passes through unchanged."""
    trace_out = os.path.join(build_dir(), f"trace-{name}.json")
    sys.stdout.flush()
    proc = subprocess.Popen([binary, "--trace-out", trace_out] + args)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
