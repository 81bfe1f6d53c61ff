#!/usr/bin/env python3
"""Build and run the query-by-example benchmark.

Usage (from the repository root):

    python3 qbe_bench/run.py --workload paper_cold --seed 2004 --seconds 35 --trace 0

Builds the repository's `tdess` binary and the `qbe-bench` binary from
source with cargo (into $CARGO_TARGET_DIR, default `.bench_build`), then
runs `qbe-bench`. Build output goes to stderr; the report goes
to stdout and its last line is the JSON result. Exits non-zero, without
printing a result, if either build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, cwd):
    """Runs one cargo build; build chatter goes to stderr."""
    proc = subprocess.run(["cargo", "build", "--release", "--quiet"] + args,
                          cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def git_rev():
    """The checkout's commit, or `unknown` outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = os.path.abspath(os.path.join(ROOT, target))
    os.environ["CARGO_TARGET_DIR"] = target
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("qbe_bench: no Cargo.toml at the repository root; nothing to build",
              file=sys.stderr)
        return 2
    if not build(["-p", "threedess", "--bin", "tdess"], ROOT):
        print("qbe_bench: building tdess failed", file=sys.stderr)
        return 2
    if not build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], ROOT):
        print("qbe_bench: building qbe-bench failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "qbe-bench")
    tdess = os.path.join(target, "release", "tdess")
    cmd = [exe, "--tdess", tdess, "--spec", os.path.join(HERE, "spec.json"),
           "--workdir", os.path.join(target, "qbe_work"),
           "--benchmark", os.path.join(ROOT, "BENCHMARK.json"), "--rev", git_rev()] + sys.argv[1:]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
