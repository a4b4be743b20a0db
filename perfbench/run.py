#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload train|edit_loop|serve --seed N \
        --seconds S --trace 0|1

The first run configures and builds perfbench/ (the snorkel library from
src/ plus the benchmark driver, Release) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later runs only re-check the build. Build
output goes to stderr. The driver's stdout is passed through: a host block,
then, as the last line, one JSON object with correct / attempted / failed /
metrics. Temporary snapshots go to <build dir>/run. A failed build or run
exits non-zero without printing a result.

    python3 perfbench/run.py --self-test

builds and runs the check self-test (perfbench_checks_test) instead.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "edit_loop", "serve")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir, target):
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs, "--target", target],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def source_id():
    """git sha when the checkout is a git work tree, plus a digest of src/."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "git:%s,src:%s" % (sha or "none", digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    bdir = build_dir()
    if args.self_test:
        if not build(bdir, "perfbench_checks_test"):
            return 1
        return subprocess.run([os.path.join(bdir, "perfbench_checks_test")]).returncode
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    if not build(bdir, "perfbench"):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    out_dir = os.path.join(bdir, "run")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [
        os.path.join(bdir, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", out_dir,
        "--source-id", source_id(),
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
