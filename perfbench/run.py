#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload des_fig2val --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds perfbench/ (which compiles the
checkout's library sources, src/) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then runs the benchmark binary.  Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result.  Exits non-zero without printing a result when the build or the
run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build(out: Path) -> None:
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def git_commit() -> str:
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build, then run the benchmark's own test")
    args = parser.parse_args()
    missing = [f"--{name}" for name in ("workload", "seed", "seconds", "trace")
               if getattr(args, name) is None]
    if not args.self_test and missing:
        parser.error(f"missing {', '.join(missing)}")

    out = build_dir()
    build(out)
    if args.self_test:
        cmd = [str(out / "perfbench_selftest"), str(ROOT / "perfbench" / "specs")]
    else:
        cmd = [str(out / "perfbench_e2e"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--spec-dir", str(ROOT / "perfbench" / "specs"),
               "--out-dir", str(out / "traces"),
               "--commit", git_commit()]
    return subprocess.run(cmd, cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
