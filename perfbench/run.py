#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <serve-zipf|serve-churn> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is the Rust package next to this file. It is built in
release mode into $CARGO_TARGET_DIR (default: .bench_build at the root)
and run from the root. Its standard output ends with a context line and
the result line; build output goes to standard error. The exit code is
not 0 when the build, the run or the result line fails.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "perfbench" / "Cargo.toml"
# A run must end within 180 s once the benchmark is built.
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main():
    env = dict(os.environ)
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed (the benchmark needs the repository's crates/ next to it)")

    started = time.monotonic()
    try:
        run = subprocess.run(
            [str(target / "release" / "pcs-perfbench"), *sys.argv[1:]],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        return fail(f"run failed with exit code {run.returncode}", run.returncode)

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return fail("the run printed no result line")
    if set(result) != RESULT_KEYS:
        return fail(f"result line has keys {sorted(result)}")
    print("\n".join(lines[:-1]))
    print(f"perfbench: run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
