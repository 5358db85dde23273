#!/usr/bin/env python3
"""Builds omnibench from this checkout's sources and runs one workload.

    python3 omnibench/run.py --workload tcp-sparse --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build, relative to
the working directory, as cargo resolves it); cargo's output goes to
stderr so that the last line of stdout is the benchmark's JSON result.
Each run gets loopback ports no earlier run of this checkout used: a
cursor file in the build directory hands out consecutive blocks below
the kernel's ephemeral range, so no socket left in TIME_WAIT collides.
Exits non-zero, without a result line, if the build fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PORT_LO, PORT_HI, PORTS_PER_RUN = 10000, 32000, 320
RUN_TIMEOUT_S = 175


def next_port_base(target: Path) -> int:
    cursor = target / "omnibench-ports"
    try:
        base = int(cursor.read_text())
    except (OSError, ValueError):
        base = PORT_LO
    if not PORT_LO <= base <= PORT_HI - PORTS_PER_RUN:
        base = PORT_LO
    cursor.write_text(str(base + PORTS_PER_RUN))
    return base


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("omnibench: build failed", file=sys.stderr)
        return 2
    # Write back what the build left dirty before anything is timed.
    os.sync()

    cmd = [str(target / "release" / "omnibench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--port-base", str(next_port_base(target))]
    if args.trace == "1":
        cmd += ["--spans", str(target / "omnibench" / f"spans-{args.workload}.csv")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"omnibench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stdout.write(run.stdout)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        print("omnibench: no result line", file=sys.stderr)
        return run.returncode or 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
