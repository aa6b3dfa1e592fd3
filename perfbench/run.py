#!/usr/bin/env python3
"""Builds and runs the ptdf benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <apps|server|analysis> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode (into $CARGO_TARGET_DIR, or
perfbench/target), then runs one workload in one process with every
environment input that changes the program's cost pinned. The last line of
standard output is the result object. A traced run also writes its spans to
perfbench/out/spans-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170

# The panic hook prints a full backtrace for every cancellation unwind when
# RUST_BACKTRACE=1; that cost is the program's, so it is pinned on rather
# than left to the caller's environment. The REPRO_* switches change the
# scale of the repository's harnesses that the benchmark calls into.
PINNED = {"RUST_BACKTRACE": "1"}
UNSET = ("REPRO_FULL", "REPRO_QUICK", "REPRO_OUT", "REPRO_PROCS", "RUST_LIB_BACKTRACE", "RUSTFLAGS")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["apps", "server", "analysis"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(os.path.abspath(target), "release", "perfbench")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINNED)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")]
    # The stderr sink is pinned to the null device: the program still pays
    # for formatting and writing every backtrace, but no terminal, pipe or
    # page cache adds its own cost (a log file doubled the run's system time).
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout.decode())
    sys.stdout.flush()
    if run.returncode != 0:
        print(f"perfbench: exit code {run.returncode}; to see its stderr, run: {' '.join(cmd)}",
              file=sys.stderr)
        return run.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
