#!/usr/bin/env python3
"""Build and run the EaseIO reproduction's benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: sweep-matrix, fleet-radio, ota-rollout, paper-eval. The default
seed is 7; 1009 is the held-out seed (see perfbench/README.md).

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
or perfbench/target when that is unset, then runs it from the repository
root. The binary prints human-readable lines and, last, one JSON result
line. The exit code is the build's when the build fails, else the
benchmark's: 0 when every check passed, 1 when a check failed, 2 on a
usage or setup error.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["sweep-matrix", "fleet-radio", "ota-rollout", "paper-eval"]
DEFAULT_SEED = 7


def commit_id():
    """The checkout's git commit, or a note that it has none."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    env = dict(os.environ)
    target = os.path.abspath(
        env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, "perfbench", "target")
    )
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return build.returncode
    run = subprocess.run(
        [
            os.path.join(target, "release", "perfbench"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            str(args.seconds),
            "--trace",
            args.trace,
            "--out-dir",
            os.path.join(target, "perfbench-out"),
            "--commit",
            commit_id(),
        ],
        cwd=ROOT,
        env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
