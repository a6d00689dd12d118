#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload c2670_session --seed 1 --seconds 10 --trace 0

Every argument is passed to the binary (see perfbench/README.md). The
build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset; the
run's scratch files go to .bench_work/<pid> and are removed afterwards.
Build output goes to stderr, so the last line of stdout is the result.
Exits non-zero, printing no result, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def commit():
    """The checkout's commit, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) == 2 and Path(top[0]).resolve() == ROOT:
        return top[1]
    return "unknown"


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    work = ROOT / ".bench_work" / str(os.getpid())
    try:
        run = subprocess.run(
            [str(target / "release" / "perfbench"), *sys.argv[1:],
             "--work-dir", str(work), "--commit", commit(),
             "--reference", str(BENCH / "reference.tsv")],
            check=False,
        )
        return run.returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
