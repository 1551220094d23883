#!/usr/bin/env python3
"""Build the engine and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_weights --seed 1 --seconds 30 --trace 0

The build goes through dune into _build/; its output goes to stderr so
that the last line of stdout is the benchmark's JSON result. Every
argument is passed through to perfbench/bench.exe (see bench.ml). A
failed build exits non-zero without printing a result.
"""

import glob
import os
import shutil
import subprocess
import sys


def dune_env():
    """The environment to build with: PATH must reach dune and ocaml."""
    env = dict(os.environ)
    if shutil.which("dune") is None:
        candidates = sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
        if candidates:
            env["PATH"] = os.path.dirname(candidates[0]) + os.pathsep + env.get("PATH", "")
    return env


def main():
    env = dune_env()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
        )
    except OSError as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    # One client on one core: pin the run to the last CPU it may use (the
    # first one usually also takes the interrupts), so that a run does
    # not change speed when the scheduler moves it between cores.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
