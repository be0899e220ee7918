#!/usr/bin/env python3
"""Build the benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds `perfbench/` (release, offline) into
`$CARGO_TARGET_DIR` (default `perfbench/target`), then runs the binary in a
fresh process with every TRANSER_* variable cleared except TRANSER_THREADS,
which is capped at the number of usable cores. The binary's standard output
passes through unchanged; its last line is the result object. The exit code
is the binary's, or 1 when the build fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, "perfbench", "target")
    target = os.path.join(root, target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        stderr=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    nproc = len(os.sched_getaffinity(0))
    workers = nproc
    asked = os.environ.get("TRANSER_THREADS", "")
    if asked.isdigit() and int(asked) > 0:
        workers = min(int(asked), nproc)
    env = {k: v for k, v in os.environ.items() if not k.startswith("TRANSER_")}
    env["TRANSER_THREADS"] = str(workers)
    env["PERFBENCH_NPROC"] = str(nproc)

    binary = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    run = subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir], env=env, check=False)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
