#!/usr/bin/env python3
"""Build and run the hypart benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ml_sweep --seed 1 --seconds 20 --trace 0

Builds the `perfbench` package (a workspace of its own that depends on the
repository's crates by path) in release mode, offline, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload. The
batch workloads run pinned to one CPU: on a small shared host, threads
that wake each other across CPUs wait on the hypervisor, and a process
that migrates refills its caches, both by amounts that vary from run to
run. `serve_mixed` (a daemon and its clients) runs unpinned. The last
line of standard output is the result JSON; the exit code is nonzero
when the build fails, a run fails, or an output check fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
RUN_TIMEOUT_S = 175


def main() -> int:
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    pin = None
    if "serve_mixed" not in sys.argv[1:]:
        cpu = max(os.sched_getaffinity(0))
        pin = lambda: os.sched_setaffinity(0, {cpu})  # noqa: E731
    try:
        run = subprocess.run(
            [exe, "run", *sys.argv[1:]], cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S, preexec_fn=pin
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
