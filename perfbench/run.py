#!/usr/bin/env python3
"""Build and run Rocker's time-to-verdict benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fig7-large-seq, fig7-large-par, corpus-small (see
BENCHMARK.json and rocker_perfbench.cpp for what each measures and why).

The first run configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. Build output goes to stderr. The harness's stdout is
passed through unchanged: a readable table of the metrics with units and
sample counts, then one JSON line {"correct", "attempted", "failed",
"metrics"}. Full per-run records and Perfetto traces go to .bench_out/.

Exit code: the harness's, or 2 when the source tree is missing or the build
fails (no result line is printed then).
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "rocker_perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no Rocker source tree at {os.path.join(ROOT, 'src')}")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # One build at a time.
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", BINARY,
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                fail("build failed: " + " ".join(cmd))
    return os.path.join(out, BINARY)


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def main():
    binary = build()
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    cmd = [binary, *sys.argv[1:], "--out-dir", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
