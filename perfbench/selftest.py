#!/usr/bin/env python3
"""Self-test for the benchmark harness; takes seconds after the build.

Usage, from the repository root:  python3 perfbench/selftest.py

Checks, on one or two tiny programs per workload (BENCHMARK.json's and
corpus-small):
  - untraced and traced runs print, in their last stdout line, exactly the
    end-to-end and per-layer metrics BENCHMARK.json names, with its units,
    and report every check correct;
  - untraced runs print verdict_p50_ms and verdict_p99_ms in the table: as
    values over >= 1000 checks, or as unavailable with fewer;
  - the traced run writes a Perfetto trace that bench/trace_check.py
    accepts (when that script is present);
  - a deliberately wrong expected verdict is counted as exactly one failed
    operation;
  - the harness refuses to run when a ROCKER_* override is set;
  - run.py exits non-zero without a result line when the source tree is
    missing.
Exit code 0 when all pass.
"""

import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

TINY = {"fig7-large-seq": "SB", "fig7-large-par": "SB", "corpus-small": "SB,MP"}
FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def harness(binary, args, env=None):
    out_dir = os.path.join(ROOT, ".bench_out", "selftest")
    r = subprocess.run([binary, *args, "--out-dir", out_dir],
                       capture_output=True, text=True, env=env, timeout=170)
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return r.returncode, result, out_dir, r.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    # corpus-small is runnable but not among BENCHMARK.json's workloads.
    names = [w["name"] for w in spec["workloads"]]
    for name in names + [n for n in TINY if n not in names]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            # 500 rounds of two tiny programs reach the 1000 checks the
            # corpus-small percentiles need.
            rounds = "500" if name == "corpus-small" and trace == "0" else "2"
            rc, res, out_dir, out = harness(binary, [
                "--workload", name, "--seed", "1", "--seconds", "1",
                "--trace", trace, "--programs", TINY[name], "--rounds", rounds])
            tag = f"{name} --trace {trace}"
            check(rc == 0 and res is not None, f"{tag}: exits 0 with a result")
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result has exactly the four keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{tag}: all {res['attempted']} checks correct")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(got == want, f"{tag}: prints every {key} metric with its unit")
            check(all(isinstance(v.get("value"), (int, float))
                      for v in res["metrics"].values()),
                  f"{tag}: every value is a number")
            if trace == "0":
                rows = [l.split() for l in out.splitlines()
                        if l.startswith("verdict_p")]
                avail = name == "corpus-small"
                check([r[0] for r in rows] == ["verdict_p50_ms", "verdict_p99_ms"]
                      and all(r[2] == "ms" for r in rows)
                      and all(("unavailable:" in r) != avail for r in rows),
                      f"{tag}: prints the percentiles in the table"
                      + ("" if avail else " as unavailable"))
            if trace == "1":
                traces = glob.glob(os.path.join(out_dir, name + "*.perfetto.json"))
                check(bool(traces), f"{tag}: writes a Perfetto trace")
                checker = os.path.join(ROOT, "bench", "trace_check.py")
                if traces and os.path.isfile(checker):
                    ok = subprocess.run([sys.executable, checker, *traces],
                                        capture_output=True).returncode == 0
                    check(ok, f"{tag}: bench/trace_check.py accepts the trace")

    rc, res, _, _ = harness(binary, [
        "--workload", "fig7-large-seq", "--seed", "1", "--seconds", "1",
        "--trace", "0", "--programs", "SB,MP", "--rounds", "1",
        "--expect-wrong", "SB"])
    check(res is not None and not res["correct"] and res["failed"] == 1
          and res["attempted"] == 2,
          "a wrong expected verdict is exactly one failed check of two")

    for var in ("ROCKER_NO_POR", "ROCKER_NO_COMPRESS", "ROCKER_VISITED",
                "ROCKER_TRACE", "ROCKER_FI"):
        rc, res, _, _ = harness(binary, [
            "--workload", "corpus-small", "--seed", "1", "--seconds", "1",
            "--trace", "0"], env=dict(os.environ, **{var: "1"}))
        check(rc != 0 and res is None, f"refuses to run with {var} set")

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "corpus-small", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, env=env, timeout=170)
    check(r.returncode != 0 and not r.stdout.strip(),
          "run.py fails without a result when the source tree is missing")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
