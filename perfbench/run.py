#!/usr/bin/env python3
"""Builds and runs one roclk benchmark workload.

Usage (from the root of a roclk source tree):

    python3 perfbench/run.py --workload svc_hot --seed 1 --seconds 10 --trace 0

Configures perfbench/CMakeLists.txt (the roclk libraries plus the
roclk_perfbench binary, Release) into $CARGO_TARGET_DIR or .bench_build,
builds it, runs the workload and relays its output.  The last line of
stdout is the result object {"correct", "attempted", "failed", "metrics"},
its metrics ordered as BENCHMARK.json lists them: the "end_to_end" ones
with --trace 0, the "per_layer" ones with --trace 1, where a layer the
workload does not exercise reads 0.  Build output goes to stderr.  Exits
non-zero, printing no result, when the roclk sources are missing or the
build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("svc_hot", "svc_cold", "mc_ensemble")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(configured)
    return path if path.is_absolute() else ROOT / path


def run_quiet(command):
    """Runs a build step with its output on stderr; False on failure."""
    return subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def listed_metrics(trace):
    """(name, unit) of every metric BENCHMARK.json lists for the run."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = spec["per_layer" if trace else "end_to_end"]
        return [(m["name"], m["unit"]) for m in listed]
    except (OSError, ValueError, KeyError, TypeError) as error:
        fail(f"cannot read the metric list from BENCHMARK.json: {error}")


def complete(measured, trace):
    """The measured metrics in BENCHMARK.json's order and units.

    An end-to-end metric must be measured.  A per-layer metric a workload
    does not measure reads 0.  A metric BENCHMARK.json does not list, or
    lists with another unit, fails the run."""
    listed = listed_metrics(trace)
    units = dict(listed)
    for name, metric in measured.items():
        if units.get(name) != metric.get("unit"):
            fail(f"metric {name} ({metric.get('unit')}) is not listed in "
                 "BENCHMARK.json with that unit")
    ordered = {}
    for name, unit in listed:
        if name in measured:
            ordered[name] = measured[name]
        elif trace:
            ordered[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")
    return ordered


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no roclk source tree at {ROOT}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (out / "CMakeCache.txt").is_file():
        if not run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"]):
            fail("configure failed")
    jobs = str(max(1, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", str(out), "--target",
                      "roclk_perfbench", "-j", jobs]):
        fail("build failed")
    binary = out / "roclk_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")

    out = build_dir()
    binary = build(out)
    work_dir = out / "runs" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace), "--work-dir", str(work_dir)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"workload printed no result (exit code {proc.returncode})")
    if set(result) != RESULT_KEYS:
        fail(f"result has keys {sorted(result)}")
    result["metrics"] = complete(result["metrics"], args.trace)
    print("\n".join(lines[:-1] + [json.dumps(result)]), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
