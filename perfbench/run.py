#!/usr/bin/env python3
"""Builds perfbench from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The build goes to
$CARGO_TARGET_DIR (default: .bench_build at the checkout root). The first
run configures and compiles the nuchase libraries and the perfbench
executable; later runs only check that the build is current. A traced
run (--trace 1) writes its spans to <build>/spans/<workload>-seed<N>.json.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it are
the executable's {"detail": ...} line. The result is checked against
BENCHMARK.json (every metric named there, with its unit, and no other)
before it is printed. A traced run reports only the per-layer metrics
its workload measures and lists the others on the detail line
("unmeasured": names, or prefixes ending in "."); run.py reports each
listed metric as 0 and fails on a name outside BENCHMARK.json or a
metric neither measured nor listed. Exits non-zero, printing no result,
when the sources are missing, the build fails, or the executable fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build_dir():
    return os.path.join(ROOT,
                        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build(out_dir):
    """Configures (once) and builds perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no nuchase sources under {ROOT}/src; nothing to build")
    log = sys.stderr
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=log, stderr=log).returncode != 0:
            fail("cmake configure failed")
    compile_ = ["cmake", "--build", out_dir, "--target", "perfbench",
                "-j", "4"]
    if subprocess.run(compile_, stdout=log, stderr=log).returncode != 0:
        fail("build failed")
    binary = os.path.join(out_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail(f"build produced no {binary}")
    return binary


def fill_unmeasured(result, detail, spec):
    """Adds a 0 for each per-layer metric the traced run lists as not
    measured; returns a reason the run's metrics are wrong, or None."""
    unmeasured = detail.get("unmeasured")
    if not isinstance(unmeasured, list):
        return "traced run lists no unmeasured metrics"
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return "metrics is not an object"

    def listed(name):
        return any(name == u or (u.endswith(".") and name.startswith(u))
                   for u in unmeasured)

    for m in spec["per_layer"]:
        name = m["name"]
        if name in metrics:
            if listed(name):
                return f"{name} is both measured and listed as unmeasured"
        elif listed(name):
            metrics[name] = {"value": 0, "unit": m["unit"]}
        else:
            return f"{name} is neither measured nor listed as unmeasured"
    return None


def check_result(result, spec, trace):
    """Returns a reason the result line breaks the contract, or None."""
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a count"
    if result["attempted"] < 1:
        return "no operation attempted"
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        return f"metric names differ (missing {missing}, extra {extra})"
    for name, metric in metrics.items():
        value = metric.get("value")
        if metric.get("unit") != units[name]:
            return f"{name}: unit {metric.get('unit')} != {units[name]}"
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name}: value {value!r} is not a finite number"
        if not trace and value <= 0:
            return f"{name}: end-to-end value {value} is not positive"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload}; choose from {workloads}")
    if not 0 <= args.seed < 2**32:
        fail("--seed must be in [0, 2^32)")

    out_dir = build_dir()
    binary = build(out_dir)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds), "--trace",
               str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(out_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans", os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"perfbench exited with status {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("perfbench printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON: {lines[-1][:200]}")
    problem = None
    if args.trace:
        try:
            detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
        except (ValueError, KeyError, TypeError):
            detail = {}
        problem = fill_unmeasured(result, detail, spec)
    if problem is None:
        problem = check_result(result, spec, args.trace)
    if problem is not None:
        fail(f"result breaks the output contract: {problem}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
