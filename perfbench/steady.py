#!/usr/bin/env python3
"""Steadiness report: runs every workload k times and summarizes.

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] [--traced]

For every workload of BENCHMARK.json it makes --runs untraced runs of
run_seconds through run.py, each with its own seed (seed-base,
seed-base + 1, ...), cycling through the workloads so host drift spreads
over all of them alike. It then prints, per end-to-end metric, the
median of the runs and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. A spread at or
above a third of the bound is flagged "WIDE", above the bound "OVER".
The last line gives the largest spread / bound over every end-to-end
metric of every workload, setup_s included. The host-drift references
are summarized the same way: host.spin_ms, a fixed CPU loop timed at
the start and end of every run, and host.steal_pct, the share of all
CPU time the hypervisor gave to other guests during the run.

--traced adds one traced run per workload and seed and prints the tracing
overhead: the traced run's own trace.latency_p50_ms and trace.ops_per_s
against the untraced medians.

Every run's result lines are also written to <build>/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} trace {trace} failed")
    lines = run.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
    return json.loads(lines[-1]), detail


def spread(values):
    """(median, IQR / median), the quartiles from statistics.quantiles."""
    median = statistics.median(values)
    if len(values) < 2 or median == 0:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.seed_base + i
        for w in workloads:
            result, detail = run_once(w, seed, seconds, 0)
            runs[w].append({"seed": seed, "result": result,
                            "detail": detail})
            print(f"  {w} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} " +
                  " ".join(f"{k}={v['value']:.4g}"
                           for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
            if args.traced:
                result, _ = run_once(w, seed, seconds, 1)
                traced[w].append({"seed": seed, "result": result})

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for w in workloads:
        print(f"{w}  ({len(runs[w])} runs, seeds {args.seed_base}.."
              f"{args.seed_base + args.runs - 1}, {seconds:g} s each)")
        failed = sum(r["result"]["failed"] for r in runs[w])
        attempted = sum(r["result"]["attempted"] for r in runs[w])
        samples = [r["detail"].get("samples", 0) for r in runs[w]]
        print(f"  failed/attempted {failed}/{attempted}; samples per run "
              f"{min(samples):g}..{max(samples):g}")
        medians = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs[w]]
            median, share = spread(values)
            medians[name] = median
            flag = ("OVER" if share > bound else
                    "WIDE" if share >= bound / 3 else "ok")
            worst = max(worst, share / bound)
            print(f"  {name:16s} median {median:12.5g}  spread "
                  f"{share:7.2%}  bound {bound:.0%}  {flag}")
        for name in ("host.spin_ms", "host.steal_pct"):
            values = [r["detail"].get(name, 0) for r in runs[w]]
            median, share = spread(values)
            print(f"  {name:16s} median {median:12.5g}  spread "
                  f"{share:7.2%}  max {max(values):.4g}")
        if traced[w]:
            for name, base in (("trace.latency_p50_ms", "latency_p50_ms"),
                               ("trace.ops_per_s", "ops_per_s")):
                values = [r["result"]["metrics"][name]["value"]
                          for r in traced[w]]
                t = statistics.median(values)
                print(f"  tracing overhead {base}: traced {t:.5g} - "
                      f"untraced {medians[base]:.5g} = "
                      f"{t - medians[base]:+.5g}")
    print(f"largest spread / bound: {worst:.2f}")

    out_dir = os.path.join(ROOT,
                           os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    with open(os.path.join(out_dir, "steady.json"), "w") as f:
        json.dump({"runs": runs, "traced": traced}, f, indent=1)


if __name__ == "__main__":
    main()
