#!/usr/bin/env python3
"""Builds and runs the selfstab benchmark (see perfbench/README.md).

One run, from the root of a checkout:

    python3 perfbench/run.py --workload converge-central --seed 1 --seconds 20 --trace 0

prints a fingerprint line and, as its last line, the JSON result
{"correct", "attempted", "failed", "metrics"}. With --trace 1 the metrics are
the per-layer ones, and the spans are written to perfbench/out/. The
converge-dense workload is left out of BENCHMARK.json (see README.md) but
runs the same way.

Steadiness mode runs every workload of BENCHMARK.json with seeds 1..runs
and prints, per metric and workload, the median, quartiles, min and max
against the bound in BENCHMARK.json:

    python3 perfbench/run.py --steadiness --runs 10

Layers mode makes one traced run per workload of BENCHMARK.json and sets
each layer's measured share of the unit (or of set-up), as the program
reports them in perfbench/out/, against perfbench/predictions.json:

    python3 perfbench/run.py --layers --seed 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark program from source; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def command_output(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def fingerprint(workload, seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "rustc": command_output(["rustc", "-V"]),
        # Only a repository rooted at this checkout names its commit.
        "commit": (command_output(["git", "rev-parse", "HEAD"])
                   if command_output(["git", "rev-parse", "--show-toplevel"]) == ROOT
                   else "unknown"),
        "workload": workload,
        "seed": seed,
    }


def run_once(binary, workload, seed, seconds, trace):
    """Runs one measurement; returns the parsed result or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} seed {seed} timed out", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"perfbench: {workload} seed {seed} failed (exit {done.returncode})", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: malformed result {lines[-1]}", file=sys.stderr)
        return None
    return result


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        return json.load(spec_file)


def steadiness(binary, args):
    spec = benchmark_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("fingerprint " + json.dumps(fingerprint("all", f"1..{args.runs}")))
    seconds = args.seconds or spec["run_seconds"]
    report = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in range(1, args.runs + 1):
            started = time.monotonic()
            result = run_once(binary, workload, seed, seconds, 0)
            wall_s = time.monotonic() - started
            if result is None or not result["correct"]:
                print(f"perfbench: {workload} seed {seed}: no correct result", file=sys.stderr)
                ok = False
                continue
            line = {k: v["value"] for k, v in result["metrics"].items()}
            print(json.dumps({"workload": workload, "seed": seed, "wall_s": round(wall_s, 2),
                              "attempted": result["attempted"],
                              "failed": result["failed"], "metrics": line}), flush=True)
            for name, value in line.items():
                values.setdefault(name, []).append(value)
        for name, vals in values.items():
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            # The target is a spread below a third of the bound; a spread
            # at or above the bound fails the benchmark's acceptance rule.
            if bound is None or spread < bound / 3:
                verdict = "steady"
            elif spread < bound:
                verdict = "within bound, above bound/3"
            else:
                verdict = "TOO NOISY"
            ok = ok and verdict == "steady"
            report[f"{workload}/{name}"] = {
                "median": med, "q1": q1, "q3": q3, "min": min(vals), "max": max(vals),
                "spread": spread, "bound": bound, "runs": len(vals), "verdict": verdict,
            }
    print(f"{'workload/metric':42} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} "
          f"{'max':>12} {'spread':>7} {'bound':>6}  verdict")
    for key, r in report.items():
        print(f"{key:42} {r['median']:12.6g} {r['q1']:12.6g} {r['q3']:12.6g} {r['min']:12.6g} "
              f"{r['max']:12.6g} {r['spread']:7.4f} {r['bound']:6}  {r['verdict']}")
    print(json.dumps({"steadiness": report}))
    return 0 if ok else 1


def layers(binary, args):
    with open(os.path.join(HERE, "predictions.json")) as spec_file:
        predictions = json.load(spec_file)["layers"]
    spec = benchmark_spec()
    seconds = args.seconds or spec["run_seconds"]
    refuted = []
    for workload in (w["name"] for w in spec["workloads"]):
        result = run_once(binary, workload, args.seed, seconds, 1)
        if result is None or not result["correct"]:
            print(f"perfbench: {workload}: no correct traced result", file=sys.stderr)
            return 1
        values = {k: v["value"] for k, v in result["metrics"].items()}
        values["experiments.*_s"] = sum(v for k, v in values.items()
                                        if k.startswith("experiments.E"))
        with open(os.path.join(HERE, "out", f"spans-{workload}-seed{args.seed}.json")) as f:
            summary = json.load(f)
        unit_s, setup_s = summary["unit_s"], summary["setup_s"]
        print(f"== {workload}: traced unit {unit_s:.4f} s (median), set-up {setup_s:.4f} s, "
              f"trace overhead {values['trace.overhead']:.3f}x, "
              f"unattributed {values['unattributed_s']:.6f} s")
        for name in summary["self_times"] + ["unattributed_s"]:
            print(f"   {name:34} {values[name]:12.6f} s  {100 * values[name] / unit_s:6.2f}% of unit")
        for name, p in predictions.items():
            if p["share_of"] == "none":
                print(f"   {name:34} {values[name]:12.4f} (no share)")
                continue
            base = setup_s if p["share_of"] == "setup" else unit_s
            share = values[name] / base if base else 0.0
            if any(w == workload for _, w in p["moves"]):
                verdict = "holds" if share >= 0.10 else "REFUTED (predicted to matter)"
            elif workload in p["flat"]:
                verdict = "holds" if share < 0.05 else "REFUTED (predicted flat)"
            else:
                continue
            if verdict != "holds":
                refuted.append(f"{workload}/{name}")
            print(f"   prediction {name:23} share {100 * share:6.2f}%  {verdict}")
    print(json.dumps({"refuted": refuted}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    if not (args.steadiness or args.layers) and args.workload is None:
        parser.error("--workload is required unless --steadiness or --layers is given")
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        print("perfbench: the repository's crates are missing; nothing to build", file=sys.stderr)
        return 1
    binary = build()
    if binary is None:
        return 1
    if args.steadiness:
        return steadiness(binary, args)
    if args.layers:
        return layers(binary, args)
    result = run_once(binary, args.workload, args.seed,
                      args.seconds or benchmark_spec()["run_seconds"], args.trace)
    if result is None:
        return 1
    print("fingerprint " + json.dumps(fingerprint(args.workload, args.seed)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
