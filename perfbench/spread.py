#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

For every workload and seed it runs the command from BENCHMARK.json
(`--trace 0`), takes the JSON object on the last line of its output, and
reports per end-to-end metric the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them), n, and the spread
`(q3 - q1) / median` next to the metric's bound. With `--traced` it also
makes one `--trace 1` run per workload and records its per-layer metrics.

    python3 perfbench/spread.py --seeds 1-10 [--workloads read-hot,...]
                                [--traced] [--out perfbench/results/x.json]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_from(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return check_line(bench, json.loads(lines[-1]), trace), wall


def check_line(bench, result, trace):
    """Exits unless `result` has exactly the shape the result line must have."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"keys {sorted(result)}")
    for key in ("attempted", "failed"):
        if type(result.get(key)) is not int:
            problems.append(f"{key} is not a whole number: {result.get(key)!r}")
    if type(result.get("attempted")) is int and result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(units):
        problems.append(f"metrics {sorted(metrics)} != manifest {sorted(units)}")
    for name, m in metrics.items():
        if sorted(m) != ["unit", "value"] or m.get("unit") != units.get(name) \
                or type(m.get("value")) not in (int, float):
            problems.append(f"metric {name}: {m!r}")
    if problems:
        sys.exit("result line breaks the contract: " + "; ".join(problems))
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in workloads:
        values, walls = {}, []
        for seed in seeds_from(args.seeds):
            result, wall = run_once(bench, workload, seed, 0)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: incorrect result {result}")
            walls.append(wall)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        entry = {"end_to_end": {}, "wall_s": summarize(walls)}
        print(f"{workload}: median wall {entry['wall_s']['median']:.1f} s per run")
        for name, vals in values.items():
            s = summarize(vals)
            s["unit"] = result["metrics"][name]["unit"]
            s["bound"] = bounds.get(name)
            entry["end_to_end"][name] = s
            flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"  {name:<24} median {s['median']:>14.4f} {s['unit']:<6} "
                  f"q1 {s['q1']:>14.4f} q3 {s['q3']:>14.4f} spread {s['spread']:.4f} "
                  f"bound {s['bound']}{flag}")
        if args.traced:
            seed = seeds_from(args.seeds)[0]
            result, _ = run_once(bench, workload, seed, 1)
            entry["per_layer"] = {"seed": seed, "metrics": result["metrics"]}
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
