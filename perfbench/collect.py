#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/NAME.json
    python3 perfbench/collect.py --workloads e1_scan --seeds 1-5 --trace 1

Runs ``perfbench/run.py`` once per (seed, workload), interleaving workloads
within each seed, and prints for every metric the median, the quartiles
(``statistics.quantiles(n=4)``) and their distance as a share of the
median, next to the metric's bound from ``BENCHMARK.json``.  With ``--out``
the runs and the summary are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (%d): %s" % (workload, seed, proc.returncode, proc.stderr[-2000:]))
    comments = [line for line in lines[:-1] if line.startswith(("# FAILED", "# wall_s runs", "# setup_s probes"))
                or "violation" in line]
    provenance = next((json.loads(line[len("# provenance "):]) for line in lines
                       if line.startswith("# provenance ")), None)
    return json.loads(lines[-1]), comments, provenance


def summarise(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / abs(med) if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    runs = {w: [] for w in args.workloads.split(",")}
    for seed in parse_seeds(args.seeds):
        for workload in runs:
            result, comments, provenance = run_once(workload, seed, args.seconds, args.trace)
            runs[workload].append({"seed": seed, "result": result, "notes": comments,
                                   "provenance": provenance})
            vals = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                    if not args.trace or k.endswith("wall_s") or k == "trace.overhead_s"}
            print("%s seed %d: correct=%s failed=%d/%d %s" % (
                workload, seed, result["correct"], result["failed"], result["attempted"], vals), flush=True)

    summary = {}
    for workload, wruns in runs.items():
        summary[workload] = {}
        for name in wruns[0]["result"]["metrics"]:
            stats = summarise([r["result"]["metrics"][name]["value"] for r in wruns])
            stats["unit"] = wruns[0]["result"]["metrics"][name]["unit"]
            summary[workload][name] = stats
            bound = bounds.get(name)
            if bound is not None or not args.trace:
                print("%-15s %-20s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %s" % (
                    workload, name, stats["median"], stats["q1"], stats["q3"], stats["spread"], bound))
    if args.out:
        out = {"seconds": args.seconds, "trace": args.trace, "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
