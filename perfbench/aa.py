#!/usr/bin/env python3
"""Noise floor of the benchmark: an A/A comparison on one commit.

    python3 perfbench/aa.py [--sets 2] [--runs 10] [--workloads train,...]
                            [--out perfbench/results/noise_floor.json]

Runs every workload --runs times per set, each run with its own seed (set s
uses seeds s*100+1 ... s*100+runs), through perfbench/run.py, the command
BENCHMARK.json names. For each set, workload and end-to-end metric it
records the median, the quartiles (statistics.quantiles(values, n=4)) and
the spread (q3 - q1) / median; across sets it records how far the later
median moved from the first, as a share of it. Prints a table that marks a
spread above a third of the metric's bound, and writes every value to --out
as the baseline later changes compare against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError("%s seed %d exited %d"
                           % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().split("\n")[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    results = {"host": {"machine": platform.machine(),
                        "cpus": os.cpu_count()},
               "runs": args.runs, "seconds": args.seconds, "sets": []}
    ok = True
    for s in range(args.sets):
        per_workload = {}
        for w in workloads:
            runs = []
            for r in range(args.runs):
                seed = (s + 1) * 100 + r + 1
                res = run_once(w, seed, args.seconds)
                if not res["correct"] or res["failed"]:
                    ok = False
                runs.append(res)
                print("set %d %-8s seed %4d  %s" % (
                    s + 1, w, seed, "  ".join(
                        "%s=%.4g" % (k, v["value"])
                        for k, v in res["metrics"].items())), flush=True)
            per_workload[w] = {
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "correct": all(r["correct"] for r in runs),
                "metrics": {name: summarize([r["metrics"][name]["value"]
                                             for r in runs])
                            for name in bounds}}
        results["sets"].append(per_workload)

    print("\n%-8s %-16s %7s %9s  %s" % ("workload", "metric", "bound",
                                         "bound/3", "spread per set; drift"))
    for w in workloads:
        for name, bound in bounds.items():
            stats = [st[w]["metrics"][name] for st in results["sets"]]
            spreads = [x["spread"] for x in stats]
            drift = [(x["median"] - stats[0]["median"]) / stats[0]["median"]
                     for x in stats[1:]]
            flag = ""
            if max(spreads) > bound / 3:
                flag = "  SPREAD"
            if max(spreads) > bound:
                flag, ok = "  SPREAD>BOUND", False
            if any(abs(d) > bound for d in drift):
                flag += "  DRIFT>BOUND"
                ok = False
            print("%-8s %-16s %7.3f %9.4f  %s; %s%s" % (
                w, name, bound, bound / 3,
                " ".join("%.4f" % x for x in spreads),
                " ".join("%+.4f" % d for d in drift), flag))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(results, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
