"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads NAME ...] [--out FILE]

Runs perfbench/run.py once per seed per workload (untraced, run_seconds from
BENCHMARK.json), then prints for every end-to-end metric its median and its
spread: the distance between the first and third quartile of the runs
(statistics.quantiles(values, n=4)) as a share of the median.  Each spread
should stay below a third of the metric's bound.  --out writes the values
and spreads as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for w in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(w, seed, bench["run_seconds"])
            if not res["correct"]:
                raise RuntimeError(f"{w} seed {seed}: {res['failed']} failed ops")
            runs.append(res)
        report[w] = {}
        for m, bound in bounds.items():
            values = [r["metrics"][m]["value"] for r in runs]
            s = spread(values)
            report[w][m] = {"median": statistics.median(values), "spread": s,
                            "bound": bound, "values": values}
            flag = "ok" if s < bound / 3 else "WIDE"
            print(f"{w:<15} {m:<12} median {statistics.median(values):<12.6g} "
                  f"spread {s:.4f}  bound/3 {bound / 3:.4f}  {flag}", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"run_seconds": bench["run_seconds"],
                       "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                       "workloads": report}, fh, indent=1)


if __name__ == "__main__":
    main()
