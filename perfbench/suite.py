"""Run every workload once and print each metric by name, with its unit.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--trace 0|1]
        [--out FILE]

Each workload runs in its own process (perfbench/run.py), so peak memory is
per workload.  With --trace 0 it prints the end-to-end metrics and
failed_frac (failed ops / attempted ops); with --trace 1 the per-layer
metrics.  --out writes every result, with the environment, as JSON.
Exits non-zero if any op failed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    args = p.parse_args()
    results = {}
    for w in (w["name"] for w in bench["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            sys.exit(f"{w} exited {proc.returncode}:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        info = next(json.loads(x) for x in lines if x.startswith('{"workload"'))
        res = json.loads(lines[-1])
        res["failed_frac"] = res["failed"] / res["attempted"]
        results[w] = {"run": info, "result": res}
        print(f"{w}  ({info['ops_measured']} ops measured, unit of work: "
              f"{info['unit_of_work']})")
        for line in lines:
            if line.startswith(f"# {w}: dominant"):
                print("  " + line[2:])
        for name, m in res["metrics"].items():
            print(f"  {name:<40} {m['value']:<14.6g} {m['unit']}")
        print(f"  {'failed_frac':<40} {res['failed_frac']:<14.6g} ratio")
    print("environment: " + json.dumps(info["env"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)
    return 1 if any(r["result"]["failed"] for r in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
