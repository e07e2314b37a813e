#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and spread (the distance between the first and third quartiles as a
share of the median) against a third of its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload serve --seeds 1-5

Run it from the repository root. Every run's result line is appended to
--log as JSON, so two sets can be compared afterwards.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--log", default=".bench_build/spread.jsonl")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        with open(args.log, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed, **res}) + "\n")
        if not res["correct"] or res["failed"]:
            print(f"seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())),
              flush=True)
    ok = True
    for m in bench["end_to_end"]:
        vs = values[m["name"]]
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        steady = spread < m["bound"] / 3 or m["name"] == "setup_s"
        ok &= steady
        print(f"{m['name']:14s} median {med:12.6g} {m['unit']:6s} spread {spread:7.2%}  "
              f"(a third of the bound: {m['bound'] / 3:.2%}){'' if steady else '  UNSTEADY'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
