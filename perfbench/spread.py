#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each end-to-end metric's
median and quartile spread (IQR as a share of the median) per workload.

    python3 perfbench/spread.py --workloads serve-mixed --seeds 101-105

Run from the repository root. Each run is one `perfbench/run.py`
invocation; the spread is what the benchmark's bounds are checked
against, so it should stay below a third of each metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for wl in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True).stdout
            res = json.loads(out.strip().splitlines()[-1])
            ok = ok and res["correct"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{wl:16s} {name:14s} median {med:12.4f}  spread {spread:6.3f}  bound {bounds[name]}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
