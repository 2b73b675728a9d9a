#!/usr/bin/env python3
"""Runs the serving benchmark on several seeds and prints, per metric, the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median.

    python3 perfbench/spread.py --workload gateway-b32 --seeds 1-10 [--trace 0]

Run from the repository root; pass --bench to use a prebuilt binary.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bench", default="bash perfbench/run.sh")
    args = ap.parse_args()
    values = {}
    for seed in seeds(args.seeds):
        t = time.time()
        cmd = args.bench.split() + ["--workload", args.workload, "--seed", str(seed),
                                    "--seconds", args.seconds, "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - t
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: incorrect\n{out.stderr}")
        line = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"seed {seed} wall {wall:.1f}s " + " ".join(f"{k}={v:.4g}" for k, v in sorted(line.items())), flush=True)
        for k, v in line.items():
            values.setdefault(k, []).append(v)
    for k, vs in sorted(values.items()):
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            print(f"{k:32s} median {med:12.5g}  spread {(q3 - q1) / abs(med):.3f}")
        else:
            print(f"{k:32s} median {med:12.5g}")


if __name__ == "__main__":
    main()
