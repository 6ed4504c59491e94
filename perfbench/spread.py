#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload landsend-basic --seeds 1-10 [--trace 0]

Run from the repository root after one build (`cargo build --release
--manifest-path perfbench/Cargo.toml`). For every metric it prints the
median of the per-run values and the distance between the first and third
quartile (Python's `statistics.quantiles(values, n=4)`) as a share of that
median, next to the metric's bound from BENCHMARK.json. A spread above a
third of its bound means the benchmark is not steady enough to gate on.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    failed = False
    for workload in args.workload:
        values = {}
        for seed in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failed = True
                continue
            result = json.loads(last)
            failed |= not result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = f"{(q3 - q1) / abs(med):.4f}"
            else:
                spread = "n/a"
            bound = bounds.get(name)
            print(f"  {workload:<16} {name:<36} median {med:<14.6g} spread {spread:<8} "
                  f"bound {bound if bound is not None else '-'} (n={len(vals)})")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
