"""Run workloads over several seeds and report each metric's spread.

    python3 bench/repeat.py --seeds 1-10 [--workloads certify evaluate] [--trace 0]

Runs ``bench/run.py`` once per (workload, seed), one process at a time, with
the run length from BENCHMARK.json. For every metric it prints the median,
the quartiles of ``statistics.quantiles(values, n=4)`` and their distance
as a share of the median, next to the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:6]),
                  flush=True)
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            print(f"  {workload} {name}: median {median:.6g} quartiles {q1:.6g}..{q3:.6g} "
                  f"spread {spread:.4f} bound {bounds.get(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
