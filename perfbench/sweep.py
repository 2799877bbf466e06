#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --seeds 0-9 [--workloads NAME ...] [--trace 1] [--out FILE]

Runs ``run.py`` once per workload and seed, one run at a time, for the
``run_seconds`` of ``BENCHMARK.json``, and prints for each metric the median,
the quartiles as ``statistics.quantiles(values, n=4)`` gives them, and their
distance as a share of the median next to the metric's bound.  With
``--out`` it also writes every run's result line and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from record_digests import parse_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=parse_seeds, required=True, help="N or N-M")
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
              "run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    ok = True
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            ok &= result["correct"]
            runs.append({"seed": seed, **result})
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed={seed} correct={result['correct']} {values}", flush=True)
        summary = {}
        if len(runs) >= 2:
            for metric in runs[0]["metrics"]:
                summary[metric] = summarise([r["metrics"][metric]["value"] for r in runs])
                s = summary[metric]
                print(f"  {name} {metric}: median {s['median']:.6g} q1 {s['q1']:.6g} "
                      f"q3 {s['q3']:.6g} spread {s['spread']:.4f}"
                      + (f" bound {bounds[metric]}" if metric in bounds else ""))
        report["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
