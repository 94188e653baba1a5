#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics against their bounds.

Run from the root of a checkout::

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...]

Runs ``perfbench/run.py`` once per seed and workload (untraced, for the
``run_seconds`` of ``BENCHMARK.json``) and prints, per workload and metric,
the median, the quartile spread as a share of the median, that spread as a
share of the metric's bound, and the number of failed operations.  Results
are appended to ``.perfbench-out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".perfbench-out" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    for workload in workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     **result}) + "\n")
            print(f"{workload} seed {seed}: correct={result['correct']} " +
                  " ".join(f"{k}={v['value']:.4f}"
                           for k, v in result["metrics"].items()), flush=True)
        failed = sum(r["failed"] for r in runs)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            print(f"{workload:22s} {name:12s} median {median:10.4f}  "
                  f"spread {share:6.3f}  = {share / bound:5.2f} x bound "
                  f"{bound}  failed {failed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
