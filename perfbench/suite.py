#!/usr/bin/env python3
"""Run every workload BENCHMARK.json names, one after another.

Run from the repository root:

    python3 perfbench/suite.py --seed 1234 --seconds 30 [--trace 1]

Each workload runs in its own process through run.py, whose output is
passed through; a table of every metric per workload follows.  Exit
code 0 when every run was correct.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]

    results = {}
    for wl in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", wl["name"],
             "--seed", str(args.seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        results[wl["name"]] = json.loads(lines[-1]) if lines else {}

    names = list(results)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    print(f"\n{'metric':32s} {'unit':6s}" +
          "".join(f"{n:>16s}" for n in names))
    for m in metrics:
        cells = [results[n].get("metrics", {}).get(m["name"], {})
                 .get("value", float("nan")) for n in names]
        print(f"{m['name']:32s} {m['unit']:6s}" +
              "".join(f"{v:16.6g}" for v in cells))
    print(f"{'error_rate':32s} {'ratio':6s}" + "".join(
        f"{r.get('failed', 1) / max(1, r.get('attempted', 1)):16.6g}"
        for r in results.values()))
    return 0 if all(r.get("correct") for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
