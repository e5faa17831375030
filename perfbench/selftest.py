#!/usr/bin/env python3
"""Self-test of the benchmark on its tiny smoke setting, done in seconds.

Run from the repository root:

    python3 perfbench/selftest.py

It checks two things:

1. a smoke run succeeds in each trace mode and prints every metric that
   BENCHMARK.json names, with the unit named there, plus the error rate;
2. a corrupted reference digest is reported: the run marks its result
   incorrect, counts a failed operation and exits non-zero.

Exit code 0 when both hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1234  # the smoke setting has a recorded reference for this seed


def smoke(trace: int, *extra: str) -> tuple[int, str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, proc.stdout, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rc, stdout, result = smoke(trace)
        if rc != 0 or not result.get("correct"):
            problems.append(f"trace {trace}: smoke run failed (exit {rc})")
        printed = result.get("metrics", {})
        for metric in spec[key]:
            got = printed.get(metric["name"])
            if got is None or got.get("unit") != metric["unit"]:
                problems.append(f"trace {trace}: {metric['name']} not printed "
                                f"with unit {metric['unit']} (got {got})")
        if "error_rate" not in stdout:
            problems.append(f"trace {trace}: error_rate not printed")

    references = json.loads((HERE / "references.json").read_text(
        encoding="utf-8"))
    digest = references["digests"]["smoke"][str(SEED)]["sweep"]
    references["digests"]["smoke"][str(SEED)]["sweep"] = \
        ("0" if digest[0] != "0" else "1") + digest[1:]
    corrupt = ROOT / ".perfbench" / "corrupt-references.json"
    corrupt.parent.mkdir(exist_ok=True)
    corrupt.write_text(json.dumps(references), encoding="utf-8")
    try:
        rc, _stdout, result = smoke(0, "--references", str(corrupt))
    finally:
        corrupt.unlink()
    if rc == 0 or result.get("correct") or not result.get("failed"):
        problems.append(f"corrupted reference not reported: exit {rc}, "
                        f"result {result}")

    for p in problems:
        print(f"FAIL: {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
