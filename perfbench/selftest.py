#!/usr/bin/env python3
"""Self-check of the benchmark harness at minimal input sizes.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
  - every workload runs correctly untraced and traced, and prints exactly
    the metrics BENCHMARK.json names, with their units;
  - tracing changes no result (run.py fails a traced run whose digests,
    frame errors or frame counts differ from the untraced passes), and the
    counts and ratios of two traced runs with one seed repeat exactly;
  - flipping one ciphertext byte makes file_exact report a failed
    operation and post no numbers;
  - in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SMALL = run.Sizes(file_frames=2, lossy_frames=8, lossy_delivered=2, lossy_pool=2,
                  waterfall_trials=4, waterfall_pool=2, setup_repeats=2)
SEED = 7
EXACT_UNITS = ("count", "ratio")


def _expected(section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main() -> int:
    failures = []

    def check(ok, what):
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            failures.append(what)

    end_to_end = _expected("end_to_end")
    per_layer = _expected("per_layer")
    for w in run.WORKLOADS:
        res, extra, problems = run.run(w, SEED, 0.1, 0, SMALL)
        check(res["correct"] and res["failed"] == 0, f"{w} untraced run correct {problems}")
        units = {k: m["unit"] for k, m in res["metrics"].items()}
        check(units == end_to_end, f"{w} untraced metrics match BENCHMARK.json end_to_end")
        traced = [run.run(w, SEED, 0.1, 1, SMALL)[0] for _ in range(2)]
        check(all(t["correct"] for t in traced), f"{w} traced runs correct")
        units = {k: m["unit"] for k, m in traced[0]["metrics"].items()}
        check(units == per_layer, f"{w} traced metrics match BENCHMARK.json per_layer")
        exact = [k for k, u in units.items() if u in EXACT_UNITS]
        same = all(traced[0]["metrics"][k] == traced[1]["metrics"][k] for k in exact)
        check(same, f"{w} {len(exact)} counts and ratios repeat exactly with one seed")
        check(traced[0]["metrics"]["fer"]["value"] == extra["fer"][0],
              f"{w} traced and untraced fer agree")

    for offset, mask in ((0, 0x01), (2, 0x40)):
        res, _, problems = run.run("file_exact", SEED, 0.1, 0, SMALL, corrupt=(offset, mask))
        check(not res["correct"] and res["failed"] >= 1 and res["metrics"] == {},
              f"flipped ciphertext byte {offset} (xor {mask:#x}) fails: {problems}")

    bare = Path(tempfile.mkdtemp(prefix=".perfbench-work-bare-", dir=run.ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "file_exact",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              f"bare directory exits {proc.returncode} without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
