"""The benchmark harness's own self-check, run as part of the test suite.

perfbench traces qclattice by patching names in its modules and checks a
digest of every workload's output, so a rename or an output change in the
library shows up here rather than only when the benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
