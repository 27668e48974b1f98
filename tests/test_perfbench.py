"""The benchmark's self-test, run as a subprocess of the test suite.

perfbench/selftest.py resolves every traced name in perfbench/tracing.py
and checks each workload's smallest pass, so a renamed or deleted library
function that the benchmark traces fails here rather than only under
``perfbench/run.py --trace 1``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout
