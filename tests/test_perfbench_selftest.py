"""The benchmark's own self-test passes: its verdict gate, the known check
counts of the three workloads and the mutated-L(1) negative control."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
