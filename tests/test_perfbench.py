"""The benchmark's trace self-test, run as a tier-1 test.

``perfbench`` wraps pig's public functions by module and name; a refactor
that renames or drops one of them breaks only the traced benchmark, so
this runs ``python3 perfbench/selftest.py`` and expects exit 0.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_trace_selftest():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
