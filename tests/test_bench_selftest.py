"""The benchmark's own span arithmetic must pass its self-test.

``bench/selftest.py`` checks the per-layer metrics on synthetic spans;
it imports nothing from tailtest and only reads ``bench/``.
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
