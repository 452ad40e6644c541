"""The benchmark's self-test runs against this tree.

``perfbench/tracer.py`` wraps package functions by name, so a change that
renames or drops one of them breaks the benchmark.  Running its self-test
here makes that fail with the other tests instead of at benchmark time.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_self_test_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("self-test ok")
