"""The benchmark's self-check: each workload briefly, traced and not, all checks on.

    python3 -m pytest bench/test_selfcheck.py
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_self_check_passes():
    proc = subprocess.run(
        [sys.executable, RUN, "--self-check"], capture_output=True, text=True, timeout=900
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count(": ok") == 6, proc.stdout
