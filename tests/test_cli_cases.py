"""The pinned CLI cases of tests/data/cli-cases.json hold on this
interpreter: every step's exit code and stdout/stderr digests match."""

import subprocess
import sys
from pathlib import Path

RUNNER = Path(__file__).resolve().parent.parent / "scripts" / "cli_cases.py"


def test_cli_cases_match_their_pinned_bytes():
    proc = subprocess.run([sys.executable, str(RUNNER)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(" steps, 0 mismatches\n")
