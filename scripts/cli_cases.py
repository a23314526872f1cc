"""Check the pinned CLI cases in tests/data/cli-cases.json.

    python scripts/cli_cases.py

The case file holds input files, by name and text, and steps in order.
Each step is an argv for ``firefight``, any extra environment, its exit
code and the sha256 of its stdout and of its stderr.  The script writes
the input files into one temporary directory and runs each step there as
a fresh ``python -m firefight`` process of the interpreter that runs the
script, with this checkout's ``src`` as PYTHONPATH.  Steps name files by
relative paths, so a step reads what an earlier one wrote and a ``gen``
record's ``"out"`` field does not hold the temporary path.

It prints one line per mismatch, with the expected and the actual value,
and a last line with the counts; it exits 1 on any mismatch.  It imports
only the standard library, so a bare interpreter without the test extras
runs it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "tests" / "data" / "cli-cases.json"
# what a step checks, in the order a mismatch is reported
CHECKED = ("exit", "stdout_sha256", "stderr_sha256")


def run_steps(cases: dict) -> list[dict]:
    """What each step of ``cases`` gives, keyed as in ``CHECKED``."""
    # a budget set in the caller's environment would change the solver's steps
    env = {k: v for k, v in os.environ.items() if k != "FIREFIGHT_NODE_BUDGET"}
    env["PYTHONPATH"] = str(ROOT / "src")
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in cases["files"].items():
            Path(tmp, name).write_bytes(text.encode("utf-8"))
        for step in cases["steps"]:
            proc = subprocess.run(
                [sys.executable, "-m", "firefight", *step["argv"]],
                cwd=tmp,
                env={**env, **step.get("env", {})},
                capture_output=True,
            )
            results.append({
                "exit": proc.returncode,
                "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
                "stderr_sha256": hashlib.sha256(proc.stderr).hexdigest(),
            })
    return results


def main() -> int:
    cases = json.loads(CASES.read_text(encoding="utf-8"))
    mismatches = 0
    for i, (step, got) in enumerate(zip(cases["steps"], run_steps(cases)), start=1):
        for key in CHECKED:
            if step[key] != got[key]:
                mismatches += 1
                # json.dumps keeps the line ASCII whatever the argv holds
                print(f"step {i} {json.dumps(step['argv'])}: {key} expected {step[key]} got {got[key]}")
    print(f"{len(cases['steps'])} steps, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
