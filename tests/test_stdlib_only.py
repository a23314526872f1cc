"""The runtime package and the scripts import nothing outside the standard
library: CI runs the scripts on interpreters without the test extras."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "firefight"


def _imports_outside(paths, allowed=()):
    """(file, module) for each top-level import of ``paths`` that is neither
    the standard library, relative, nor in ``allowed``."""
    outside = []
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, n)
                for n in names
                if n.split(".")[0] not in sys.stdlib_module_names
                and n.split(".")[0] not in allowed
            ]
    return outside


def test_runtime_imports_are_stdlib_or_relative():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    assert _imports_outside(modules) == []


def test_scripts_import_only_stdlib_and_the_package():
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert len(scripts) >= 2
    assert _imports_outside(scripts, allowed=("firefight",)) == []
