"""The runtime package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "firefight"


def test_runtime_imports_are_stdlib_or_relative():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 8
    outside = []
    for path in modules:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, n) for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
