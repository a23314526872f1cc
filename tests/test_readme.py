"""The README's Quick start runs and prints what its comments say."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_as_documented():
    text = README.read_text(encoding="utf-8")
    start = text.index("## Quick start")
    block = re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(prints)
    checked = 0
    for line, shown in zip(prints, printed):
        comment = re.search(r"\)\s+#\s*(\S+)", line)
        if comment:
            assert shown == comment.group(1), (line, shown)
            checked += 1
    assert checked >= 2
