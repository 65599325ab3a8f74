"""README's "Quick start (library)" block runs and prints what its comments
say it prints."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_prints_what_its_comments_say():
    code = quick_start_block()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    promised = [line.split("#")[-1].strip() for line in prints]
    assert promised == ["[1, 1]", "120 30 30", "(1, 0, 1)"]
    assert out.getvalue().splitlines() == promised
