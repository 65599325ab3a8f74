"""README's "Quick start (library)" block and its CLI examples run and print
what their comments say they print."""

import contextlib
import io
import shlex
from pathlib import Path

from quiverforge import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading: str, fence: str) -> str:
    """The first fenced block opened by ``fence`` after ``heading``."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return section.split(fence, 1)[1].split("```", 1)[0]


def test_quick_start_prints_what_its_comments_say():
    code = readme_block("## Quick start (library)", "```python\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    promised = [line.split("#")[-1].strip() for line in prints]
    assert promised == ["[1, 1]", "120 30 30", "(1, 0, 1)"]
    assert out.getvalue().splitlines() == promised


def test_cli_examples_run_on_the_readme_quiver_file(tmp_path, monkeypatch, capsys):
    (tmp_path / "kron2.json").write_text(readme_block("## Quiver files", "```json\n"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QUIVERFORGE_CACHE", raising=False)
    examples = readme_block("Examples:", "```sh\n").splitlines()
    assert [line.split()[:2] for line in examples] == [
        ["quiverforge", "kac"], ["quiverforge", "betti"], ["quiverforge", "moduli"], ["quiverforge", "count"]
    ]
    for line in examples:
        command, _, comment = line.partition("#")
        assert cli.main(shlex.split(command)[1:]) == 0, line
        out = capsys.readouterr().out
        if comment:
            assert out == comment.strip() + "\n"
    assert examples[0].endswith('# {"polynomial":[1,1]}')
