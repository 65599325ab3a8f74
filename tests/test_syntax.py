"""Every Python file parses as Python 3.10, the oldest version pyproject.toml
accepts, whatever interpreter runs the tests: syntax added later, such as
``except*`` (3.11), fails here rather than only on a 3.10 install."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for top in ("src", "tests", "scripts", "perfbench") for path in (ROOT / top).rglob("*.py")
)


def test_the_guard_sees_every_tree():
    assert {path.relative_to(ROOT).parts[0] for path in SOURCES} == {
        "src", "tests", "scripts", "perfbench"
    }


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_the_guard_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
