"""pyproject.toml declares ``requires-python = ">=3.10"``: every source file
must parse under Python 3.10's grammar, whatever Python runs the tests. Its
``version`` is the package's ``__version__``, which every manifest records."""

import ast
from pathlib import Path

import pytest

import teamscope

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_file_parses_as_python_3_10():
    files = sorted(f for d in ("src", "tests", "perfbench", "demos") for f in (ROOT / d).rglob("*.py"))
    assert len(files) > 40
    refused = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert refused == []


def test_the_guard_refuses_newer_grammar():
    with pytest.raises(SyntaxError):  # except* came in 3.11
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


def test_pyproject_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["version"] == teamscope.__version__
