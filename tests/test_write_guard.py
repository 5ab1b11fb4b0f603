"""No module of the package creates or changes a file but through ``errors.write_output``.

Each module under the package is parsed with ``ast``, and every call that may
open a file for writing is named, unless it lies inside ``write_output``: the
``open`` builtin, ``io.open`` or a method ``open`` (``Path.open``) with a mode
holding ``w``, ``a``, ``x`` or ``+``, or one that is not a string constant;
``write_text`` and ``write_bytes``; and ``os.open`` with a write flag, or
with flags that name no ``O_`` constant.
"""

import ast
from pathlib import Path

import pytest

import teamscope

PACKAGE = Path(teamscope.__file__).parent
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_APPEND", "O_TRUNC"}


def _name(node):
    """``f`` of a call to ``f(...)`` or ``x.f(...)``, and of the names ``f`` and ``x.f``."""
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _argument(call: ast.Call, index: int, keyword: str):
    """The argument given by ``keyword`` or at position ``index``, else None."""
    given = {kw.arg: kw.value for kw in call.keywords}
    return given.get(keyword, call.args[index] if len(call.args) > index else None)


def opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    if _name(func) in ("write_text", "write_bytes"):
        return True
    if _name(func) != "open":
        return False
    owner = _name(func.value) if isinstance(func, ast.Attribute) else "builtins"
    if owner == "os":
        names = {_name(node) for node in ast.walk(_argument(call, 1, "flags") or ast.Constant(0))}
        return bool(names & WRITE_FLAGS) or not any(str(name).startswith("O_") for name in names)
    # the mode follows the path, but comes first in a method such as Path.open
    mode = _argument(call, 1 if owner in ("builtins", "io") else 0, "mode")
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set("wax+"))


def write_sites(source: str, module: str) -> list[str]:
    """``module:line`` of each call in ``source`` that may open a file for writing, outside ``write_output``."""
    tree = ast.parse(source)
    writers = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "write_output"]
    allowed = {id(node) for writer in writers for node in ast.walk(writer)}
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and id(node) not in allowed]
    return sorted(f"{module}:{node.lineno}" for node in calls if opens_for_writing(node))


def test_only_write_output_opens_a_file_for_writing():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "errors.py" in modules and len(modules) > 10
    sites = [write_sites(path.read_text(encoding="utf-8"), str(path.relative_to(PACKAGE))) for path in modules]
    assert [site for found in sites for site in found] == []


def test_write_output_is_a_write_site_the_guard_sees():
    source = (PACKAGE / "errors.py").read_text(encoding="utf-8").replace("def write_output", "def unguarded")
    assert len(write_sites(source, "errors.py")) == 1


@pytest.mark.parametrize(
    "call, writes",
    [
        ("open(path)", False),
        ("open(path, 'rb')", False),
        ("open(fd, mode='r', encoding='utf-8')", False),
        ("io.open(path, 'rt')", False),
        ("path.open()", False),
        ("path.read_text()", False),
        ("os.open(path, os.O_RDONLY | os.O_NONBLOCK)", False),
        ("open(path, 'w')", True),
        ("open(path, 'ab')", True),
        ("open(path, mode='x')", True),
        ("open(path, 'r+b')", True),
        ("open(path, mode)", True),
        ("io.open(path, 'wb')", True),
        ("Path(path).open('w')", True),
        ("path.open(mode='a')", True),
        ("path.write_text(text)", True),
        ("path.write_bytes(data)", True),
        ("os.open(path, os.O_WRONLY | os.O_CREAT)", True),
        ("os.open(path, O_RDWR)", True),
        ("os.open(path, flags)", True),
    ],
)
def test_guard_names_each_way_to_open_for_writing(call, writes):
    assert bool(write_sites(call, "m")) == writes
