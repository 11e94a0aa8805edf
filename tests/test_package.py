import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import maskcov


def test_all_names_resolve_to_objects_not_modules():
    exported = [getattr(maskcov, name) for name in maskcov.__all__]
    assert not [obj for obj in exported if isinstance(obj, ModuleType)]


def test_cli_imports_no_scipy():
    # every command pays its imports: scipy.linalg alone doubles them
    code = ("import sys, maskcov.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(maskcov.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def writes_a_file(call: ast.Call) -> bool:
    """Whether ``call`` is ``write_text``, ``write_bytes`` or a writing ``open``.

    ``open(f, mode)`` and ``io.open`` take the mode second, ``Path.open``
    first; an ``open`` whose mode is not a string literal counts as writing.
    """
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    owner = getattr(func, "value", None)
    if isinstance(owner, ast.Name) and owner.id == "os":
        return True  # os.open takes flags, not a mode
    first = not isinstance(func, ast.Name) and not (
        isinstance(owner, ast.Name) and owner.id == "io")
    args = call.args[0 if first else 1:]
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + args[:1]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_writes(tree: ast.AST) -> list:
    """(innermost enclosing function, line) of each file write in ``tree``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and writes_a_file(child):
                found.append((owner, child.lineno))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, None)
    return found


@pytest.mark.parametrize("code,writes", [
    ("open(p, 'w')", True), ("open(p, mode='a')", True), ("open(p, m)", True),
    ("open(p, 'r+b')", True), ("Path(p).open('w')", True),
    ("io.open(p, 'x')", True), ("os.open(p, os.O_RDONLY)", True),
    ("p.write_text(t)", True), ("p.write_bytes(b)", True),
    ("open(p)", False), ("open(p, 'rb')", False), ("Path(p).open()", False),
    ("p.open('r')", False), ("io.open(p)", False), ("p.read_text()", False),
])
def test_write_scan_sees_every_writing_call(code, writes):
    assert bool(file_writes(ast.parse(f"def f():\n    {code}\n"))) is writes


def test_every_file_is_written_by_the_one_writer():
    # harness.write_output replaces a regular file instead of truncating it
    src = Path(maskcov.__file__).parent
    writes = [(path.name, owner) for path in sorted(src.glob("*.py"))
              for owner, _ in file_writes(ast.parse(path.read_text()))]
    assert writes == [("harness.py", "write_output")]
