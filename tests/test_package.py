import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import maskcov
from maskcov import harness, linalg, sampler, verify


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


def file_access(call: ast.Call) -> set:
    """What ``call`` does to a file: a subset of {"read", "write"}.

    ``read_text`` and the like count as methods only: a bare
    ``read_text(path, what)`` calls the package's reader.  ``open(f, mode)`` and ``io.open`` take the mode second, ``Path.open``
    first.  An ``open`` with no mode reads; one whose mode is not a string
    literal, and ``os.open``, which takes flags, count as both.
    """
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    method = isinstance(func, ast.Attribute)
    if method and name in ("read_text", "read_bytes"):
        return {"read"}
    if method and name in ("write_text", "write_bytes"):
        return {"write"}
    if name != "open":
        return set()
    owner = getattr(func, "value", None)
    if isinstance(owner, ast.Name) and owner.id == "os":
        return {"read", "write"}
    first = not isinstance(func, ast.Name) and not (
        isinstance(owner, ast.Name) and owner.id == "io")
    args = call.args[0 if first else 1:]
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + args[:1]
    if not modes:
        return {"read"}
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return {"read", "write"}
    return ({"read"} if set(mode.value) & set("r+") else set()) | (
        {"write"} if set(mode.value) & set("wax+") else set())


def splits_csv(call: ast.Call) -> bool:
    """Whether ``call`` is ``<str>.split(",")``."""
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "split"
            and [ast.dump(arg) for arg in call.args]
            == [ast.dump(ast.Constant(","))])


def calls(tree: ast.AST, matches) -> list:
    """(innermost enclosing function, line) of each call in ``tree`` that
    ``matches``."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and matches(child):
                found.append((owner, child.lineno))
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(tree, None)
    return found


def file_writes(tree: ast.AST) -> list:
    return calls(tree, lambda call: "write" in file_access(call))


def file_reads(tree: ast.AST) -> list:
    return calls(tree, lambda call: "read" in file_access(call))


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


@pytest.mark.parametrize("code,reads", [
    ("open(p)", True), ("open(p, 'rb')", True), ("open(p, mode='r')", True),
    ("open(p, m)", True), ("open(p, 'w+')", True), ("Path(p).open()", True),
    ("p.open('r')", True), ("io.open(p)", True), ("os.open(p, flags)", True),
    ("p.read_text()", True), ("p.read_bytes()", True),
    ("open(p, 'w')", False), ("open(p, mode='ab')", False),
    ("Path(p).open('w')", False), ("io.open(p, 'x')", False),
    ("p.write_text(t)", False), ("p.write_bytes(b)", False),
    ("read_text(p, 'config')", False),
])
def test_read_scan_sees_every_reading_call(code, reads):
    assert bool(file_reads(ast.parse(f"def f():\n    {code}\n"))) is reads


def scan_src(scan) -> list:
    """(file name, enclosing function) of each call ``scan`` finds in the
    package's source."""
    src = Path(maskcov.__file__).parent
    return [(path.name, owner) for path in sorted(src.glob("*.py"))
            for owner, _ in scan(ast.parse(path.read_text()))]


def test_every_file_is_written_by_the_one_writer():
    # harness.write_output replaces a regular file instead of truncating it
    assert scan_src(file_writes) == [("harness.py", "write_output")]


def test_every_file_is_read_by_the_one_reader():
    # errors.read_text rejects an unreadable or undecodable file as input,
    # and errors.csv_rows is the one CSV dialect
    assert scan_src(file_reads) == [("errors.py", "read_text")]
    assert scan_src(lambda tree: calls(tree, splits_csv)) == [
        ("errors.py", "csv_rows")]


def compared_integers(tree: ast.AST) -> list:
    """Line of each comparison in ``tree`` that calls ``integer`` or ``count``."""
    def reads_integer(node) -> bool:
        func = getattr(node, "func", None)
        return getattr(func, "attr", getattr(func, "id", None)) in (
            "integer", "count")

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Compare)
            and any(map(reads_integer, ast.walk(node)))]


@pytest.mark.parametrize("code,compared", [
    ("1 <= integer(p, 'p') < 9", True), ("errors.count(n, 'n') > 3", True),
    ("integer(k, 'k') % 2 != 0", True), ("s <= integer(p, 'p')", True),
    ("integer(p, 'p', 1, 9)", False), ("integer(k, 'k', 2, 7) % 2", False),
    ("0 <= number(x, 'x') < 1", False), ("n < len(x)", False),
])
def test_integer_scan_sees_every_comparison(code, compared):
    assert bool(compared_integers(ast.parse(code))) is compared


def test_integer_ranges_are_read_by_errors():
    # errors.integer holds every integer range rule, as its bounds
    src = Path(maskcov.__file__).parent
    assert [(path.name, line) for path in sorted(src.glob("*.py"))
            for line in compared_integers(ast.parse(path.read_text()))] == []



def test_benchmark_seams(monkeypatch):
    """The names and call shapes that ``perfbench`` reaches into.

    ``perfbench/spans.py`` patches every public function of seven layer
    modules and computes work counts from named arguments, and
    ``perfbench/tests`` patches module globals that the runner and the
    battery look up at call time.  A change that breaks one of these
    breaks ``perfbench --trace 1`` or its self-tests, so it fails here
    first.  This test changes together with the benchmark change of
    ROADMAP items 1 and 13, which item 4's one sampler surface waits on.
    """
    for layer in ("cli", "harness", "sampler", "masks", "linalg", "bounds",
                  "verify"):
        importlib.import_module(f"maskcov.{layer}")

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(sampler.draw_samples) == ["model", "n", "seed"]
    assert params(sampler.sample_covariance) == ["batch"]
    assert "batch" in params(sampler.decoupled_covariance)
    batch = sampler.draw_samples(sampler.GaussianModel.identity(3), 5,
                                 sampler.SeedSpec(0, 0))
    assert (batch.n, batch.dim) == (5, 3)
    assert params(linalg.spectral_norm) == ["a"]
    assert params(verify.max_bilinear_regular) == ["a"]
    assert inspect.isgeneratorfunction(verify.lemma_battery)

    def record(module, name):
        original, calls = getattr(module, name), []

        def recording(*args, **kwargs):
            calls.append((len(args), kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, recording)
        return calls

    concentration = record(verify, "concentration_check")
    reg_norm = record(verify, "reg_norm_bound_check")
    list(verify.lemma_battery(0, 100))
    assert concentration == [(6, {})] * 3
    assert reg_norm == [(1, {})] * 20

    draws = record(harness, "sample_covariance")
    harness.run_error_experiment(harness.ExperimentConfig(
        sigma={"kind": "identity"}, mask={"kind": "banded", "k": 1},
        n_grid=(8, 16), p=4, replicates=3, master_seed=0))
    assert draws == [(1, {})] * (2 * 3)

    assert verify.compare_means("x", [0.0, 1.0], [0.0, 1.0]).passed
    monkeypatch.setattr(verify, "STDERR_MARGIN", -1e9)
    assert not verify.compare_means("x", [0.0, 1.0], [0.0, 1.0]).passed
    assert isinstance(sampler.mix64(3), int)
