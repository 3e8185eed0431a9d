"""Every name a module or script imports is used in it, and the package imports nothing
but numpy and the standard library."""

import ast
import builtins
import sys
import textwrap
from pathlib import Path

import pytest

from retarget_kit import errors

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for p in [*ROOT.glob("src/retarget_kit/*.py"), *ROOT.glob("scripts/*.py")]
    if p.name != "__init__.py"  # the package's imports are its public names
)


def unused_imports(source):
    """The names bound by the imports of `source` that no other line reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = "import math\nimport os.path\nfrom numbers import Integral, Real as R\nR, os\n"
    assert unused_imports(source) == [(1, "math"), (3, "Integral")]


# numpy is the package's one runtime dependency. The test extras install scipy and
# hypothesis too, so an import of either in the package would pass every other test.
RUNTIME_TOP_LEVEL = sys.stdlib_module_names | {"numpy"}


def foreign_imports(source):
    """(line, module) of each absolute import in `source` whose top-level package is
    neither numpy nor in the standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return sorted(
        (line, name) for line, name in found if name.split(".")[0] not in RUNTIME_TOP_LEVEL
    )


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("src/retarget_kit/*.py")), ids=lambda p: p.name
)
def test_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_finds_a_foreign_import():
    source = (
        "from __future__ import annotations\nimport os, scipy.linalg\n"
        "from numpy import linalg\nfrom . import io\nfrom .errors import check_number\n"
        "import numpy.random as npr\nfrom hypothesis import given\n"
        "def f():\n    import pandas\n"
    )
    assert foreign_imports(source) == [(2, "scipy.linalg"), (7, "hypothesis"), (9, "pandas")]


# The array rule: outside errors.py, where `check_array` lives, no module checks
# arrays for NaN or infinity by hand. The one exception is `cli._finite_rows`:
# a pipeline output found non-finite is a numeric failure (exit 3), not bad input.
FINITE_CHECK_ALLOWED_IN = {"cli.py": "_finite_rows"}
PACKAGE = sorted(p for p in ROOT.glob("src/retarget_kit/*.py") if p.name != "errors.py")


def finite_checks(source, allowed_function=None):
    """The lines of `source` that read `np.isfinite` outside `allowed_function`."""
    lines = []

    def visit(node, inside):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, inside or child.name == allowed_function)
                continue
            is_np = isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
            if is_np and child.attr == "isfinite" and child.value.id == "np" and not inside:
                lines.append(child.lineno)
            visit(child, inside)

    visit(ast.parse(source), False)
    return lines


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_hand_written_finite_check(path):
    source = path.read_text(encoding="utf-8")
    assert finite_checks(source, FINITE_CHECK_ALLOWED_IN.get(path.name)) == []


def test_finds_a_hand_written_finite_check():
    source = (
        "import math\nimport numpy as np\n"
        "def f(x):\n    return np.all(np.isfinite(x)) and math.isfinite(1.0)\n"
        "def g(x):\n    def h():\n        return np.isfinite(x)\n    return h\n"
        "ok = np.isfinite\n"
    )
    assert finite_checks(source) == [4, 7, 9]
    assert finite_checks(source, allowed_function="g") == [4, 9]


# The CLI's subcommand contract: each `cmd_*` writes its outputs and returns its
# report tree, and `main` alone writes that tree to --report.
CLI = ROOT / "src/retarget_kit/cli.py"


def report_policy_breaks(source):
    """(function, line) of each `io.save_report` outside `main` and each
    `args.report` read in a `cmd_*` function of `source`; None for module level."""
    breaks = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", None)
        for child in ast.walk(node):
            if not (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)):
                continue
            read = (child.value.id, child.attr)
            if (read == ("io", "save_report") and owner != "main") or (
                read == ("args", "report") and str(owner).startswith("cmd_")
            ):
                breaks.append((owner, child.lineno))
    return breaks


def test_only_main_writes_the_report():
    assert report_policy_breaks(CLI.read_text(encoding="utf-8")) == []


def test_finds_a_report_written_outside_main():
    source = (
        "def cmd_a(args):\n    if args.report:\n        io.save_report({}, args.report)\n"
        "def main(argv=None):\n    io.save_report({}, args.report)\n"
        "io.save_report({}, 'x')\n"
    )
    assert report_policy_breaks(source) == [
        ("cmd_a", 2), ("cmd_a", 3), ("cmd_a", 3), (None, 6)
    ]


# One convention for errors: an error is worded where it is raised, by the code that
# knows its frame, joint or file location, so no package code adds an attribute to
# an exception; and an `except` clause catches an `errors` class only by a family or
# by ParseError, the one subclass with attributes of its own.
ERROR_CLASSES = {
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}
EXCEPTION_CLASSES = ERROR_CLASSES | {
    name for name, value in vars(builtins).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}
CATCHABLE = {"ValidationError", "NumericError", "ParseError"}


def error_policy_breaks(source):
    """(line, what) of each `errors` class outside CATCHABLE named by an `except`
    clause of `source`, and of each attribute set, by assignment or by setattr, on
    an exception: a name bound by `except ... as`, or to a call of an exception
    class or of type(x)."""
    tree = ast.parse(source)
    errors_seen, breaks = set(), []

    def name_of(node):  # `X` or `errors.X`
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    def makes_error(call):
        func = call.func
        if isinstance(func, ast.Call):  # type(e)(...)
            return name_of(func.func) == "type"
        return name_of(func) in EXCEPTION_CLASSES

    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            errors_seen.add(node.name)
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            breaks += [(node.lineno, f"except {name}") for name in map(name_of, caught)
                       if name in ERROR_CLASSES - CATCHABLE]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            if makes_error(node.value):
                errors_seen.update(map(name_of, node.targets))
    errors_seen.discard(None)  # an `except` without `as`, a tuple target

    def on_error(node):  # the line and text of an attribute set on an exception
        if isinstance(node, ast.Attribute) and name_of(node.value) in errors_seen:
            return [(node.lineno, f"{name_of(node.value)}.{node.attr} =")]
        if isinstance(node, ast.Tuple):
            return [b for elt in node.elts for b in on_error(elt)]
        return []

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            breaks += [b for target in node.targets for b in on_error(target)]
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            breaks += on_error(node.target)
        elif isinstance(node, ast.Call) and name_of(node.func) == "setattr" and node.args:
            if name_of(node.args[0]) in errors_seen:
                breaks.append((node.lineno, f"setattr({name_of(node.args[0])}, ...)"))
    return sorted(breaks)


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("src/retarget_kit/*.py")), ids=lambda p: p.name
)
def test_errors_are_worded_where_raised_and_caught_by_family(path):
    assert error_policy_breaks(path.read_text(encoding="utf-8")) == []


def test_finds_an_error_policy_break():
    source = textwrap.dedent("""\
        def f(q):
            error = ValidationError("zero quaternion")
            error.row = 1
            raise error
        def g(call, t):
            try:
                call()
            except (errors.RetargetKitError, ValueError) as e:
                e.frame, n = t, 0
                raise
            except ParseError as e:
                setattr(e, "frame", t)
            except NumericError as e:
                e = type(e)(f"frame {t}, {e}")
                e.note += "!"
                raise e
        class Kept(ValueError):
            def __init__(self, row):
                self.row = row
        """)
    assert error_policy_breaks(source) == [
        (3, "error.row ="), (8, "except RetargetKitError"), (9, "e.frame ="),
        (12, "setattr(e, ...)"), (15, "e.note ="),
    ]
