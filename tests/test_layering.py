"""Guard: the library layers under the check table do not reach up into
it.  `reporting` runs the rows of `cli.CHECKS`, and `cli` builds that
table from the library modules, so no module of src/qident other than
`cli` (and the `__main__` entry point that calls it) imports `reporting`
or `cli`.  A check value returns an exact value or a finished trial; it
never runs a trial loop of its own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qident"
UPPER = {"reporting", "cli"}


def imported_modules(tree):
    """The qident modules a module imports, by bare name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("qident"):
                continue
            module = module.split(".", 1)[1] if module.startswith("qident.") else module
            if module in ("", "qident"):
                out |= {alias.name for alias in node.names}
            else:
                out.add(module.split(".")[0])
        elif isinstance(node, ast.Import):
            out |= {alias.name.split(".")[1] for alias in node.names
                    if alias.name.startswith("qident.")}
    return out


def test_only_cli_imports_reporting_or_cli():
    offenders = sorted(
        "%s imports %s" % (path.stem, name)
        for path in SRC.glob("*.py") if path.stem not in ("cli", "__main__")
        for name in imported_modules(ast.parse(path.read_text())) & UPPER)
    assert offenders == []


def test_the_guard_sees_every_import_form():
    for source in ("from .reporting import run_trials", "from . import cli",
                   "from qident.reporting import RunConfig", "import qident.cli",
                   "from qident import reporting"):
        assert imported_modules(ast.parse(source)) & UPPER, source
    assert not imported_modules(ast.parse("from .tensors import TensorVector")) & UPPER
    assert not imported_modules(ast.parse("import json")) & UPPER
