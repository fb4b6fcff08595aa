"""Guard: no check driver (a `verify_*` function in src/qident) raises
UsageError.  `cli.validate` decides every usage error of a run from the
check table before any driver runs; a UsageError raised inside a running
check is a broken library invariant and is reported as an internal fault.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qident"


def raises_usage_error(func):
    return any(isinstance(node, ast.Raise) and node.exc is not None
               and any(isinstance(sub, ast.Name) and sub.id == "UsageError"
                       for sub in ast.walk(node.exc))
               for node in ast.walk(func))


def test_no_driver_raises_a_usage_error():
    drivers, offenders = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("verify_"):
                drivers.append(node.name)
                if raises_usage_error(node):
                    offenders.append("%s.%s" % (path.stem, node.name))
    assert len(drivers) >= 13
    assert offenders == []
