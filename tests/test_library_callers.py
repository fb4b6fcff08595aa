"""Guard: every top-level function and class in src/qident has a caller in
the library itself.  Code that only tests call belongs in tests/, as a
labelled oracle next to the test that uses it.  The only exemptions are
names the benchmark harness binds (benchmarks/*.py, read here, never
changed).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qident"
BENCHMARKS = ROOT / "benchmarks"


def loaded_names(node):
    """The identifiers a subtree reads, as plain names or attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def benchmark_names():
    """Every identifier benchmarks/*.py can bind: loaded names, imported
    names and string constants (the tracer names its targets as strings)."""
    out = set()
    for path in BENCHMARKS.glob("*.py"):
        tree = ast.parse(path.read_text())
        out |= loaded_names(tree)
        for sub in ast.walk(tree):
            if isinstance(sub, ast.alias):
                out.add(sub.name.rsplit(".", 1)[-1])
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out.add(sub.value)
    return out


def library_without_caller():
    """"module.name" of each top-level function or class that no other
    top-level statement of src/qident refers to."""
    defined, statements = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append((stmt, loaded_names(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt))
    return sorted("%s.%s" % (module, stmt.name) for module, stmt in defined
                  if not any(stmt.name in names for other, names in statements
                             if other is not stmt))


def test_no_library_code_only_tests_call():
    exempt = benchmark_names()
    assert [name for name in library_without_caller()
            if name.split(".")[1] not in exempt] == []
