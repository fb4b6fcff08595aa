"""Guard: every top-level function and class in src/qident, and every
public method of a top-level class, has a caller in the library itself.
Code that only tests call belongs in tests/, as a labelled oracle or helper
next to the test that uses it.  The only exemptions are the names in
`HARNESS_ONLY`, which only the benchmark harness calls (benchmarks/*.py,
read here, never changed) and which go once the harness stops binding
them.  The guard fails when a name joins that set or leaves it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qident"
BENCHMARKS = ROOT / "benchmarks"
# "module.name" of the library code that only the benchmark harness calls
HARNESS_ONLY = {
    "elliptic.omega_residue", "elliptic.scalar_product_omega", "elliptic.theta_lambda",
    "elliptic.xi_weight", "linalg.mat_inverse", "polyweights.monomial_symmetric",
    "polyweights.weight", "uqrep.gamma",
}


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
    top-level statement of src/qident refers to, and "module.Class.name" of
    each public method that nothing else in src/qident refers to (the other
    top-level statements and the rest of its class)."""
    defined, statements = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            statements.append((stmt, loaded_names(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, stmt))
    out = []
    for module, stmt in defined:
        elsewhere = set().union(*(names for other, names in statements if other is not stmt))
        if stmt.name not in elsewhere:
            out.append("%s.%s" % (module, stmt.name))
        if not isinstance(stmt, ast.ClassDef):
            continue
        for item in stmt.body:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                    and not any(item.name in loaded_names(other)
                                for other in stmt.body if other is not item)
                    and item.name not in elsewhere):
                out.append("%s.%s.%s" % (module, stmt.name, item.name))
    return sorted(out)


def test_no_library_code_only_tests_call():
    assert library_without_caller() == sorted(HARNESS_ONLY)
    assert {name.rsplit(".", 1)[1] for name in HARNESS_ONLY} <= benchmark_names()
