"""Every backquoted `module.name` or `Class.name` in README.md and in the
docstrings and comments of src/qident names something defined in
src/qident, so that a renamed or deleted helper does not linger in the
prose that cites it.  A dotted chain resolves attribute by attribute; a
class attribute also counts when the class body assigns it to `self` or
declares it as a dataclass field.  Tokens that are not code (file names)
are allowlisted."""

import ast
import importlib
import inspect
import pathlib
import re
import textwrap
import tokenize

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qident"
MODULES = {path.stem for path in PACKAGE.glob("*.py") if not path.stem.startswith("_")}

# backquoted file names, which look like Class.name
NOT_CODE = {"README.md", "ROADMAP.md", "CHANGES.md", "BENCHMARK.json"}

DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)[^`]*`")


def classes():
    """Each class defined in the package, by name."""
    out = {}
    for name in MODULES:
        module = importlib.import_module("qident." + name)
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__ == module.__name__:
                out[value.__name__] = value
    return out


def assigned_to_self(cls):
    """The names the class body assigns as attributes of `self`."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"}


def has(owner, name):
    if hasattr(owner, name):
        return True
    return inspect.isclass(owner) and (
        name in getattr(owner, "__dataclass_fields__", {})
        or any(name in assigned_to_self(cls) for cls in owner.__mro__
               if cls.__module__.startswith("qident.")))


def resolves(chain, known):
    """Whether a dotted chain that starts at a package module or class
    names something defined there; None if it starts elsewhere."""
    head, *rest = chain.split(".")
    if head in MODULES:
        owner = importlib.import_module("qident." + head)
    elif head in known:
        owner = known[head]
    elif head[0].isupper():
        return False
    else:
        return None
    for name in rest:
        if not has(owner, name):
            return False
        owner = getattr(owner, name, None)
    return True


def prose():
    """(place, text) of README.md and of each docstring and comment of the
    package sources."""
    yield "README.md", (ROOT / "README.md").read_text()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc:
                    yield "%s docstring of %s" % (path.name, getattr(node, "name", "module")), doc
        with path.open() as handle:
            for tok in tokenize.generate_tokens(handle.readline):
                if tok.type == tokenize.COMMENT:
                    yield "%s:%d" % (path.name, tok.start[0]), tok.string


def test_backquoted_code_references_name_what_the_package_defines():
    known = classes()
    stale = [(place, chain) for place, text in prose()
             for chain in DOTTED.findall(text.replace("\n", " "))
             if chain not in NOT_CODE and resolves(chain, known) is False]
    assert not stale


def test_the_guard_flags_a_deleted_name():
    known = classes()
    assert resolves("polyweights.point_tables", known)
    assert resolves("elliptic.EllParams.th", known)
    assert resolves("PolyParams.cleared", known)
    assert resolves("RunConfig.no_constraint", known)
    assert resolves("math.prod", known) is None
    assert resolves("polyweights.linear_columns", known) is False
    assert resolves("EllParams.weight_tables_old", known) is False
    assert resolves("ThetaParams.th", known) is False
