"""Guard: no function a check runs raises UsageError.  `cli.validate`
decides every usage error of a run from the check table before any check
runs; a UsageError raised inside a running check is a broken library
invariant and is reported as an internal fault.  The functions walked are
the sampler and the value that every row of `cli.CHECKS` names.
"""

import ast
import inspect
import textwrap

from qident.cli import CHECKS


def raises_usage_error(func):
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return any(isinstance(node, ast.Raise) and node.exc is not None
               and any(isinstance(sub, ast.Name) and sub.id == "UsageError"
                       for sub in ast.walk(node.exc))
               for node in ast.walk(tree))


def test_no_driver_raises_a_usage_error():
    walked, offenders = set(), []
    for name, check in CHECKS.items():
        funcs = [check.sample, check.value]
        assert all(callable(func) for func in funcs), name
        for func in funcs:
            if raises_usage_error(func):
                offenders.append("%s: %s.%s" % (name, func.__module__, func.__qualname__))
        walked.add(name)
    assert len(walked) == 18 and walked == set(CHECKS)
    assert offenders == []
