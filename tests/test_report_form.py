"""The one report form of exact values: `reporting.exact_form` of a
scalar, a truncated series, a tensor vector or a list of residual entries
(zero entries dropped) over QQ and GF(p), and a guard that no other module of
src/qident formats series coefficients itself (`PSeries.coeff_strings` is
called only in reporting.py).
"""

import ast
from fractions import Fraction
from pathlib import Path

from qident.exactnum import PSeries, PrimeField, QQ
from qident.reporting import DEFAULT_PRIME, exact_form
from qident.tensors import TensorVector

SRC = Path(__file__).resolve().parent.parent / "src" / "qident"
GFP = PrimeField(DEFAULT_PRIME)


def test_exact_form_of_scalars_and_series():
    assert exact_form(Fraction(-3, 4)) == ("-3/4", False)
    assert exact_form(QQ.zero) == ("0", True)
    assert exact_form(GFP.of(-1)) == ("%d mod %d" % (DEFAULT_PRIME - 1, DEFAULT_PRIME), False)
    assert exact_form(GFP.zero) == ("0 mod %d" % DEFAULT_PRIME, True)
    series = PSeries(QQ, [Fraction(1, 2), 0, -3], 2)
    assert exact_form(series) == (["1/2", "0", "-3"], False)
    assert exact_form(PSeries.constant(GFP, GFP.zero, 3)) == \
        (["0 mod %d" % DEFAULT_PRIME] * 4, True)


def test_residual_lines_drop_zero_entries():
    assert exact_form([("[0,0]", Fraction(0)), ("[0,1]", Fraction(5, 7)),
                       ("[1,0]", QQ.zero), ("[1,1]", Fraction(-2))]) == \
        (["[0,1]=5/7", "[1,1]=-2"], False)
    assert exact_form([("[0,0]", GFP.of(3)), ("[0,1]", GFP.zero)]) == \
        (["[0,0]=3 mod %d" % DEFAULT_PRIME], False)
    zero, value = PSeries.constant(QQ, QQ.zero, 1), PSeries(QQ, [0, Fraction(1, 3)], 1)
    assert exact_form([("fresh0[0]", zero), ("fresh0[1]", value)]) == \
        (["fresh0[1]: ['0', '1/3']"], False)
    gfp_zero, gfp_two = (PSeries.constant(GFP, GFP.of(c), 1) for c in (0, 2))
    assert exact_form([("fresh1[0]", gfp_two), ("fresh1[1]", gfp_zero)]) == \
        (["fresh1[0]: ['2 mod %d', '0 mod %d']" % (DEFAULT_PRIME, DEFAULT_PRIME)], False)
    assert exact_form([("[0,0]", QQ.zero), ("fresh0[0]", zero), ("fresh1[1]", gfp_zero)]) == \
        ([], True)
    assert exact_form([]) == ([], True)


def vector(fld, data):
    return TensorVector(fld, 2, 3, 3, {key: fld.of(c) for key, c in data.items()})


def test_exact_form_of_tensor_vectors():
    # a bare vector gives its `fmt` lines, in key order
    assert exact_form(vector(QQ, {(1, 0): Fraction(-2, 3), (0, 1): 5})) == \
        (["(0, 1): 5", "(1, 0): -2/3"], False)
    assert exact_form(vector(GFP, {(0, 0): -1})) == \
        (["(0, 0): %d mod %d" % (DEFAULT_PRIME - 1, DEFAULT_PRIME)], False)
    assert exact_form(vector(QQ, {})) == ([], True)
    assert exact_form(vector(GFP, {(0, 0): DEFAULT_PRIME})) == ([], True)


def test_labelled_tensor_vectors_drop_zero_entries():
    entries = [("raising", vector(QQ, {(0, 1): Fraction(1, 2), (2, 0): -3})),
               ("lowering (1,)", vector(QQ, {})),
               ("lowering (2,)", vector(QQ, {(1, 1): 4}))]
    assert exact_form(entries) == (
        ["raising (0, 1): 1/2", "raising (2, 0): -3", "lowering (2,) (1, 1): 4"], False)
    entries = [("(0, 0) (1, 2)", vector(GFP, {(0, 0): DEFAULT_PRIME})),
               ("(0, 1) (2, 1)", vector(GFP, {(1, 0): 2}))]
    assert exact_form(entries) == (
        ["(0, 1) (2, 1) (1, 0): 2 mod %d" % DEFAULT_PRIME], False)
    assert exact_form([("raising", vector(QQ, {})), ("[0,0]", QQ.zero)]) == ([], True)


def test_only_reporting_formats_series_coefficients():
    callers = sorted(
        path.name for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "coeff_strings")
    assert callers == ["reporting.py"]
