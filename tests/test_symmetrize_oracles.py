"""The literal sums over S_ell, kept here as oracles for the `symmetrize`
kernel (its subset trie with a pair table, its sub-multiset layers
without) that every symmetrized value in the package goes through:
weights P and P', the base identity (plain and mutated), monomial
symmetric polynomials, the theta weights, the explicit two-column
elliptic identity and the symmetrized basis products, for ell <= 4 over
both QQ and GF(2^61 - 1), one partition at a time and as the per-point
tables the checks use; and the kernel itself on arbitrary scalar and
series tables, cleared to integers or integer coefficient lists, with
every kind of den, scale and key_dens that its one exit takes.  At ell
5 to 7, where the literal sums are too slow, the weights and the base
identity are checked against the tables they had before their columns
and pair factors were built from cleared integer coordinates:
field-scalar tables cleared per call.  The columns and pair factors by
field or series operations (`column_oracle`, `weight_pair_table`) that
the cleared tables of both layers replaced are kept here as oracles, and
the pair numerators of both layers are checked against the phi quotients."""

import math
from collections import Counter
from fractions import Fraction
from itertools import permutations
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qident.elliptic import (
    EllParams, idp2_value, sample_ell_params, theta_lambda, theta_lambdas, vartheta,
    xi_weight)
from qident.errors import DegenerateInputError, NonInvertibleError, UsageError
from qident.exactnum import (
    QQ, IntSeries, PrimeField, PSeries, Sampler, SamplerConfig, field_of, ints_over_den)
from qident.partitions import Partition, enumerate_partitions, x_point, y_point
from qident.polyweights import (
    column_plan, from_ints, jing_value, monomial_symmetric, monomials, multiplicity_prefactor,
    multiset_plan, point_tables, sample_eta, sample_poly_params, sample_t, subset_masks,
    subset_plan, symmetrize, weight, weights)
from qident.reporting import DEFAULT_PRIME

FIELDS = [QQ, PrimeField(DEFAULT_PRIME)]
FIELD_IDS = ["QQ", "GFp"]


def sampler(seed, fld):
    return Sampler(SamplerConfig(seed), fld)


# ---------------------------------------------------------------------------
# oracles: the defining sums, term by term over all ell! permutations
# ---------------------------------------------------------------------------

def column_oracle(params, u, m, shift, primed=False):
    """The weight column at u by field operations, as the parameter object
    computed it before its tables were built from cleared integers: the
    lead times prod_{j<m} f(u, y_j) prod_{k>m} f(u, x_k) of the linear
    factor f, x and y swapped when primed.  The lead is u (1 primed) for
    X_m on `PolyParams`, and for Z_m on `EllParams` theta(u/(alpha_m x_m)),
    or theta(alpha_m u/y_m) primed, with the dynamical shift
    alpha_m eta^shift."""
    x, y = (params.y, params.x) if primed else (params.x, params.y)
    if isinstance(params, EllParams):
        am = params.alphas[m - 1] * params.eta ** shift
        out = params.th(am * u / params.y[m - 1] if primed else u / (am * params.x[m - 1]))
    else:
        out = params.one if primed else u
    for c in y[:m - 1] + x[m:]:
        out = out * params.factor(u, c)
    return out


def pair_table(t, ratio):
    """ratio(t_w, t_v) for every ordered pair w != v of coordinates (the
    diagonal is unused); coincident coordinates are rejected."""
    ell = len(t)
    table = [[None] * ell for _ in range(ell)]
    for w in range(ell):
        for v in range(ell):
            if w != v:
                if t[w] == t[v]:
                    raise DegenerateInputError(
                        "coincident t coordinates in symmetrized sum")
                table[w][v] = ratio(t[w], t[v])
    return table


def weight_pair_table(t, params, primed=False):
    """Oracle for the weights' pair factors by field or series operations:
    phi(eta t_a/t_b)/phi(t_a/t_b) (primed) or phi(eta t_b/t_a)/phi(t_b/t_a)
    for t_a placed before t_b, (t_a - eta t_b)/(t_a - t_b) for
    phi(z) = 1 - z, theta quotients on `EllParams`."""
    eta, phi = params.eta, params.phi
    if primed:
        return pair_table(t, lambda ta, tb: phi(eta * ta / tb) / phi(ta / tb))
    return pair_table(t, lambda ta, tb: phi(eta * tb / ta) / phi(tb / ta))


def symmetrize_oracle(ell, single, pair, one, zero):
    total = zero
    for sigma in permutations(range(ell)):
        term = one
        for a in range(ell):
            term = term * single[a][sigma[a]]
        if pair is not None:
            for a in range(ell):
                for b in range(a + 1, ell):
                    term = term * pair[sigma[a]][sigma[b]]
        total = total + term
    return total


def prefactor_oracle(lam, eta, phi, one):
    """prod_m prod_{s=2}^{w_m} phi(eta)/phi(eta^s), with phi(z) = 1 - z for
    the polynomial weights and phi = theta for the theta weights."""
    out = one
    for w in lam.multiplicities():
        for s in range(2, w + 1):
            out = out * phi(eta) / phi(eta ** s)
    return out


def weight_oracle(lam, t, params, primed=False):
    zero, one, eta = params.field.zero, params.field.one, params.eta
    total = zero
    for sigma in permutations(range(lam.ell)):
        term = one
        for a, part in enumerate(lam.entries):
            term = term * column_oracle(params, t[sigma[a]], part, None, primed)
        for a in range(lam.ell):
            for b in range(a + 1, lam.ell):
                ta, tb = t[sigma[a]], t[sigma[b]]
                num = (eta * ta - tb) if primed else (ta - eta * tb)
                term = term * num / (ta - tb)
        total = total + term
    return prefactor_oracle(lam, eta, lambda z: one - z, one) * total


def jing_oracle(eta, t, one, zero, mutate=False):
    ell = len(t)
    total = zero
    for k in range(ell + 1):
        pref = one
        for s in range(k):
            pref = pref * (eta ** ell - eta ** s) / (one - eta ** (s + 1))
        if mutate and k == 1:
            pref = pref * 2
        inner = zero
        for sigma in permutations(range(ell)):
            term = one
            for a in range(k):
                term = term * (t[sigma[a]] - one)
            for b in range(k, ell):
                term = term * (t[sigma[b]] - eta ** (ell - 1))
            for a in range(ell):
                for b in range(a + 1, ell):
                    ta, tb = t[sigma[a]], t[sigma[b]]
                    term = term * (ta - eta * tb) / (ta - tb)
            inner = inner + term
        total = total + pref * inner
    return total


def monomial_oracle(exponents, t, one, zero):
    norm = 1
    for c in Counter(exponents).values():
        norm *= math.factorial(c)
    total = zero
    for sigma in permutations(range(len(t))):
        term = one
        for a, e in enumerate(exponents):
            term = term * t[sigma[a]] ** e
        total = total + term
    return total / norm


def xi_oracle(lam, t, params, primed=False):
    eta, th, ell = params.eta, params.th, lam.ell
    total = params.zero
    for sigma in permutations(range(ell)):
        term = params.one
        for a in range(1, ell + 1):
            shift = 2 * a - 2 * ell
            term = term * column_oracle(params, t[sigma[a - 1]], lam.entries[a - 1], shift,
                                        primed)
        for a in range(ell):
            for b in range(a + 1, ell):
                ta, tb = t[sigma[a]], t[sigma[b]]
                if primed:
                    term = term * th(eta * ta / tb) / th(ta / tb)
                else:
                    term = term * th(eta * tb / ta) / th(tb / ta)
        total = total + term
    return prefactor_oracle(lam, eta, th, params.one) * total


def idp2_oracle(params, t, mutate=False):
    eta, th, ell = params.eta, params.th, len(t)
    beta = eta ** (1 - 2 * ell) * params.alpha * params.x[0] / params.y[0]
    one = params.field.one
    total = params.zero
    for k in range(ell + 1):
        pref = th(eta ** (2 * k) * beta) * (-one) ** k
        for s in range(k):
            pref = pref * eta ** s * th(eta ** (ell - s)) * th(eta ** s * beta)
            pref = pref / (th(eta ** (s + 1)) * th(eta ** (s + ell + 1) * beta))
        if mutate and k == 1:
            pref = pref * 2
        inner = params.zero
        for sigma in permutations(range(ell)):
            term = params.one
            for a in range(1, k + 1):
                ta = t[sigma[a - 1]]
                term = term * th(ta) * th(eta ** (2 - 2 * a - ell) * ta / beta)
            for b in range(k + 1, ell + 1):
                tb = t[sigma[b - 1]]
                term = term * th(eta ** (1 - ell) * tb) * th(eta ** (1 - 2 * b) * tb / beta)
            for a in range(ell):
                for b in range(a + 1, ell):
                    ta, tb = t[sigma[a]], t[sigma[b]]
                    term = term * th(eta * tb / ta) / th(tb / ta)
            inner = inner + term
        total = total + pref * inner
    return total


def theta_lambda_oracle(lam, t, params):
    norm = 1
    for w in lam.multiplicities():
        norm *= math.factorial(w)
    total = params.zero
    for sigma in permutations(range(lam.ell)):
        term = params.one
        for a, part in enumerate(lam.entries):
            term = term * vartheta(part, t[sigma[a]], params)
        total = total + term
    return total / norm


# ---------------------------------------------------------------------------
# oracles: the field-scalar tables that the cleared integer tables replaced
# ---------------------------------------------------------------------------

def cleared_tables(fld, cols, pair):
    """(cols, pair, den): scalar or series tables as the integers (series:
    `IntSeries`) over one denominator that `symmetrize` takes, cleared as
    `symmetrize` once cleared scalar tables itself: every column at v over
    the lcm D_v of its denominators, pair[w][v] and pair[v][w] over their
    lcm L_wv, and den = prod D_v prod L_wv."""
    def clear(entries):
        if isinstance(entries[0], PSeries):
            d = math.lcm(*[x.den for x in entries])
            return [IntSeries([c * (d // x.den) for c in x.num]) for x in entries], d
        return ints_over_den(fld, entries)

    keys, by_var, den = list(cols), [], 1
    for entries in zip(*[cols[key] for key in keys]):
        nums, d = clear(entries)
        by_var.append(nums)
        den *= d
    cleared = dict(zip(keys, zip(*by_var)))
    if pair is None:
        return cleared, None, den
    ell = len(pair)
    out = [[None] * ell for _ in range(ell)]
    for w in range(ell):
        for v in range(w + 1, ell):
            (out[w][v], out[v][w]), d = clear([pair[w][v], pair[v][w]])
            den *= d
    return cleared, out, den


def field_weights(parts, t, params, primed=False):
    """`weights` on `PolyParams` from field-scalar tables: each column
    (`column_oracle`) and each pair factor (`weight_pair_table`) by field
    operations, cleared per call, and the prefactor multiplied in."""
    fld = params.field
    seqs = [[(None, part) for part in lam.entries] for lam in parts]
    cols = {key: [column_oracle(params, u, key[1], None, primed) for u in t]
            for key in dict.fromkeys(key for seq in seqs for key in seq)}
    int_cols, int_pair, den = cleared_tables(fld, cols, weight_pair_table(t, params, primed))
    return [multiplicity_prefactor(lam.multiplicities(), params) * total
            for lam, total in zip(parts, symmetrize(seqs, int_cols, int_pair, fld.one, den))]


def field_jing(eta, t, one, zero, mutate=False):
    """`jing_value` from field-scalar tables: columns u - 1 and
    u - eta^(ell-1) and the pair factors (t_a - eta t_b)/(t_a - t_b) by
    field operations, cleared per call."""
    ell, fld = len(t), field_of(one)
    pair = pair_table(t, lambda ta, tb: (ta - eta * tb) / (ta - tb))
    cols = {"low": [u - one for u in t], "high": [u - eta ** (ell - 1) for u in t]}
    seqs = [("low",) * k + ("high",) * (ell - k) for k in range(ell + 1)]
    int_cols, int_pair, den = cleared_tables(fld, cols, pair)
    total = zero
    for k, inner in enumerate(symmetrize(seqs, int_cols, int_pair, one, den)):
        pref = one
        for s in range(k):
            pref = pref * (eta ** ell - eta ** s) / (one - eta ** (s + 1))
        if mutate and k == 1:
            pref = pref * 2
        total = total + pref * inner
    return total


# ---------------------------------------------------------------------------
# the kernel against the oracles
# ---------------------------------------------------------------------------

def test_symmetrize_small_cases_by_hand():
    one = QQ.one
    assert symmetrize([()], {}, [], one) == [one]
    # ell = 0, with a pair table and without: each sum is the empty
    # product, so each leaves as its scale over den, a scalar or a series
    # of the kind of `one`
    for fld in (QQ, PrimeField(101)):
        for unit in (fld.one, PSeries.constant(fld, fld.one, 2)):
            scales = [fld.of(Fraction(3, 7)), unit, PSeries(fld, [2, -5, 4], 2)]
            if unit is fld.one:
                scales[2] = fld.of(-11)
            for pair in ([], None):
                got = symmetrize([(), (), ()], {}, pair, unit, 5, scales)
                assert got == [unit * c / 5 for c in scales]
                assert all(type(x) is type(unit) for x in got)
    cols = {"a": [2, 3], "b": [5, 7]}
    # orders (0, 1) and (1, 0): cols[a][0] cols[b][1] pair[0][1] + ...
    pair = [[None, 11], [13, None]]
    assert symmetrize([("a", "b"), ("b", "a"), ("a", "b")], cols, pair, one) == \
        [2 * 7 * 11 + 3 * 5 * 13, 5 * 3 * 11 + 7 * 2 * 13, 2 * 7 * 11 + 3 * 5 * 13]
    assert symmetrize([("a", "b"), ("a", "a")], cols, None, one) == \
        [2 * 7 + 3 * 5, 2 * 3 * 2]


HEIGHT = 10 ** 6
TABLE_FIELDS = FIELDS + [PrimeField(101)]


def table_scalars(fld):
    """Fractions of height up to 10^6, either sign, zero and integers among
    them (zero stays rare, or nearly every term would vanish); no
    denominator is a multiple of 101, so each one lies in every field."""
    return st.builds(Fraction, st.integers(-HEIGHT, HEIGHT),
                     st.integers(1, HEIGHT).filter(lambda d: d % 101)).map(fld.of)


def tables(data, ell, entry, with_pair):
    """Columns keyed 0.., key sequences over them (repeated keys, shared
    and unshared prefixes, repeated sequences) and, if asked, a pair table
    (diagonal unused); every entry drawn independently: pair[w][v] and
    pair[v][w] share nothing."""
    row = st.lists(entry, min_size=ell, max_size=ell)
    cols = dict(enumerate(data.draw(st.lists(row, min_size=1, max_size=ell + 1))))
    seqs = data.draw(st.lists(st.tuples(*[st.sampled_from(sorted(cols))] * ell),
                              min_size=1, max_size=6))
    if not with_pair:
        return seqs, cols, None
    pair = data.draw(st.lists(row, min_size=ell, max_size=ell))
    return seqs, cols, [[None if w == v else x for v, x in enumerate(r)]
                        for w, r in enumerate(pair)]


def oracle_sums(seqs, cols, pair, one, zero):
    return [symmetrize_oracle(len(seq), [cols[key] for key in seq], pair, one, zero)
            for seq in seqs]


def exit_inputs(data, seqs, cols, den, one, value):
    """(den, scales, key_dens, expected): the last three arguments of a
    `symmetrize` call on the cleared tables of `cols` over the int den, and
    the expected sums as a function of the oracle sums.  den is passed as
    that int or as a value of the kind of `one` (as `point_tables` passes
    it) times a drawn invertible `value`; scales are None or one drawn
    `value` or `one` itself per sequence; key_dens are None or positive
    ints per key (no multiple of 101, so each is invertible in every
    field).  Expected: scale times oracle over the drawn divisor times the
    key_dens along the sequence."""
    divisor = one
    if data.draw(st.booleans()):
        divisor = data.draw(value.filter(
            lambda v: v.invertible() if isinstance(v, PSeries) else bool(v)))
        den = one * den * divisor
    scales = data.draw(st.none() | st.lists(value | st.just(one), min_size=len(seqs),
                                            max_size=len(seqs)))
    key_dens = data.draw(st.none() | st.fixed_dictionaries(
        {key: st.integers(1, HEIGHT).filter(lambda d: d % 101) for key in cols}))

    def expected(sums):
        return [(scales[i] if scales else one) * x
                / (divisor * math.prod(key_dens[key] for key in seq) if key_dens else divisor)
                for i, (x, seq) in enumerate(zip(sums, seqs))]
    return den, scales, key_dens, expected


# no shrink phase: shrinking a failure at height 10^6 took about a minute;
# the unshrunk example is reported at once
@pytest.mark.parametrize("fld", TABLE_FIELDS, ids=FIELD_IDS + ["GF101"])
@pytest.mark.parametrize("with_pair", [False, True], ids=["no_pair", "pair"])
@given(st.data(), st.integers(0, 5))
@settings(max_examples=50, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_symmetrize_matches_permutation_sum_on_arbitrary_tables(fld, with_pair, data, ell):
    # scalar tables run on integers over one denominator per call; tables
    # shaped like nothing in the package pin that the denominator is right,
    # and every kind of den, scale and key_dens pins the one exit
    seqs, cols, pair = tables(data, ell, table_scalars(fld), with_pair)
    int_cols, int_pair, den = cleared_tables(fld, cols, pair)
    den, scales, key_dens, expected = exit_inputs(data, seqs, cols, den, fld.one,
                                                  table_scalars(fld))
    got = symmetrize(seqs, int_cols, int_pair, fld.one, den, scales, key_dens)
    assert got == expected(oracle_sums(seqs, cols, pair, fld.one, fld.zero))
    assert all(type(x) is type(fld.one) for x in got)


# no shrink phase, as above
@given(st.data(), st.sampled_from(TABLE_FIELDS), st.integers(0, 3), st.booleans(),
       st.integers(0, 3))
@settings(max_examples=30, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_symmetrize_matches_permutation_sum_on_series_tables(data, fld, ell, with_pair,
                                                            order):
    entry = st.lists(table_scalars(fld), min_size=1, max_size=order + 1).map(
        lambda cs: PSeries(fld, cs, order))
    # series tables run on integer coefficient lists over one denominator;
    # the den, scales and key_dens of every kind leave by the one exit,
    # scales as series, field scalars or `one` itself
    seqs, cols, pair = tables(data, ell, entry, with_pair)
    one, zero = PSeries.constant(fld, fld.one, order), PSeries.constant(fld, fld.zero, order)
    int_cols, int_pair, den = cleared_tables(fld, cols, pair)
    den, scales, key_dens, expected = exit_inputs(data, seqs, cols, den, one,
                                                  entry | table_scalars(fld))
    got = symmetrize(seqs, int_cols, int_pair, one, den, scales, key_dens)
    assert got == expected(oracle_sums(seqs, cols, pair, one, zero))
    assert all(isinstance(x, PSeries) and x.order == order for x in got)


# key sequences of length 4 whose subset tries do and do not share a
# (key, depth): in the first, key 1 at depth 1, key 1 at depth 2 and key 2
# at depth 3 follow two or more prefixes each (one sequence repeats); in
# the second every (key, depth) follows one prefix
SHARING = {
    "shared": [(0, 1, 1, 2), (1, 1, 1, 2), (2, 1, 0, 2), (0, 1, 1, 2)],
    "unshared": [(0, 1, 2, 3), (1, 2, 3, 0), (2, 3, 0, 1)],
}


# no shrink phase, as above
@pytest.mark.parametrize("fld", TABLE_FIELDS, ids=FIELD_IDS + ["GF101"])
@pytest.mark.parametrize("series", [False, True], ids=["int", "series"])
@pytest.mark.parametrize("sharing", sorted(SHARING))
@given(st.data())
@settings(max_examples=15, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_subset_layers_with_and_without_a_shared_column(fld, series, sharing, data):
    # every (key, depth >= 1) of the subset trie moves its nodes by one
    # H(S, v) = col[v] G(S, v) built once, whether one node reaches it or
    # more; against the permutation sums, on ints and on `IntSeries`.  On
    # series, a deterministic work count as well: the G products, one H
    # product per (S, v) of each (key, depth >= 1) and one product per
    # move, counted from the trie's levels and the masks.  The counter
    # wraps the real product.
    seqs = SHARING[sharing]
    by_count, outside = subset_masks(4)
    pairs = [sum(len(outside[s]) for s in masks) for masks in by_count]
    work = sum(pairs[2:4]) + sum((1 + len(nodes)) * pairs[depth]
                                 for depth, level in enumerate(subset_plan(tuple(seqs)))
                                 if depth for _, nodes in level)
    entry, one, zero = table_scalars(fld), fld.one, fld.zero
    if series:
        order = data.draw(st.integers(0, 3))
        entry = st.lists(entry, min_size=1, max_size=order + 1).map(
            lambda cs: PSeries(fld, cs, order))
        one, zero = PSeries.constant(fld, one, order), PSeries.constant(fld, zero, order)
    row = st.lists(entry, min_size=4, max_size=4)
    cols = {key: data.draw(row) for key in range(4)}
    pair = [[None if w == v else x for v, x in enumerate(data.draw(row))] for w in range(4)]
    int_cols, int_pair, den = cleared_tables(fld, cols, pair)
    with mock.patch.object(IntSeries, "__mul__", autospec=True,
                           side_effect=IntSeries.__mul__) as products:
        got = symmetrize(seqs, int_cols, int_pair, one, den)
    assert products.call_count == (work if series else 0)
    assert got == oracle_sums(seqs, cols, pair, one, zero)


# jing's index pattern at ell = 5: chain k holds k low keys (index 1), then
# high ones (index 0, the key of chain 0)
JING_CHAINS = [(1,) * k + (0,) * (5 - k) for k in range(6)]


@pytest.mark.parametrize("seqs", [*SHARING.values(), JING_CHAINS], ids=[*SHARING, "jing"])
def test_subset_plan_marks_each_parent_once_at_its_last_child(seqs):
    # `subset_sums` drops a parent's layer at the node marked last, so a
    # node is marked exactly when no later node of its level, in walk
    # order, extends the same parent, and every node of the level above
    # is some node's parent
    width = 1
    for level in subset_plan(tuple(seqs)):
        walk = [(parent, last) for _, nodes in level for parent, _, last in nodes]
        assert {parent for parent, _ in walk} == set(range(width))
        for i, (parent, last) in enumerate(walk):
            assert last == all(other != parent for other, _ in walk[i + 1:])
        width = len(walk)


def test_symmetrize_zero_den_modulo_p_has_no_inverse():
    # the one exit clears 1/den through `PrimeScalar.inverse` (a scalar
    # den, also under a series `one`) or the series inverse (a series den),
    # so a den that vanishes modulo p raises the error every other inverse
    # raises, not the `ValueError` of `pow`
    fld = PrimeField(101)
    with pytest.raises(NonInvertibleError):
        symmetrize([(0,)], {0: [1]}, None, fld.one, 202)
    one, col = PSeries.constant(fld, fld.one, 2), {0: [IntSeries([1, 0, 0])]}
    for den in (202, PSeries(fld, [0, 1], 2)):
        with pytest.raises(NonInvertibleError):
            symmetrize([(0,)], col, None, one, den)


def test_symmetrize_rejects_sequences_and_columns_of_another_length():
    with pytest.raises(UsageError):
        symmetrize([(0, 0), (0,)], {0: [1, 2]}, None, QQ.one)
    with pytest.raises(UsageError):
        symmetrize([(0, 0)], {0: [1, 2, 3]}, None, QQ.one)


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("ell, n", [(1, 2), (2, 2), (3, 2), (4, 3)])
def test_weight_matches_permutation_sum(fld, ell, n):
    s = sampler(40 + ell, fld)
    params = sample_poly_params(s, ell, n)
    t = sample_t(s, ell)
    for lam in enumerate_partitions(ell, n):
        for primed in (False, True):
            got = weight(lam, t, params, primed=primed)
            assert got == weight_oracle(lam, t, params, primed=primed)
            if (ell, n) in ((3, 2), (4, 3)):
                assert got != fld.zero


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_jing_matches_permutation_sum(fld, ell):
    s = sampler(50 + ell, fld)
    eta = sample_eta(s, ell)
    t = sample_t(s, ell)
    for mutate in (False, True):
        assert jing_value(eta, t, fld.one, fld.zero, mutate=mutate) == \
            jing_oracle(eta, t, fld.one, fld.zero, mutate=mutate)
    assert jing_value(eta, t, fld.one, fld.zero, mutate=True) != fld.zero


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("exponents", [(2,), (1, 0), (3, 1, 1), (3, 1, 1, 0), (2, 2, 2, 2)])
def test_monomial_symmetric_matches_permutation_sum(fld, exponents):
    t = sample_t(sampler(60 + len(exponents), fld), len(exponents))
    assert monomial_symmetric(exponents, t, fld.one, fld.zero) == \
        monomial_oracle(exponents, t, fld.one, fld.zero)


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("ell, n", [(1, 2), (2, 2), (3, 2), (4, 2)])
def test_theta_weights_match_permutation_sum(fld, ell, n):
    s = sampler(70 + ell, fld)
    params = sample_ell_params(s, ell, n, 2)
    t = sample_t(s, ell)
    for lam in enumerate_partitions(ell, n):
        for primed in (False, True):
            got = xi_weight(lam, t, params, primed=primed)
            assert got == xi_oracle(lam, t, params, primed=primed)
            assert not got.is_zero()
        assert theta_lambda(lam, t, params) == theta_lambda_oracle(lam, t, params)


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_idp2_matches_permutation_sum(fld, ell):
    s = sampler(80 + ell, fld)
    params = sample_ell_params(s, ell, 2, 2)
    t = sample_t(s, ell)
    for mutate in (False, True):
        assert idp2_value(params, t, mutate=mutate) == idp2_oracle(params, t, mutate=mutate)
    assert not idp2_value(params, t, mutate=True).is_zero()


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("ell, n", [(5, 1), (5, 2), (5, 3), (6, 2)])
def test_cleared_weight_tables_match_field_tables(fld, ell, n):
    # at a drawn point and at the special points, where coordinates share
    # factors with the parameters; at n = 1 a primed column has no factor
    s = sampler(110 + ell + n, fld)
    params = sample_poly_params(s, ell, n)
    parts = enumerate_partitions(ell, n)
    points = [sample_t(s, ell)] + [make(lam, params).coords for lam in parts[:3]
                                   for make in (x_point, y_point)]
    for t in points:
        for primed in (False, True):
            assert weights(parts, t, params, primed) == field_weights(parts, t, params, primed)


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("ell", [5, 6, 7])
def test_cleared_jing_tables_match_field_tables(fld, ell):
    s = sampler(120 + ell, fld)
    eta = sample_eta(s, ell)
    t = sample_t(s, ell)
    for mutate in (False, True):
        assert jing_value(eta, t, fld.one, fld.zero, mutate) == \
            field_jing(eta, t, fld.one, fld.zero, mutate)


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("ell, k", [(2, 0), (2, 12), (3, 6), (4, 10),
                                    pytest.param(2, None, id="2-poly"),
                                    pytest.param(4, None, id="4-poly")])
def test_theta_pair_numerators_over_theta_match_pair_quotients(fld, ell, k):
    # in both layers (no order k: phi(z) = 1 - z), each pair's two
    # numerators, divided by their content, sit over one value, a scalar
    # multiple of phi(t_v/t_w); numerator over it is the phi quotient of
    # the oracle, primed and unprimed, and the table's den is the product
    # of the pairs'
    s = sampler(130 + ell + (k or 0), fld)
    params = sample_poly_params(s, ell, 2) if k is None else sample_ell_params(s, ell, 2, k)
    t = sample_t(s, ell)

    def value(x):
        return from_ints(params.one, params.cleared[0], x, 1)

    for primed in (False, True):
        oracle = weight_pair_table(t, params, primed)
        _, pair, den, _ = point_tables(params, t, column_plan(params, {}), primed)
        dens = params.one
        for w in range(ell):
            for v in range(w + 1, ell):
                _, sub, d, _ = point_tables(params, (t[w], t[v]), column_plan(params, {}), primed)
                over_phi = d / params.phi(t[v] / t[w])
                if k is not None:
                    assert over_phi.num[1:] == [0] * k     # a nonzero scalar
                assert value(pair[w][v]) == value(sub[0][1])
                assert value(pair[v][w]) == value(sub[1][0])
                assert value(pair[w][v]) / d == oracle[w][v]
                assert value(pair[v][w]) / d == oracle[v][w]
                dens = dens * d
        assert den == dens


def some_parts(data, ell, n):
    """A drawn list of partitions of ell with parts <= n, in drawn order,
    repeats allowed: shared and unshared leading parts alike."""
    parts = enumerate_partitions(ell, n)
    return data.draw(st.lists(st.sampled_from(parts), min_size=1, max_size=len(parts) + 1))


@given(st.data(), st.sampled_from(FIELDS), st.booleans(), st.integers(1, 4),
       st.integers(1, 3), st.integers(0, 10 ** 6), st.booleans())
@settings(max_examples=25, deadline=None)
def test_weight_tables_match_permutation_sums(data, fld, elliptic, ell, n, seed, primed):
    # both families, repeated parts, and for Xi the theta shift
    s = sampler(seed, fld)
    params = sample_ell_params(s, ell, n, 2) if elliptic else sample_poly_params(s, ell, n)
    t = sample_t(s, ell)
    parts = some_parts(data, ell, n)
    oracle = xi_oracle if elliptic else weight_oracle
    assert weights(parts, t, params, primed) == [oracle(lam, t, params, primed) for lam in parts]


@given(st.data(), st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 10 ** 6))
@settings(max_examples=25, deadline=None)
def test_symmetric_product_tables_match_permutation_sums(data, fld, ell, seed):
    # exponent tuples in any order, with zero and repeated exponents
    s = sampler(seed, fld)
    t = sample_t(s, ell)
    sweep = data.draw(st.lists(st.tuples(*[st.integers(0, 5)] * ell), min_size=1, max_size=6))
    assert monomials(sweep, t, fld.one) == \
        [monomial_oracle(exps, t, fld.one, fld.zero) for exps in sweep]
    n = data.draw(st.integers(1, 3))
    params = sample_ell_params(s, ell, n, 2)
    parts = some_parts(data, ell, n)
    assert theta_lambdas(parts, t, params) == \
        [theta_lambda_oracle(lam, t, params) for lam in parts]


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
def test_tables_whose_sequences_share_no_prefix(fld):
    # every sequence has its own first key, so the trie shares no layer
    s = sampler(95, fld)
    params = sample_poly_params(s, 3, 3)
    ep = sample_ell_params(s, 3, 3, 2)
    t = sample_t(s, 3)
    parts = [Partition((k, 1, 1), 3) for k in (3, 1, 2)]
    assert weights(parts, t, params, True) == [weight_oracle(lam, t, params, True)
                                               for lam in parts]
    assert weights(parts, t, ep) == [xi_oracle(lam, t, ep) for lam in parts]
    assert theta_lambdas(parts, t, ep) == [theta_lambda_oracle(lam, t, ep) for lam in parts]
    sweep = [(0, 2, 2), (4, 0, 0), (1, 1, 0)]
    assert monomials(sweep, t, fld.one) == \
        [monomial_oracle(exps, t, fld.one, fld.zero) for exps in sweep]


def test_xi_table_multiplies_less_than_one_call_per_partition(monkeypatch):
    # a deterministic work count, not a timing: the ten Xi weights at
    # (ell, n, K) = (3, 3, 6) from one table against one call per partition,
    # each call on fresh parameters.  A table that ran one DP per partition
    # would land near or above the sum; the shared trie and G table stay
    # far below it.  Series products are counted in both forms: normalized
    # `PSeries` and the `IntSeries` coefficient lists the DP multiplies.
    count = [0]

    def counting(mul):
        def counted(self, other):
            count[0] += 1
            return mul(self, other)
        return counted

    def work(parts):
        s = sampler(97, QQ)
        params, t = sample_ell_params(s, 3, 3, 6), sample_t(s, 3)
        count[0] = 0
        weights(parts, t, params)
        return count[0]

    for cls in (PSeries, IntSeries):
        monkeypatch.setattr(cls, "__mul__", counting(cls.__mul__))
    parts = enumerate_partitions(3, 3)
    assert len(parts) == 10
    table, single = work(parts), sum(work([lam]) for lam in parts)
    assert 5 * table < 3 * single


@pytest.mark.parametrize("ell, n, bound", [(4, 4, 136), (5, 3, 102)])
def test_theta_lambdas_multiply_once_per_sub_multiset_move(monkeypatch, ell, n, bound):
    # a deterministic work count, not a timing: with no pair table the sums
    # run over the sub-multisets of the partitions, one `IntSeries` product
    # per move, sum_{v=1}^{ell-1} C(n+v-1, v) n of them over all partitions
    # at one point (136 at (4, 4), 102 at (5, 3)); the subset trie made 500
    # and 825.  The counter wraps the real product, so the values are
    # checked as well.
    count = [0]
    mul = IntSeries.__mul__

    def counted(self, other):
        count[0] += 1
        return mul(self, other)

    s = sampler(141, QQ)
    params, t = sample_ell_params(s, ell, n, 6), sample_t(s, ell)
    parts = enumerate_partitions(ell, n)
    monkeypatch.setattr(IntSeries, "__mul__", counted)
    got = theta_lambdas(parts, t, params)
    assert count[0] <= bound
    monkeypatch.undo()
    assert got == [theta_lambda_oracle(lam, t, params) for lam in parts]


@pytest.mark.parametrize("ell, n, bound", [(4, 3, 447), (5, 3, 1246)])
def test_theta_weights_multiply_once_per_shared_move(monkeypatch, ell, n, bound):
    # a deterministic work count, not a timing: the Xi weights of every
    # partition at one x-point, where each (key, depth) of the subset trie
    # that two or more nodes reach moves by one product F(S) H(S, v), with
    # H(S, v) = col[v] G(S, v) built once, and the others by two; two
    # products per move made 615 and 1,846.  The counter wraps the real
    # product, so the values are checked as well.
    count = [0]
    mul = IntSeries.__mul__

    def counted(self, other):
        count[0] += 1
        return mul(self, other)

    s = sampler(1, QQ)
    params = sample_ell_params(s, ell, n, 6)
    parts = enumerate_partitions(ell, n)
    t = x_point(parts[0], params).coords
    monkeypatch.setattr(IntSeries, "__mul__", counted)
    got = weights(parts, t, params)
    assert count[0] <= bound
    monkeypatch.undo()
    assert got == [xi_oracle(lam, t, params) for lam in parts]


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
def test_pair_free_calls_of_one_index_pattern_share_a_plan(fld):
    # two calls back to back with other keys and other columns but the same
    # index pattern (keys numbered by first appearance) run on one cached
    # plan of states and moves, and each matches its permutation sums
    entries = [fld.of(Fraction(3 * k - 17, k * k + 2)) for k in range(12)]
    first = {"a": entries[0:3], "b": entries[3:6]}
    second = {7: entries[6:9], 2: entries[9:12]}
    calls = [([("a", "b", "a"), ("b", "b", "a"), ("a", "a", "a")], first),
             ([(7, 2, 7), (2, 2, 7), (7, 7, 7)], second)]
    before = multiset_plan.cache_info()
    for seqs, cols in calls:
        int_cols, _, den = cleared_tables(fld, cols, None)
        assert symmetrize(seqs, int_cols, None, fld.one, den) == \
            oracle_sums(seqs, cols, None, fld.one, fld.zero)
    after = multiset_plan.cache_info()
    assert after.misses - before.misses <= 1
    assert after.hits - before.hits >= 1


@pytest.mark.parametrize("fld", FIELDS, ids=FIELD_IDS)
def test_alternating_sums_build_their_prefactors_in_one_pass(fld):
    # a deterministic work count, not a timing: `jing_value` and
    # `idp2_value` build their ell + 1 prefactors as one running product,
    # so jing divides field scalars ell times (one quotient per step; a
    # product rebuilt for each k makes ell (ell + 1)/2 = 36 divisions at
    # ell = 8) and idp2 asks for at most 5 ell + 1 thetas (one per k and
    # four per step; 45 rebuilt per k at ell = 4).  The counters wrap the
    # real methods, so the values are checked as well.
    s = sampler(140, fld)
    eta, t = sample_eta(s, 8), sample_t(s, 8)
    cls = type(fld.one)
    with mock.patch.object(cls, "__truediv__", autospec=True,
                           side_effect=cls.__truediv__) as divisions:
        assert jing_value(eta, t, fld.one, fld.zero) == fld.zero
    assert divisions.call_count <= 8
    params = sample_ell_params(s, 4, 2, 2)
    t = sample_t(s, 4)
    with mock.patch.object(EllParams, "th", autospec=True, side_effect=EllParams.th) as thetas:
        assert idp2_value(params, t).is_zero()
    assert thetas.call_count <= 5 * 4 + 1


def test_coincident_coordinates_are_rejected():
    s = sampler(90, QQ)
    params = sample_poly_params(s, 3, 2)
    ep = sample_ell_params(s, 3, 2, 2)
    u, v = sample_t(s, 2)
    t = (u, v, u)
    lam = enumerate_partitions(3, 2)[0]
    for primed in (False, True):
        with pytest.raises(DegenerateInputError):
            weight(lam, t, params, primed=primed)
        with pytest.raises(DegenerateInputError):
            xi_weight(lam, t, ep, primed=primed)
        with pytest.raises(DegenerateInputError):
            weights(enumerate_partitions(3, 2), t, params, primed)
        with pytest.raises(DegenerateInputError):
            weights(enumerate_partitions(3, 2), t, ep, primed)
    with pytest.raises(DegenerateInputError):
        jing_value(params.eta, t, QQ.one, QQ.zero)
    with pytest.raises(DegenerateInputError):
        idp2_value(ep, t)


@given(st.sampled_from(FIELDS), st.booleans(), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 4), st.integers(1, 50), st.randoms(use_true_random=False))
@settings(max_examples=20, deadline=None)
def test_weight_memo_is_keyed_by_point_primed_and_shift(fld, elliptic, ell, n, k, seed,
                                                        rnd):
    # one params object serves primed and unprimed weights at two points,
    # interleaved; every value must match the same call on a fresh object,
    # so a memo key that drops the point, `primed` or the column shift fails
    def fresh():
        s = sampler(seed, fld)
        if elliptic:
            return sample_ell_params(s, ell, n, k), s
        return sample_poly_params(s, ell, n), s
    params, s = fresh()
    fn = xi_weight if elliptic else weight
    points = [sample_t(s, ell) for _ in range(2)]
    calls = [(lam, t, primed) for lam in enumerate_partitions(ell, n)
             for t in points for primed in (False, True)]
    rnd.shuffle(calls)
    for lam, t, primed in calls:
        assert fn(lam, t, params, primed=primed) == fn(lam, t, fresh()[0], primed=primed)
