"""The literal sums over S_ell, kept here as oracles for the subset-DP
`symmetrize` kernel that every symmetrized value in the package goes
through: weights P and P', the base identity (plain and mutated),
monomial symmetric polynomials, the theta weights, the explicit two-column
elliptic identity and the symmetrized basis products, for ell <= 4 over
both QQ and GF(2^61 - 1)."""

import math
from collections import Counter
from itertools import permutations

import pytest

from qident.elliptic import (
    idp2_value, rho_lambda, sample_ell_params, theta_lambda, vartheta, xi_weight,
    z_factor)
from qident.errors import DegenerateInputError
from qident.exactnum import QQ, PrimeField, Sampler, SamplerConfig
from qident.partitions import enumerate_partitions
from qident.polyweights import (
    eta_constraint, jing_value, monomial_symmetric, r_lambda, sample_poly_params,
    sample_t, symmetrize, weight, x_factor)
from qident.reporting import DEFAULT_PRIME

FIELDS = [QQ, PrimeField(DEFAULT_PRIME)]
FIELD_IDS = ["QQ", "GFp"]


def sampler(seed, fld):
    return Sampler(SamplerConfig(seed), fld)


# ---------------------------------------------------------------------------
# oracles: the defining sums, term by term over all ell! permutations
# ---------------------------------------------------------------------------

def weight_oracle(lam, t, params, primed=False):
    zero, one, eta = params.field.zero, params.field.one, params.eta
    total = zero
    for sigma in permutations(range(lam.ell)):
        term = one
        for a, part in enumerate(lam.entries):
            term = term * x_factor(t[sigma[a]], part, params, primed)
        for a in range(lam.ell):
            for b in range(a + 1, lam.ell):
                ta, tb = t[sigma[a]], t[sigma[b]]
                num = (eta * ta - tb) if primed else (ta - eta * tb)
                term = term * num / (ta - tb)
        total = total + term
    return r_lambda(lam, eta, one) * total


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
            shift = params.alpha * eta ** (2 * a - 2 * ell)
            term = term * z_factor(t[sigma[a - 1]], lam.entries[a - 1], params, shift, primed)
        for a in range(ell):
            for b in range(a + 1, ell):
                ta, tb = t[sigma[a]], t[sigma[b]]
                if primed:
                    term = term * th(eta * ta / tb) / th(ta / tb)
                else:
                    term = term * th(eta * tb / ta) / th(tb / ta)
        total = total + term
    return rho_lambda(lam, params) * total


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
# the kernel against the oracles
# ---------------------------------------------------------------------------

def test_symmetrize_small_cases_by_hand():
    one, zero = QQ.one, QQ.zero
    assert symmetrize(0, [], [], one, zero) == one
    single = [[2, 3], [5, 7]]
    # orders (0, 1) and (1, 0): single[0][0] single[1][1] pair[0][1] + ...
    pair = [[None, 11], [13, None]]
    assert symmetrize(2, single, pair, one, zero) == 2 * 7 * 11 + 3 * 5 * 13
    assert symmetrize(2, single, None, one, zero) == 2 * 7 + 3 * 5


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
    eta = s.draw((eta_constraint(fld.one, ell),))
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
        jing_value(params.eta, t, QQ.one, QQ.zero)
    with pytest.raises(DegenerateInputError):
        idp2_value(ep, t)
