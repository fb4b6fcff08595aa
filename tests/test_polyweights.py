from fractions import Fraction
from itertools import permutations

import pytest

from qident.cli import run_one, validate
from qident.errors import UsageError
from qident.exactnum import QQ, Sampler, SamplerConfig
from qident.partitions import Partition, enumerate_partitions, x_point, y_point
from qident.polyweights import (
    PolyParams, id2_value, jing_value, monomial_symmetric, q_monomials, sample_poly_params,
    sample_t, weight, window_value)
from qident.reporting import RunConfig

from test_partitions import BOTH, GE, LE, leq
from test_symmetrize_oracles import column_oracle, prefactor_oracle


def params_for(ell, n, seed=2, constrain=None):
    return sample_poly_params(Sampler(SamplerConfig(seed)), ell, n, constrain)


def id1_value(params, t, i, j):
    return window_value(params, t, i, j)


def swapped(p):
    return PolyParams(p.y, p.x, p.eta, p.ell, p.n, p.field)


def test_x_factor_base_cases():
    p = params_for(1, 1)
    u = Fraction(13, 5)
    # at ell = 1 the weight of (m,) is the column X_m itself
    lam = Partition((1,), 1)
    assert weight(lam, (u,), p) == u
    assert weight(lam, (u,), p, primed=True) == 1


def test_x_factor_duality():
    # X_m(u; x; y) = u X'_m(u; y; x)
    for n in (1, 2, 3):
        p = params_for(1, n, seed=n)
        u = Fraction(7, 11)
        for m in range(1, n + 1):
            lam = Partition((m,), n)
            assert weight(lam, (u,), p) == u * weight(lam, (u,), swapped(p), primed=True)
            assert weight(lam, (u,), p) == column_oracle(p, u, m, None)


def test_weight_small_cases():
    p = params_for(1, 2)
    t = sample_t(Sampler(SamplerConfig(8)), 1)
    lam = Partition((2,), 2)
    assert weight(lam, t, p) == column_oracle(p, t[0], 2, None)

    p1 = params_for(2, 1)
    t2 = sample_t(Sampler(SamplerConfig(8)), 2)
    assert weight(Partition((1, 1), 1), t2, p1) == t2[0] * t2[1]


def test_weight_duality():
    # P(t; x; y; eta) = eta^(l(l-1)/2 - sum w(w-1)/2) t_1..t_l P'(t; y; x; 1/eta)
    for (ell, n, seed) in [(1, 2, 3), (2, 2, 4), (3, 2, 5), (2, 3, 6)]:
        p = params_for(ell, n, seed)
        pd = PolyParams(p.y, p.x, 1 / p.eta, ell, n, QQ)
        t = sample_t(Sampler(SamplerConfig(seed + 50)), ell)
        tprod = QQ.one
        for ta in t:
            tprod = tprod * ta
        for lam in enumerate_partitions(ell, n):
            w = lam.multiplicities()
            e = ell * (ell - 1) // 2 - sum(wm * (wm - 1) // 2 for wm in w)
            assert weight(lam, t, p) == p.eta ** e * tprod * weight(lam, t, pd, primed=True)


def test_weight_is_symmetric_in_t():
    for ell in (2, 3):
        p = params_for(ell, 2, seed=ell)
        t = sample_t(Sampler(SamplerConfig(31)), ell)
        for lam in enumerate_partitions(ell, 2):
            base = weight(lam, t, p)
            basep = weight(lam, t, p, primed=True)
            for sigma in permutations(range(ell)):
                ts = tuple(t[i] for i in sigma)
                assert weight(lam, ts, p) == base
                assert weight(lam, ts, p, primed=True) == basep


def test_weight_degree_bound_by_finite_differences():
    # degree <= n in each variable: the (n+1)-st finite difference vanishes
    for n in (1, 2):
        ell = 2
        p = params_for(ell, n, seed=n + 7)
        s = Sampler(SamplerConfig(77))
        t_rest = s.draw()
        base = s.draw()
        step = s.draw()
        for lam in enumerate_partitions(ell, n):
            from math import comb
            acc = QQ.zero
            for r in range(n + 2):
                t = (base + r * step, t_rest)
                acc = acc + (-1) ** r * comb(n + 1, r) * weight(lam, t, p)
            assert acc == 0


def test_weight_recursion_under_embeddings():
    # dropping the last column: P_{n,lam} = P_{n-1,lam} * prod (t_a - x_n)
    # dropping the first:      P_{n,lam'} = P_{n-1,lam} * prod (t_a - y_1)
    ell, n = 2, 3
    p = params_for(ell, n, seed=12)
    t = sample_t(Sampler(SamplerConfig(13)), ell)
    p_low_tail = PolyParams(p.x[:-1], p.y[:-1], p.eta, ell, n - 1, QQ)
    p_low_head = PolyParams(p.x[1:], p.y[1:], p.eta, ell, n - 1, QQ)
    for lam in enumerate_partitions(ell, n - 1):
        tail = QQ.one
        head = QQ.one
        for ta in t:
            tail = tail * (ta - p.x[n - 1])
            head = head * (ta - p.y[0])
        big_same = Partition(lam.entries, n)
        big_shift = Partition(tuple(e + 1 for e in lam.entries), n)
        assert weight(big_same, t, p) == weight(lam, t, p_low_tail) * tail
        assert weight(big_shift, t, p) == weight(lam, t, p_low_head) * head


def test_triangularity_at_special_points():
    for (ell, n) in [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1),
                     (2, 2), (3, 2), (2, 3), (3, 3)]:
        p = params_for(ell, n, seed=20 + ell + n)
        parts = enumerate_partitions(ell, n)
        for lam in parts:
            for mu in parts:
                cmp = leq(lam, mu)
                xv = weight(lam, x_point(mu, p).coords, p)
                yv = weight(lam, y_point(mu, p).coords, p)
                xvp = weight(lam, x_point(mu, p).coords, p, primed=True)
                yvp = weight(lam, y_point(mu, p).coords, p, primed=True)
                if cmp not in (GE, BOTH):
                    assert xv == 0
                    assert yvp == 0
                if cmp not in (LE, BOTH):
                    assert yv == 0
                    assert xvp == 0
                if cmp == BOTH:
                    assert xv != 0 and yv != 0 and xvp != 0 and yvp != 0


def aligned_coords(lam, params, kind, primed=False):
    """The same multiset of coordinates as x_point/y_point but ordered so
    that position a pairs with entry lam_a (blocks in descending m).  This
    is the order in which the single surviving permutation of a symmetrized
    weight sum at its own special point is the identity.

    The primed weights carry the eta of the pairwise factor on the earlier
    variable, which reverses the surviving order inside each geometric run;
    hence the flag."""
    eta = params.eta
    mults = lam.multiplicities()
    runs = {}
    coords = []
    for a, part in enumerate(lam.entries):
        r = runs.get(part, 0)
        runs[part] = r + 1
        w = mults[part - 1]
        if kind == "x":
            e = -r if primed else 1 - w + r
            coords.append(eta ** e * params.x[part - 1])
        elif kind == "y":
            e = w - 1 - r if primed else r
            coords.append(eta ** e * params.y[part - 1])
        else:
            raise UsageError("kind must be 'x' or 'y'")
    return tuple(coords)


def weight_at_special(lam, params, kind, primed=False):
    """Oracle: P (or P') at the partition's own special point, via the
    single surviving term of the symmetrized sum (the identity permutation
    once the coordinates are listed by `aligned_coords`)."""
    t = aligned_coords(lam, params, kind, primed=primed)
    one, eta = params.field.one, params.eta
    term = one
    for a, part in enumerate(lam.entries):
        term = term * column_oracle(params, t[a], part, None, primed)
    for a in range(lam.ell):
        for b in range(a + 1, lam.ell):
            num = (eta * t[a] - t[b]) if primed else (t[a] - eta * t[b])
            term = term * num / (t[a] - t[b])
    return prefactor_oracle(lam, eta, lambda z: one - z, one) * term


def test_identity_permutation_shortcut():
    for (ell, n) in [(2, 2), (3, 2), (2, 3)]:
        p = params_for(ell, n, seed=40 + ell)
        for lam in enumerate_partitions(ell, n):
            for kind, point in (("x", x_point(lam, p)), ("y", y_point(lam, p))):
                for primed in (False, True):
                    assert weight(lam, point.coords, p, primed=primed) == \
                        weight_at_special(lam, p, kind, primed=primed)


def test_q_monomial():
    s = Sampler(SamplerConfig(3))
    p = params_for(2, 2)
    t = sample_t(s, 2)
    assert q_monomials([Partition((2, 1), 2), Partition((1, 1), 2)], t, p) == \
        [t[0] ** 2 * t[1] + t[1] ** 2 * t[0], t[0] * t[1]]
    t1 = sample_t(s, 1)
    assert q_monomials([Partition((3,), 3)], t1, params_for(1, 3)) == [t1[0] ** 3]
    # zero exponents allowed in the general form
    assert monomial_symmetric((1, 0), t, QQ.one, QQ.zero) == t[0] + t[1]


def test_norm_examples():
    p = params_for(1, 1)
    assert p.norm(Partition((1,), 1)) == p.x[0] - p.y[0]
    p2 = params_for(2, 1)
    expect = (p2.x[0] - p2.y[0]) * (1 + p2.eta) * (p2.x[0] - p2.eta * p2.y[0])
    assert p2.norm(Partition((1, 1), 1)) == expect
    assert params_for(0, 2).norm(Partition((), 2)) == 1


def test_c_coeff_examples():
    p = params_for(1, 2, constrain=(1, 2))
    assert p.window_coeff(Partition((1,), 2), 1, 2) == -1
    assert p.window_coeff(Partition((2,), 2), 1, 2) == 1
    with pytest.raises(UsageError):
        params_for(1, 3).window_coeff(Partition((3,), 3), 1, 2)


def test_jing_small_cases():
    s = Sampler(SamplerConfig(21))
    for ell in (1, 2, 3, 4):
        eta = s.draw((lambda v: all(v ** k != QQ.one for k in range(1, ell + 2)),))
        t = sample_t(s, ell)
        assert jing_value(eta, t, QQ.one, QQ.zero) == 0
        assert jing_value(eta, t, QQ.one, QQ.zero, mutate=True) != 0


def test_id_values():
    # hand case: l=1, n=2 reduces to t (x_2 - y_1) before the constraint
    p_free = params_for(1, 2)
    t = sample_t(Sampler(SamplerConfig(5)), 1)
    assert id1_value(p_free, t, 1, 2) == t[0] * (p_free.x[1] - p_free.y[0])
    p = params_for(1, 2, constrain=(1, 2))
    assert id1_value(p, t, 1, 2) == 0
    assert id2_value(p, t, 2) == 0
    p22 = params_for(2, 2, constrain=(1, 2))
    t2 = sample_t(Sampler(SamplerConfig(6)), 2)
    assert id1_value(p22, t2, 1, 2) == 0
    assert id2_value(p22, t2, 2) == 0
    # without the constraint both are generically nonzero
    free = params_for(2, 2)
    assert id1_value(free, t2, 1, 2) != 0
    assert id2_value(free, t2, 2) != 0


def test_checks_report_their_verdicts():
    r = run_one(RunConfig(check="jing", ell=3, trials=2, seed=1))
    assert r.verdict == "verified"
    r = run_one(RunConfig(check="id1", ell=2, n=2, trials=2, seed=1))
    assert r.verdict == "verified"
    r = run_one(RunConfig(check="id2", ell=2, n=2, trials=1, seed=1, mutate=True))
    assert r.verdict == "falsified"
    r = run_one(RunConfig(check="id2", ell=2, n=2, trials=1, seed=1, no_constraint=True))
    assert r.verdict == "condition-not-satisfied"
    with pytest.raises(UsageError):
        validate(RunConfig(check="id1", ell=2, n=2, i=2, j=2))
