from fractions import Fraction
from itertools import permutations

import pytest

from qident.cli import validate
from qident.errors import UsageError
from qident.exactnum import QQ, Sampler, SamplerConfig, theta, triple_pochhammer_p
from qident.linalg import mat_det
from qident.partitions import Partition, binom, enumerate_partitions, x_point
from qident.reporting import RunConfig
from qident.residues import side_pairings, transition_matrix, weight_gram
from qident.elliptic import (
    EllParams, c_coeff_ell, d_lattice,
    detae_rhs_nokappa, dett_rhs_nokappa, idp2_value, norm_d,
    omega_residue, sample_ell_params, sample_t,
    theta_lambda, theta_lambdas, vartheta, verify_detprod, verify_idp, verify_xt,
    verify_xx, xi_weight)
from qident.polyweights import window_value

K = 4


def params_for(ell, n, seed=2, k=K, constrain=None):
    return sample_ell_params(Sampler(SamplerConfig(seed)), ell, n, k, constrain)


def idp1_value(params, t, i, j):
    return window_value(params, t, i, j, c_coeff_ell)


def aell_matrix(params):
    """(A, Xi, Theta) with Xi_lam = sum_nu A[lam][nu] Theta_nu."""
    return transition_matrix(theta_lambdas, params)


def test_z_factor_zeroth_order_and_duality():
    p = params_for(1, 1, k=0)
    u = Fraction(3, 7)
    zf = p.column(u, 1, 0)
    assert zf.coeffs == [1 - u / (p.alpha * p.x[0])]

    p2 = params_for(1, 2, seed=5)
    sw = EllParams(p2.y, p2.x, p2.eta, 1 / p2.alpha, 1, 2, K, QQ)
    for m in (1, 2):
        assert p2.column(u, m, 0) == sw.column(u, m, 0, primed=True)


def test_z_factor_reduces_to_linear_factors_at_order_zero():
    # at K = 0 each theta is 1 - argument
    p = params_for(1, 2, seed=7, k=0)
    u = Fraction(5, 9)
    got = p.column(u, 1, 0)
    expect = (1 - u / (p.alpha * p.x[0])) * (1 - u / p.x[1])
    assert got.coeffs == [expect]


def test_xi_single_term_and_bruteforce_oracle():
    p = params_for(1, 2, seed=3)
    t = sample_t(Sampler(SamplerConfig(4)), 1)
    lam = Partition((2,), 2)
    assert xi_weight(lam, t, p) == p.column(t[0], 2, 0)

    # independent two-permutation transcription at ell = 2, n = 1
    p2 = params_for(2, 1, seed=9)
    t2 = sample_t(Sampler(SamplerConfig(10)), 2)
    lam2 = Partition((1, 1), 1)
    eta = p2.eta
    total = p2.zero
    for sigma in permutations(range(2)):
        ta, tb = t2[sigma[0]], t2[sigma[1]]
        term = p2.column(ta, 1, -2) * p2.column(tb, 1, 0)
        term = term * p2.th(eta * tb / ta) / p2.th(tb / ta)
        total = total + term
    assert xi_weight(lam2, t2, p2) == p2.th(eta) / p2.th(eta ** 2) * total


def test_xi_symmetry_and_duality():
    p = params_for(2, 2, seed=11)
    t = sample_t(Sampler(SamplerConfig(12)), 2)
    sw = EllParams(p.y, p.x, 1 / p.eta, 1 / p.alpha, 2, 2, K, QQ)
    for lam in enumerate_partitions(2, 2):
        base = xi_weight(lam, t, p)
        assert xi_weight(lam, (t[1], t[0]), p) == base
        w = lam.multiplicities()
        e = 1 - sum(wm * (wm - 1) // 2 for wm in w)
        assert base == p.eta ** e * xi_weight(lam, t, sw, primed=True)

    p3 = params_for(3, 1, seed=34, k=2)
    t3 = sample_t(Sampler(SamplerConfig(35)), 3)
    lam3 = Partition((1, 1, 1), 1)
    for primed in (False, True):
        base = xi_weight(lam3, t3, p3, primed=primed)
        for sigma in permutations(range(3)):
            ts = tuple(t3[i] for i in sigma)
            assert xi_weight(lam3, ts, p3, primed=primed) == base


def test_norm_d_examples():
    p = params_for(1, 1, seed=6)
    expect = -triple_pochhammer_p(QQ, K) * p.th(p.x[0] / p.y[0]) \
        / (p.th(1 / p.alpha) * p.th(p.alpha * p.x[0] / p.y[0]))
    assert norm_d(Partition((1,), 1), p) == expect
    p0 = params_for(0, 2, seed=6)
    assert norm_d(Partition((), 2), p0) == p0.one


def test_c_coeff_ell_small_values():
    p = params_for(1, 2, seed=8, constrain=(1, 2))
    lam2 = Partition((2,), 2)
    a2l = p.alpha * p.x[0] / p.y[0]
    assert c_coeff_ell(lam2, 1, 2, p) == p.one / p.th(1 / a2l)
    lam1 = Partition((1,), 2)
    expect = (p.alpha * p.x[0] / p.y[0]) * p.one / p.th(p.alpha * p.x[0] / p.y[0])
    assert c_coeff_ell(lam1, 1, 2, p) == expect
    with pytest.raises(UsageError):
        c_coeff_ell(Partition((3,), 3), 1, 2, params_for(1, 3, seed=8))


def test_idp_identities():
    # two-term theta-inversion cancellation at ell = 1
    p = params_for(1, 2, seed=13, constrain=(1, 2))
    t = sample_t(Sampler(SamplerConfig(14)), 1)
    assert idp1_value(p, t, 1, 2).is_zero()
    assert idp2_value(p, t).is_zero()
    # window sums over longer partitions, including a nonempty middle block
    for (ell, n, i, j, seed) in [(2, 2, 1, 2, 15), (1, 3, 1, 3, 16), (2, 3, 1, 3, 17)]:
        pc = params_for(ell, n, seed=seed, constrain=(i, j))
        tt = sample_t(Sampler(SamplerConfig(seed + 1)), ell)
        assert idp1_value(pc, tt, i, j).is_zero()
    # idp2 at ell = 2; and the K = 0 degeneration is a polynomial identity
    p2 = params_for(2, 2, seed=18, constrain=(1, 2))
    t2 = sample_t(Sampler(SamplerConfig(19)), 2)
    assert idp2_value(p2, t2).is_zero()
    p0 = params_for(2, 2, seed=18, k=0, constrain=(1, 2))
    assert idp1_value(p0, t2, 1, 2).is_zero()
    # unconstrained parameters break idp1
    pf = params_for(2, 2, seed=20)
    assert not idp1_value(pf, t2, 1, 2).is_zero()


def test_gram_xx_and_res_sign():
    p = params_for(1, 1, seed=21)
    lam = Partition((1,), 1)
    gram = weight_gram(p)
    assert (gram[0][0] - norm_d(lam, p).inverse()).is_zero()

    f = lambda t: xi_weight(lam, t, p, primed=True)
    g = lambda t: xi_weight(lam, t, p)
    xs, ys = (m[0][0] for m in side_pairings(lambda t: [f(t)], lambda t: [g(t)], p))
    assert (xs + ys).is_zero()  # (-1)^ell with ell = 1

    p12 = params_for(1, 2, seed=22)
    parts = enumerate_partitions(1, 2)
    gram12 = weight_gram(p12)
    for r, lamr in enumerate(parts):
        for c in range(len(parts)):
            expect = norm_d(lamr, p12).inverse() if r == c else p12.zero
            assert (gram12[r][c] - expect).is_zero()


def test_omega_residue_matches_hand_value():
    # single theta pole: Res 1/(theta(t/x) theta(t/y)) dt/t at t = x
    p = params_for(1, 1, seed=23)
    lam = Partition((1,), 1)
    val = omega_residue(p, x_point(lam, p))
    expect = -(triple_pochhammer_p(QQ, K) * p.th(p.x[0] / p.y[0])).inverse()
    assert (val - expect).is_zero()


def test_vartheta_order_zero_limits():
    # the basis coefficient uses 1/(alpha prod x): the quasi-periodicity of
    # the weights forces this; see the decisions ledger
    p = params_for(2, 2, seed=24)
    u = Fraction(4, 7)
    lead = p.eta ** (p.ell - 1) / p.alpha
    for xm in p.x:
        lead = lead / xm
    v1 = vartheta(1, u, p)
    assert v1.coeffs[0] == 1 + lead * (-u) ** 2
    v2 = vartheta(2, u, p)
    assert v2.coeffs[0] == u
    # Theta reduces to a single basis factor at ell = 1
    p1 = params_for(1, 2, seed=25)
    t = sample_t(Sampler(SamplerConfig(26)), 1)
    assert theta_lambda(Partition((2,), 2), t, p1) == vartheta(2, t[0], p1)


def test_xt_solve_and_fresh_point_residual():
    for (ell, n, seed) in [(1, 1, 27), (1, 2, 28), (2, 2, 29)]:
        p = params_for(ell, n, seed=seed)
        parts = enumerate_partitions(ell, n)
        a, _, _ = aell_matrix(p)
        s = Sampler(SamplerConfig(seed + 1))
        for _ in range(3):
            t = sample_t(s, ell)
            for r, lam in enumerate(parts):
                resid = xi_weight(lam, t, p)
                for c, nu in enumerate(parts):
                    resid = resid - a[r][c] * theta_lambda(nu, t, p)
                assert resid.is_zero()


def test_detprod():
    for (ell, n, seed) in [(1, 2, 30), (2, 2, 31)]:
        p = params_for(ell, n, seed=seed)
        parts = enumerate_partitions(ell, n)
        pts = [x_point(mu, p).coords for mu in parts]
        xi_mat = [[xi_weight(lam, pt, p) for pt in pts] for lam in parts]
        lhs = mat_det(xi_mat, p.one, p.zero)
        rhs = dett_rhs_nokappa(p) * detae_rhs_nokappa(p)
        assert (lhs - rhs).is_zero()


def test_detprod_constant_cancellation_explicit_for_two_columns():
    # for two columns the root-of-unity constant is rational and can be
    # formed explicitly: K = [(p;p)^3 (-2)/theta(-1)]^C(ell+1, 2); the two
    # closed forms then hold separately
    for (ell, seed) in [(1, 32), (2, 33)]:
        n = 2
        p = params_for(ell, n, seed=seed)
        parts = enumerate_partitions(ell, n)
        a, xi_mat, th_mat = aell_matrix(p)
        det_th = mat_det(th_mat, p.one, p.zero)
        det_a = mat_det(a, p.one, p.zero)
        kconst = (triple_pochhammer_p(QQ, K) * (-2)
                  * theta(Fraction(-1), 1, K).inverse()) ** binom(ell + 1, 2)
        assert (det_th - kconst * dett_rhs_nokappa(p)).is_zero()
        assert (det_a * kconst - detae_rhs_nokappa(p)).is_zero()


def d_lattice_bruteforce(n, m, ell, s):
    """Oracle: `d_lattice` summed over every pair (i, j) in a box that
    holds all lattice points with i + j < ell and i - j = s."""
    total = 0
    for i in range(ell + abs(s) + 1):
        for j in range(ell + abs(s) + 1):
            if i + j < ell and i - j == s:
                total += binom(m - 1 + i, m - 1) * binom(n - m - 1 + j, n - m - 1)
    return total


def test_d_lattice_count():
    for n in range(2, 5):
        for m in range(1, n):
            for ell in range(1, 5):
                for s in range(-4, 5):
                    assert d_lattice(n, m, ell, s) == d_lattice_bruteforce(n, m, ell, s)


def test_drivers():
    assert verify_idp(RunConfig(check="idp1", ell=1, n=2, k=4, trials=1,
                                seed=1)).verdict == "verified"
    assert verify_idp(RunConfig(check="idp2", ell=1, n=2, k=4, trials=1, seed=1,
                                mutate=True)).verdict == "falsified"
    assert verify_idp(RunConfig(check="idp1", ell=1, n=2, k=4, trials=1, seed=1,
                                no_constraint=True)).verdict == "condition-not-satisfied"
    assert verify_xx(RunConfig(check="xx", ell=1, n=1, k=4, trials=1,
                               seed=1)).verdict == "verified"
    assert verify_xx(RunConfig(check="xx", ell=1, n=1, k=4, trials=1, seed=1,
                               mutate=True)).verdict == "falsified"
    assert verify_xt(RunConfig(check="xt", ell=1, n=2, k=4, trials=1,
                               seed=1)).verdict == "verified"
    assert verify_xt(RunConfig(check="xt", ell=1, n=2, k=4, trials=1, seed=1,
                               mutate=True)).verdict == "falsified"
    r = verify_detprod(RunConfig(check="detprod", ell=1, n=2, k=4, trials=1, seed=1))
    assert r.verdict == "verified"
    assert any("cancel" in note for note in r.notes)
    with pytest.raises(UsageError):
        validate(RunConfig(check="idp2", ell=1, n=3, i=1, j=3))


def test_xt_with_order_below_the_basis_valuation():
    # vartheta(m) takes theta at c p^(m-1); with m - 1 > K that argument is
    # zero modulo p^(K+1), but its theta is not (the constant term is 1)
    p = params_for(1, 3, k=0)
    u = Fraction(4, 7)
    assert vartheta(3, u, p).coeffs == [u ** 2]
    for (ell, n, k) in [(1, 3, 1), (2, 3, 0), (1, 4, 1)]:
        for mutate, verdict in ((False, "verified"), (True, "falsified")):
            cfg = RunConfig(check="xt", ell=ell, n=n, k=k, trials=1, seed=1, mutate=mutate)
            assert verify_xt(cfg).verdict == verdict
