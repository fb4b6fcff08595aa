import hashlib
import json
from fractions import Fraction
from itertools import permutations

import pytest

from qident.cli import run_one, validate
from qident.errors import UsageError
from qident.exactnum import (
    QQ, PrimeField, PSeries, Sampler, SamplerConfig, theta, triple_pochhammer_p)
from qident.linalg import mat_det
from qident.partitions import Partition, binom, enumerate_partitions, enumerate_window, x_point
from qident.reporting import DEFAULT_PRIME, RunConfig
from qident.residues import side_pairings, transition_matrix, weight_gram
from qident.elliptic import (
    EllParams, d_lattice, detae_rhs_nokappa, dett_rhs_nokappa, idp2_value,
    omega_residue, sample_ell_params, sample_t,
    theta_lambda, theta_lambdas, vartheta, xi_weight)
from qident.polyweights import window_value

from test_symmetrize_oracles import column_oracle

K = 4


def params_for(ell, n, seed=2, k=K, constrain=None):
    return sample_ell_params(Sampler(SamplerConfig(seed)), ell, n, k, constrain)


def idp1_value(params, t, i, j):
    return window_value(params, t, i, j)


def aell_matrix(params):
    """(A, Xi, Theta) with Xi_lam = sum_nu A[lam][nu] Theta_nu."""
    return transition_matrix(theta_lambdas, params)


def test_z_factor_zeroth_order_and_duality():
    # at ell = 1 the weight of (m,) is the column Z_m itself, shift 0
    p = params_for(1, 1, k=0)
    u = Fraction(3, 7)
    zf = xi_weight(Partition((1,), 1), (u,), p)
    assert zf.coeffs == [1 - u / (p.alpha * p.x[0])]

    p2 = params_for(1, 2, seed=5)
    sw = EllParams(p2.y, p2.x, p2.eta, 1 / p2.alpha, 1, 2, K, QQ)
    for m in (1, 2):
        lam = Partition((m,), 2)
        assert xi_weight(lam, (u,), p2) == xi_weight(lam, (u,), sw, primed=True)
        assert xi_weight(lam, (u,), p2) == column_oracle(p2, u, m, 0)


def test_z_factor_reduces_to_linear_factors_at_order_zero():
    # at K = 0 each theta is 1 - argument
    p = params_for(1, 2, seed=7, k=0)
    u = Fraction(5, 9)
    got = xi_weight(Partition((1,), 2), (u,), p)
    expect = (1 - u / (p.alpha * p.x[0])) * (1 - u / p.x[1])
    assert got.coeffs == [expect]


def test_xi_single_term_and_bruteforce_oracle():
    p = params_for(1, 2, seed=3)
    t = sample_t(Sampler(SamplerConfig(4)), 1)
    lam = Partition((2,), 2)
    assert xi_weight(lam, t, p) == column_oracle(p, t[0], 2, 0)

    # independent two-permutation transcription at ell = 2, n = 1
    p2 = params_for(2, 1, seed=9)
    t2 = sample_t(Sampler(SamplerConfig(10)), 2)
    lam2 = Partition((1, 1), 1)
    eta = p2.eta
    total = p2.zero
    for sigma in permutations(range(2)):
        ta, tb = t2[sigma[0]], t2[sigma[1]]
        term = column_oracle(p2, ta, 1, -2) * column_oracle(p2, tb, 1, 0)
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
    assert p.norm(Partition((1,), 1)) == expect
    p0 = params_for(0, 2, seed=6)
    assert p0.norm(Partition((), 2)) == p0.one


def test_c_coeff_ell_small_values():
    p = params_for(1, 2, seed=8, constrain=(1, 2))
    lam2 = Partition((2,), 2)
    a2l = p.alpha * p.x[0] / p.y[0]
    assert p.window_coeff(lam2, 1, 2) == p.one / p.th(1 / a2l)
    lam1 = Partition((1,), 2)
    expect = (p.alpha * p.x[0] / p.y[0]) * p.one / p.th(p.alpha * p.x[0] / p.y[0])
    assert p.window_coeff(lam1, 1, 2) == expect
    with pytest.raises(UsageError):
        params_for(1, 3, seed=8).window_coeff(Partition((3,), 3), 1, 2)


# oracles: the per-layer products of the elliptic norm and window
# coefficient, as written before both layers shared them over the
# parameters' linear factor

def alpha_dyn_oracle(params, m, lam):
    """alpha_{m,lam} = alpha prod_{j<m} eta^(-2 w_j) x_j/y_j."""
    mults = lam.multiplicities()
    out = params.alpha
    for j in range(m - 1):
        out = out * params.eta ** (-2 * mults[j]) * params.x[j] / params.y[j]
    return out


def norm_d_oracle(lam, params):
    """Oracle for `EllParams.norm`: a product of theta ratios carrying the triple
    Pochhammer constant once per part."""
    eta = params.eta
    out = params.one * (-params.field.one) ** lam.ell
    for m, w in enumerate(lam.multiplicities(), start=1):
        if w == 0:
            continue
        aml = alpha_dyn_oracle(params, m, lam)
        xy = params.x[m - 1] / params.y[m - 1]
        for s in range(w):
            num = params.triple_poch * params.th(eta ** (s + 1)) * params.th(eta ** (-s) * xy)
            den = params.th(eta) * params.th(eta ** s / aml) * params.th(eta ** (1 - s - w) * aml * xy)
            out = out * num / den
    return out


def c_coeff_ell_oracle(lam, i, j, params):
    """Oracle for `EllParams.window_coeff`, the elliptic window coefficient attached
    to lam in the window [i, j]."""
    if lam.entries and not (i <= lam.entries[-1] and lam.entries[0] <= j):
        raise UsageError("partition %r lies outside the window [%d, %d]" % (lam.entries, i, j))
    eta = params.eta
    mults = lam.multiplicities()
    ell = lam.ell
    wi, wj = mults[i - 1], mults[j - 1]
    scalar = (params.alphas[i - 1] * params.x[i - 1] / params.y[i - 1]) ** wi \
        * eta ** (-wi * (wi - 1))
    out = params.one * scalar
    for k in range(i + 1, j):
        wk = mults[k - 1]
        akl = alpha_dyn_oracle(params, k, lam)
        xy = params.x[k - 1] / params.y[k - 1]
        for s in range(wk):
            out = out * params.th(eta ** (-s) * xy)
            out = out / (params.th(eta ** s / akl) * params.th(eta ** (1 - s - wk) * akl * xy))
    ail = alpha_dyn_oracle(params, i, lam)
    for s in range(wi):
        out = out / params.th(eta ** (1 - s - wi) * ail * params.x[i - 1] / params.y[i - 1])
    ajl = alpha_dyn_oracle(params, j, lam)
    for s in range(wj):
        out = out / params.th(eta ** s / ajl)
    for a in range(wj + 1, ell - wi + 1):
        la = lam.entries[a - 1]
        out = out * params.th(
            params.alphas[la - 1] * eta ** (a - ell) * params.y[i - 1] / params.y[la - 1])
    for a in range(1, ell + 1):
        la = lam.entries[a - 1]
        lead = eta ** (ell - a) * params.y[i - 1]
        for k in range(i + 1, la):
            out = out * params.th(lead / params.x[k - 1])
        for m in range(la + 1, j):
            out = out * params.th(lead / params.y[m - 1])
    return out


@pytest.mark.parametrize("fld", [QQ, PrimeField(DEFAULT_PRIME)], ids=["QQ", "GFp"])
def test_norm_and_window_coefficient_match_per_layer_oracles(fld):
    for seed in range(1, 6):
        for ell in range(1, 4):
            for n in range(1, 4):
                windows = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
                for constrain in [None] + windows:
                    p = sample_ell_params(Sampler(SamplerConfig(seed), fld), ell, n, K,
                                          constrain)
                    for lam in enumerate_partitions(ell, n):
                        assert p.norm(lam) == norm_d_oracle(lam, p)
                    for i, j in windows:
                        for lam in enumerate_window(ell, i, j, n):
                            assert p.window_coeff(lam, i, j) == c_coeff_ell_oracle(lam, i, j, p)


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
    assert (gram[0][0] - p.norm(lam).inverse()).is_zero()

    f = lambda t: xi_weight(lam, t, p, primed=True)
    g = lambda t: xi_weight(lam, t, p)
    xs, ys = (m[0][0] for m in side_pairings(lambda t: [f(t)], lambda t: [g(t)], p))
    assert (xs + ys).is_zero()  # (-1)^ell with ell = 1

    p12 = params_for(1, 2, seed=22)
    parts = enumerate_partitions(1, 2)
    gram12 = weight_gram(p12)
    for r, lamr in enumerate(parts):
        for c in range(len(parts)):
            expect = p12.norm(lamr).inverse() if r == c else p12.zero
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


def test_checks_report_their_verdicts():
    assert run_one(RunConfig(check="idp1", ell=1, n=2, k=4, trials=1,
                             seed=1)).verdict == "verified"
    assert run_one(RunConfig(check="idp2", ell=1, n=2, k=4, trials=1, seed=1,
                             mutate=True)).verdict == "falsified"
    assert run_one(RunConfig(check="idp1", ell=1, n=2, k=4, trials=1, seed=1,
                             no_constraint=True)).verdict == "condition-not-satisfied"
    assert run_one(RunConfig(check="xx", ell=1, n=1, k=4, trials=1,
                             seed=1)).verdict == "verified"
    assert run_one(RunConfig(check="xx", ell=1, n=1, k=4, trials=1, seed=1,
                             mutate=True)).verdict == "falsified"
    assert run_one(RunConfig(check="xt", ell=1, n=2, k=4, trials=1,
                             seed=1)).verdict == "verified"
    assert run_one(RunConfig(check="xt", ell=1, n=2, k=4, trials=1, seed=1,
                             mutate=True)).verdict == "falsified"
    r = run_one(RunConfig(check="detprod", ell=1, n=2, k=4, trials=1, seed=1))
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
            assert run_one(cfg).verdict == verdict


def test_xt_trial_reduces_each_series_result_once(monkeypatch):
    # a deterministic work count, not a timing: one xt (2, 3, K=8) trial at
    # seed 1 (the benchmark's largest `elliptic` entry) brings at most 600
    # series to canonical form, one gcd each.  Elimination updates v - f w
    # and product entries sum x_i y_i leave through one reduction each; a
    # normalized product and a normalized sum or difference apiece made
    # 1,018.  The report's digest was recorded before, so the values are
    # checked too.
    count = [0]
    make = PSeries._from_ints.__func__

    def counted(cls, *args):
        count[0] += 1
        return make(cls, *args)

    monkeypatch.setattr(PSeries, "_from_ints", classmethod(counted))
    report = run_one(RunConfig(check="xt", ell=2, n=3, k=8, seed=1, trials=1))
    assert count[0] <= 600
    assert report.verdict == "verified"
    canonical = json.dumps(report.canonical(), sort_keys=True)
    assert hashlib.sha256(canonical.encode()).hexdigest() == \
        "ecf7b80a0500e096ee4d4f069c89e3ea84967be4210796f0b9041fccb455b904"
