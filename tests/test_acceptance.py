"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Everything is property-based exact verification at desk scale: a check
passes only when the asserted quantity is exactly zero (or exactly the
asserted closed form), coefficient-wise to the stated truncation order for
the series-valued checks.  Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import json
import time
from fractions import Fraction

from qident.cli import run_one
from qident.exactnum import QQ, Sampler, SamplerConfig, theta, triple_pochhammer_p
from qident.elliptic import sample_ell_params, xi_weight
from qident.partitions import Partition
from qident.reporting import RunConfig
from qident.residues import side_pairings

from test_exactnum import theta_reduced

VERIFIED = "verified"
FALSIFIED = "falsified"
NOT_SATISFIED = "condition-not-satisfied"


def report_line(num, ok, text):
    print("ACCEPTANCE %2d %s: %s" % (num, "PASS" if ok else "FAIL", text))
    assert ok, text


def verdict(check, **kw):
    kw.setdefault("trials", 2)
    kw.setdefault("seed", 1)
    return run_one(RunConfig(check=check, **kw)).verdict


def test_criterion_01_jing():
    start = time.perf_counter()
    ok = all(verdict("jing", ell=ell, trials=3) == VERIFIED for ell in range(1, 6))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report_line(1, ok, "base identity exact for ell=1..5, 3 trials each "
                "(%.2fs, budget 30s)" % elapsed)


def test_criterion_02_window_identities():
    ok = True
    for ell in (1, 2, 3):
        for (n, i, j) in [(2, 1, 2), (3, 1, 2), (3, 1, 3), (3, 2, 3)]:
            ok = ok and verdict("id1", ell=ell, n=n, i=i, j=j) == VERIFIED
            ok = ok and verdict("id2", ell=ell, n=n, i=i, j=j) == VERIFIED
    ok = ok and verdict("id1", ell=2, n=2, mutate=True, trials=1) == FALSIFIED
    ok = ok and verdict("id2", ell=2, n=2, mutate=True, trials=1) == FALSIFIED
    ok = ok and verdict("id1", ell=2, n=2, no_constraint=True, trials=1) == NOT_SATISFIED
    ok = ok and verdict("id2", ell=2, n=2, no_constraint=True, trials=1) == NOT_SATISFIED
    report_line(2, ok, "window identities for ell<=3, n<=3, all i<j, "
                "with negative controls")


def test_criterion_03_biorthogonality():
    ok = True
    for (ell, n) in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 2)]:
        ok = ok and verdict("pp", ell=ell, n=n, trials=1) == VERIFIED
    for (ell, n) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        ok = ok and verdict("resI", ell=ell, n=n, trials=1) == VERIFIED
    report_line(3, ok, "Gram matrix equals diag(1/N) exactly; x/y residue "
                "sums agree with sign (-1)^ell on admissible monomials")


def test_criterion_04_triple_product():
    ok = all(verdict("mn", ell=ell, n=n, trials=1) == VERIFIED
             for (ell, n) in [(1, 2), (2, 2)])
    report_line(4, ok, "assembled triple product is exactly the identity "
                "matrix for (1,2) and (2,2)")


def test_criterion_05_determinants():
    from qident.exactnum import Sampler, SamplerConfig
    from qident.linalg import mat_det
    from qident.partitions import enumerate_partitions, x_point
    from qident.polyweights import q_monomials, sample_poly_params
    from qident.residues import transition_matrix

    ok = True
    for ell in (1, 2, 3):
        for n in (1, 2, 3):
            ok = ok and verdict("detq", ell=ell, n=n, trials=1) == VERIFIED
            ok = ok and verdict("deta", ell=ell, n=n, trials=1) == VERIFIED
    # the quoted (ell, n) = (1, 2) values
    p = sample_poly_params(Sampler(SamplerConfig(2)), 1, 2)
    parts = enumerate_partitions(1, 2)
    mat = [[q_monomials([lam], x_point(mu, p).coords, p)[0] for mu in parts] for lam in parts]
    ok = ok and mat_det(mat, QQ.one, QQ.zero) == p.x[0] * p.x[1] * (p.x[1] - p.x[0])
    a, _, _ = transition_matrix(q_monomials, p)
    ok = ok and mat_det(a, QQ.one, QQ.zero) == p.y[0] - p.x[1]
    report_line(5, ok, "determinants match the closed forms exactly for "
                "ell<=3, n<=3, including the quoted (1,2) values")


def test_criterion_06_elliptic_window_identities():
    start = time.perf_counter()
    ok = True
    for ell in (1, 2):
        ok = ok and verdict("idp1", ell=ell, n=2, k=6, trials=2) == VERIFIED
        ok = ok and verdict("idp2", ell=ell, n=2, k=6, trials=2) == VERIFIED
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report_line(6, ok, "elliptic window identities vanish coefficient-wise "
                "to order 6 (%.2fs, budget 120s)" % elapsed)


def test_criterion_07_elliptic_biorthogonality():
    ok = all(verdict("xx", ell=ell, n=n, k=6, trials=1) == VERIFIED
             for (ell, n) in [(1, 1), (1, 2), (2, 2)])
    # explicit sign check of the x/y residue sums on the weight family
    p = sample_ell_params(Sampler(SamplerConfig(5)), 1, 1, 6)
    lam = Partition((1,), 1)
    f = lambda t: xi_weight(lam, t, p, primed=True)
    g = lambda t: xi_weight(lam, t, p)
    xs, ys = (m[0][0] for m in side_pairings(lambda t: [f(t)], lambda t: [g(t)], p))
    ok = ok and (xs + ys).is_zero() and (xs - p.norm(lam).inverse()).is_zero()
    report_line(7, ok, "theta-weight Gram equals diag(1/D) to order 6; "
                "residue-sum sign relation holds")


def test_criterion_08_basis_transition():
    ok = all(verdict("xt", ell=ell, n=n, k=6, trials=1) == VERIFIED
             for (ell, n) in [(1, 1), (1, 2), (2, 2)])
    ok = ok and all(verdict("detprod", ell=ell, n=n, k=6, trials=1) == VERIFIED
                    for (ell, n) in [(1, 2), (2, 2)])
    report_line(8, ok, "basis-solve residual exactly zero at 3 fresh points; "
                "determinant product identity holds to order 6")


def test_criterion_09_theta_ring():
    k = 8
    sampler = Sampler(SamplerConfig(3))
    ok = True
    for _ in range(5):
        u = sampler.draw((lambda v: v != QQ.one,))
        ok = ok and theta(u, 1, k, 1) == theta(u, 1, k) * (-1 / u)
        ok = ok and theta(1 / u, 1, k) == theta(u, 1, k) * (-1 / u)
    got = theta(Fraction(2), 1, 1)
    ok = ok and got.coeffs == [Fraction(-1), Fraction(7, 2)]
    ok = ok and theta_reduced(Fraction(1), k) == triple_pochhammer_p(QQ, k)
    report_line(9, ok, "quasi-periodicity and inversion to order 8 at 5 "
                "points; theta(2) and the reduced value at 1 are exact")


def test_criterion_10_exchange_relation():
    ok = verdict("rll", n=2, trials=3) == VERIFIED
    ok = ok and verdict("rll", n=2, trials=3, field="prime") == VERIFIED
    report_line(10, ok, "exchange relation exact on 2-factor products at "
                "depth 2, 3 sampled pairs; rational and prime modes agree")


def test_criterion_11_string_expansions():
    ok = all(verdict("kbi", ell=ell, n=n, trials=1) == VERIFIED
             for ell in (1, 2, 3) for n in (1, 2, 3))
    report_line(11, ok, "string expansions match the operator computation "
                "for all ell<=3, n<=3 under the parameter map")


def test_criterion_12_singular_vectors():
    ok = True
    for n in (2, 3):
        pairs = [(1, 2)] if n == 2 else [(1, 2), (1, 3), (2, 3)]
        for (i, j) in pairs:
            for ell in (0, 1, 2):
                ok = ok and verdict("bc1", ell=ell, n=n, i=i, j=j, trials=1) == VERIFIED
            for ell in (1, 2):
                ok = ok and verdict("bc2", ell=ell, n=n, i=i, j=j, trials=1) == VERIFIED
    ok = ok and verdict("singular", ell=0, n=2, trials=1) == VERIFIED
    ok = ok and verdict("singular", ell=1, n=2, trials=1) == VERIFIED
    ok = ok and verdict("singular", ell=1, n=3, i=1, j=3, trials=1) == VERIFIED
    # negative controls: every check falls to the mutated lowering operator;
    # the resonance-sensitive ones also fall to the lifted constraint
    ok = ok and verdict("bc1", ell=1, n=2, mutate=True, trials=1) == FALSIFIED
    ok = ok and verdict("bc2", ell=1, n=2, mutate=True, trials=1) == FALSIFIED
    ok = ok and verdict("singular", ell=1, n=2, mutate=True, trials=1) == FALSIFIED
    ok = ok and verdict("bc2", ell=1, n=2, no_constraint=True, trials=1) == NOT_SATISFIED
    ok = ok and verdict("singular", ell=1, n=2, no_constraint=True, trials=1) == NOT_SATISFIED
    report_line(12, ok, "operator strings vanish under the resonance; the "
                "singular vector is annihilated at n+ell+2 points; negative "
                "controls fail as designed")


def test_criterion_13_reproducibility():
    ok = True
    for cfg in (RunConfig(check="idp1", ell=1, n=2, k=4, trials=2, seed=77),
                RunConfig(check="kbi", ell=2, n=2, trials=2, seed=78),
                RunConfig(check="pp", ell=2, n=2, trials=2, seed=79)):
        first = run_one(cfg)
        embedded = json.loads(first.to_json())["config"]
        second = run_one(RunConfig.from_dict(embedded))
        ok = ok and first.canonical() == second.canonical()
    report_line(13, ok, "replaying a report's embedded config reproduces "
                "identical per-trial values bit for bit")
