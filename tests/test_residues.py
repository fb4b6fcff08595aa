import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qident import exactnum
from qident.cli import run_one
from qident.elliptic import sample_ell_params, scalar_product_omega, xi_weight
from qident.errors import ConsistencyError, DegenerateInputError, PoleOrderError
from qident.exactnum import (
    PrimeField, PrimeScalar, PSeries, QQ, Sampler, SamplerConfig, modulus, scalar_of)
from qident.linalg import mat_det, mat_mul
from qident.partitions import (
    EvalPoint, Partition, enumerate_partitions, kappa, x_point, y_point)
from qident.polyweights import (
    PolyParams, monomial_symmetric, q_monomials, sample_poly_params, weight, weights)
from qident.reporting import DEFAULT_PRIME, RunConfig
from qident.residues import (
    admissible_exponent_tuples, cancel_poles, d_exponent, deta_rhs, detq_rhs,
    kernel_residue, kernel_residue_parts, point_family, scalar_product, side_pairings,
    special_values, transition_matrix, weight_gram)


def params_for(ell, n, seed=2, constrain=None):
    return sample_poly_params(Sampler(SamplerConfig(seed)), ell, n, constrain)


def poly_transition(params):
    """(A, P, Q) with P_lam = sum_mu A[lam][mu] Q_mu."""
    return transition_matrix(q_monomials, params)


def one_fn(t):
    return QQ.one


# ---------------------------------------------------------------------------
# oracle: the kernel S(t) in linear factors c_i t_i + c_j t_j + d, cancelled
# and substituted step by step with no reference to the theta kernel
# ---------------------------------------------------------------------------

class LinFactor:
    def __init__(self, i, ci, j, cj, d, tag):
        self.i, self.ci, self.j, self.cj, self.d, self.tag = i, ci, j, cj, d, tag

    def substitute(self, a, value):
        if self.i == a:
            self.d = self.d + self.ci * value
            self.i, self.ci = None, None
        if self.j == a:
            self.d = self.d + self.cj * value
            self.j, self.cj = None, None
        if self.i is None and self.j is not None:
            self.i, self.ci, self.j, self.cj = self.j, self.cj, None, None

    def vanishes_at(self, a, c, zero):
        return self.i == a and self.j is None and self.ci * c + self.d == zero


def cancellation_plan(point):
    """Oracle: the structurally designated vanishing factor for each
    residue step of a special point, as a theta tag: the anchor
    phi(t_a/x_m) or phi(t_a/y_m) at the end of a geometric block, the
    adjacent pair factor inside a block."""
    lam = point.partition
    plan = {}
    a = 0
    for m, w in enumerate(lam.multiplicities(), start=1):
        for r in range(w):
            last = r == w - 1
            if point.kind == "x":
                plan[a] = ("x", a, m) if last else ("pair", a, a + 1)
            else:
                plan[a] = ("y", a, m) if last else ("pair", a + 1, a)
            a += 1
    return plan


def linear_kernel_residue_oracle(params, point, plan=None):
    """(scale_inv, numer_value, denom_value) of S(t) = prod_a prod_m
    (t_a - x_m)(t_a - y_m) prod_{a != b} (t_a - eta t_b)/(t_a - t_b), each
    step contributing 1/(t * slope).  `plan` uses the theta tags of
    `cancellation_plan`: theta(eta t_i/t_j) is the linear (t_j - eta t_i).
    With a plan the designated factors are cancelled, which keeps the value
    meaningful as a rational function even when a remaining factor happens
    to vanish at specialized parameters."""
    one, zero = params.field.one, params.field.zero
    numer, denom = [], []
    for a in range(point.ell):
        for m in range(params.n):
            numer.append(LinFactor(a, one, None, None, -params.x[m], ("x", a, m + 1)))
            numer.append(LinFactor(a, one, None, None, -params.y[m], ("y", a, m + 1)))
    for i in range(point.ell):
        for j in range(point.ell):
            if i != j:
                numer.append(LinFactor(i, one, j, -params.eta, zero, ("pair", j, i)))
                denom.append(LinFactor(i, one, j, -one, zero, ("den", j, i)))
    scale_inv = one
    for a in reversed(range(point.ell)):
        c = point.coords[a]
        if plan is None:
            hits = [f for f in numer if f.vanishes_at(a, c, zero)]
            if len(hits) != 1 or any(f.vanishes_at(a, c, zero) for f in denom):
                raise PoleOrderError("not a simple pole at step %d" % a)
            f = hits[0]
        else:
            f = next(g for g in numer if g.tag == plan[a])
            assert f.vanishes_at(a, c, zero)
        numer.remove(f)
        scale_inv = scale_inv * (f.ci * c)
        for g in numer + denom:
            g.substitute(a, c)
    nval, dval = one, one
    for g in numer:
        nval = nval * g.d
    for g in denom:
        dval = dval * g.d
    return scale_inv, nval, dval


# ---------------------------------------------------------------------------
# oracle: `cancel_poles` by substitution, one variable per step, over the
# factors phi(c t_i/t_j) of the kernel, testing every factor at every step
# ---------------------------------------------------------------------------

class KernelFactor:
    """phi(c * t_i / t_j) with scalar c; either variable slot may be absent
    or already substituted.  The factor vanishes at a substitution exactly
    when its argument becomes 1."""

    def __init__(self, i, j, c, tag):
        self.i, self.j, self.c, self.tag = i, j, c, tag

    def substitute(self, a, value):
        if self.i == a:
            self.c = self.c * value
            self.i = None
        if self.j == a:
            self.c = self.c / value
            self.j = None

    def vanishes_at(self, a, value, one):
        if self.i == a and self.j is None:
            return self.c * value == one
        if self.j == a and self.i is None:
            return self.c / value == one
        return False


def stepwise_cancel_poles(params, point):
    """(sign, numerator arguments, denominator arguments) as `cancel_poles`
    returns them, with the same PoleOrderError messages: the factors of
    Omega are substituted one variable at a time, last variable first."""
    one = params.field.one
    numer, denom = [], []
    for a in range(point.ell):
        for m in range(params.n):
            numer.append(KernelFactor(a, None, one / params.x[m], ("x", a, m + 1)))
            numer.append(KernelFactor(a, None, one / params.y[m], ("y", a, m + 1)))
    for i in range(point.ell):
        for j in range(point.ell):
            if i != j:
                numer.append(KernelFactor(i, j, params.eta, ("pair", i, j)))
                denom.append(KernelFactor(i, j, one, ("den", i, j)))
    sign = one
    for a in reversed(range(point.ell)):
        c = point.coords[a]
        hits = [f for f in numer if f.vanishes_at(a, c, one)]
        if len(hits) != 1:
            raise PoleOrderError(
                "step t_%d -> %s: %d vanishing numerator factors (need exactly 1)"
                % (a + 1, c, len(hits)))
        bad = [f for f in denom if f.vanishes_at(a, c, one)]
        if bad:
            raise PoleOrderError(
                "step t_%d -> %s: denominator factor %r vanishes"
                % (a + 1, c, bad[0].tag))
        f = hits[0]
        if f.i == a:
            sign = -sign
        numer.remove(f)
        for g in numer + denom:
            g.substitute(a, c)
    return sign, [g.c for g in numer], [g.c for g in denom]


def m_kappa(params, lam):
    """Oracle: M at the special point of lam, the reciprocal of the kernel
    residue, as the planned product of `linear_kernel_residue_oracle`, so
    that its vanishing at specialized parameters is an exact 0, not an
    error."""
    point = x_point(lam, params)
    scale_inv, nval, dval = linear_kernel_residue_oracle(
        params, point, plan=cancellation_plan(point))
    if dval == params.field.zero:
        raise DegenerateInputError("coincident coordinates at %r" % (lam,))
    return scale_inv * nval / dval


def d_exponent_bruteforce(n, ell, s):
    """Oracle: `d_exponent` as a literal count of the lattice points
    (r, e_1..e_{n-1}) >= 0 with 2r + sum(e) = ell - |s| - 1."""
    count = 0
    target = ell - abs(s) - 1
    if target < 0 or n < 2:
        return 0

    def rec(remaining, slots):
        if slots == 0:
            return 1 if remaining == 0 else 0
        return sum(rec(remaining - e, slots - 1) for e in range(remaining + 1))

    r = 0
    while 2 * r <= target:
        count += rec(target - 2 * r, n - 1)
        r += 1
    return count


FIELDS = [QQ, PrimeField(DEFAULT_PRIME)]


@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 3), st.integers(1, 5),
       st.sampled_from([x_point, y_point]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_kernel_residue_parts_matches_linear_oracle(fld, ell, n, seed, make_point, planned):
    p = sample_poly_params(Sampler(SamplerConfig(seed), fld), ell, n)
    for pt in point_family(make_point, p):
        s, nv, dv = kernel_residue_parts(p, pt)
        o_s, o_n, o_d = linear_kernel_residue_oracle(
            p, pt, plan=cancellation_plan(pt) if planned else None)
        if planned:
            # the m_kappa product, exact 0 allowed
            assert s * nv / dv == o_s * o_n / o_d
        else:
            assert dv / (nv * s) == o_d / (o_n * o_s)


@pytest.mark.parametrize("fld", FIELDS, ids=["QQ", "GFp"])
@pytest.mark.parametrize("elliptic", [False, True], ids=["poly", "theta"])
@pytest.mark.parametrize("ell, n", [(1, 2), (3, 2)])
def test_phi_product_is_the_product_of_phi_over_the_remaining_arguments(fld, elliptic, ell,
                                                                         n):
    # the one fraction-free product against prod phi(P/Q) by field or
    # series operations, over the arguments that `cancel_poles` leaves at
    # the x- and y-points (at ell = 1 the denominator list is empty)
    s = Sampler(SamplerConfig(7), fld)
    p = sample_ell_params(s, ell, n, 4) if elliptic else sample_poly_params(s, ell, n)
    mod = modulus(fld)
    for make_point in (x_point, y_point):
        for pt in point_family(make_point, p):
            _, numer, denom = cancel_poles(p, pt)
            for args in (numer, denom):
                assert p.phi_product(args) == exactnum.product(
                    (p.phi(scalar_of(mod, *arg)) for arg in args), p.one)


def cancellation_outcome(cancel, params, point):
    """(sign, numerator multiset, denominator multiset), or the
    PoleOrderError message; the integer pairs (P, Q) of `cancel_poles`
    count as the field scalars P/Q."""
    try:
        sign, numer, denom = cancel(params, point)
    except PoleOrderError as exc:
        return str(exc)
    mod = modulus(params.field)

    def scalars(args):
        return Counter(scalar_of(mod, *c) if isinstance(c, tuple) else c for c in args)
    return sign, scalars(numer), scalars(denom)


@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(1, 3), st.integers(1, 5),
       st.sampled_from([x_point, y_point]), st.data())
@settings(max_examples=80, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_cancel_poles_matches_stepwise_oracle(fld, ell, n, seed, make_point, data):
    # at sampled parameters, and at engineered collisions x_1 = x_2 and
    # x_j = eta^s y_i that leave a double pole or a vanishing denominator
    p = sample_poly_params(Sampler(SamplerConfig(seed), fld), ell, n)
    x = list(p.x)
    collision = data.draw(st.sampled_from(["none", "x1=x2", "x=eta^s y"]))
    if collision == "x1=x2" and n >= 2:
        x[1] = x[0]
    elif collision == "x=eta^s y":
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        x[j] = p.eta ** data.draw(st.integers(-ell, ell)) * p.y[i]
    p = PolyParams(x, p.y, p.eta, ell, n, fld)
    for pt in point_family(make_point, p):
        assert cancellation_outcome(cancel_poles, p, pt) \
            == cancellation_outcome(stepwise_cancel_poles, p, pt)


@pytest.mark.parametrize("fld", FIELDS)
def test_cancel_poles_rejects_a_repeated_coordinate_as_the_oracle_does(fld):
    # t_1 = t_2 = x_1: each step has one vanishing numerator factor, and
    # the step of t_1 then meets the denominator phi(t_1/t_2) = phi(1)
    p = sample_poly_params(Sampler(SamplerConfig(3), fld), 2, 1)
    pt = EvalPoint((p.x[0], p.x[0]), "x", Partition((1, 1), 1))
    message = cancellation_outcome(cancel_poles, p, pt)
    assert message == cancellation_outcome(stepwise_cancel_poles, p, pt)
    assert message == "step t_1 -> %s: denominator factor ('den', 0, 1) vanishes" % p.x[0]


@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(1, 3), st.integers(1, 5),
       st.sampled_from([x_point, y_point]))
@settings(max_examples=30, deadline=None)
def test_theta_residue_reduces_to_rational_residue_at_p0(fld, ell, n, seed, make_point):
    # theta(z; 0) = 1 - z, so the constant term of Res 1/Omega is
    # prod_m (x_m y_m)^ell times Res 1/S at the same parameters
    p = sample_ell_params(Sampler(SamplerConfig(seed), fld), ell, n, 2)
    rational = PolyParams(p.x, p.y, p.eta, ell, n, fld)
    scale = fld.one
    for xm, ym in zip(p.x, p.y):
        scale = scale * (xm * ym) ** ell
    for pt in point_family(make_point, p):
        assert kernel_residue(p, pt).coeffs[0] == scale * kernel_residue(rational, pt)


def test_single_pole_residue_by_hand():
    p = params_for(1, 1)
    lam = Partition((1,), 1)
    pt = x_point(lam, p)
    # Res 1/((t - x)(t - y)) dt/t at t = x is 1/(x (x - y))
    val = kernel_residue(p, pt)
    assert val == 1 / (p.x[0] * (p.x[0] - p.y[0]))
    assert m_kappa(p, lam) == p.x[0] * (p.x[0] - p.y[0])
    # y-side residue at t = y: 1/(y (y - x)); the signed sum relation at ell=1
    yv = kernel_residue(p, y_point(lam, p))
    assert yv == 1 / (p.y[0] * (p.y[0] - p.x[0]))


def test_smallest_biorthogonality_cases():
    p = params_for(1, 1)
    lam = Partition((1,), 1)
    f = lambda t: weight(lam, t, p, primed=True)
    g = lambda t: weight(lam, t, p)
    assert scalar_product(f, g, p) == 1 / (p.x[0] - p.y[0])
    assert scalar_product(f, g, p) == 1 / p.norm(lam)

    p2 = params_for(1, 2)
    f1 = lambda t: weight(Partition((1,), 2), t, p2, primed=True)
    g2 = lambda t: weight(Partition((2,), 2), t, p2)
    assert scalar_product(f1, g2, p2) == 0


def test_pole_order_error_on_engineered_collision():
    p = params_for(2, 2)
    bad = PolyParams((p.x[0], p.x[0]), p.y, p.eta, 2, 2, QQ)
    with pytest.raises(PoleOrderError):
        kernel_residue(bad, x_point(Partition((2, 1), 2), bad))


def test_gram_pp_is_diagonal_of_inverse_norms():
    for (ell, n) in [(1, 1), (2, 2), (2, 3)]:
        p = params_for(ell, n, seed=ell * 10 + n)
        parts = enumerate_partitions(ell, n)
        gram = weight_gram(p)
        for r, lam in enumerate(parts):
            for c in range(len(parts)):
                expect = 1 / p.norm(lam) if r == c else QQ.zero
                assert gram[r][c] == expect


def test_resi_agreement_exactly_on_divisible_bounded_monomials():
    # empirical form of the admissibility condition: x-sum = (-1)^ell y-sum
    # iff every exponent lies in [1, 2n-1]
    for (ell, n) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        p = params_for(ell, n, seed=50 + 10 * ell + n)
        for exps in admissible_exponent_tuples(ell, n):
            g = lambda t, e=exps: monomial_symmetric(e, t, QQ.one, QQ.zero)
            xs, ys = (m[0][0] for m in side_pairings(lambda t: [QQ.one], lambda t: [g(t)], p))
            assert (xs == (-QQ.one) ** ell * ys) == (min(exps) >= 1)


def test_scalar_product_flags_inadmissible_input():
    p = params_for(1, 1, seed=61)
    g = lambda t: t[0] ** 2  # degree 2n = 2 violates the bound
    with pytest.raises(ConsistencyError):
        scalar_product(one_fn, g, p)


def test_transition_matrix_small_case():
    p = params_for(1, 2, seed=3)
    a, w, b = poly_transition(p)
    assert a == [[-p.x[1], Fraction(1)], [-p.y[0], Fraction(1)]]
    assert mat_mul(a, b) == w
    # the row of lam=(1) is y-independent; resolving with fresh y reproduces it
    p_alt = PolyParams(p.x, params_for(1, 2, seed=99).y, p.eta, 1, 2, QQ)
    a_alt, _, _ = poly_transition(p_alt)
    assert a_alt[0] == a[0]
    assert a_alt[1][0] == -p_alt.y[0]


def test_mn_relation():
    for (ell, n) in [(1, 2), (2, 2)]:
        cfg = RunConfig(check="mn", ell=ell, n=n, trials=1, seed=5)
        assert run_one(cfg).verdict == "verified"
    cfg = RunConfig(check="mn", ell=1, n=2, trials=1, seed=5, mutate=True)
    assert run_one(cfg).verdict == "falsified"


def test_mn_evaluates_q_once_per_point(monkeypatch):
    # (4, 4) has 35 partitions, so 35 x-points; the transition solve and
    # the residue pairing share one evaluation of every Q_mu there
    calls = []

    def counting(parts, t, params):
        calls.append(t)
        return q_monomials(parts, t, params)

    monkeypatch.setattr("qident.residues.q_monomials", counting)
    cfg = RunConfig(check="mn", ell=4, n=4, trials=1, seed=1)
    assert run_one(cfg).verdict == "verified"
    assert len(calls) == len(set(calls)) == 35


def test_determinant_closed_forms():
    p = params_for(1, 2, seed=4)
    parts = enumerate_partitions(1, 2)
    mat = [[q_monomials([lam], x_point(mu, p).coords, p)[0] for mu in parts] for lam in parts]
    assert mat_det(mat, QQ.one, QQ.zero) == p.x[0] * p.x[1] * (p.x[1] - p.x[0])
    assert detq_rhs(p) == p.x[0] * p.x[1] * (p.x[1] - p.x[0])
    a, _, _ = poly_transition(p)
    assert mat_det(a, QQ.one, QQ.zero) == p.y[0] - p.x[1]
    assert deta_rhs(p) == p.y[0] - p.x[1]

    for (ell, n) in [(2, 2), (3, 2), (2, 3)]:
        pp = params_for(ell, n, seed=ell + 10 * n)
        parts = enumerate_partitions(ell, n)
        mat = [[q_monomials([lam], x_point(mu, pp).coords, pp)[0] for mu in parts]
               for lam in parts]
        assert mat_det(mat, QQ.one, QQ.zero) == detq_rhs(pp)
        a, _, _ = poly_transition(pp)
        assert mat_det(a, QQ.one, QQ.zero) == deta_rhs(pp)


# (check, seed, mutate) -> (sha256, length) of the sorted-key JSON of the
# canonical report at --field prime --prime 101, (ell, n) = (2, 2), three
# trials.  B = [Q_lam(x|>mu)] is singular at the first draw of seeds 6 and 38,
# so trial 0 resamples once.  Recorded from the inverse-then-multiply
# transition solve, which raised NonInvertibleError at that draw.
SINGULAR_B_REPORTS = {
    ("deta", 6, False): ("cd7c9eb17bfd39be5b96a2c4447ffbaf5b811de67ab86d96483fb787cd051096", 1270),
    ("deta", 6, True): ("4ce0a0030ef53a2852c09b1e6955e59a71d5bfbeab12c1f46614f6da57f2114f", 1276),
    ("deta", 38, False): ("33689311bdb735de72b48110846895c157906423858d33a7ac3a0f021049c44a", 1271),
    ("deta", 38, True): ("c56e679a44aea1f4f677e3dfb8ca3af92415541a1c1a6d90e4614cdc9a918f4a", 1276),
    ("mn", 6, False): ("3a8e96f6f8cbd4fcac78fe092bfad1638877cbefbae1484180e53b266985d509", 1322),
    ("mn", 6, True): ("c994b5cbaab23ad70322453b8cc21839206e76e924c8c31b2cb550e79eb0b3a3", 1497),
    ("mn", 38, False): ("7336acda9e561ad01d0d85dd5cede4528b61863040839212428d636dcb4a9295", 1323),
    ("mn", 38, True): ("dba726e43d3adf9014b6fe787eb3d2bbb96631d9214ce821fd12ad2aa8e79696", 1499),
}


@pytest.mark.parametrize("check, seed, mutate", sorted(SINGULAR_B_REPORTS))
def test_singular_basis_matrix_resamples_as_pinned(check, seed, mutate):
    fld = PrimeField(101)
    first = sample_poly_params(Sampler(SamplerConfig(seed), fld), 2, 2)
    assert mat_det(special_values(q_monomials, first), fld.one, fld.zero) == fld.zero
    cfg = RunConfig(check=check, ell=2, n=2, seed=seed, field="prime", prime=101,
                    mutate=mutate)
    report = run_one(cfg)
    assert report.verdict == ("falsified" if mutate else "verified")
    assert [len(t.draws) for t in report.trials] == [10, 5, 5]
    canonical = json.dumps(report.canonical(), sort_keys=True)
    assert (hashlib.sha256(canonical.encode()).hexdigest(), len(canonical)) \
        == SINGULAR_B_REPORTS[check, seed, mutate]


def test_d_exponent_is_a_lattice_count():
    for n in range(2, 6):
        for ell in range(1, 6):
            for s in range(-5, 6):
                assert d_exponent(n, ell, s) == d_exponent_bruteforce(n, ell, s)


def test_m_kappa_vanishes_under_specialization():
    # with y_i = eta^(1-ell) x_j the weight at kappa's point loses its
    # residue: the explicit product form returns an exact zero
    for (ell, n, i, j) in [(1, 2, 1, 2), (2, 2, 1, 2), (2, 3, 1, 3)]:
        p = params_for(ell, n, seed=70 + ell + j)
        y = list(p.y)
        y[i - 1] = p.eta ** (1 - ell) * p.x[j - 1]
        pc = PolyParams(p.x, tuple(y), p.eta, ell, n, QQ)
        assert m_kappa(pc, kappa(ell, j, n)) == 0
        # generic parameters give a nonzero value
        assert m_kappa(p, kappa(ell, j, n)) != 0


def test_scalar_product_agrees_with_m_product_assembly():
    # dual route: <f, g> assembled from the explicit M products must match
    # the iterated-residue engine entry by entry
    for (ell, n) in [(1, 2), (2, 2)]:
        p = params_for(ell, n, seed=90 + ell)
        parts = enumerate_partitions(ell, n)
        for lam in parts:
            for mu in parts:
                f = lambda t: weight(lam, t, p, primed=True)
                g = lambda t: weight(mu, t, p)
                direct = scalar_product(f, g, p)
                assembled = QQ.zero
                for kap in parts:
                    pt = x_point(kap, p)
                    assembled = assembled + \
                        f(pt.coords) * g(pt.coords) / m_kappa(p, kap)
                assert direct == assembled


def test_cancellation_plan_matches_strict_mode():
    p = params_for(2, 2, seed=81)
    for lam in enumerate_partitions(2, 2):
        for point in (x_point(lam, p), y_point(lam, p)):
            s, nv, dv = kernel_residue_parts(p, point)
            o_s, o_n, o_d = linear_kernel_residue_oracle(
                p, point, plan=cancellation_plan(point))
            assert s * nv / dv == o_s * o_n / o_d


@given(st.sampled_from(FIELDS), st.integers(1, 2), st.integers(1, 2), st.integers(1, 5),
       st.integers(0, 4))
@settings(max_examples=20, deadline=None)
def test_gram_entries_are_scalar_products(fld, ell, n, seed, k):
    # one pairing: each Gram entry is the one-member pairing of its weights
    parts = enumerate_partitions(ell, n)
    p = sample_poly_params(Sampler(SamplerConfig(seed), fld), ell, n)
    gram = weight_gram(p)
    for r, lam in enumerate(parts):
        for c, mu in enumerate(parts):
            assert gram[r][c] == scalar_product(
                lambda t: weight(lam, t, p, primed=True), lambda t: weight(mu, t, p), p)
    q = sample_ell_params(Sampler(SamplerConfig(seed), fld), ell, n, k)
    gram = weight_gram(q)
    for r, lam in enumerate(parts):
        for c, mu in enumerate(parts):
            assert gram[r][c] == scalar_product_omega(
                lambda t: xi_weight(lam, t, q, primed=True), lambda t: xi_weight(mu, t, q),
                q)


def test_drivers():
    assert run_one(RunConfig(check="pp", ell=2, n=2, trials=1, seed=1)).verdict == "verified"
    assert run_one(RunConfig(check="pp", ell=1, n=1, trials=1, seed=1,
                             mutate=True)).verdict == "falsified"
    assert run_one(RunConfig(check="detq", ell=2, n=2, trials=1, seed=1)).verdict == "verified"
    assert run_one(RunConfig(check="deta", ell=2, n=2, trials=1, seed=1,
                             mutate=True)).verdict == "falsified"
    r = run_one(RunConfig(check="resI", ell=2, n=2, trials=1, seed=1))
    assert r.verdict == "verified"
    assert any("divisib" in note for note in r.notes)
    assert run_one(RunConfig(check="resI", ell=1, n=1, trials=1, seed=1,
                             mutate=True)).verdict == "falsified"


# ---------------------------------------------------------------------------
# work guard: field operations per point
# ---------------------------------------------------------------------------

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__eq__", "__bool__",
             "inverse")


def count_field_operations(monkeypatch):
    """A counter of every `Fraction` and `PrimeScalar` operator call from
    now until the test ends."""
    counter = Counter()
    for cls in (Fraction, PrimeScalar):
        for name in OPERATORS:
            if name in vars(cls):
                def counted(*args, _op=vars(cls)[name], **kwargs):
                    counter["ops"] += 1
                    return _op(*args, **kwargs)
                monkeypatch.setattr(cls, name, counted)
    return counter


@pytest.mark.parametrize("fld", FIELDS, ids=["QQ", "GFp"])
@pytest.mark.parametrize("ell, n", [(1, 1), (3, 3), (5, 2), (4, 4)])
def test_weights_and_residue_make_few_field_operations_per_point(fld, ell, n, monkeypatch):
    # the weight columns, pair tables and kernel residue of a point are
    # built from its cleared integer coordinates, so the field operations
    # per point grow neither with the ell (n + ell) kernel factors nor with
    # the ell n column factors and ell^2 pair factors
    p = sample_poly_params(Sampler(SamplerConfig(5), fld), ell, n)
    parts = enumerate_partitions(ell, n)
    points = point_family(x_point, p) + point_family(y_point, p)

    def evaluate(pt):
        weights(parts, pt.coords, p)
        weights(parts, pt.coords, p, primed=True)
        kernel_residue(p, pt)

    evaluate(points[0])     # the values memoized per parameters first
    counter = count_field_operations(monkeypatch)
    for pt in points:
        before = counter["ops"]
        evaluate(pt)
        assert counter["ops"] - before <= 4 * (n + ell)


# ---------------------------------------------------------------------------
# work guard: series normalizations and inverses per point, theta layer
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fld", FIELDS, ids=["QQ", "GFp"])
@pytest.mark.parametrize("ell, n", [(2, 3), (3, 3), (4, 3)])
def test_theta_weights_normalize_once_per_sum_and_invert_once_per_call(fld, ell, n,
                                                                       monkeypatch):
    # the theta columns and pair factors of a point are integer coefficient
    # lists over one series denominator, so `weights` brings each sum to
    # canonical form once and inverts that denominator alone: normalizations
    # grow with the partitions and the theta factors (ell n in a column
    # sequence, three per pair), not with the DP's terms.  Built by series
    # ring operations, the tables took 1,646 normalizations and 24 inverses
    # per point at (4, 3).
    p = sample_ell_params(Sampler(SamplerConfig(5), fld), ell, n, 6)
    parts = enumerate_partitions(ell, n)
    points = point_family(x_point, p) + point_family(y_point, p)
    counter = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            counter[name] += 1
            return fn(*args, **kwargs)
        return counted

    def evaluate(pt):
        weights(parts, pt.coords, p)
        weights(parts, pt.coords, p, primed=True)

    evaluate(points[0])     # the prefactors memoized per parameters first
    monkeypatch.setattr(exactnum, "canonical_ints", counting("norm", exactnum.canonical_ints))
    monkeypatch.setattr(PSeries, "inverse", counting("inverse", PSeries.inverse))
    theta_factors = ell * n + 3 * ell * (ell - 1) // 2
    for pt in points:
        counter.clear()
        evaluate(pt)
        assert counter["inverse"] <= 2          # one per weights call
        assert counter["norm"] <= 2 * (len(parts) + theta_factors)
