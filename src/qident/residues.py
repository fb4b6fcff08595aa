"""Iterated residues against the factorized rational kernel, the residue-sum
scalar product, biorthogonality of the primed/unprimed weights, transition
matrices to the monomial basis, and the closed determinant formulas.

The kernel is stored fully factorized and residues are taken by symbolic
factor cancellation, never by numeric limiting: at each step (innermost
variable first) exactly one numerator factor of the kernel vanishes at the
target coordinate; it is removed, the variable is substituted, and the step
contributes 1/(t * slope).  The scalar product is defined operationally by
the residue sums; the torus contour it replaces is never integrated.
"""

from __future__ import annotations

from .errors import ConsistencyError, DegenerateInputError, PoleOrderError, UsageError
from .exactnum import scalar_str
from .linalg import mat_det, mat_inverse, mat_mul
from .partitions import binom, enumerate_partitions, x_point, y_point
from .polyweights import (
    monomial_symmetric, norm_n, q_monomial, sample_poly_params, weight)
from .reporting import run_trials


class LinFactor:
    """A factor ci*t_i + cj*t_j + d, linear in at most two variables.

    Substituting a coordinate folds that variable into the constant; once
    both variables are gone the factor is a plain scalar prefactor.
    """

    __slots__ = ("i", "ci", "j", "cj", "d", "tag")

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

    def single_in(self, a):
        return self.i == a and self.j is None

    def eval_single(self, c):
        return self.ci * c + self.d

    def is_scalar(self):
        return self.i is None and self.j is None

    def __repr__(self):
        return "LinFactor(%r)" % (self.tag,)


def build_kernel(params, ell):
    """Numerator and denominator factor lists of the kernel
    S(t) = prod_a prod_m (t_a - x_m)(t_a - y_m) prod_{a != b} (t_a - eta t_b)/(t_a - t_b)."""
    one, zero = params.field.one, params.field.zero
    numer, denom = [], []
    for a in range(ell):
        for m in range(params.n):
            numer.append(LinFactor(a, one, None, None, -params.x[m], ("x", a, m + 1)))
            numer.append(LinFactor(a, one, None, None, -params.y[m], ("y", a, m + 1)))
    for i in range(ell):
        for j in range(ell):
            if i != j:
                numer.append(LinFactor(i, one, j, -params.eta, zero, ("pair", i, j)))
                denom.append(LinFactor(i, one, j, -one, zero, ("den", i, j)))
    return numer, denom


def cancellation_plan(point):
    """The structurally designated vanishing factor for each residue step of
    a special point: the anchor (t_a - x_m) or (t_a - y_m) at the end of a
    geometric block, the adjacent pair factor inside a block."""
    lam = point.partition
    plan = {}
    a = 0
    for m, w in enumerate(lam.multiplicities(), start=1):
        for r in range(w):
            last = r == w - 1
            if point.kind == "x":
                plan[a] = ("x", a, m) if last else ("pair", a + 1, a)
            else:
                plan[a] = ("y", a, m) if last else ("pair", a, a + 1)
            a += 1
    return plan


def kernel_residue_parts(params, point, plan=None):
    """Cancel one kernel factor per variable (innermost last variable
    first) and return (scale_inv, numer_value, denom_value), so that

        Res(1/S (dt/t)^ell) = denom_value / (numer_value * scale_inv).

    Without a plan the vanishing factor is discovered and must be unique,
    with no vanishing denominator factor (the simple-pole condition).  With
    a plan the designated factors are cancelled, which keeps the value
    meaningful as a rational function even when a remaining factor happens
    to vanish at specialized parameters.
    """
    ell = point.ell
    coords = point.coords
    numer, denom = build_kernel(params, ell)
    zero, one = params.field.zero, params.field.one
    scale_inv = one
    for a in reversed(range(ell)):
        c = coords[a]
        if plan is None:
            hits = [f for f in numer if f.single_in(a) and f.eval_single(c) == zero]
            if len(hits) != 1:
                raise PoleOrderError(
                    "step t_%d -> %s: %d vanishing numerator factors (need exactly 1)"
                    % (a + 1, c, len(hits)))
            bad = [f for f in denom if f.single_in(a) and f.eval_single(c) == zero]
            if bad:
                raise PoleOrderError(
                    "step t_%d -> %s: denominator factor %r vanishes"
                    % (a + 1, c, bad[0].tag))
            f = hits[0]
        else:
            want = plan[a]
            f = next(g for g in numer if g.tag == want)
            if not (f.single_in(a) and f.eval_single(c) == zero):
                raise PoleOrderError(
                    "designated factor %r does not vanish at step t_%d" % (want, a + 1))
        numer.remove(f)
        scale_inv = scale_inv * (f.ci * c)
        for g in numer:
            g.substitute(a, c)
        for g in denom:
            g.substitute(a, c)
    nval, dval = one, one
    for g in numer:
        nval = nval * g.d
    for g in denom:
        dval = dval * g.d
    return scale_inv, nval, dval


def kernel_residue(params, point):
    """Res(1/S (dt/t)^ell) at the point."""
    scale_inv, nval, dval = kernel_residue_parts(params, point)
    if nval == params.field.zero:
        raise PoleOrderError("kernel residue is singular at %r" % (point.partition,))
    return dval / (nval * scale_inv)


def iterated_residue(f, g, params, point):
    """Res of f * g / S * (dt/t)^ell at the point.  f and g are black-box
    evaluators on full coordinate tuples (they carry no poles of their own,
    so they factor out of every step)."""
    r = kernel_residue(params, point)
    return f(point.coords) * g(point.coords) * r


def m_kappa(params, lam):
    """M at the special point of lam: the reciprocal of the kernel residue,
    computed as an explicit product so that its vanishing at specialized
    parameters is an exact 0, not an error."""
    point = x_point(lam, params)
    scale_inv, nval, dval = kernel_residue_parts(params, point, plan=cancellation_plan(point))
    if dval == params.field.zero:
        raise DegenerateInputError("coincident coordinates at %r" % (lam,))
    return scale_inv * nval / dval


def point_family(make_point, params, ell):
    """The special points of one side (`x_point` or `y_point`), one per
    partition, in enumeration order."""
    return [make_point(lam, params) for lam in enumerate_partitions(ell, params.n)]


def residue_sum(f, g, params, points, residue, zero):
    """sum over the points of f * g * residue(params, point); shared by the
    rational kernel and the theta kernel."""
    total = zero
    for pt in points:
        r = residue(params, pt)
        total = total + f(pt.coords) * g(pt.coords) * r
    return total


def x_residue_sum(f, g, params, ell):
    return residue_sum(f, g, params, point_family(x_point, params, ell),
                       kernel_residue, params.field.zero)


def y_residue_sum(f, g, params, ell):
    return residue_sum(f, g, params, point_family(y_point, params, ell),
                       kernel_residue, params.field.zero)


def scalar_product(f, g, params, ell, check_y=True):
    """<f, g> as the x-side residue sum; self-checks the y-side equality
    (x-sum = (-1)^ell y-sum) and fails loudly on mismatch, which flags an
    inadmissible f*g rather than a bug downstream."""
    xs = x_residue_sum(f, g, params, ell)
    if check_y:
        ys = y_residue_sum(f, g, params, ell)
        if xs != (-params.field.one) ** ell * ys:
            raise ConsistencyError(
                "x- and y-side residue sums disagree; f*g is not admissible")
    return xs


def gram_matrix(parts, ell, weight_fn, residue, params, zero, check_y, mismatch):
    """[<W'_lam, W_mu>] for lam, mu in `parts` (partitions of ell), for a
    weight family `weight_fn(lam, t, params, primed)` and the residue of
    its kernel.

    Each side evaluates its tables once: r[kap] = residue at the special
    point of kap, W'[lam][kap] and W[mu][kap], and forms
    sum_kap W'[lam][kap] r[kap] W[mu][kap].  The y side checks every entry
    against (-1)^ell times the x side and raises ConsistencyError(mismatch)
    on any difference.
    """
    def side(make_point):
        scaled, plain = [], []     # per point: [W'[lam] r], [W[mu]]
        for pt in point_family(make_point, params, ell):
            r = residue(params, pt)
            scaled.append([weight_fn(lam, pt.coords, params, primed=True) * r
                           for lam in parts])
            plain.append([weight_fn(mu, pt.coords, params) for mu in parts])
        out = []
        for a in range(len(parts)):
            row = []
            for b in range(len(parts)):
                total = zero
                for wr, w in zip(scaled, plain):
                    total = total + wr[a] * w[b]
                row.append(total)
            out.append(row)
        return out

    xs = side(x_point)
    if check_y:
        sign = (-params.field.one) ** ell
        ys = side(y_point)
        for x_row, y_row in zip(xs, ys):
            if any(x != sign * y for x, y in zip(x_row, y_row)):
                raise ConsistencyError(mismatch)
    return xs


def gram_pp(ell, n, params, check_y=True):
    """The matrix [<P'_lam, P_mu>] over all partitions, in enumeration order."""
    return gram_matrix(enumerate_partitions(ell, n), ell, weight, kernel_residue,
                       params, params.field.zero, check_y,
                       "x- and y-side residue sums disagree; f*g is not admissible")


def transition_matrix(ell, n, params):
    """A with P_lam = sum_mu A[lam][mu] Q_mu, solved exactly at the special
    points, together with B, the inverse of [Q_lam(x |> kap)]_{kap, lam}."""
    parts = enumerate_partitions(ell, n)
    pts = [x_point(lam, params) for lam in parts]
    q_kl = [[q_monomial(lam, pt.coords, params) for lam in parts] for pt in pts]
    p_lk = [[weight(lam, pt.coords, params) for pt in pts] for lam in parts]
    fld = params.field
    b = mat_inverse(q_kl, fld.one, fld.zero)
    b_t = [[b[c][r] for c in range(len(parts))] for r in range(len(parts))]
    a = mat_mul(p_lk, b_t)
    return a, b, q_kl, b_t


def d_exponent(n, ell, s):
    """The multiplicity of (eta^s x_k - x_j) in the determinant of the
    monomial-basis evaluation matrix: the number of lattice points
    (r, e_1..e_{n-1}) >= 0 with 2r + sum(e) = ell - |s| - 1."""
    total = 0
    r = 0
    while 2 * r <= ell - abs(s) - 1:
        total += binom(n + ell - abs(s) - 2 * r - 3, n - 2)
        r += 1
    return total


def d_exponent_bruteforce(n, ell, s):
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


def detq_rhs(ell, n, params):
    """Closed form for det[Q_lam(x |> mu)]: a deformed symmetric power of
    the Vandermonde determinant."""
    one, eta, x = params.field.one, params.eta, params.x
    out = eta ** (-(n * (n + 1) // 2) * binom(n + ell - 1, n + 1))
    for m in range(n):
        out = out * x[m] ** binom(n + ell - 1, n)
    for s in range(1 - ell, ell):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                out = out * (eta ** s * x[k - 1] - x[j - 1]) ** d_exponent(n, ell, s)
    return out


def deta_rhs(ell, n, params):
    """Closed form for det[A]."""
    eta, x, y = params.eta, params.x, params.y
    out = params.field.one
    for s in range(ell):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                out = out * (eta ** s * y[j - 1] - x[k - 1]) ** binom(n + ell - s - 2, n - 1)
    return out


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _fmt_residual_matrix(mat, zero):
    out = []
    for r, row in enumerate(mat):
        for c, v in enumerate(row):
            if v != zero:
                out.append("[%d,%d]=%s" % (r, c, scalar_str(v)))
    return out


def verify_pp(cfg):
    """Gram matrix [<P'_lam, P_mu>] == diag(1/N_lam), exactly."""
    if cfg.ell < 1:
        raise UsageError("pp needs ell >= 1")
    fld = cfg.scalar_field()

    def trial(sampler):
        params = sample_poly_params(sampler, cfg.ell, cfg.n)
        parts = enumerate_partitions(cfg.ell, cfg.n)
        gram = gram_pp(cfg.ell, cfg.n, params)
        residual = []
        for r, lam in enumerate(parts):
            inv_norm = fld.one / norm_n(lam, params)
            if cfg.mutate and r == 0:
                inv_norm = inv_norm * 2
            row = []
            for c in range(len(parts)):
                expected = inv_norm if r == c else fld.zero
                row.append(gram[r][c] - expected)
            residual.append(row)
        flat = _fmt_residual_matrix(residual, fld.zero)
        return flat, not flat, []

    return run_trials(cfg, ["eta^s != 1", "x,y nonzero pairwise distinct"], trial)


def verify_mn(cfg):
    """sum_{kap,lam} M_kap^{-1} Q_mu(x|>kap) P'_lam(x|>kap) N_lam A[lam][nu]
    == delta_{mu,nu}, exactly."""
    if cfg.ell < 1:
        raise UsageError("mn needs ell >= 1")
    fld = cfg.scalar_field()

    def trial(sampler):
        params = sample_poly_params(sampler, cfg.ell, cfg.n)
        parts = enumerate_partitions(cfg.ell, cfg.n)
        pts = [x_point(lam, params) for lam in parts]
        a, _, q_kl, _ = transition_matrix(cfg.ell, cfg.n, params)
        if cfg.mutate:
            a[0][0] = a[0][0] + 1
        minv = []
        for pt in pts:
            scale_inv, nval, dval = kernel_residue_parts(params, pt)
            if nval == fld.zero:
                raise DegenerateInputError("singular kernel residue")
            minv.append(dval / (nval * scale_inv))
        pn = [[weight(lam, pt.coords, params, primed=True) * norm_n(lam, params)
               for pt in pts] for lam in parts]
        size = len(parts)
        residual = []
        for mu in range(size):
            row = []
            for nu in range(size):
                acc = fld.zero
                for kap in range(size):
                    inner = fld.zero
                    for lam in range(size):
                        inner = inner + pn[lam][kap] * a[lam][nu]
                    acc = acc + minv[kap] * q_kl[kap][mu] * inner
                row.append(acc - (fld.one if mu == nu else fld.zero))
            residual.append(row)
        flat = _fmt_residual_matrix(residual, fld.zero)
        return flat, not flat, []

    return run_trials(cfg, ["eta^s != 1", "x,y nonzero pairwise distinct",
                            "det[Q_lam(x|>kap)] != 0"], trial)


def verify_det(cfg):
    """detq: det[Q_lam(x|>mu)] against its closed form; deta: det[A]."""
    if cfg.ell < 1:
        raise UsageError("det checks need ell >= 1")
    fld = cfg.scalar_field()

    def trial(sampler):
        params = sample_poly_params(sampler, cfg.ell, cfg.n)
        if cfg.check == "detq":
            parts = enumerate_partitions(cfg.ell, cfg.n)
            mat = [[q_monomial(lam, x_point(mu, params).coords, params)
                    for mu in parts] for lam in parts]
            lhs = mat_det(mat, fld.one, fld.zero)
            rhs = detq_rhs(cfg.ell, cfg.n, params)
        else:
            a, _, _, _ = transition_matrix(cfg.ell, cfg.n, params)
            lhs = mat_det(a, fld.one, fld.zero)
            rhs = deta_rhs(cfg.ell, cfg.n, params)
        if cfg.mutate:
            rhs = rhs * 2
        diff = lhs - rhs
        return scalar_str(diff), diff == fld.zero, []

    return run_trials(cfg, ["eta^s != 1", "x,y nonzero pairwise distinct"], trial)


def admissible_exponent_tuples(ell, n):
    """Weakly decreasing exponent tuples with entries in [0, 2n-1]; the
    residue-sum agreement sweep runs over all of them and records which
    ones satisfy the x/y relation."""
    def rec(slots, top):
        if slots == 0:
            yield ()
            return
        for e in range(top, -1, -1):
            for rest in rec(slots - 1, e):
                yield (e,) + rest
    return list(rec(ell, 2 * n - 1))


def verify_resi(cfg):
    """Empirical check of the x/y residue-sum identity on symmetric
    monomials: agreement holds exactly when every exponent lies in
    [1, 2n-1], i.e. for products divisible by t_1...t_ell of degree < 2n
    in each variable."""
    if cfg.ell < 1:
        raise UsageError("resI needs ell >= 1")
    fld = cfg.scalar_field()

    def trial(sampler):
        params = sample_poly_params(sampler, cfg.ell, cfg.n)
        sides = []
        for make_point in (x_point, y_point):
            pts = point_family(make_point, params, cfg.ell)
            sides.append([(pt.coords, kernel_residue(params, pt)) for pt in pts])
        findings = []
        ok = True
        for exps in admissible_exponent_tuples(cfg.ell, cfg.n):
            xs, ys = (sum((monomial_symmetric(exps, t, fld.one, fld.zero) * r
                           for t, r in side), fld.zero) for side in sides)
            if cfg.mutate:
                ys = ys * 2
            agree = xs == (-fld.one) ** cfg.ell * ys
            expected = min(exps) >= 1
            findings.append("%r: %s" % (exps, "agree" if agree else "differ"))
            if agree != expected:
                ok = False
        notes = ["x-sum = (-1)^ell y-sum observed exactly for exponents within [1, 2n-1]"]
        return findings, ok, notes

    return run_trials(
        cfg, ["eta^s != 1", "x,y nonzero pairwise distinct"], trial,
        notes=["divisibility finding: agreement iff every exponent >= 1 "
               "(f*g divisible by t_1...t_ell) and <= 2n-1"])
