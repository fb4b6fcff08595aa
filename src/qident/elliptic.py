"""The elliptic layer: theta-weight functions with a dynamical parameter,
their window coefficients and biorthogonality norms, the theta kernel with
residue extraction at theta zeros, the one-variable theta basis, transition
coefficients, and the determinant product check.

Everything is computed coefficient-wise in the ring of power series in the
nome modulo p^(K+1); "an identity holds" means all K+1 coefficients vanish
at every sampled parameter point.
"""

from __future__ import annotations

import math

from .errors import ConsistencyError, DegenerateInputError, PoleOrderError, UsageError
from .exactnum import (
    PSeries, pochhammer, pochhammer_p, theta, triple_pochhammer_p)
from .linalg import mat_det, mat_inverse, mat_mul
from .partitions import binom, enumerate_partitions, enumerate_window, x_point, y_point
from .polyweights import eta_constraint, pair_table, sample_t, symmetrize
from .reporting import run_trials
from .residues import d_exponent, gram_matrix, point_family, residue_sum


class EllParams:
    """Ground parameters plus the dynamical parameter and truncation order.

    Carries a cache of theta values at scalar arguments; every theta that
    ends up in a denominator must have nonzero constant term, i.e. argument
    different from 1, which the arithmetic enforces by raising.
    """

    def __init__(self, x, y, eta, alpha, ell, n, k, fld):
        self.x = tuple(x)
        self.y = tuple(y)
        self.eta = eta
        self.alpha = alpha
        self.ell = ell
        self.n = n
        self.k = k
        self.field = fld
        self._theta_cache = {}
        self._vartheta_cache = {}
        self.one = PSeries.constant(fld, fld.one, k)
        self.zero = PSeries.constant(fld, fld.zero, k)
        self.triple_poch = triple_pochhammer_p(fld, k)

    def th(self, arg, e=1):
        """theta(arg; p^e) truncated, cached for scalar arguments."""
        key = (arg, e)
        out = self._theta_cache.get(key)
        if out is None:
            out = theta(arg, e, self.k)
            self._theta_cache[key] = out
        return out

    def alpha_static(self, m):
        """alpha_m = alpha prod_{j<m} x_j/y_j."""
        out = self.alpha
        for j in range(m - 1):
            out = out * self.x[j] / self.y[j]
        return out

    def alpha_dyn(self, m, lam):
        """alpha_{m,lam} = alpha prod_{j<m} eta^(-2 w_j) x_j/y_j."""
        mults = lam.multiplicities()
        out = self.alpha
        for j in range(m - 1):
            out = out * self.eta ** (-2 * mults[j]) * self.x[j] / self.y[j]
        return out


def sample_ell_params(sampler, ell, n, k, constrain=None):
    fld = sampler.field
    eta = sampler.draw((eta_constraint(fld.one, ell),), "eta")
    xy = sampler.draw_distinct(2 * n, (), "x,y")
    x, y = list(xy[:n]), list(xy[n:])
    alpha = sampler.draw((lambda v: v != fld.one,), "alpha")
    if constrain is not None:
        i, j = constrain
        x[j - 1] = eta ** (ell - 1) * y[i - 1]
    return EllParams(x, y, eta, alpha, ell, n, k, fld)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def z_factor(u, m, params, alpha_value, primed=False):
    """Z_m(u) = theta(u/(alpha_m x_m)) prod_{j<m} theta(u/y_j)
    prod_{k>m} theta(u/x_k), built with the caller's dynamical shift in
    place of alpha; the primed variant uses theta(alpha_m u / y_m) and
    swaps x with y in the tail products."""
    am = alpha_value
    for j in range(m - 1):
        am = am * params.x[j] / params.y[j]
    if primed:
        out = params.th(am * u / params.y[m - 1])
    else:
        out = params.th(u / (am * params.x[m - 1]))
    for j in range(1, m):
        out = out * params.th(u / (params.x[j - 1] if primed else params.y[j - 1]))
    for k in range(m + 1, params.n + 1):
        out = out * params.th(u / (params.y[k - 1] if primed else params.x[k - 1]))
    return out


def rho_lambda(lam, params):
    """prod_m prod_{s=1}^{w_m} theta(eta)/theta(eta^s)."""
    out = params.one
    for w in lam.multiplicities():
        for s in range(2, w + 1):
            out = out * params.th(params.eta) / params.th(params.eta ** s)
    return out


def xi_weight(lam, t, params, primed=False):
    """The symmetrized theta weight (primed or not), including the
    position-dependent dynamical shift alpha eta^(2a-2ell).

    The shift direction is the same in both variants: with the opposite
    direction on the primed family, the primed weights leave the function
    space of the kernel (the x/y residue sums stop agreeing) and both the
    biorthogonality and the duality relation fail, so that reading is
    untenable.
    """
    ell = lam.ell
    if len(t) != ell:
        raise UsageError("point has %d coordinates, partition has %d parts" % (len(t), ell))
    eta = params.eta
    single = []
    for a, part in enumerate(lam.entries, start=1):
        shift = params.alpha * eta ** (2 * a - 2 * ell)
        single.append([z_factor(u, part, params, shift, primed) for u in t])
    total = symmetrize(ell, single, theta_pair_table(t, params, primed),
                       params.one, params.zero)
    return rho_lambda(lam, params) * total


def theta_pair_table(t, params, primed=False):
    """The pair factors of the theta weights: theta(eta t_a/t_b)/theta(t_a/t_b)
    (primed) or theta(eta t_b/t_a)/theta(t_b/t_a) for t_a placed before t_b."""
    eta, th = params.eta, params.th
    if primed:
        return pair_table(t, lambda ta, tb: th(eta * ta / tb) / th(ta / tb))
    return pair_table(t, lambda ta, tb: th(eta * tb / ta) / th(tb / ta))


def norm_d(lam, params):
    """The biorthogonality norm: a product of theta ratios carrying the
    triple Pochhammer constant once per part."""
    eta = params.eta
    out = params.one * (-params.field.one) ** lam.ell
    for m, w in enumerate(lam.multiplicities(), start=1):
        if w == 0:
            continue
        aml = params.alpha_dyn(m, lam)
        xy = params.x[m - 1] / params.y[m - 1]
        for s in range(w):
            num = params.triple_poch * params.th(eta ** (s + 1)) * params.th(eta ** (-s) * xy)
            den = params.th(eta) * params.th(eta ** s / aml) * params.th(eta ** (1 - s - w) * aml * xy)
            out = out * num / den
    return out


def c_coeff_ell(lam, i, j, params):
    """The elliptic window coefficient attached to lam in the window [i, j]."""
    if lam.entries and not (i <= lam.entries[-1] and lam.entries[0] <= j):
        raise UsageError("partition %r lies outside the window [%d, %d]" % (lam.entries, i, j))
    eta = params.eta
    mults = lam.multiplicities()
    ell = lam.ell
    wi, wj = mults[i - 1], mults[j - 1]
    scalar = (params.alpha_static(i) * params.x[i - 1] / params.y[i - 1]) ** wi \
        * eta ** (-wi * (wi - 1))
    out = params.one * scalar
    for k in range(i + 1, j):
        wk = mults[k - 1]
        akl = params.alpha_dyn(k, lam)
        xy = params.x[k - 1] / params.y[k - 1]
        for s in range(wk):
            out = out * params.th(eta ** (-s) * xy)
            out = out / (params.th(eta ** s / akl) * params.th(eta ** (1 - s - wk) * akl * xy))
    ail = params.alpha_dyn(i, lam)
    for s in range(wi):
        out = out / params.th(eta ** (1 - s - wi) * ail * params.x[i - 1] / params.y[i - 1])
    ajl = params.alpha_dyn(j, lam)
    for s in range(wj):
        out = out / params.th(eta ** s / ajl)
    for a in range(wj + 1, ell - wi + 1):
        la = lam.entries[a - 1]
        out = out * params.th(
            params.alpha_static(la) * eta ** (a - ell) * params.y[i - 1] / params.y[la - 1])
    for a in range(1, ell + 1):
        la = lam.entries[a - 1]
        lead = eta ** (ell - a) * params.y[i - 1]
        for k in range(i + 1, la):
            out = out * params.th(lead / params.x[k - 1])
        for m in range(la + 1, j):
            out = out * params.th(lead / params.y[m - 1])
    return out


def idp1_value(params, t, i, j, mutate=False):
    total = params.zero
    for idx, lam in enumerate(enumerate_window(params.ell, i, j, params.n)):
        c = c_coeff_ell(lam, i, j, params)
        if mutate and idx == 0:
            c = c * 2
        total = total + c * xi_weight(lam, t, params)
    return total


def idp2_value(params, t, mutate=False):
    """The two-column window identity in its explicit form; depends on the
    parameters only through beta = eta^(1-2ell) alpha x_1/y_1."""
    eta = params.eta
    ell = len(t)
    beta = eta ** (1 - 2 * ell) * params.alpha * params.x[0] / params.y[0]
    one, th = params.field.one, params.th
    pair = theta_pair_table(t, params)
    # the single factor at position a (1-based) inside, resp. after, the
    # first k positions
    low = [[th(u) * th(eta ** (2 - 2 * a - ell) * u / beta) for u in t]
           for a in range(1, ell + 1)]
    high = [[th(eta ** (1 - ell) * u) * th(eta ** (1 - 2 * b) * u / beta) for u in t]
            for b in range(1, ell + 1)]
    total = params.zero
    for k in range(ell + 1):
        pref = params.th(eta ** (2 * k) * beta) * (-one) ** k
        for s in range(k):
            pref = pref * eta ** s * params.th(eta ** (ell - s)) * params.th(eta ** s * beta)
            pref = pref / (params.th(eta ** (s + 1)) * params.th(eta ** (s + ell + 1) * beta))
        if mutate and k == 1:
            pref = pref * 2
        inner = symmetrize(ell, low[:k] + high[k:], pair, params.one, params.zero)
        total = total + pref * inner
    return total


# ---------------------------------------------------------------------------
# theta kernel and residues
# ---------------------------------------------------------------------------

class ThetaFactor:
    """theta(c * t_i / t_j) with scalar c; either variable slot may be
    absent or already substituted.  A factor vanishes at a substitution
    exactly when its argument becomes 1."""

    __slots__ = ("i", "j", "c", "tag")

    def __init__(self, i, j, c, tag):
        self.i, self.j, self.c, self.tag = i, j, c, tag

    def substitute(self, a, value):
        if self.i == a:
            self.c = self.c * value
            self.i = None
        if self.j == a:
            self.c = self.c / value
            self.j = None

    def mul_in(self, a):
        return self.i == a and self.j is None

    def div_in(self, a):
        return self.j == a and self.i is None

    def vanishes_at(self, a, value, one):
        if self.mul_in(a):
            return self.c * value == one
        if self.div_in(a):
            return self.c / value == one
        return False

    def is_scalar(self):
        return self.i is None and self.j is None

    def __repr__(self):
        return "ThetaFactor(%r)" % (self.tag,)


def build_omega(params, ell):
    """Factor lists of Omega(t) = prod_a prod_m theta(t_a/x_m) theta(t_a/y_m)
    prod_{a != b} theta(eta t_a/t_b)/theta(t_a/t_b)."""
    one = params.field.one
    numer, denom = [], []
    for a in range(ell):
        for m in range(params.n):
            numer.append(ThetaFactor(a, None, one / params.x[m], ("x", a, m + 1)))
            numer.append(ThetaFactor(a, None, one / params.y[m], ("y", a, m + 1)))
    for i in range(ell):
        for j in range(ell):
            if i != j:
                numer.append(ThetaFactor(i, j, params.eta, ("pair", i, j)))
                denom.append(ThetaFactor(i, j, one, ("den", i, j)))
    return numer, denom


def omega_residue(params, point):
    """Res(1/Omega (dt/t)^ell) at a special point, as a truncated series.

    Each step cancels the unique numerator theta whose argument hits 1,
    contributing -1/(p;p)^3 for an argument linear in the variable and
    +1/(p;p)^3 for one linear in its reciprocal.
    """
    ell = point.ell
    numer, denom = build_omega(params, ell)
    one = params.field.one
    sign = one
    for a in reversed(range(ell)):
        c = point.coords[a]
        hits = [f for f in numer if f.vanishes_at(a, c, one)]
        if len(hits) != 1:
            raise PoleOrderError(
                "step t_%d -> %s: %d vanishing theta factors (need exactly 1)"
                % (a + 1, c, len(hits)))
        bad = [f for f in denom if f.vanishes_at(a, c, one)]
        if bad:
            raise PoleOrderError("step t_%d: denominator theta %r vanishes" % (a + 1, bad[0].tag))
        f = hits[0]
        sign = -sign if f.mul_in(a) else sign
        numer.remove(f)
        for g in numer:
            g.substitute(a, c)
        for g in denom:
            g.substitute(a, c)
    out = params.one * sign
    for g in denom:
        out = out * params.th(g.c)
    inv_part = params.triple_poch ** ell
    for g in numer:
        if g.c == one:
            raise DegenerateInputError(
                "residual kernel theta %r vanishes at the point" % (g.tag,))
        inv_part = inv_part * params.th(g.c)
    return out * inv_part.inverse()


def x_residue_sum_omega(f, g, params, ell):
    return residue_sum(f, g, params, point_family(x_point, params, ell),
                       omega_residue, params.zero)


def y_residue_sum_omega(f, g, params, ell):
    return residue_sum(f, g, params, point_family(y_point, params, ell),
                       omega_residue, params.zero)


def scalar_product_omega(f, g, params, ell, check_y=True):
    """<f, g> as the x-side theta residue sum, with the (-1)^ell y-side
    self-check."""
    xs = x_residue_sum_omega(f, g, params, ell)
    if check_y:
        ys = y_residue_sum_omega(f, g, params, ell)
        if not (xs - (-params.field.one) ** ell * ys).is_zero():
            raise ConsistencyError("x- and y-side theta residue sums disagree")
    return xs


def gram_xx(ell, n, params, check_y=True):
    """The matrix [<Xi'_lam, Xi_mu>] over all partitions, in enumeration
    order."""
    return gram_matrix(enumerate_partitions(ell, n), ell, xi_weight, omega_residue,
                       params, params.zero, check_y,
                       "x- and y-side theta residue sums disagree")


# ---------------------------------------------------------------------------
# theta basis and transition coefficients
# ---------------------------------------------------------------------------

def vartheta(m, u, params):
    """The m-th one-variable basis function: u^(m-1) times a theta in
    (-u)^n at nome p^n, normalized by (p^n; p^n)_inf^(-1) (p; p)_inf^n.

    The theta coefficient is eta^(ell-1) / (alpha prod_m x_m): this is the
    unique choice for which the basis obeys the same quasi-periodicity
    multiplier alpha eta^(1-ell) (prod x) (-u)^(-n) as every theta weight,
    hence spans the space the weights live in.  (With prod x in the
    numerator instead, the basis solve leaves a nonzero residual.)
    """
    if not (1 <= m <= params.n):
        raise UsageError("basis index %d outside [1, %d]" % (m, params.n))
    key = (m, u)
    out = params._vartheta_cache.get(key)
    if out is not None:
        return out
    fld, k, n = params.field, params.k, params.n
    lead = params.eta ** (params.ell - 1) / params.alpha
    for xm in params.x:
        lead = lead / xm
    arg_scalar = -lead * (-u) ** n
    arg = PSeries.constant(fld, arg_scalar, k).shift(m - 1)
    pn = PSeries.constant(fld, fld.one, k).shift(n)
    out = theta(arg, n, k) * pochhammer(pn, n, k).inverse() * pochhammer_p(fld, k) ** n
    out = out * u ** (m - 1)
    params._vartheta_cache[key] = out
    return out


def theta_lambda(lam, t, params):
    """The symmetrized basis product with the multiplicity normalization."""
    norm = 1
    for w in lam.multiplicities():
        norm *= math.factorial(w)
    cols = {part: [vartheta(part, u, params) for u in t] for part in set(lam.entries)}
    total = symmetrize(lam.ell, [cols[part] for part in lam.entries], None,
                       params.one, params.zero)
    return total / norm


def aell_matrix(ell, n, params):
    """Solve Xi_lam = sum_nu A[lam][nu] Theta_nu exactly to order K from the
    values at the special points."""
    parts = enumerate_partitions(ell, n)
    pts = [x_point(mu, params).coords for mu in parts]
    th_mat = [[theta_lambda(nu, pt, params) for pt in pts] for nu in parts]
    xi_mat = [[xi_weight(lam, pt, params) for pt in pts] for lam in parts]
    inv = mat_inverse(th_mat, params.one, params.zero,
                      invertible=lambda s: s.invertible())
    return mat_mul(xi_mat, inv), xi_mat, th_mat


def d_lattice(n, m, ell, s):
    """Number-of-lattice-points exponent for the elliptic transition
    determinant: pairs (i, j) >= 0 with i + j < ell and i - j = s, counted
    with binomial weights."""
    total = 0
    for i in range(ell):
        j = i - s
        if j >= 0 and i + j < ell:
            total += binom(m - 1 + i, m - 1) * binom(n - m - 1 + j, n - m - 1)
    return total


def d_lattice_bruteforce(n, m, ell, s):
    total = 0
    for i in range(ell + abs(s) + 1):
        for j in range(ell + abs(s) + 1):
            if i + j < ell and i - j == s:
                total += binom(m - 1 + i, m - 1) * binom(n - m - 1 + j, n - m - 1)
    return total


def dett_rhs_nokappa(params):
    """The closed form for det[Theta_lam(x |> mu)] with its root-of-unity
    constant left out; only the product with the transition determinant is
    ever asserted, since the constants cancel there."""
    ell, n, eta = params.ell, params.n, params.eta
    scalar = eta ** ((n * (1 - n) // 2) * binom(n + ell - 1, n + 1))
    for m in range(1, n + 1):
        scalar = scalar * (-params.x[m - 1]) ** ((m - 1) * binom(n + ell - 1, n))
    out = params.one * scalar
    # the dynamical-theta exponent pairs with the argument in mirrored
    # s-order: theta(eta^s / alpha) carries C(n+ell-s-2, n-1)
    for s in range(ell):
        out = out * params.th(eta ** s / params.alpha) ** binom(n + ell - s - 2, n - 1)
    for s in range(1 - ell, ell):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                out = out * params.th(eta ** s * params.x[j - 1] / params.x[k - 1]) \
                    ** d_exponent(n, ell, s)
    return out


def detae_rhs_nokappa(params):
    ell, n, eta = params.ell, params.n, params.eta
    scalar = params.field.one
    for m in range(1, n + 1):
        scalar = scalar * params.y[m - 1] ** ((m - n) * binom(n + ell - 1, n))
    out = params.one * scalar
    for s in range(1 - ell, ell):
        for m in range(1, n):
            ratio = params.field.one / params.alpha
            for j in range(1, m + 1):
                ratio = ratio * params.y[j - 1] / params.x[j - 1]
            out = out * params.th(eta ** (s + ell - 1) * ratio) ** d_lattice(n, m, ell, s)
    for s in range(ell):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                out = out * params.th(eta ** s * params.y[j - 1] / params.x[k - 1]) \
                    ** binom(n + ell - s - 2, n - 1)
    return out


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _series_residual_list(entries):
    out = []
    for label, series in entries:
        if not series.is_zero():
            out.append("%s: %s" % (label, series.coeff_strings()))
    return out


def verify_idp(cfg):
    """Driver for both elliptic window identities (idp1, idp2)."""
    if cfg.ell < 1:
        raise UsageError("%s needs ell >= 1" % cfg.check)
    if not (1 <= cfg.i < cfg.j <= cfg.n):
        raise UsageError("%s needs 1 <= i < j <= n" % cfg.check)
    if cfg.check == "idp2" and not (cfg.i == 1 and cfg.j == 2):
        raise UsageError("idp2 is the (i, j) = (1, 2) window form")
    constrain = None if cfg.no_constraint else (cfg.i, cfg.j)

    def trial(sampler):
        params = sample_ell_params(sampler, cfg.ell, cfg.n, cfg.k, constrain)
        t = sample_t(sampler, cfg.ell)
        if cfg.check == "idp1":
            val = idp1_value(params, t, cfg.i, cfg.j, mutate=cfg.mutate)
        else:
            val = idp2_value(params, t, mutate=cfg.mutate)
        return val.coeff_strings(), val.is_zero(), []

    notes = []
    if cfg.check == "idp2":
        notes.append("idp2 depends on the parameters only through "
                     "beta = eta^(1-2 ell) alpha x_1/y_1")
    desc = ["eta^s != 1", "x,y nonzero pairwise distinct", "alpha != 1",
            "t pairwise distinct",
            "constraint lifted (negative control)" if cfg.no_constraint
            else "imposed x_j = eta^(ell-1) y_i"]
    return run_trials(cfg, desc, trial, notes=notes)


def verify_xx(cfg):
    """Gram matrix of the theta weights == diag(1/D_lam) to order K, plus
    the x/y sign self-check inside every scalar product."""
    if cfg.ell < 1:
        raise UsageError("xx needs ell >= 1")

    def trial(sampler):
        params = sample_ell_params(sampler, cfg.ell, cfg.n, cfg.k)
        parts = enumerate_partitions(cfg.ell, cfg.n)
        gram = gram_xx(cfg.ell, cfg.n, params)
        entries = []
        for r, lam in enumerate(parts):
            dinv = norm_d(lam, params).inverse()
            if cfg.mutate and r == 0:
                dinv = dinv * 2
            for c in range(len(parts)):
                expected = dinv if r == c else params.zero
                entries.append(("[%d,%d]" % (r, c), gram[r][c] - expected))
        flat = _series_residual_list(entries)
        return flat, not flat, []

    return run_trials(cfg, ["eta^s != 1", "x,y nonzero pairwise distinct",
                            "alpha != 1", "denominator thetas invertible"], trial)


def verify_xt(cfg):
    """Transition solve Xi = A Theta at the special points, then residual
    zero at fresh t-points to order K."""
    if cfg.ell < 1:
        raise UsageError("xt needs ell >= 1")

    def trial(sampler):
        params = sample_ell_params(sampler, cfg.ell, cfg.n, cfg.k)
        parts = enumerate_partitions(cfg.ell, cfg.n)
        a, _, _ = aell_matrix(cfg.ell, cfg.n, params)
        if cfg.mutate:
            a[0][0] = a[0][0] + 1
        entries = []
        for fresh in range(3):
            t = sample_t(sampler, cfg.ell)
            basis = [theta_lambda(nu, t, params) for nu in parts]
            for r, lam in enumerate(parts):
                resid = xi_weight(lam, t, params)
                for c in range(len(parts)):
                    resid = resid - a[r][c] * basis[c]
                entries.append(("fresh%d[%d]" % (fresh, r), resid))
        flat = _series_residual_list(entries)
        return flat, not flat, []

    return run_trials(cfg, ["eta^s != 1", "x,y nonzero pairwise distinct",
                            "alpha != 1", "basis matrix invertible to order K"], trial)


def verify_detprod(cfg):
    """det[Xi_lam(x |> mu)] == RHS(detT) * RHS(detAe) to order K; the
    root-of-unity constants of the two closed forms cancel in the product,
    so neither is ever computed on its own."""
    if cfg.ell < 1:
        raise UsageError("detprod needs ell >= 1")

    def trial(sampler):
        params = sample_ell_params(sampler, cfg.ell, cfg.n, cfg.k)
        parts = enumerate_partitions(cfg.ell, cfg.n)
        pts = [x_point(mu, params).coords for mu in parts]
        xi_mat = [[xi_weight(lam, pt, params) for pt in pts] for lam in parts]
        lhs = mat_det(xi_mat, params.one, params.zero,
                      invertible=lambda s: s.invertible(),
                      is_zero=lambda s: s.is_zero())
        rhs = dett_rhs_nokappa(params) * detae_rhs_nokappa(params)
        if cfg.mutate:
            rhs = rhs * 2
        diff = lhs - rhs
        return diff.coeff_strings(), diff.is_zero(), []

    return run_trials(
        cfg, ["eta^s != 1", "x,y nonzero pairwise distinct", "alpha != 1"], trial,
        notes=["the root-of-unity constant of the basis determinant and its "
               "inverse in the transition determinant cancel in the asserted "
               "product; cyclotomic values are never computed"])
