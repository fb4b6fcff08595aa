"""The elliptic layer: theta-weight functions with a dynamical parameter,
their window coefficients and biorthogonality norms, the one-variable theta
basis, transition coefficients, and the determinant product check.

Everything is computed coefficient-wise in the ring of power series in the
nome modulo p^(K+1); "an identity holds" means all K+1 coefficients vanish
at every sampled parameter point.  The weights, window sums, kernel
residues, Gram matrix and transition solve are those of the polynomial
layer: `EllParams` supplies theta in place of 1 - z, the column Z_m in
place of X_m and the residue constant ((p; p)^3)^ell in place of
prod_m (x_m y_m)^ell, and `polyweights.weights` and `residues` do the
rest.  This module has no residue code of its own.
"""

from __future__ import annotations

from functools import cached_property

from .errors import UsageError
from .exactnum import (
    PSeries, pochhammer, pochhammer_p, theta, triple_pochhammer_p)
from .linalg import mat_det, mat_mul
from .partitions import binom, enumerate_partitions
from .polyweights import (
    PolyParams, sample_poly_params, sample_t, symmetric_products, symmetrize,
    weight_pair_table, weights, window_value)
from .reporting import run_trials
from .residues import (
    d_exponent, kernel_residue, scalar_product, special_values, transition_matrix,
    weight_gram)


class EllParams(PolyParams):
    """Ground parameters plus the dynamical parameter and truncation order.

    `one`/`zero` are truncated series, phi is theta, the weight column
    is Z_m with a dynamical shift and the kernel constant is
    ((p; p)^3)^ell.  The memo also keeps
    theta values at scalar arguments and the basis functions.  Every theta
    that ends up in a denominator must have nonzero constant term, i.e.
    argument different from 1, which the arithmetic enforces by raising.
    """

    def __init__(self, x, y, eta, alpha, ell, n, k, fld):
        super().__init__(x, y, eta, ell, n, fld)
        self.alpha = alpha
        self.k = k
        self.one = PSeries.constant(fld, fld.one, k)
        self.zero = PSeries.constant(fld, fld.zero, k)
        self.triple_poch = triple_pochhammer_p(fld, k)

    def kernel_constant(self, ell):
        """((p; p)^3)^ell: each residue step divides by theta's derivative
        constant at 1, the triple Pochhammer (p; p)^3."""
        return self.memo(("kernel_constant", ell), lambda: self.triple_poch ** ell)

    def th(self, arg, e=1):
        """theta(arg; p^e) truncated, cached for scalar arguments."""
        return self.memo(("theta", arg, e), lambda: theta(arg, e, self.k))

    phi = th

    def column_shift(self, a, ell):
        """The exponent s of the dynamical shift alpha eta^s of the theta
        weights' single factor at position a of ell."""
        return 2 * a - 2 * ell

    @cached_property
    def basis_norm(self):
        """(p^n; p^n)_inf^(-1) (p; p)_inf^n, the normalization of every
        basis function `vartheta`."""
        fld, k, n = self.field, self.k, self.n
        pn = PSeries.constant(fld, fld.one, k).shift(n)
        return pochhammer(pn, n, k).inverse() * pochhammer_p(fld, k) ** n

    def alpha_static(self, m):
        """alpha_m = alpha prod_{j<m} x_j/y_j."""
        out = self.alpha
        for j in range(m - 1):
            out = out * self.x[j] / self.y[j]
        return out

    def column(self, u, m, shift, primed=False):
        """Z_m(u) = theta(u/(alpha_m x_m)) prod_{j<m} theta(u/y_j)
        prod_{k>m} theta(u/x_k) with the dynamical shift alpha_m =
        alpha_static(m) eta^shift; the primed variant uses
        theta(alpha_m u / y_m) and swaps x with y in the tail products.

        The shift direction is the same in both variants: with the opposite
        direction on the primed family, the primed weights leave the
        function space of the kernel (the x/y residue sums stop agreeing)
        and both the biorthogonality and the duality relation fail, so that
        reading is untenable.
        """
        am = self.alpha_static(m) * self.eta ** shift
        if primed:
            out = self.th(am * u / self.y[m - 1])
        else:
            out = self.th(u / (am * self.x[m - 1]))
        for j in range(1, m):
            out = out * self.th(u / (self.x[j - 1] if primed else self.y[j - 1]))
        for k in range(m + 1, self.n + 1):
            out = out * self.th(u / (self.y[k - 1] if primed else self.x[k - 1]))
        return out

    def alpha_dyn(self, m, lam):
        """alpha_{m,lam} = alpha prod_{j<m} eta^(-2 w_j) x_j/y_j."""
        mults = lam.multiplicities()
        out = self.alpha
        for j in range(m - 1):
            out = out * self.eta ** (-2 * mults[j]) * self.x[j] / self.y[j]
        return out


def sample_ell_params(sampler, ell, n, k, constrain=None):
    """The polynomial parameters, then alpha != 1."""
    p = sample_poly_params(sampler, ell, n, constrain)
    alpha = sampler.draw((lambda v: v != sampler.field.one,), "alpha")
    return EllParams(p.x, p.y, p.eta, alpha, ell, n, k, sampler.field)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def xi_weight(lam, t, params, primed=False):
    """One partition's theta weight: `weights` on `EllParams`."""
    return weights([lam], t, params, primed)[0]


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


def idp2_value(params, t, mutate=False):
    """The two-column window identity in its explicit form; depends on the
    parameters only through beta = eta^(1-2ell) alpha x_1/y_1.  The ell + 1
    inner sums share their leading low columns, so they come from one
    `symmetrize` call."""
    eta = params.eta
    ell = len(t)
    beta = eta ** (1 - 2 * ell) * params.alpha * params.x[0] / params.y[0]
    one, th = params.field.one, params.th
    pair = weight_pair_table(t, params)
    # the single factor at position a (1-based) inside, resp. after, the
    # first k positions
    cols = {}
    for a in range(1, ell + 1):
        cols["low", a] = [th(u) * th(eta ** (2 - 2 * a - ell) * u / beta) for u in t]
    for b in range(1, ell + 1):
        cols["high", b] = [th(eta ** (1 - ell) * u) * th(eta ** (1 - 2 * b) * u / beta)
                           for u in t]
    seqs = [[("low" if a <= k else "high", a) for a in range(1, ell + 1)]
            for k in range(ell + 1)]
    total = params.zero
    for k, inner in enumerate(symmetrize(seqs, cols, pair, params.one)):
        pref = params.th(eta ** (2 * k) * beta) * (-one) ** k
        for s in range(k):
            pref = pref * eta ** s * params.th(eta ** (ell - s)) * params.th(eta ** s * beta)
            pref = pref / (params.th(eta ** (s + 1)) * params.th(eta ** (s + ell + 1) * beta))
        if mutate and k == 1:
            pref = pref * 2
        total = total + pref * inner
    return total


# ---------------------------------------------------------------------------
# theta kernel
# ---------------------------------------------------------------------------

# The two names below stay as one-line calls because the benchmark tracer
# binds them: the residue and the scalar product are those of `residues`,
# which read theta and (p; p)^3 from `EllParams`.

def omega_residue(params, point):
    """Res(1/Omega (dt/t)^ell) at a special point, as a truncated series."""
    return kernel_residue(params, point)


def scalar_product_omega(f, g, params):
    """<f, g> as the x-side theta residue sum, with the (-1)^ell y-side
    self-check."""
    return scalar_product(f, g, params)


# ---------------------------------------------------------------------------
# theta basis and transition coefficients
# ---------------------------------------------------------------------------

def vartheta(m, u, params):
    """The m-th one-variable basis function: u^(m-1) times a theta in
    (-u)^n p^(m-1) at nome p^n, normalized by (p^n; p^n)_inf^(-1)
    (p; p)_inf^n.  The theta argument keeps its valuation m - 1 apart, so
    the basis is defined for every truncation order, m - 1 > K included.

    The theta coefficient is eta^(ell-1) / (alpha prod_m x_m): this is the
    unique choice for which the basis obeys the same quasi-periodicity
    multiplier alpha eta^(1-ell) (prod x) (-u)^(-n) as every theta weight,
    hence spans the space the weights live in.  (With prod x in the
    numerator instead, the basis solve leaves a nonzero residual.)
    """
    if not (1 <= m <= params.n):
        raise UsageError("basis index %d outside [1, %d]" % (m, params.n))

    def make():
        n = params.n
        lead = params.eta ** (params.ell - 1) / params.alpha
        for xm in params.x:
            lead = lead / xm
        return theta(-lead * (-u) ** n, n, params.k, m - 1) * params.basis_norm * u ** (m - 1)
    return params.memo(("vartheta", m, u), make)


def theta_lambdas(parts, t, params):
    """[Theta_lam(t) for lam in parts]: the symmetrized basis products with
    the multiplicity normalization."""
    return symmetric_products([lam.entries for lam in parts],
                              lambda part: [vartheta(part, u, params) for u in t], params.one)


def theta_lambda(lam, t, params):
    """One partition's Theta_lam (see `theta_lambdas`)."""
    return theta_lambdas([lam], t, params)[0]


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
    constrain = None if cfg.no_constraint else (cfg.i, cfg.j)

    def trial(sampler):
        params = sample_ell_params(sampler, cfg.ell, cfg.n, cfg.k, constrain)
        t = sample_t(sampler, cfg.ell)
        if cfg.check == "idp1":
            val = window_value(params, t, cfg.i, cfg.j, c_coeff_ell, cfg.mutate)
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

    def trial(sampler):
        params = sample_ell_params(sampler, cfg.ell, cfg.n, cfg.k)
        parts = enumerate_partitions(cfg.ell, cfg.n)
        gram = weight_gram(params)
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

    def trial(sampler):
        params = sample_ell_params(sampler, cfg.ell, cfg.n, cfg.k)
        parts = enumerate_partitions(cfg.ell, cfg.n)
        a, _, _ = transition_matrix(theta_lambdas, params)
        if cfg.mutate:
            a[0][0] = a[0][0] + 1
        entries = []
        for fresh in range(3):
            t = sample_t(sampler, cfg.ell)
            fit = mat_mul(a, [[b] for b in theta_lambdas(parts, t, params)])
            for r, (xi, (ax,)) in enumerate(zip(weights(parts, t, params), fit)):
                entries.append(("fresh%d[%d]" % (fresh, r), xi - ax))
        flat = _series_residual_list(entries)
        return flat, not flat, []

    return run_trials(cfg, ["eta^s != 1", "x,y nonzero pairwise distinct",
                            "alpha != 1", "basis matrix invertible to order K"], trial)


def verify_detprod(cfg):
    """det[Xi_lam(x |> mu)] == RHS(detT) * RHS(detAe) to order K; the
    root-of-unity constants of the two closed forms cancel in the product,
    so neither is ever computed on its own."""

    def trial(sampler):
        params = sample_ell_params(sampler, cfg.ell, cfg.n, cfg.k)
        lhs = mat_det(special_values(weights, params), params.one, params.zero)
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
