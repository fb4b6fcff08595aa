"""The elliptic layer: theta-weight functions with a dynamical parameter,
their window coefficients and biorthogonality norms, the one-variable theta
basis, transition coefficients, and the idp2, xt and detprod check values.

Everything is computed coefficient-wise in the ring of power series in the
nome modulo p^(K+1); "an identity holds" means all K+1 coefficients vanish
at every sampled parameter point.  The weights, window sums, kernel
residues, Gram matrix and its residual, and the transition solve are those of
the polynomial layer: `EllParams` supplies phi = theta, the linear factor
theta(u/c), the constants of the weight columns, the residue constant
((p; p)^3)^ell, the norm D and the window coefficient, and `polyweights`
and `residues` do the rest; the norm, window coefficient and det A add
here only the thetas of the dynamical parameter.  The weight tables of a
point and the kernel products are those of `polyweights.point_tables` and
`PolyParams.phi_product`, built fraction-free from the integer theta
numerators of `exactnum.theta_ints` that `EllParams` supplies, so no
series is normalized or inverted per factor.  Every infinite product
here, (p; p)_inf and (p^n; p^n)_inf, is a theta value:
(p^e; p^e)_inf = theta(p^e; p^(3e)).  `reporting` writes the series
values coefficient by coefficient.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain

from .errors import UsageError
from .exactnum import IntSeries, PSeries, num_den, product, theta, theta_ints, triple_pochhammer_p
from .linalg import mat_det, mat_mul
from .partitions import binom, enumerate_partitions
from .polyweights import (
    PolyParams, alternating_sum, sample_poly_params, sample_t, symmetric_products, weights,
    window_products)
from .residues import (
    d_exponent, deta_rhs, kernel_residue, scalar_product, special_values,
    transition_matrix)


class EllParams(PolyParams):
    """Ground parameters plus the dynamical parameter and truncation order.

    `one`/`zero` are truncated series, phi is theta, the linear factor
    theta(u/c), the weight columns those of Z_m with a dynamical shift and
    the kernel constant ((p; p)^3)^ell; the norm and the window coefficient add
    the thetas of the dynamical parameter.  Of the integer forms that the
    fraction-free tables and kernel products take (`PolyParams.degree`),
    phi's numerator and the column factor's are theta numerators of
    degree 2L - 1.  `alphas[m - 1]` is alpha_m = alpha prod_{j<m} x_j/y_j.
    The memo also keeps theta values at scalar arguments, the theta
    numerators of the table and kernel arguments and the basis functions.
    Every theta that ends up in a denominator must have nonzero constant
    term, i.e. argument different from 1, which the arithmetic enforces by
    raising.
    """

    def __init__(self, x, y, eta, alpha, ell, n, k, fld):
        super().__init__(x, y, eta, ell, n, fld)
        self.alpha = alpha
        alphas = [alpha]
        for xj, yj in zip(self.x[:n - 1], self.y):
            alphas.append(alphas[-1] * xj / yj)
        self.alphas = tuple(alphas)
        self.k, self.degree = k, theta_ints(1, 1, 1, k)[1]
        self.one = PSeries.constant(fld, fld.one, k)
        self.zero = PSeries.constant(fld, fld.zero, k)
        self.triple_poch = triple_pochhammer_p(fld, k)

    def kernel_constant(self, ell):
        """((p; p)^3)^ell: each residue step divides by theta's derivative
        constant at 1, the triple Pochhammer (p; p)^3."""
        return self.memo(("kernel_constant", ell), lambda: self.triple_poch ** ell)

    def th(self, arg):
        """theta(arg; p) truncated, cached for scalar arguments."""
        return self.memo(("theta", arg), lambda: theta(arg, 1, self.k))

    phi = th

    def phi_ints(self, pairs):
        """[theta(P/Q)'s numerator over P^(L-1) Q^L (`exactnum.theta_ints`),
        reduced modulo p, for (P, Q) in pairs], memoized: the special
        points share their arguments."""
        mod, k = self.cleared[0], self.k

        def make(p, q):
            num = theta_ints(p, q, 1, k)[0]
            return IntSeries([x % mod for x in num] if mod else num)
        return [self.memo(("phi", p, q), lambda: make(p, q)) for p, q in pairs]

    def factor_ints(self, ts, consts):
        """[[the numerator of theta(u c) = theta((a cn)/(b cd)) at each
        point u = a/b of ts] for each constant c = cn/cd of consts]."""
        return [self.phi_ints([(a * cn, b * cd) for a, b in ts]) for cn, cd in consts]

    def factor(self, u, c):
        return self.th(u / c)

    def column_shift(self, a, ell):
        """The exponent s of the dynamical shift alpha eta^s of the theta
        weights' single factor at position a of ell."""
        return 2 * a - 2 * ell

    @cached_property
    def basis_norm(self):
        """(p^n; p^n)_inf^(-1) (p; p)_inf^n, the normalization of every
        basis function `vartheta`, with (p^e; p^e)_inf = theta(p^e; p^(3e))
        by Euler's pentagonal number theorem."""
        one, k, n = self.field.one, self.k, self.n
        return theta(one, 3 * n, k, n).inverse() * theta(one, 3, k, 1) ** n

    def column_constants(self, key, primed):
        """The constants c of Z_m's theta factors theta(u c) at the key
        (shift, m), cleared (`num_den`): the lead 1/(alpha_m x_m), or
        alpha_m/y_m for Z'_m, with the dynamical shift alpha_m eta^shift,
        then 1/y_j for j < m and 1/x_k for k > m (x and y swapped when
        primed), memoized.

        The shift direction is the same in both variants: with the opposite
        direction on the primed family, the primed weights leave the
        function space of the kernel (the x/y residue sums stop agreeing)
        and both the biorthogonality and the duality relation fail, so that
        reading is untenable.
        """
        def make():
            shift, m = key
            x, y = (self.y, self.x) if primed else (self.x, self.y)
            one, am = self.field.one, self.alphas[m - 1] * self.eta ** shift
            lead = am / self.y[m - 1] if primed else one / (am * self.x[m - 1])
            return [num_den(self.cleared[0], c)
                    for c in [lead] + [one / c for c in y[:m - 1] + x[m:]]]
        return self.memo(("column", key, primed), make)

    def alpha_dyn(self, m, lam):
        """alpha_{m,lam} = alpha_m eta^(-2 (w_1 + ... + w_{m-1}))."""
        return self.alphas[m - 1] * self.eta ** (-2 * sum(lam.multiplicities()[:m - 1]))

    def alpha_thetas(self, m, lam):
        """Lazy A_{m,s} = theta(eta^s/alpha_{m,lam}) and B_{m,s} =
        theta(eta^(1-s-w_m) alpha_{m,lam} x_m/y_m), s < w_m; a window
        coefficient reads only B of its first block and A of its last."""
        w = lam.multiplicities()[m - 1]
        if not w:
            return (), ()
        aml = self.alpha_dyn(m, lam)
        xy = self.x[m - 1] / self.y[m - 1]
        return ((self.th(self.eta ** s / aml) for s in range(w)),
                (self.th(self.eta ** (1 - s - w) * aml * xy) for s in range(w)))

    def norm(self, lam):
        """The norm D = (-1)^ell N prod_m prod_{s<w_m} (p; p)^3/(A_{m,s} B_{m,s}),
        N the theta norm of `PolyParams`, the ell factors (p; p)^3 the
        `kernel_constant`."""
        den = alpha_theta_product(self, lam, range(1, self.n + 1))
        return super().norm(lam) * (-self.field.one) ** lam.ell \
            * self.kernel_constant(lam.ell) / den

    def window_coeff(self, lam, i, j):
        """lam's window coefficient in [i, j]: the theta `window_products`
        times (alpha_i x_i/y_i)^(w_i) eta^(-w_i (w_i - 1)) and, for
        w_j < a <= ell - w_i, theta(alpha_(lam_a) eta^(a-ell) y_i/y_lam_a),
        over the A B of the blocks i < k < j, the B of block i and the A of
        block j."""
        out = window_products(lam, i, j, self)
        eta, mults, ell = self.eta, lam.multiplicities(), lam.ell
        wi, wj = mults[i - 1], mults[j - 1]
        den = math.prod(chain(self.alpha_thetas(i, lam)[1], self.alpha_thetas(j, lam)[0]),
                        start=alpha_theta_product(self, lam, range(i + 1, j)))
        out = out * ((self.alphas[i - 1] * self.x[i - 1] / self.y[i - 1]) ** wi
                     * eta ** (-wi * (wi - 1))) / den
        for a in range(wj + 1, ell - wi + 1):
            la = lam.entries[a - 1]
            out = out * self.th(
                self.alphas[la - 1] * eta ** (a - ell) * self.y[i - 1] / self.y[la - 1])
        return out


def sample_ell_params(sampler, ell, n, k, constrain=None):
    """The polynomial parameters, then alpha != 1."""
    p = sample_poly_params(sampler, ell, n, constrain)
    alpha = sampler.draw((lambda v: v != sampler.field.one,), "alpha")
    return EllParams(p.x, p.y, p.eta, alpha, ell, n, k, sampler.field)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def alpha_theta_product(params, lam, blocks):
    """prod_{s<w_m} A_{m,s} B_{m,s} over the blocks m (`EllParams.alpha_thetas`)."""
    return product((v for m in blocks for ab in params.alpha_thetas(m, lam) for v in ab),
                   params.one)


def xi_weight(lam, t, params, primed=False):
    """One partition's theta weight: `weights` on `EllParams`."""
    return weights([lam], t, params, primed)[0]


def idp2_value(params, t, mutate=False):
    """The two-column window identity in its explicit form; depends on the
    parameters only through beta = eta^(1-2ell) alpha x_1/y_1.  The ell + 1
    inner sums share their leading low columns, and `alternating_sum`
    weighs them by the prefactors theta(eta^(2k) beta) (-1)^k prod_{s<k}
    eta^s theta(eta^(ell-s)) theta(eta^s beta)/(theta(eta^(s+1))
    theta(eta^(s+ell+1) beta)), one running product over s."""
    eta, th = params.eta, params.th
    ell = len(t)
    beta = eta ** (1 - 2 * ell) * params.alpha * params.x[0] / params.y[0]
    one, mod = params.field.one, params.cleared[0]
    runs = [one]
    for s in range(ell):
        runs.append(runs[-1] * -eta ** s * th(eta ** (ell - s)) * th(eta ** s * beta)
                    / (th(eta ** (s + 1)) * th(eta ** (s + ell + 1) * beta)))
    prefs = [th(eta ** (2 * k) * beta) * run for k, run in enumerate(runs)]
    # the single factor at position a (1-based) inside, resp. after, the
    # first k positions: theta(u) theta(eta^(2-2a-ell) u/beta), resp.
    # theta(eta^(1-ell) u) theta(eta^(1-2b) u/beta), by their constants
    low, high = num_den(mod, one), num_den(mod, eta ** (1 - ell))
    columns = {}
    for a in range(1, ell + 1):
        columns["low", a] = [num_den(mod, eta ** (2 - 2 * a - ell) / beta), low]
    for b in range(1, ell + 1):
        columns["high", b] = [num_den(mod, eta ** (1 - 2 * b) / beta), high]
    return alternating_sum(params, t, columns, [("low", a) for a in range(1, ell + 1)],
                           [("high", b) for b in range(1, ell + 1)], prefs, mutate)


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
    the multiplicity normalization, on the basis columns cleared to integer
    coefficient lists over one denominator (`cleared_columns`).  With no
    pair factors they run on `symmetrize`'s sub-multiset layers: at one
    point, sum_{v=1}^{ell-1} C(n+v-1, v) n series products for all the
    partitions of (ell, n), 136 at (4, 4) where the subset trie made 500."""
    keys = dict.fromkeys(part for lam in parts for part in lam.entries)
    cols, den = cleared_columns({part: [vartheta(part, u, params) for u in t] for part in keys})
    return symmetric_products([lam.entries for lam in parts], cols.__getitem__, params.one, den)


def cleared_columns(cols):
    """(cols, den): series columns (key -> one series per variable) as
    `IntSeries` over one denominator: at each variable over the lcm D_v of
    the denominators there, and den = prod_v D_v."""
    out, den = {key: [] for key in cols}, 1
    for entries in zip(*cols.values()):
        d_v = math.lcm(*[s.den for s in entries])
        for key, s in zip(cols, entries):
            out[key].append(IntSeries(s.num if s.den == d_v else
                                      [x * (d_v // s.den) for x in s.num]))
        den *= d_v
    return out, den


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
    """det A over theta without its root-of-unity constant: a scalar and
    the thetas of alpha times `residues.deta_rhs`."""
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
    return out * deta_rhs(params)


# ---------------------------------------------------------------------------
# check values value(cfg, params, sampler), points drawn after the parameters
# ---------------------------------------------------------------------------

def idp2_residual(cfg, params, sampler):
    """`idp2_value` at a fresh point."""
    return idp2_value(params, sample_t(sampler, cfg.ell), cfg.mutate)


def xt_residual(cfg, params, sampler):
    """The entries Xi(t) - A Theta(t) at three fresh points t, drawn after
    the transition solve Xi = A Theta at the special points.  A mutated run
    adds 1 to A[0][0]."""
    parts = enumerate_partitions(params.ell, params.n)
    a, _, _ = transition_matrix(theta_lambdas, params)
    if cfg.mutate:
        a[0][0] = a[0][0] + 1
    entries = []
    for fresh in range(3):
        t = sample_t(sampler, params.ell)
        fit = mat_mul(a, [[b] for b in theta_lambdas(parts, t, params)])
        for r, (xi, (ax,)) in enumerate(zip(weights(parts, t, params), fit)):
            entries.append(("fresh%d[%d]" % (fresh, r), xi - ax))
    return entries


def detprod_residual(cfg, params, sampler):
    """det[Xi_lam(x |> mu)] minus RHS(detT) RHS(detAe), which a mutated run
    doubles; the root-of-unity constants of the two closed forms cancel in
    the product, so neither is ever computed on its own."""
    lhs = mat_det(special_values(weights, params), params.one, params.zero)
    rhs = dett_rhs_nokappa(params) * detae_rhs_nokappa(params)
    return lhs - (rhs * 2 if cfg.mutate else rhs)
