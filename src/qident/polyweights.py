"""The polynomial layer: per-variable factors X_m and X'_m, the symmetrized
weights P and P' with their eta-dependent prefactor, monomial symmetric
polynomials, biorthogonality norms, window coefficients, and the drivers
for the combinatorial identities built out of them.

Every sum over S_ell here (and in the elliptic layer) goes through
`symmetrize`: its terms are products of position-dependent single factors
and pair factors that depend only on which of two variables comes first, so
the exact sum is accumulated over subsets of variables in O(2^ell ell^2)
ring operations.  Tables of field scalars run those operations on
integers over one common denominator (residues over GF(p)), divided out
once per sum.  No closed-form simplification is attempted; the tests
keep the literal permutation sums as oracles.  The weight scaffold serves
both layers: phi(z) = 1 - z here and phi = theta on `elliptic.EllParams`,
so, as theta(z; 0) = 1 - z, the weights P are the p = 0 form of the theta
weights in their prefactor and pair factors.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import DegenerateInputError, UsageError
from .exactnum import PSeries, field_of, ints_over_den, modulus, scalar_of, scalar_str
from .partitions import enumerate_partitions, enumerate_window, kappa, x_point
from .reporting import run_trials


class PolyParams:
    """Ground parameters x_1..x_n, y_1..y_n, eta for fixed ell, n.

    eta^s != 1 for 1 <= s <= ell, so symmetrization prefactors and norms
    have nonzero denominators.  The layer's scalars `one`/`zero` are the
    field's and its factor is phi(z) = 1 - z.  `memo` keeps the per-point
    tables of the weights (pair tables and single-factor columns), which
    every partition evaluated at a point shares.
    """

    def __init__(self, x, y, eta, ell, n, field):
        self.x, self.y, self.eta = tuple(x), tuple(y), eta
        self.ell, self.n, self.field = ell, n, field
        self.one, self.zero = field.one, field.zero
        self._memo = {}

    def memo(self, key, make):
        """make(), computed once per key; keys start with a family tag."""
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = make()
        return out

    def phi(self, z):
        return self.one - z

    def column_shift(self, a, ell):
        """The polynomial weights' single factors depend only on the part."""
        return None


def eta_constraint(one, ell):
    return lambda v: all(v ** s != one for s in range(1, max(ell, 2) + 1))


def sample_poly_params(sampler, ell, n, constrain=None):
    """Draw admissible parameters; `constrain=(i, j)` then overwrites
    x_j := eta^(ell-1) y_i, exactly matching the theorem hypothesis."""
    fld = sampler.field
    eta = sampler.draw((eta_constraint(fld.one, ell),), "eta")
    xy = sampler.draw_distinct(2 * n, (), "x,y")
    x, y = list(xy[:n]), list(xy[n:])
    if constrain is not None:
        i, j = constrain
        x[j - 1] = eta ** (ell - 1) * y[i - 1]
    return PolyParams(tuple(x), tuple(y), eta, ell, n, fld)


def sample_t(sampler, ell):
    return tuple(sampler.draw_distinct(ell, (), "t"))


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------

def symmetrize(ell, single, pair, one, zero):
    """sum over sigma in S_ell of
    prod_a single[a][sigma_a] * prod_{a<b} pair[sigma_a][sigma_b], exactly.

    single[a][v] is the factor of variable v at position a; pair[w][v] is
    the factor of variable w placed anywhere before v, or pair is None when
    there are no pair factors.  The sum over the orderings of a set S of
    variables filling the first |S| positions, F(S), obeys
    F(S + v) += F(S) single[|S|][v] prod_{w in S} pair[w][v], which costs
    O(2^ell ell^2) ring operations in place of O(ell! ell^2).

    Tables of field scalars (QQ or GF(p)) run the DP on integers.  Every
    term places each variable v once and holds exactly one of pair[w][v]
    and pair[v][w], so every term has the denominator prod_v D_v
    prod_{w<v} L_wv, where D_v clears the column single[.][v] and L_wv the
    two entries of the pair {w, v}; the sum is divided by it once at the
    end.  Over GF(p) the denominators are 1 and each term is reduced mod p.
    Series tables keep the ring operations.
    """
    mod = den = 0
    if not isinstance(one, PSeries):
        fld = field_of(one)
        mod, den, cols = modulus(fld), 1, []
        for v in range(ell):
            col, d = ints_over_den(fld, [row[v] for row in single])
            cols.append(col)
            den *= d
        single = list(zip(*cols))
        if pair is not None:
            table, pair = pair, [[None] * ell for _ in range(ell)]
            for w in range(ell):
                for v in range(w + 1, ell):
                    (pair[w][v], pair[v][w]), d = ints_over_den(
                        fld, [table[w][v], table[v][w]])
                    den *= d
        one, zero = 1, 0
    full = (1 << ell) - 1
    f = [zero] * (full + 1)
    f[0] = one
    for s in range(full):           # every proper subset of s is below s
        fs = f[s]
        placed = [w for w in range(ell) if s >> w & 1]
        row = single[len(placed)]
        for v in range(ell):
            if s >> v & 1:
                continue
            term = fs * row[v]
            if pair is not None:
                for w in placed:
                    term = term * pair[w][v]
            if mod:
                term %= mod
            f[s | 1 << v] = f[s | 1 << v] + term
    return scalar_of(mod, f[full], den) if den else f[full]


def pair_table(t, ratio):
    """ratio(t_w, t_v) for every ordered pair w != v of coordinates (the
    diagonal is unused); coincident coordinates are rejected."""
    ell = len(t)
    table = [[None] * ell for _ in range(ell)]
    for w in range(ell):
        for v in range(ell):
            if w != v:
                if t[w] == t[v]:
                    raise DegenerateInputError(
                        "coincident t coordinates in symmetrized sum")
                table[w][v] = ratio(t[w], t[v])
    return table


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def x_factor(u, m, params, primed=False):
    """X_m(u) = u prod_{j<m}(u - y_j) prod_{k>m}(u - x_k); the primed
    variant drops the leading u and swaps the roles of x and y."""
    x, y = params.x, params.y
    out = params.field.one if primed else u
    for j in range(1, m):
        out = out * (u - (x[j - 1] if primed else y[j - 1]))
    for k in range(m + 1, params.n + 1):
        out = out * (u - (y[k - 1] if primed else x[k - 1]))
    return out


def multiplicity_prefactor(lam, params):
    """prod_m prod_{s=2}^{w_m} phi(eta)/phi(eta^s)."""
    out = params.one
    for w in lam.multiplicities():
        for s in range(2, w + 1):
            out = out * params.phi(params.eta) / params.phi(params.eta ** s)
    return out


def weight_pair_table(t, params, primed=False):
    """The pair factors phi(eta t_a/t_b)/phi(t_a/t_b) (primed) or
    phi(eta t_b/t_a)/phi(t_b/t_a) for t_a placed before t_b, memoized on
    params per (point, primed); (t_a - eta t_b)/(t_a - t_b) for 1 - z."""
    t = tuple(t)

    def make():
        eta, phi = params.eta, params.phi
        if primed:
            return pair_table(t, lambda ta, tb: phi(eta * ta / tb) / phi(ta / tb))
        return pair_table(t, lambda ta, tb: phi(eta * tb / ta) / phi(tb / ta))
    return params.memo(("pair", t, primed), make)


def symmetrized_weight(lam, t, params, column, primed):
    """The multiplicity prefactor times the sum over S_ell of the single
    factors column(u, part, shift) at each position and the pair factors.
    shift = params.column_shift(a, ell); each column [column(u, part, shift)
    for u in t] is memoized on params per (point, primed, shift, part)."""
    ell, t = lam.ell, tuple(t)
    if len(t) != ell:
        raise UsageError("point has %d coordinates, partition has %d parts" % (len(t), ell))
    single = []
    for a, part in enumerate(lam.entries, start=1):
        shift = params.column_shift(a, ell)
        single.append(params.memo(("col", t, primed, shift, part),
                                  lambda: [column(u, part, shift) for u in t]))
    total = symmetrize(ell, single, weight_pair_table(t, params, primed),
                       params.one, params.zero)
    return multiplicity_prefactor(lam, params) * total


def weight(lam, t, params, primed=False):
    """P (or P') at an explicit point: the symmetrized sum over S_ell."""
    return symmetrized_weight(lam, t, params,
                              lambda u, part, _: x_factor(u, part, params, primed), primed)


def symmetric_product(keys, column, one, zero):
    """(1/prod_k mult_k!) sum_sigma prod_a column(keys[a])[sigma_a]: the
    symmetrized product of one column per key, with each distinct key's
    column built once; keys may repeat."""
    counts = Counter(keys)
    norm = 1
    for c in counts.values():
        norm *= math.factorial(c)
    cols = {key: column(key) for key in counts}
    return symmetrize(len(keys), [cols[key] for key in keys], None, one, zero) / norm


def monomial_symmetric(exponents, t, one, zero):
    """(1/prod_k mult_k!) sum_sigma t_{sigma_1}^{e_1} ... ; exponents may
    repeat and may be zero (the latter is used by the residue-sum sweeps)."""
    if len(exponents) != len(t):
        raise UsageError("%d exponents for a point with %d coordinates"
                         % (len(exponents), len(t)))
    return symmetric_product(exponents, lambda e: [u ** e for u in t], one, zero)


def q_monomial(lam, t, params):
    return monomial_symmetric(lam.entries, t, params.one, params.zero)


def norm_n(lam, params):
    """N = prod_m prod_{s=1}^{w_m} (1 - eta^s)(x_m - eta^(s-1) y_m)/(1 - eta)."""
    one, eta = params.field.one, params.eta
    out = one
    for m, w in enumerate(lam.multiplicities(), start=1):
        for s in range(1, w + 1):
            out = out * (one - eta ** s) * (params.x[m - 1] - eta ** (s - 1) * params.y[m - 1]) / (one - eta)
    return out


def c_coeff(lam, i, j, params):
    """The window coefficient attached to lam inside the window [i, j]."""
    if lam.entries and not (i <= lam.entries[-1] and lam.entries[0] <= j):
        raise UsageError("partition %r lies outside the window [%d, %d]" % (lam.entries, i, j))
    one, eta = params.field.one, params.eta
    x, y = params.x, params.y
    mults = lam.multiplicities()
    ell = lam.ell
    wi = mults[i - 1]
    wj = mults[j - 1]
    out = (-one) ** wi * eta ** (wj * (wj - 1) // 2)
    for k in range(i + 1, j):
        for s in range(mults[k - 1]):
            out = out * (x[k - 1] - eta ** s * y[k - 1])
    for a in range(1, ell + 1):
        la = lam.entries[a - 1]
        lead = eta ** (ell - a) * y[i - 1]
        for k in range(i + 1, la):
            out = out * (lead - x[k - 1])
        for m in range(la + 1, j):
            out = out * (lead - y[m - 1])
    return out


# ---------------------------------------------------------------------------
# identity values
# ---------------------------------------------------------------------------

def jing_value(eta, t, one, zero, mutate=False):
    """The double sum over k and S_ell whose vanishing is the base
    combinatorial identity; a mutated run perturbs the k = 1 prefactor."""
    ell = len(t)
    pair = pair_table(t, lambda ta, tb: (ta - eta * tb) / (ta - tb))
    low = [u - one for u in t]
    high = [u - eta ** (ell - 1) for u in t]
    total = zero
    for k in range(ell + 1):
        pref = one
        for s in range(k):
            pref = pref * (eta ** ell - eta ** s) / (one - eta ** (s + 1))
        if mutate and k == 1:
            pref = pref * 2
        inner = symmetrize(ell, [low] * k + [high] * (ell - k), pair, one, zero)
        total = total + pref * inner
    return total


def window_value(params, t, i, j, coeff, weight, mutate=False):
    """sum over the window [i, j] of coeff(lam, i, j, params) * weight(lam,
    t, params); shared by the polynomial and the theta window identity."""
    total = params.zero
    for idx, lam in enumerate(enumerate_window(params.ell, i, j, params.n)):
        c = coeff(lam, i, j, params)
        if mutate and idx == 0:
            c = c * 2
        total = total + c * weight(lam, t, params)
    return total


def id2_value(params, t, j, mutate=False):
    """sum over all partitions of P'(x |> kappa) * N * P at the point t."""
    zero = params.field.zero
    kap = kappa(params.ell, j, params.n)
    kap_pt = x_point(kap, params)
    total = zero
    for idx, lam in enumerate(enumerate_partitions(params.ell, params.n)):
        coeff = weight(lam, kap_pt.coords, params, primed=True) * norm_n(lam, params)
        if mutate and idx == 0:
            coeff = coeff * 2
        total = total + coeff * weight(lam, t, params)
    return total


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def verify_jing(cfg):
    if cfg.ell < 1:
        raise UsageError("jing needs ell >= 1")
    fld = cfg.scalar_field()

    def trial(sampler):
        eta = sampler.draw((eta_constraint(fld.one, cfg.ell),), "eta")
        t = sample_t(sampler, cfg.ell)
        val = jing_value(eta, t, fld.one, fld.zero, mutate=cfg.mutate)
        return scalar_str(val), val == fld.zero, []

    return run_trials(cfg, ["eta^s != 1 for s = 1..ell", "t pairwise distinct"], trial)


def verify_id(cfg):
    """Driver for both window identities (check name id1 or id2)."""
    if cfg.ell < 1:
        raise UsageError("%s needs ell >= 1" % cfg.check)
    if not (1 <= cfg.i < cfg.j <= cfg.n):
        raise UsageError("%s needs 1 <= i < j <= n" % cfg.check)
    fld = cfg.scalar_field()
    constrain = None if cfg.no_constraint else (cfg.i, cfg.j)

    def trial(sampler):
        params = sample_poly_params(sampler, cfg.ell, cfg.n, constrain)
        t = sample_t(sampler, cfg.ell)
        if cfg.check == "id1":
            val = window_value(params, t, cfg.i, cfg.j, c_coeff, weight, cfg.mutate)
        else:
            val = id2_value(params, t, cfg.j, mutate=cfg.mutate)
        return scalar_str(val), val == fld.zero, []

    desc = ["eta^s != 1 for s = 1..ell", "x,y nonzero pairwise distinct",
            "t pairwise distinct"]
    if constrain is not None:
        desc.append("imposed x_j = eta^(ell-1) y_i")
    else:
        desc.append("constraint lifted (negative control)")
    return run_trials(cfg, desc, trial)
