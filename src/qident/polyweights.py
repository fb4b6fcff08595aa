"""The polynomial layer: per-variable factors X_m and X'_m, the symmetrized
weights P and P' with their eta-dependent prefactor, monomial symmetric
polynomials, biorthogonality norms, window coefficients, and the drivers
for the combinatorial identities built out of them.

Every sum over S_ell here (and in the elliptic layer) goes through
`symmetrize`, one call per point for all the sums wanted there: their terms
are products of position-dependent single factors and pair factors that
depend only on which of two variables comes first, so the sums are
accumulated over subsets of variables, with the pair products built once
per point and shared leading parts sharing their layers.  No closed-form
simplification is attempted; the tests keep the literal permutation sums
as oracles.  One weight table, `weights`, serves both layers: the
parameter object supplies phi and the single-factor column, phi(z) = 1 - z
and X_m here, phi = theta and Z_m with its dynamical shift on
`elliptic.EllParams`.  As theta(z; 0) = 1 - z, the weights P are the p = 0
form of the theta weights in their prefactor and pair factors.
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
    field's, its factor is phi(z) = 1 - z, its weight column X_m and its
    kernel constant prod_m (x_m y_m)^ell.
    `memo` keeps values that every point shares, such as the multiplicity
    prefactors.
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

    def kernel_constant(self, ell):
        """prod_m (x_m y_m)^ell, the ratio of S to its p = 0 theta form
        Omega, by which `residues.kernel_residue` divides."""
        def make():
            out = self.one
            for xm, ym in zip(self.x, self.y):
                out = out * (xm * ym) ** ell
            return out
        return self.memo(("kernel_constant", ell), make)

    def column_shift(self, a, ell):
        """The polynomial weights' single factors depend only on the part."""
        return None

    def column(self, u, m, shift, primed=False):
        """X_m(u) = u prod_{j<m}(u - y_j) prod_{k>m}(u - x_k); the primed
        variant drops the leading u and swaps the roles of x and y.  The
        polynomial factor takes no shift."""
        x, y = self.x, self.y
        out = self.field.one if primed else u
        for j in range(1, m):
            out = out * (u - (x[j - 1] if primed else y[j - 1]))
        for k in range(m + 1, self.n + 1):
            out = out * (u - (y[k - 1] if primed else x[k - 1]))
        return out


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

def symmetrize(seqs, cols, pair, one, den=None):
    """[sum over sigma in S_ell of prod_a cols[seq[a]][sigma_a]
    prod_{a<b} pair[sigma_a][sigma_b] for seq in seqs], exactly: one sum per
    sequence of column keys, all of one length ell, at one point.

    cols[key][v] is the factor of variable v at a position keyed `key`,
    pair[w][v] that of w placed anywhere before v (pair may be None).  The
    sum F(S) over the orderings of S on the first |S| positions obeys
    F(S + v) += F(S) cols[seq[|S|]][v] G(S, v), where G(S, v) =
    prod_{w in S} pair[w][v] = G(S - w0, v) pair[w0][v] (w0 = min S) is
    built once per call.  The layers follow a trie of sequence prefixes, so
    sequences sharing their first k keys share layers 0..k.  A point costs
    about ell 2^(ell-1) multiplies for G plus two per (k-subset, variable
    outside it) per trie node at depth k, in place of 1 + k per sequence.

    Scalar tables run on integers cleared once per call: every term holds
    each column at v once and one of pair[w][v], pair[v][w], so all sums
    share the denominator prod_v D_v prod_{w<v} L_wv (D_v the lcm at v over
    every column, L_wv over the pair), divided out once per sum.  Columns
    that are integers from the start come with `den` and no pair table.
    GF(p) terms are reduced once; series keep the ring operations.
    """
    ell = len(seqs[0]) if seqs else 0
    if any(len(seq) != ell for seq in seqs) or any(len(c) != ell for c in cols.values()):
        raise UsageError("the key sequences and columns at a point differ in length")
    mod = 0
    if not isinstance(one, PSeries):
        fld = field_of(one)
        mod = modulus(fld)
        if den is None:
            keys, by_var, den = list(cols), [], 1
            # a list after *, not a generator: see `weights`
            for entries in zip(*[cols[key] for key in keys]):
                nums, d = ints_over_den(fld, entries)
                by_var.append(nums)
                den *= d
            cols = dict(zip(keys, zip(*by_var)))
            if pair is not None:
                table, pair = pair, [[None] * ell for _ in range(ell)]
                for w in range(ell):
                    for v in range(w + 1, ell):
                        (pair[w][v], pair[v][w]), d = ints_over_den(
                            fld, [table[w][v], table[v][w]])
                        den *= d
        one = 1
    full = (1 << ell) - 1
    gtab = [None] * full          # G(S, v) for S != 0 and v outside S
    for s in range(1, full if pair is not None else 0):
        rest, row = s & (s - 1), pair[(s & -s).bit_length() - 1]
        g = gtab[s] = [None] * ell
        for v in range(ell):
            if not s >> v & 1:
                x = gtab[rest][v] * row[v] if rest else row[v]
                g[v] = x % mod if mod else x
    out = [None] * len(seqs)
    todo = [({0: one}, 0, range(len(seqs)))]    # (layer, depth, sequences)
    while todo:
        layer, depth, members = todo.pop()
        if depth == ell:
            for i in members:
                out[i] = layer[full]
            continue
        groups = {}
        for i in members:
            groups.setdefault(seqs[i][depth], []).append(i)
        for key, sub in groups.items():
            col = cols[key]
            if not depth:      # F(empty) = 1 and G(empty, v) = 1
                todo.append(({1 << v: col[v] for v in range(ell)}, 1, sub))
                continue
            nxt = {}
            for s, fs in layer.items():
                g = gtab[s]
                for v in range(ell):
                    if s >> v & 1:
                        continue
                    term = fs * col[v]
                    if g is not None:
                        term = term * g[v]
                    if mod:
                        term %= mod
                    sv = s | 1 << v
                    nxt[sv] = nxt[sv] + term if sv in nxt else term
            todo.append((nxt, depth + 1, sub))
    return out if den is None else [scalar_of(mod, x, den) for x in out]


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

def multiplicity_prefactor(mults, params):
    """prod_m prod_{s=2}^{w_m} phi(eta)/phi(eta^s) of a multiplicity vector,
    memoized on params."""
    def make():
        out = params.one
        for w in mults:
            for s in range(2, w + 1):
                out = out * params.phi(params.eta) / params.phi(params.eta ** s)
        return out
    return params.memo(("prefactor", mults), make)


def weight_pair_table(t, params, primed=False):
    """The pair factors phi(eta t_a/t_b)/phi(t_a/t_b) (primed) or
    phi(eta t_b/t_a)/phi(t_b/t_a) for t_a placed before t_b;
    (t_a - eta t_b)/(t_a - t_b) for 1 - z."""
    eta, phi = params.eta, params.phi
    if primed:
        return pair_table(t, lambda ta, tb: phi(eta * ta / tb) / phi(ta / tb))
    return pair_table(t, lambda ta, tb: phi(eta * tb / ta) / phi(tb / ta))


def weights(parts, t, params, primed=False):
    """[the multiplicity prefactor times the sum over S_ell of the single
    factors params.column(u, part, shift, primed) at each position a and
    the pair factors, for lam in parts] at the point t, with shift =
    params.column_shift(a, ell): P (or P') on `PolyParams`, the theta
    weights Xi (or Xi') on `elliptic.EllParams`."""
    t = tuple(t)
    # lists, not tuple(generator): CPython builds such a tuple by resizing
    # it, and the resized tuples pile up in its tuple free lists (peak RSS
    # of the poly benchmark crept up about 0.4 MB over 12 passes)
    seqs = [[(params.column_shift(a, lam.ell), part)
             for a, part in enumerate(lam.entries, start=1)] for lam in parts]
    cols = {key: [params.column(u, key[1], key[0], primed) for u in t]
            for key in dict.fromkeys(key for seq in seqs for key in seq)}
    sums = symmetrize(seqs, cols, weight_pair_table(t, params, primed), params.one)
    return [multiplicity_prefactor(lam.multiplicities(), params) * total
            for lam, total in zip(parts, sums)]


def weight(lam, t, params, primed=False):
    """P (or P') of one partition at an explicit point."""
    return weights([lam], t, params, primed)[0]


def symmetric_products(seqs, column, one, den=None):
    """[(1/prod_k mult_k!) sum_sigma prod_a column(seq[a])[sigma_a] for seq
    in seqs]: symmetrized products of one column per key, keys may repeat,
    each distinct key's column built once."""
    cols = {key: column(key) for key in dict.fromkeys(key for seq in seqs for key in seq)}
    return [total / math.prod(map(math.factorial, Counter(seq).values()))
            for seq, total in zip(seqs, symmetrize(seqs, cols, None, one, den))]


def monomials(seqs, t, one):
    """[(1/prod_k mult_k!) sum_sigma t_{sigma_1}^{e_1} ... for e in seqs];
    exponents may repeat and be zero.  The columns are integers at once:
    t_v = a_v/b_v gives t_v^e = a_v^e b_v^(E-e) / b_v^E over QQ, with E the
    largest exponent, and pow(a_v, e, p) over GF(p)."""
    fld = field_of(one)
    mod, ts = modulus(fld), [fld.of(u) for u in t]
    if mod:
        return symmetric_products(seqs, lambda e: [pow(u.value, e, mod) for u in ts], one, 1)
    top = max((e for seq in seqs for e in seq), default=0)
    return symmetric_products(
        seqs, lambda e: [u.numerator ** e * u.denominator ** (top - e) for u in ts],
        one, math.prod(u.denominator ** top for u in ts))


def monomial_symmetric(exponents, t, one, zero):
    """One exponent tuple's value in `monomials` (`zero` is not needed)."""
    return monomials([tuple(exponents)], t, one)[0]


def q_monomials(parts, t, params):
    """[Q_lam(t) for lam in parts]."""
    return monomials([lam.entries for lam in parts], t, params.one)


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
    cols = {"low": [u - one for u in t], "high": [u - eta ** (ell - 1) for u in t]}
    seqs = [("low",) * k + ("high",) * (ell - k) for k in range(ell + 1)]
    total = zero
    for k, inner in enumerate(symmetrize(seqs, cols, pair, one)):
        pref = one
        for s in range(k):
            pref = pref * (eta ** ell - eta ** s) / (one - eta ** (s + 1))
        if mutate and k == 1:
            pref = pref * 2
        total = total + pref * inner
    return total


def window_value(params, t, i, j, coeff, mutate=False):
    """sum over the window [i, j] of coeff(lam, i, j, params) times lam's
    weight at t; shared by both window identities."""
    lams = enumerate_window(params.ell, i, j, params.n)
    coeffs = [coeff(lam, i, j, params) for lam in lams]
    if mutate and coeffs:
        coeffs[0] = coeffs[0] * 2
    total = params.zero
    for c, w in zip(coeffs, weights(lams, t, params)):
        total = total + c * w
    return total


def id2_value(params, t, j, mutate=False):
    """sum over all partitions of P'(x |> kappa) * N * P at the point t."""
    parts = enumerate_partitions(params.ell, params.n)
    kap_pt = x_point(kappa(params.ell, j, params.n), params)
    total = params.field.zero
    for idx, (lam, wp, w) in enumerate(zip(parts, weights(parts, kap_pt.coords, params, True),
                                           weights(parts, t, params))):
        coeff = wp * norm_n(lam, params)
        if mutate and idx == 0:
            coeff = coeff * 2
        total = total + coeff * w
    return total


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def verify_jing(cfg):
    fld = cfg.scalar_field()

    def trial(sampler):
        eta = sampler.draw((eta_constraint(fld.one, cfg.ell),), "eta")
        t = sample_t(sampler, cfg.ell)
        val = jing_value(eta, t, fld.one, fld.zero, mutate=cfg.mutate)
        return scalar_str(val), val == fld.zero, []

    return run_trials(cfg, ["eta^s != 1 for s = 1..ell", "t pairwise distinct"], trial)


def verify_id(cfg):
    """Driver for both window identities (check name id1 or id2)."""
    fld = cfg.scalar_field()
    constrain = None if cfg.no_constraint else (cfg.i, cfg.j)

    def trial(sampler):
        params = sample_poly_params(sampler, cfg.ell, cfg.n, constrain)
        t = sample_t(sampler, cfg.ell)
        if cfg.check == "id1":
            val = window_value(params, t, cfg.i, cfg.j, c_coeff, cfg.mutate)
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
