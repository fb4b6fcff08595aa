"""Truncated highest-weight modules for the quantum algebra, evaluation
operators, the coproduct action on tensor products, and the checks tying
the operator calculus to the combinatorial weight functions: the exchange
relation, the string expansions, and the singular-vector statements.

The highest-weight parameter enters only through s = q^Lambda, kept as a
free scalar, so every exponent q^(a*Lambda + b) is written s^a q^b and the
ground field stays rational.

An operator entry acts on a tensor vector by one transfer-matrix sweep over
the slots (`tensor_entry`), not by a walk over each of the 2^(n-1) index
chains: at each slot one pass over each chain state keeps a key or moves
it one depth up or down.  The tensor vectors and the `Module` depth tables
are fraction-free (`tensors`), so a sweep multiplies integers only.  The L
entries of `rll` and the lowering string of `singular` go through
`apply_by_basis`, which combines per-trial images of the basis keys, and
`rll` builds its R-matrix entries once per trial.

The check values return residual tensor vectors, bare or labelled, for
`reporting` to write, and `singular` a finished trial with a capped
listing.  Each value draws its arguments after the row's sampler has drawn
the weight parameters (`resonance` imposes or lifts the resonance).

Depth caps are hard errors: in-contract computations provably stay below
them, so an overflow is a bug.  The mutated lowering operator of the
negative controls keeps a depth where the true one lowers it, so a mutated
run making M mutated applications on n slots widens the caps by M per slot
and by M * ceil(n/2) in total (`mutated_caps`); in-contract caps are
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as iproduct

from .errors import UsageError
from .exactnum import num_den
from .partitions import enumerate_partitions
from .polyweights import PolyParams, sample_t, weights
# uncalled here: benchmarks/test_benchmark.py checks that the tracer rebinds
# the one-partition `weight` in this module
from .polyweights import weight  # noqa: F401
from .tensors import Module, TensorVector


@dataclass(frozen=True)
class WeightParams:
    """q, the highest-weight scalars s_m = q^(Lambda_m), and the evaluation
    points z_m; q is sampled away from 0 and +-1 so no q-integer vanishes."""
    q: object
    s: tuple
    z: tuple
    field: object

    @property
    def n(self):
        return len(self.s)


def sample_weight_params(sampler, n):
    fld = sampler.field
    q = sampler.draw((lambda v: v * v != fld.one,), "q")
    s = tuple(sampler.draw_distinct(n, (), "s"))
    z = tuple(sampler.draw_distinct(n, (), "z"))
    return WeightParams(q, s, z, fld)


def impose_resonance(wp, i, j, ell):
    """z_i := s_i^2 s_j^2 q^(-2 ell) z_j, the locus where the singular
    vector appears.  Under the parameter map this is x_j = eta^ell y_i."""
    z = list(wp.z)
    z[i - 1] = wp.s[i - 1] ** 2 * wp.s[j - 1] ** 2 * wp.q ** (-2 * ell) * wp.z[j - 1]
    return WeightParams(wp.q, wp.s, tuple(z), wp.field)


def param_map(wp, ell):
    """eta = q^2, x_m = s_m^2 z_m, y_m = s_m^(-2) z_m."""
    x = tuple(s * s * z for s, z in zip(wp.s, wp.z))
    y = tuple(z / (s * s) for s, z in zip(wp.s, wp.z))
    return PolyParams(x, y, wp.q ** 2, ell, wp.n, wp.field)


def gamma(k, s, q):
    """E F^k v = gamma_k F^(k-1) v, derived recursively from the commutator
    [E, F] = (q^(2H) - q^(-2H))/(q - q^(-1)).  The operators read gamma_k
    from the `Module` depth tables; this direct sum is their reference."""
    out = 0 * q
    for r in range(k):
        out = out + (s * s * q ** (-2 * r) - q ** (2 * r) / (s * s)) / (q - 1 / q)
    return out


def tensor_entry(vec, i, j, u, modules, q, mutate=False):
    """Apply the (i, j) entry of the coproduct-extended operator at
    argument u: the sum over all index chains i = k_0, ..., k_n = j of the
    per-slot entry products.

    The chain sum is a transfer-matrix contraction: one sweep over the
    slots carries, per chain index c in {1, 2}, a sparse map from keys to
    integer numerators; the keys hold the new depths in the slots already
    swept and the old ones after.  At each slot one loop per state applies
    the `Module` table: state 1 keeps a key by (1,1) and raises it into
    state 2 by (1,2), state 2 keeps it by (2,2) and lowers it into state 1
    by (2,1).  A diagonal value is computed once per depth met, each new
    map holds its kept keys first, and the last slot feeds state j only.
    With w = u/z = wn/wd (no gcd), every chain takes one value over M wd
    from each slot, so all share the denominator den(vec) * prod_m M_m wd_m.
    Over GF(p) wd = M = 1, and the sums, about n+1 times the bits of p, are
    reduced once at the end, which costs less than a pass per slot.  Zero
    sums are kept to the end: every key a chain reaches goes through the
    cap check, as in the literal chain sum, before one gcd normalizes."""
    n = vec.nslots
    if len(modules) != n:
        raise UsageError("module list does not match slot count")
    if i not in (1, 2) or j not in (1, 2):
        raise UsageError("operator entry (%r, %r) out of range" % (i, j))
    p = vec.mod
    un, ud = num_den(p, u)
    den = vec.den
    one, two = (vec.num, {}) if i == 1 else ({}, vec.num)
    for slot, mod in enumerate(modules):
        if mod.q is not q and mod.q != q:
            raise UsageError("module tables were built for another q")
        if mod.mod != p:
            raise UsageError("module tables were built for another field")
        zn, zd = mod.zinv
        wn, wd = un * zn, ud * zd
        if p:
            wn %= p
        rows, qq, m = mod.table(vec.cap)
        den *= m * wd
        to1, to2 = (j == 1, j == 2) if slot == n - 1 else (True, True)
        new1, new2, raised = {}, {}, []
        diag1, diag2 = [None] * len(rows), [None] * len(rows)
        # (1,1): B_k wd - A_k wn; raise (1,2): -qq wn, one depth up
        up = -qq * wn % p if p else -qq * wn
        for key, x in one.items():
            k = key[slot]
            if to1:
                v = diag1[k]
                if v is None:
                    a, b, _ = rows[k]
                    v = diag1[k] = (b * wd - a * wn) % p if p else b * wd - a * wn
                new1[key] = x * v
            if to2:
                raised.append((key[:slot] + (k + 1,) + key[slot + 1:], x * up))
        # (2,2): A_k wd - B_k wn; lower (2,1): L_k wd, one depth down; the
        # mutated operator of the negative controls adds M wd at the same depth
        for key, x in two.items():
            k = key[slot]
            if to2:
                v = diag2[k]
                if v is None:
                    a, b, _ = rows[k]
                    v = diag2[k] = (a * wd - b * wn) % p if p else a * wd - b * wn
                new2[key] = x * v
            if to1:
                if k:
                    nk = key[:slot] + (k - 1,) + key[slot + 1:]
                    new1[nk] = new1.get(nk, 0) + x * rows[k][2] * wd
                if mutate:
                    new1[key] = new1.get(key, 0) + x * m * wd
        for nk, x in raised:
            new2[nk] = new2.get(nk, 0) + x
        one, two = new1, new2
    out = one if j == 1 else two
    for key in out:
        vec.check_key(key)
    return vec.with_ints(out, den)


def apply_string(vec, entries, modules, q, mutate=False):
    """Apply a product of operator entries; the rightmost acts first."""
    for i, j, u in reversed(entries):
        vec = tensor_entry(vec, i, j, u, modules, q, mutate=mutate)
    return vec


def apply_by_basis(vec, entries, modules, q, images, mutate=False):
    """`apply_string` of `vec` by linearity, over the lcm of the images'
    denominators.  `images`, the caller's dict for one trial and string,
    maps (cap, total_cap, basis key) to the image of that key, so each key
    is swept once however many vectors hold it.  A one-key vector scales
    its image; a zero vector sweeps none."""
    parts = []
    for key, x in vec.num.items():
        ident = (vec.cap, vec.total_cap, key)
        image = images.get(ident)
        if image is None:
            basis = vec.copy_empty()
            basis.num = {key: 1}
            image = images[ident] = apply_string(basis, entries, modules, q,
                                                 mutate=mutate)
        parts.append((x, image))
    if len(parts) == 1:
        (x, image), = parts
        return vec.with_ints({k: x * c for k, c in image.num.items()}, vec.den * image.den)
    den = math.lcm(*(image.den for _, image in parts))
    acc = {}
    for x, image in parts:
        scale = x * (den // image.den)
        for k2, c2 in image.num.items():
            acc[k2] = acc.get(k2, 0) + scale * c2
    return vec.with_ints(acc, vec.den * den)


def mutated_caps(cap, total_cap, nslots, applications):
    """Depth caps for a run whose strings make `applications` mutated
    operator applications.  The mutated lowering entry keeps the depth of a
    slot where the true one lowers it by one, so each mutated application
    raises every slot by at most one and the total depth by at most
    ceil(n/2) (the most 2 -> 1 steps an index chain over n slots can take)
    beyond the in-contract entry.  The caps widen by exactly that."""
    return cap + applications, total_cap + applications * ((nslots + 1) // 2)


def modules_of(wp, reverse=False):
    mods = tuple(Module(s, z, wp.q) for s, z in zip(wp.s, wp.z))
    return tuple(reversed(mods)) if reverse else mods


# ---------------------------------------------------------------------------
# exchange relation
# ---------------------------------------------------------------------------

def rmatrix_entries(v, q, mutate=False):
    """Action of R(v) on the auxiliary basis e_a (x) e_b: a dict mapping
    (a, b) to the list of ((i, k), coefficient) it produces."""
    qbar = 1 / q
    c21 = (q - qbar) * (2 if mutate else 1)
    return {
        (1, 1): [((1, 1), v * q - qbar)],
        (2, 2): [((2, 2), v * q - qbar)],
        (1, 2): [((1, 2), v - 1), ((2, 1), c21)],
        (2, 1): [((2, 1), v - 1), ((1, 2), v * (q - qbar))],
    }


class AuxVector:
    """A vector in (C^2 tensor C^2) tensor (quantum space)."""

    def __init__(self, fld, data=None):
        self.field = fld
        self.data = dict(data or {})

    def add(self, ab, tv):
        cur = self.data.get(ab)
        self.data[ab] = tv if cur is None else cur + tv

    def apply_l(self, side, u, modules, q, tables):
        """L_side(u): the operator entry (i, j) maps auxiliary index j to i
        in factor `side` (1 or 2) of each key, the other factor kept.
        `tables` maps (side, i, j) to an `apply_by_basis` image table, so
        it must serve one argument u per side."""
        out = AuxVector(self.field)
        for ab, w in self.data.items():
            j = ab[side - 1]
            for i in (1, 2):
                key = (i, ab[1]) if side == 1 else (ab[0], i)
                images = tables.setdefault((side, i, j), {})
                out.add(key, apply_by_basis(w, [(i, j, u)], modules, q, images))
        return out

    def apply_r(self, ent):
        """R(v) by its entries `rmatrix_entries(v, q)`, built once per trial."""
        out = AuxVector(self.field)
        for (a, b), w in self.data.items():
            for (i, k), c in ent[(a, b)]:
                out.add((i, k), w.scaled(c))
        return out

    def residual(self, other):
        """(repr(ab), self - other at ab) for each auxiliary key ab that
        either vector holds."""
        out = []
        for ab in sorted(set(self.data) | set(other.data)):
            sv, ov = self.data.get(ab), other.data.get(ab)
            out.append((repr(ab), (sv or ov.copy_empty()) - (ov or sv.copy_empty())))
        return out


# ---------------------------------------------------------------------------
# string expansions
# ---------------------------------------------------------------------------

def kbi_raising_rhs(wp, pp, t, mutate=False):
    """The partition expansion of the raising string applied to the
    generating vector; pp = param_map(wp, ell)."""
    fld, ell = wp.field, pp.ell
    pref = (wp.q - 1 / wp.q) ** ell
    for z in wp.z:
        pref = pref * (-z) ** (-ell)
    if mutate:
        pref = pref * 2
    cap = ell + 2
    out = TensorVector(fld, wp.n, cap, cap)
    parts = enumerate_partitions(ell, wp.n)
    for lam, w in zip(parts, weights(parts, t, pp)):
        mults = lam.multiplicities()
        coeff = pref * w
        for j in range(wp.n):
            for k in range(j + 1, wp.n):
                coeff = coeff * wp.s[j] ** mults[k] * wp.s[k] ** (-mults[j]) \
                    * wp.q ** (-mults[j] * mults[k])
        out.add_term(tuple(mults), coeff)
    return out


def kbi_lowering_rhs(wp, lam, primed_weight, mutate=False):
    """The coefficient of the generating vector produced by the lowering
    string on a depth vector F^w, given P'_lam(t) for pp =
    param_map(wp, lam.ell).  Carries the empirical (-1)^ell relative to the
    bare product form; the raising expansion pins the operator sign
    convention, and with it the lowering side must include this sign (the
    ell = 1 cases already show it)."""
    ell = lam.ell
    fld = wp.field
    mults = lam.multiplicities()
    q = wp.q
    coeff = (-fld.one) ** ell * primed_weight
    if mutate:
        coeff = coeff * 2
    for m in range(wp.n):
        coeff = coeff * (-wp.z[m]) ** (mults[m] - ell)
        s = wp.s[m]
        for r in range(1, mults[m] + 1):
            coeff = coeff * (q ** r - q ** (-r)) * (s * s * q ** (1 - r) - q ** (r - 1) / (s * s)) / (q - 1 / q)
    for j in range(wp.n):
        for k in range(j + 1, wp.n):
            coeff = coeff * wp.s[k] ** mults[j] * wp.s[j] ** (-mults[k]) \
                * wp.q ** (-mults[j] * mults[k])
    return coeff


# ---------------------------------------------------------------------------
# check values: value(cfg, wp, sampler), and the resonance sampler
# ---------------------------------------------------------------------------

def rll_residual(cfg, wp, sampler):
    """R(u/z) L1(u) L2(z) - L2(z) L1(u) R(u/z) at fresh u != z on a tensor
    product of evaluation modules, on every basis vector up to depth 2:
    one ("key ab", vector) entry per basis key and auxiliary key."""
    fld, depth = wp.field, 2
    u = sampler.draw((), "u")
    zarg = sampler.draw((lambda v: v != u,), "z")
    mods = modules_of(wp)
    cap = depth + 3
    keys = [k for k in iproduct(range(depth + 1), repeat=wp.n) if sum(k) <= depth]
    tables = {}
    rmat = rmatrix_entries(u / zarg, wp.q)
    rmat_lhs = rmatrix_entries(u / zarg, wp.q, mutate=cfg.mutate)
    entries = []
    for ab in iproduct((1, 2), repeat=2):
        for key in keys:
            w = TensorVector(fld, wp.n, cap, cap * wp.n, {key: fld.one})
            start = AuxVector(fld, {tuple(ab): w})
            lhs = start.apply_l(2, zarg, mods, wp.q, tables) \
                .apply_l(1, u, mods, wp.q, tables).apply_r(rmat_lhs)
            rhs = start.apply_r(rmat).apply_l(1, u, mods, wp.q, tables) \
                .apply_l(2, zarg, mods, wp.q, tables)
            entries.extend(("%r %s" % (key, label), vec) for label, vec in lhs.residual(rhs))
    return entries


def kbi_residual(cfg, wp, sampler):
    """Both string expansions against the operator computation at fresh t:
    the "raising" entry for the raising string on the generating vector,
    and a "lowering lam" entry for the lowering string on each depth
    vector F^w."""
    fld = wp.field
    t = sample_t(sampler, cfg.ell)
    mods = modules_of(wp)
    cap = cfg.ell + 2
    v0 = TensorVector.generating(fld, wp.n, cap, cap)
    lhs = apply_string(v0, [(1, 2, ta) for ta in t], mods, wp.q)
    pp = param_map(wp, cfg.ell)
    entries = [("raising", lhs - kbi_raising_rhs(wp, pp, t, mutate=cfg.mutate))]
    parts = enumerate_partitions(cfg.ell, wp.n)
    for lam, primed in zip(parts, weights(parts, t, pp, primed=True)):
        start = TensorVector(fld, wp.n, cap, cap, {tuple(lam.multiplicities()): fld.one})
        low = apply_string(start, [(2, 1, ta) for ta in t], mods, wp.q)
        expect = v0.scaled(kbi_lowering_rhs(wp, lam, primed, mutate=cfg.mutate))
        entries.append(("lowering %r" % (lam.entries,), low - expect))
    return entries


def resonance(sampler, cfg):
    """The weight parameters with the resonance imposed, or lifted under
    --no-constraint (the negative control)."""
    wp = sample_weight_params(sampler, cfg.n)
    return wp if cfg.no_constraint else impose_resonance(wp, cfg.i, cfg.j, cfg.ell)


def bc_strings(cfg, wp):
    szj = wp.s[cfg.j - 1] ** 2 * wp.z[cfg.j - 1]
    return [(szj * wp.q ** (-2 * s)) for s in range(cfg.ell + 1)]


def bc_string_value(cfg, wp, entries, mods):
    """The string `entries` applied to the generating vector, by the
    mutated operator in a mutated run."""
    cap, total_cap = mutated_caps(cfg.ell + 2, cfg.ell + 2, wp.n,
                                  len(entries) if cfg.mutate else 0)
    vec = TensorVector.generating(wp.field, wp.n, cap, total_cap)
    return apply_string(vec, entries, mods, wp.q, mutate=cfg.mutate)


def bc1_residual(cfg, wp, sampler):
    """The lowering string of ell+1 special arguments after the raising
    string of ell fresh arguments t, on the generating vector of the
    forward product."""
    t = sample_t(sampler, cfg.ell)
    entries = [(2, 1, u) for u in bc_strings(cfg, wp)] + [(1, 2, ta) for ta in t]
    return bc_string_value(cfg, wp, entries, modules_of(wp))


def bc2_residual(cfg, wp, sampler):
    """The lowering string of ell fresh arguments t after the raising
    string of ell+1 special arguments, on the generating vector of the
    reversed product."""
    t = sample_t(sampler, cfg.ell)
    entries = [(2, 1, ta) for ta in t] + [(1, 2, u) for u in bc_strings(cfg, wp)]
    return bc_string_value(cfg, wp, entries, modules_of(wp, reverse=True))


# Under a mutation the submodule sweep of `singular` leaves thousands of
# nonzero images, each line a large exact rational; a report lists this many
# residual lines and counts the rest.
MAX_LISTED_RESIDUALS = 200


def singular_trial(cfg, wp, sampler):
    """The finished trial (lines, is zero, notes) of the two singular-vector
    statements.  The raising string of ell+1 special arguments on the
    reversed product is singular: every lowering entry kills it, checked
    at n+ell+2 fresh arguments.  The ell+1-fold lowering string annihilates
    a word-generated spanning set of the forward submodule.  At most
    MAX_LISTED_RESIDUALS nonzero lines are listed, and the trial notes the
    spanning set's size."""
    fld = wp.field
    word_len = cfg.word_len or cfg.ell + 1
    args = bc_strings(cfg, wp)
    residuals = []
    unlisted = 0

    def record(prefix, out):
        nonlocal unlisted
        lines = out.fmt(limit=max(0, MAX_LISTED_RESIDUALS - len(residuals)))
        residuals.extend(prefix + line for line in lines)
        unlisted += len(out.num) - len(lines)

    # (b) the singular vector
    cap, total_cap = mutated_caps(cfg.ell + 3, cfg.ell + 3, wp.n, 1 if cfg.mutate else 0)
    mods_rev = modules_of(wp, reverse=True)
    vtil = apply_string(TensorVector.generating(fld, wp.n, cap, total_cap),
                        [(1, 2, u) for u in args], mods_rev, wp.q)
    for r in range(cfg.n + cfg.ell + 2):
        u = sampler.draw((), "u")
        out = tensor_entry(vtil, 2, 1, u, mods_rev, wp.q, mutate=cfg.mutate)
        record("singular u#%d " % r, out)
    # (a) word-bounded spanning set of the forward submodule
    mods = modules_of(wp)
    lower = [(2, 1, u) for u in args]
    wcap = max(cfg.ell + 2, word_len + 1)
    wcap, total_cap = mutated_caps(wcap, wcap * wp.n, wp.n, len(lower) if cfg.mutate else 0)
    spanning = [TensorVector.generating(fld, wp.n, wcap, total_cap)]
    frontier = list(spanning)
    for _ in range(word_len):
        new = []
        for vec in frontier:
            for (i, j) in ((1, 1), (1, 2), (2, 1), (2, 2)):
                u = sampler.draw((), "word-u")
                w = tensor_entry(vec, i, j, u, mods, wp.q)
                if not w.is_zero():
                    new.append(w)
        spanning.extend(new)
        frontier = new
    images = {}
    for idx, vec in enumerate(spanning):
        record("word#%d " % idx, apply_by_basis(vec, lower, mods, wp.q, images,
                                                mutate=cfg.mutate))
    if unlisted:
        residuals.append("%d further nonzero residuals not listed" % unlisted)
    return residuals, not residuals, ["spanning set size %d" % len(spanning)]
