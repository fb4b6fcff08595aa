"""Truncated highest-weight modules for the quantum algebra, evaluation
operators, the coproduct action on tensor products, and the checks tying
the operator calculus to the combinatorial weight functions: the exchange
relation, the string expansions, and the singular-vector statements.

The highest-weight parameter enters only through s = q^Lambda, kept as a
free scalar, so every exponent q^(a*Lambda + b) is written s^a q^b and the
ground field stays rational.

An operator entry acts on a tensor vector by one transfer-matrix sweep over
the slots (`tensor_entry`), not by a walk over each of the 2^(n-1) index
chains.  The tensor vectors and the depth tables of the `Module` objects
that `modules_of` builds once per trial are fraction-free (`tensors`), so
a sweep multiplies integers only and field scalars appear only at the
report boundary.  The submodule sweep of `singular` applies its lowering
string once per distinct basis key and combines the images by linearity
(`apply_string_by_basis`).

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
from .exactnum import ints_over_den
from .partitions import enumerate_partitions
from .polyweights import PolyParams, weight
from .reporting import run_trials
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
    swept and the old ones after.  Slot m moves c to d by the slot action
    (c, d), and the last slot is forced to d = j.  Paths that meet in a
    state are summed there.  With w = u/z = wn/wd (no gcd), every chain
    takes one value over M wd from each slot, so all of them share the
    denominator den(vec) * prod_m M_m wd_m and the sweep multiplies
    integers only.  Over GF(p) the slot values are residues and the sums
    are reduced once, at the end: n slots grow them to about n+1 times
    the bits of p, which costs less than a pass per slot.  Zero sums are
    kept to the end: every key a chain reaches goes through the cap check,
    as in the literal chain sum, before one gcd normalizes."""
    n = vec.nslots
    if len(modules) != n:
        raise UsageError("module list does not match slot count")
    if i not in (1, 2) or j not in (1, 2):
        raise UsageError("operator entry (%r, %r) out of range" % (i, j))
    (un,), ud = ints_over_den(vec.field, [u])
    p = vec.mod
    den = vec.den
    states = {i: vec.num}
    for slot, mod in enumerate(modules):
        if mod.q is not q and mod.q != q:
            raise UsageError("module tables were built for another q")
        if mod.mod != p:
            raise UsageError("module tables were built for another field")
        zn, zd = mod.zinv
        wn, wd = un * zn, ud * zd
        if p:
            wn %= p
        table = mod.table(vec.cap)
        den *= table[2] * wd
        memo = {}
        targets = (j,) if slot == n - 1 else (1, 2)
        new = {d: {} for d in targets}
        for c, part in states.items():
            for d in targets:
                dest = new[d]
                for key, coeff in part.items():
                    k = key[slot]
                    steps = memo.get((c, d, k))
                    if steps is None:
                        steps = memo[c, d, k] = mod.action(c, d, k, table, wn, wd,
                                                           mutate)
                    for k2, c2 in steps:
                        nk = key[:slot] + (k2,) + key[slot + 1:]
                        prev = dest.get(nk)
                        dest[nk] = coeff * c2 if prev is None else prev + coeff * c2
        states = new
    for key in states[j]:
        vec.check_key(key)
    return vec.with_ints(states[j], den)


def apply_string(vec, entries, modules, q, mutate=False):
    """Apply a product of operator entries; the rightmost acts first."""
    for i, j, u in reversed(entries):
        vec = tensor_entry(vec, i, j, u, modules, q, mutate=mutate)
    return vec


def apply_string_by_basis(vectors, entries, modules, q, mutate=False):
    """Yield `apply_string` of each of `vectors` in turn, by linearity: the
    string acts once on each distinct basis key (per cap pair), and each
    output is the same combination of those images as its vector is of the
    keys, summed over the lcm of the images' denominators."""
    images = {}
    for vec in vectors:
        parts = []
        for key, x in vec.num.items():
            ident = (vec.cap, vec.total_cap, key)
            image = images.get(ident)
            if image is None:
                basis = TensorVector(vec.field, vec.nslots, vec.cap, vec.total_cap,
                                     {key: vec.field.one})
                image = images[ident] = apply_string(basis, entries, modules, q,
                                                    mutate=mutate)
            parts.append((x, image))
        den = math.lcm(*(image.den for _, image in parts))
        acc = {}
        for x, image in parts:
            scale = x * (den // image.den)
            for k2, c2 in image.num.items():
                prev = acc.get(k2)
                acc[k2] = scale * c2 if prev is None else prev + scale * c2
        yield vec.with_ints(acc, vec.den * den)


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

    def apply_l(self, side, u, modules, q):
        """L_side(u): the operator entry (i, j) maps auxiliary index j to i
        in factor `side` (1 or 2) of each key, the other factor kept."""
        out = AuxVector(self.field)
        for ab, w in self.data.items():
            for i in (1, 2):
                key = (i, ab[1]) if side == 1 else (ab[0], i)
                out.add(key, tensor_entry(w, i, ab[side - 1], u, modules, q))
        return out

    def apply_r(self, v, q, mutate=False):
        ent = rmatrix_entries(v, q, mutate=mutate)
        out = AuxVector(self.field)
        for (a, b), w in self.data.items():
            for (i, k), c in ent[(a, b)]:
                out.add((i, k), w.scaled(c))
        return out

    def residual(self, other):
        keys = set(self.data) | set(other.data)
        out = []
        for ab in sorted(keys):
            sv = self.data.get(ab)
            ov = other.data.get(ab)
            if sv is None:
                sv = ov.copy_empty()
            if ov is None:
                ov = sv.copy_empty()
            diff = sv - ov
            if not diff.is_zero():
                out.extend("%r %s" % (ab, line) for line in diff.fmt())
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
    for lam in enumerate_partitions(ell, wp.n):
        mults = lam.multiplicities()
        coeff = pref * weight(lam, t, pp)
        for j in range(wp.n):
            for k in range(j + 1, wp.n):
                coeff = coeff * wp.s[j] ** mults[k] * wp.s[k] ** (-mults[j]) \
                    * wp.q ** (-mults[j] * mults[k])
        out.add_term(tuple(mults), coeff)
    return out


def kbi_lowering_rhs(wp, pp, lam, t, mutate=False):
    """The coefficient of the generating vector produced by the lowering
    string on a depth vector F^w.  Carries the empirical (-1)^ell relative
    to the bare product form; the raising expansion pins the operator sign
    convention, and with it the lowering side must include this sign (the
    ell = 1 cases already show it); pp = param_map(wp, lam.ell)."""
    ell = lam.ell
    fld = wp.field
    mults = lam.multiplicities()
    q = wp.q
    coeff = (-fld.one) ** ell * weight(lam, t, pp, primed=True)
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
# drivers
# ---------------------------------------------------------------------------

def verify_rll(cfg):
    """R(u/z) L1(u) L2(z) == L2(z) L1(u) R(u/z) on a tensor product of
    evaluation modules, checked on every basis vector up to depth 2."""
    fld = cfg.scalar_field()
    depth = 2
    nfac = cfg.n

    def trial(sampler):
        wp = sample_weight_params(sampler, nfac)
        u = sampler.draw((), "u")
        zarg = sampler.draw((lambda v: v != u,), "z")
        mods = modules_of(wp)
        cap = depth + 3
        residuals = []
        keys = [k for k in iproduct(range(depth + 1), repeat=nfac) if sum(k) <= depth]
        for ab in iproduct((1, 2), repeat=2):
            for key in keys:
                w = TensorVector(fld, nfac, cap, cap * nfac, {key: fld.one})
                start = AuxVector(fld, {tuple(ab): w})
                lhs = start.apply_l(2, zarg, mods, wp.q).apply_l(1, u, mods, wp.q) \
                    .apply_r(u / zarg, wp.q, mutate=cfg.mutate)
                rhs = start.apply_r(u / zarg, wp.q).apply_l(1, u, mods, wp.q) \
                    .apply_l(2, zarg, mods, wp.q)
                residuals.extend("%r %s" % (key, line) for line in lhs.residual(rhs))
        return residuals, not residuals, []

    return run_trials(cfg, ["q^2 != 1", "s, z nonzero", "u != z"], trial)


def verify_kbi(cfg):
    """Both string expansions against the operator computation: the raising
    string on the generating vector and the lowering string on every depth
    vector F^w."""
    fld = cfg.scalar_field()

    def trial(sampler):
        wp = sample_weight_params(sampler, cfg.n)
        t = tuple(sampler.draw_distinct(cfg.ell, (), "t"))
        mods = modules_of(wp)
        cap = cfg.ell + 2
        residuals = []
        v0 = TensorVector.generating(fld, wp.n, cap, cap)
        lhs = apply_string(v0, [(1, 2, ta) for ta in t], mods, wp.q)
        pp = param_map(wp, cfg.ell)
        rhs = kbi_raising_rhs(wp, pp, t, mutate=cfg.mutate)
        residuals.extend("raising " + line for line in (lhs - rhs).fmt())
        for lam in enumerate_partitions(cfg.ell, wp.n):
            start = TensorVector(fld, wp.n, cap, cap,
                                 {tuple(lam.multiplicities()): fld.one})
            low = apply_string(start, [(2, 1, ta) for ta in t], mods, wp.q)
            expect = v0.scaled(kbi_lowering_rhs(wp, pp, lam, t, mutate=cfg.mutate))
            residuals.extend("lowering %r %s" % (lam.entries, line)
                             for line in (low - expect).fmt())
        return residuals, not residuals, []

    return run_trials(
        cfg, ["q^2 != 1", "s, z nonzero", "t pairwise distinct"], trial,
        notes=["lowering-string prefactor carries (-1)^ell relative to the bare "
               "product form, as required by the operator sign convention that "
               "the raising expansion fixes"])


def bc_strings(cfg, wp):
    szj = wp.s[cfg.j - 1] ** 2 * wp.z[cfg.j - 1]
    return [(szj * wp.q ** (-2 * s)) for s in range(cfg.ell + 1)]


def verify_bc(cfg):
    """bc1: the lowering string of ell+1 special arguments annihilates the
    raising string of ell sampled arguments on the generating vector of the
    forward product.  bc2: ell sampled lowering arguments annihilate the
    raising string of ell+1 special arguments on the reversed product."""
    fld = cfg.scalar_field()

    def trial(sampler):
        wp = sample_weight_params(sampler, cfg.n)
        if not cfg.no_constraint:
            wp = impose_resonance(wp, cfg.i, cfg.j, cfg.ell)
        t = tuple(sampler.draw_distinct(cfg.ell, (), "t"))
        args = bc_strings(cfg, wp)
        if cfg.check == "bc1":
            mods = modules_of(wp)
            entries = [(2, 1, u) for u in args] + [(1, 2, ta) for ta in t]
        else:
            mods = modules_of(wp, reverse=True)
            entries = [(2, 1, ta) for ta in t] + [(1, 2, u) for u in args]
        cap, total_cap = mutated_caps(cfg.ell + 2, cfg.ell + 2, wp.n,
                                      len(entries) if cfg.mutate else 0)
        vec = TensorVector.generating(fld, wp.n, cap, total_cap)
        out = apply_string(vec, entries, mods, wp.q, mutate=cfg.mutate)
        return out.fmt(), out.is_zero(), []

    notes = []
    if cfg.check == "bc1":
        notes.append(
            "bc1 as stated vanishes by depth grading alone (ell+1 lowering "
            "steps against ell raising steps): the resonance is not needed "
            "for this composite; the resonance-sensitive content lives in "
            "the singular-vector and submodule-annihilation checks")
    desc = ["q^2 != 1", "s, z nonzero", "t pairwise distinct",
            "resonance lifted (negative control)" if cfg.no_constraint
            else "imposed z_i = s_i^2 s_j^2 q^(-2 ell) z_j"]
    return run_trials(cfg, desc, trial, notes=notes)


# Under a mutation the submodule sweep of `singular` leaves thousands of
# nonzero images, each line a large exact rational; a report lists this many
# residual lines and counts the rest.
MAX_LISTED_RESIDUALS = 200


def verify_singular(cfg):
    """The raising string of ell+1 special arguments on the reversed product
    is singular: every lowering entry kills it, checked at n+ell+2 sampled
    arguments; additionally the ell+1-fold lowering string annihilates a
    word-generated spanning set of the forward submodule."""
    fld = cfg.scalar_field()
    word_len = cfg.word_len if cfg.word_len else cfg.ell + 1

    def trial(sampler):
        wp = sample_weight_params(sampler, cfg.n)
        if not cfg.no_constraint:
            wp = impose_resonance(wp, cfg.i, cfg.j, cfg.ell)
        args = bc_strings(cfg, wp)
        residuals = []
        unlisted = 0

        def record(prefix, out):
            nonlocal unlisted
            lines = out.fmt(limit=max(0, MAX_LISTED_RESIDUALS - len(residuals)))
            residuals.extend(prefix + line for line in lines)
            unlisted += len(out.num) - len(lines)

        # (b) the singular vector
        cap, total_cap = mutated_caps(cfg.ell + 3, cfg.ell + 3, wp.n,
                                      1 if cfg.mutate else 0)
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
        wcap, total_cap = mutated_caps(wcap, wcap * wp.n, wp.n,
                                       len(lower) if cfg.mutate else 0)
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
        for idx, out in enumerate(apply_string_by_basis(spanning, lower, mods, wp.q,
                                                        mutate=cfg.mutate)):
            record("word#%d " % idx, out)
        if unlisted:
            residuals.append("%d further nonzero residuals not listed" % unlisted)
        return residuals, not residuals, ["spanning set size %d" % len(spanning)]

    desc = ["q^2 != 1", "s, z nonzero",
            "resonance lifted (negative control)" if cfg.no_constraint
            else "imposed z_i = s_i^2 s_j^2 q^(-2 ell) z_j"]
    return run_trials(cfg, desc, trial,
                      notes=["word-bounded spanning set stands in for the full "
                             "submodule; words of length ell+1 carry the "
                             "resonance-sensitive content"])
