"""The polynomial layer: per-variable factors X_m and X'_m, the symmetrized
weights P and P' with their eta-dependent prefactor, monomial symmetric
polynomials, biorthogonality norms, window coefficients, and the values
of the combinatorial identities built out of them.

Every sum over S_ell here (and in the elliptic layer) goes through
`symmetrize`, one call per point for all the sums wanted there: their terms
are products of position-dependent single factors and pair factors that
depend only on which of two variables comes first, so the sums are
accumulated over subsets of variables, with the pair products built once
per point and shared leading parts sharing their layers.  Sums with no pair
factors (the monomials and the theta basis products) are accumulated one
variable at a time over the sub-multisets of their keys instead, the
coefficient of prod_k y_k^(m_k) in prod_v (sum_k c_k(t_v) y_k) (Macdonald,
Symmetric Functions and Hall Polynomials, I.2), on states and moves built
once per pattern of keys.  No closed-form simplification is attempted;
the tests keep the literal permutation sums as oracles.  The weights,
norms and window sums serve both layers: the parameter object supplies
phi, the linear factor f and the constants of the weight columns, 1 - z,
u - c and the columns X_m here, theta, theta(u/c) and the columns Z_m
with their dynamical shift on `elliptic.EllParams`, and with them the
norm and the window coefficient of each partition.  As
theta(z; 0) = 1 - z, each product here has the shape of its elliptic
twin.  One routine, `point_tables`, builds the tables of a point in both
layers fraction-free (von zur Gathen & Gerhard, Modern Computer Algebra,
6) from the integer numerators of phi and of the column factors that the
parameters supply, and `PolyParams.phi_product`
the kernel products of `residues` from the same numerators, so no field
or series operation is made per factor and `symmetrize` runs both kinds
of layers on ints or on integer coefficient lists alike, and scales and
converts every sum, scalar or series, by one exit.  A check value
value(cfg, params, sampler) draws its point after the parameters and
leaves its report form to `reporting`.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from itertools import chain, repeat

from .errors import DegenerateInputError, UsageError
from .exactnum import (
    IntSeries, PrimeScalar, PSeries, field_of, modulus, num_den, primitive, product, scalar_of)
from .partitions import enumerate_partitions, enumerate_window, kappa, x_point


class PolyParams:
    """Ground parameters x_1..x_n, y_1..y_n, eta for fixed ell, n.

    eta^s != 1 for 1 <= s <= ell, so symmetrization prefactors and norms
    have nonzero denominators.  The layer's scalars `one`/`zero` are the
    field's, phi(z) = 1 - z, its linear factor u - c and its kernel
    constant prod_m (x_m y_m)^ell; the norm and the window coefficient are
    built from them.  `cleared` is (mod, x, y, eta) with the field's
    modulus and each parameter as its (numerator, denominator) pair
    (`num_den`), for the tables and kernel products built without field
    operations from the integer forms `phi_ints`, `factor_ints` and
    `degree`.  `memo` keeps values that every point shares, such as the
    multiplicity prefactors.
    """

    def __init__(self, x, y, eta, ell, n, field):
        self.x, self.y, self.eta = tuple(x), tuple(y), eta
        self.ell, self.n, self.field = ell, n, field
        self.one, self.zero = field.one, field.zero
        self._memo = {}
        mod = modulus(field)
        self.cleared = (mod, [num_den(mod, c) for c in self.x],
                        [num_den(mod, c) for c in self.y], num_den(mod, eta))

    def memo(self, key, make):
        """make(), computed once per key; keys start with a family tag."""
        out = self._memo.get(key)
        if out is None:
            out = self._memo[key] = make()
        return out

    def phi(self, z):
        return self.one - z

    # the integer forms of the tables and kernel products, which
    # `elliptic.EllParams` overrides: phi(P/Q) is N(P, Q) over
    # P^(L-1) Q^L, N the `phi_ints`, and the column factor at u = a/b and
    # c = cn/cd the `factor_ints` numerator over (a cn)^(L-1) (b cd)^L
    degree = 1

    def phi_ints(self, pairs):
        """[N(P, Q) for (P, Q) in pairs]: 1 - P/Q = (Q - P)/Q."""
        return [q - p for p, q in pairs]

    def factor_ints(self, ts, consts):
        """[[the numerator of u - c at each point u = a/b of ts] for each
        constant c = cn/cd of consts]: u - c = (a cd - cn b)/(b cd)."""
        return [[a * cd - cn * b for a, b in ts] for cn, cd in consts]

    def phi_product(self, args):
        """prod phi(P/Q) over the integer pairs (P, Q) of
        `residues.cancel_poles`: prod N(P, Q) over prod P^(L-1) Q^L, made a
        field scalar or series once.  For L > 1 (theta) each pair is first
        brought to lowest terms (residues modulo p), as a common factor g
        would enter both products as g^(2L-1)."""
        if not args:
            return self.one
        mod, last, den = self.cleared[0], self.degree, 1
        if last > 1:
            ps, qs = zip(*args)
            if mod:
                ps, qs = [p % mod for p in ps], [q % mod for q in qs]
            else:
                gs = list(map(math.gcd, ps, qs))
                ps = list(map(operator.floordiv, ps, gs))
                qs = list(map(operator.floordiv, qs, gs))
            args, den = list(zip(ps, qs)), math.prod(ps) ** (last - 1)
        den *= math.prod([q for _, q in args]) ** last
        return from_ints(self.one, mod, math.prod(self.phi_ints(args)), den)

    def factor(self, u, c):
        return u - c

    def kernel_constant(self, ell):
        """prod_m (x_m y_m)^ell, the ratio of S to its p = 0 theta form
        Omega, by which `residues.kernel_residue` divides."""
        return self.memo(("kernel_constant", ell), lambda: product(
            ((xm * ym) ** ell for xm, ym in zip(self.x, self.y)), self.one))

    def column_shift(self, a, ell):
        """The polynomial weights' single factors depend only on the part."""
        return None

    def column_constants(self, key, primed):
        """The constants c of X_m's factors u - c at the key (None, m),
        cleared: the lead u = u - 0 (none when primed), then y_j for j < m
        and x_k for k > m (x and y swapped when primed), memoized."""
        def make():
            m = key[1]
            _, xs, ys, _ = self.cleared
            if primed:
                return xs[:m - 1] + ys[m:]
            return [(0, 1)] + ys[:m - 1] + xs[m:]
        return self.memo(("column", key, primed), make)

    def weight_tables(self, keys, t, primed):
        """(cols, pair, den, key_dens) for `symmetrize` at the point t: the
        `point_tables` of the columns of the keys, each the product of the
        factors of its `column_constants` (X_m or X'_m here, Z_m or Z'_m
        with their dynamical shift on `elliptic.EllParams`), and the
        unprimed (or primed) pair factors; their `column_plan` is built
        once per key set."""
        plan = self.memo(("columns", tuple(keys), primed), lambda: column_plan(
            self, {key: self.column_constants(key, primed) for key in keys}))
        return point_tables(self, t, plan, primed)

    def norm(self, lam):
        """N = prod_m prod_{s=1}^{w_m} phi(eta^s) f(x_m, eta^(s-1) y_m)/phi(eta),
        the block products over the multiplicity prefactor."""
        mults = lam.multiplicities()
        return product((block_product(self, m, w) for m, w in enumerate(mults, start=1)),
                       self.one) / multiplicity_prefactor(mults, self)

    def window_coeff(self, lam, i, j):
        """lam's coefficient in the window [i, j]:
        (-1)^(w_i) eta^(w_j (w_j - 1)/2) times the `window_products`."""
        out = window_products(lam, i, j, self)
        wi, wj = lam.multiplicities()[i - 1], lam.multiplicities()[j - 1]
        return (-self.one) ** wi * self.eta ** (wj * (wj - 1) // 2) * out


def sample_eta(sampler, ell):
    """Draw eta with eta^s != 1 for s = 1..max(ell, 2)."""
    one, powers = sampler.field.one, range(1, max(ell, 2) + 1)
    return sampler.draw((lambda v: all(v ** s != one for s in powers),), "eta")


def sample_poly_params(sampler, ell, n, constrain=None):
    """Draw admissible parameters; `constrain=(i, j)` then overwrites
    x_j := eta^(ell-1) y_i, exactly matching the theorem hypothesis."""
    fld = sampler.field
    eta = sample_eta(sampler, ell)
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

def symmetrize(seqs, cols, pair, one, den=1, scales=None, key_dens=None):
    """[scales[i] times the sum over sigma in S_ell of prod_a
    cols[seq[a]][sigma_a] prod_{a<b} pair[sigma_a][sigma_b] for the i-th
    seq in seqs], exactly: one sum per sequence of column keys, all of one
    length ell, at one point (no scales: each sum itself).

    cols[key][v] is the factor of variable v at a position keyed `key`,
    pair[w][v] that of w placed anywhere before v (pair may be None).  Two
    kinds of layers compute the sums.

    With a pair table, the sum F(S) over the orderings of S on the first
    |S| positions obeys F(S + v) += F(S) cols[seq[|S|]][v] G(S, v), where
    G(S, v) = prod_{w in S} pair[w][v] = G(S - w0, v) pair[w0][v]
    (w0 = min S) is built once per call.  The layers follow a trie of
    sequence prefixes (`subset_plan`, built once per index pattern of the
    sequences), so sequences sharing their first k keys share layers 0..k;
    each layer is a list indexed by mask, in which every target sums its
    moves in place (modulo p reduced once).  The trie is walked one depth
    at a time: for each key that moves nodes at depth k >= 1,
    H(S, v) = cols[key][v] G(S, v) is built once, each of those nodes'
    moves is one multiply, F(S) H(S, v), and H is dropped.  So a point
    costs about ell 2^(ell-1) multiplies for G, plus, per (k-subset,
    variable outside it), C(ell, k)(ell - k) pairs in all, one multiply
    for each (key, depth k) and one for each of its nodes, in place of
    1 + k per sequence.

    With no pair table, a term depends only on which key each variable
    takes, so the layers run over the variables in order (`multiset_sums`):
    layer v holds, for each sub-multiset S of size v of the sequences' keys,
    the sum F(S) over the distinct ways to give the first v variables the
    keys of S, and F(S + k) += F(S) cols[k][v], one multiply per move.
    Layer 1 is the columns themselves.  The states and moves depend only on
    the sequences (`multiset_plan`), so at n distinct keys a point costs at
    most sum_{v=1}^{ell-1} C(n+v-1, v) n multiplies.  Each distinct
    arrangement is counted once, so each sum takes prod_k mult_k! of its
    sequence as a factor of its scale at the exit.

    The tables hold integers over one denominator `den` of every term:
    each term holds each column at v once and one of pair[w][v],
    pair[v][w], so the callers clear the columns at v over one D_v and each
    pair over one L_wv (`point_tables`, `monomials`) and pass
    den = prod_v D_v prod_{w<v} L_wv.  With a field scalar `one` they are
    ints; with a series `one` they are `IntSeries` coefficient lists, and
    den is an int or a value of the kind of `one`.  A column whose entries
    share a denominator at every v may keep it apart in key_dens[key]: each
    sum is then also divided by the key_dens along its sequence, as every
    term holds one column of each of its keys.  Both kinds of layers run on
    both alike, GF(p) terms reduced once, and every sum leaves by one
    conversion: 1/den (cleared once per call, a series by its inverse,
    modulo p by `PrimeScalar.inverse`) and each scale enter as (numerator,
    denominator) pairs (`num_den`; `one` itself as (1, 1)), and each sum
    becomes one field scalar or one series in canonical form once
    (`from_ints`).  Both kinds of layers take the keys numbered by first
    appearance, whose index pattern keys their cached plans, and ell >= 1:
    at ell = 0 each sum is the empty product and no layer runs.
    """
    ell = len(seqs[0]) if seqs else 0
    if any(len(seq) != ell for seq in seqs) or any(len(c) != ell for c in cols.values()):
        raise UsageError("the key sequences and columns at a point differ in length")
    fld = one.field if isinstance(one, PSeries) else field_of(one)
    mod = modulus(fld)
    # the keys numbered by first appearance: the plans are cached per
    # index pattern, and the columns listed by index
    index = {key: i for i, key in enumerate(dict.fromkeys(chain.from_iterable(seqs)))}
    pattern = tuple(tuple(map(index.__getitem__, seq)) for seq in seqs)
    cols = [cols[key] for key in index]
    if not ell:            # each sum is the empty product, one's numerator
        out, facts = [num_den(mod, one)[0]] * len(seqs), repeat(1)
    elif pair is None:
        out, facts = multiset_sums(pattern, cols, mod)
    else:
        out, facts = subset_sums(pattern, cols, pair, mod), repeat(1)
    extra = [math.prod(map(key_dens.__getitem__, seq)) if key_dens else 1 for seq in seqs]
    scales = [(1, 1) if c is one else num_den(mod, c) for c in scales or [one] * len(out)]
    if isinstance(den, PSeries):
        mul, div = num_den(mod, den.inverse())
    else:
        div, mul = num_den(mod, fld.of(den))
        if mod:
            mul, div = PrimeScalar(div, mod).inverse().value, 1
    # int * IntSeries scales a list, so the multipliers go left of the sum
    return [from_ints(one, mod, f * c * (mul * x), div * d * e)
            for x, f, (c, d), e in zip(out, facts, scales, extra)]


def subset_sums(pattern, cols, pair, mod):
    """The sums of `symmetrize` with a pair table for the key-index
    sequences of `pattern`, of one length ell >= 1, by the levels of
    `subset_plan` over the layers of `subset_masks`."""
    ell = len(pattern[0])
    by_count, outside = subset_masks(ell)
    full = (1 << ell) - 1
    gtab = [None] * full          # G(S, v) for S != 0 and v outside S
    for s in range(1, full):
        rest, row = s & (s - 1), pair[(s & -s).bit_length() - 1]
        g = gtab[s] = [None] * ell
        grest = gtab[rest] if rest else None
        for v in outside[s]:
            x = grest[v] * row[v] if rest else row[v]
            g[v] = x % mod if mod else x
    out = [None] * len(pattern)
    below = ()                    # the layers of the level above
    for depth, groups in enumerate(subset_plan(pattern)):
        layers, masks = [], by_count[depth]
        for key, nodes in groups:
            col = cols[key]
            if depth:             # H(S, v), shared by the nodes of the group
                h = [None] * full
                for s in masks:
                    g, hs = gtab[s], [None] * ell
                    for v in outside[s]:
                        x = col[v] * g[v]
                        hs[v] = x % mod if mod else x
                    h[s] = hs
            for parent, members, last in nodes:
                nxt = [None] * (full + 1)
                if not depth:     # F(empty) = 1 and G(empty, v) = 1
                    for v in range(ell):
                        nxt[1 << v] = col[v]
                else:
                    layer = below[parent]
                    if last:      # no later node reads the parent's layer
                        below[parent] = None
                    for s in masks:
                        fs, hs = layer[s], h[s]
                        for v in outside[s]:
                            t, term = s | 1 << v, fs * hs[v]
                            x = nxt[t]
                            nxt[t] = term if x is None else x + term
                if mod:
                    for t in by_count[depth + 1]:
                        nxt[t] = nxt[t] % mod
                for i in members:
                    out[i] = nxt[full]
                layers.append(nxt)
        below = layers
    return out


@functools.lru_cache(maxsize=16)
def subset_masks(ell):
    """(by_count, outside) over ell variables, built once per ell:
    by_count[d] lists the masks of d variables, outside[s] the variables
    not in the mask s."""
    by_count = [[] for _ in range(ell + 1)]
    outside = []
    for s in range(1 << ell):
        by_count[bin(s).count("1")].append(s)
        outside.append([v for v in range(ell) if not s >> v & 1])
    return by_count, outside


@functools.lru_cache(maxsize=256)
def subset_plan(pattern):
    """The levels of the trie of prefixes of key-index sequences of one
    length ell >= 1, built once for all the points that repeat the index
    pattern.  The nodes of depth d extend a prefix of d keys by one:
    levels[d] lists (key, nodes) for each key that some of them add, and
    nodes the (parent, members, last) of each: parent the index of the node
    it extends among those of level d - 1 in the order listed (0, the empty
    prefix, at depth 0), members the sequences that end there, and last
    whether it is the parent's last child in that order.  `subset_sums`
    builds one H table per key of each depth >= 1 and drops a parent's
    layer at its last child."""
    ell, levels, fronts = len(pattern[0]), [], [range(len(pattern))]
    for depth in range(ell):
        groups = {}
        for parent, members in enumerate(fronts):
            children = {}
            for i in members:
                children.setdefault(pattern[i][depth], []).append(i)
            for key, sub in children.items():
                groups.setdefault(key, []).append((parent, sub))
        fronts = [sub for nodes in groups.values() for _, sub in nodes]
        # the node at which each parent's children end, in walk order
        ends = {parent: sub for nodes in groups.values() for parent, sub in nodes}
        final = depth + 1 == ell
        levels.append(tuple((key, tuple((parent, tuple(sub) if final else (),
                                         ends[parent] is sub)
                                        for parent, sub in nodes))
                            for key, nodes in groups.items()))
    return tuple(levels)


def multiset_sums(pattern, cols, mod):
    """(sums, facts) of `symmetrize` with no pair table for the key-index
    sequences of `pattern`, of one length ell >= 1: each sequence's sum
    over its distinct arrangements, by the sub-multiset layers of
    `multiset_plan`, and its prod_k mult_k!."""
    first, moves, ends, facts = multiset_plan(pattern)
    fs = [cols[k][0] for k in first]
    for v, layer in enumerate(moves, start=1):
        at_v = [col[v] for col in cols]
        nxt = []
        for srcs in layer:
            # a plain loop: a comprehension per state costs a call in 3.11
            x = None
            for s, k in srcs:
                term = fs[s] * at_v[k]
                x = term if x is None else x + term
            nxt.append(x % mod if mod else x)
        fs = nxt
    return [fs[e] for e in ends], facts


@functools.lru_cache(maxsize=256)
def multiset_plan(seqs):
    """(first, moves, ends, facts) of the sub-multiset layers for key-index
    sequences of one length ell >= 1, built once for all the points that
    repeat the sequences' index pattern.  The states of layer v are the
    sub-multisets of size v of the sequences (sorted index tuples): those
    of layer 1 are the keys first[i], and moves[v-1][j] lists the (state of
    layer v, key k) with state + k the j-th state of layer v + 1.  The
    sequence i ends at state ends[i] of layer ell, with facts[i] =
    prod_k mult_k!."""
    def drops(state):
        """(state - k, k) for each distinct key k of a sorted state."""
        return [(state[:i] + state[i + 1:], k)
                for i, k in enumerate(state) if not i or k != state[i - 1]]

    ends = [tuple(sorted(seq)) for seq in seqs]
    layers = [list(dict.fromkeys(ends))]
    for _ in range(len(ends[0]) - 1):
        layers.append(list(dict.fromkeys(s for top in layers[-1] for s, _ in drops(top))))
    layers.reverse()
    where = [{state: j for j, state in enumerate(layer)} for layer in layers]
    moves = [[[(below[s], k) for s, k in drops(top)] for top in layer]
             for below, layer in zip(where, layers[1:])]
    return ([state[0] for state in layers[0]], moves, [where[-1][end] for end in ends],
            [math.prod(map(math.factorial, Counter(seq).values())) for seq in seqs])


def column_plan(params, columns):
    """(consts, rests, keys, key_dens, degree): what `point_tables` needs
    of the columns of `columns` (key -> the cleared constants c of its d
    factors) that does not depend on the point.  consts are the distinct
    constants; a key's column is the product of its other factors, which
    the keys of one family share, times its first, so rests lists each
    distinct product of other factors (indices into consts) once, and keys
    holds (key, index into rests, index of the first factor, None for a
    column of no factor); key_dens[key] = prod_c c_n^(L-1) c_d^L."""
    last = params.degree
    consts = list(dict.fromkeys(chain.from_iterable(columns.values())))
    where = {c: i for i, c in enumerate(consts)}
    rests, keys, key_dens = {}, [], {}
    for key, cs in columns.items():
        rest = tuple(where[c] for c in cs[1:])
        keys.append((key, rests.setdefault(rest, len(rests)), where[cs[0]] if cs else None))
        key_dens[key] = math.prod([cn ** (last - 1) * cd ** last for cn, cd in cs])
    return consts, list(rests), keys, key_dens, len(next(iter(columns.values()), ()))


def point_tables(params, t, plan, primed=False):
    """(cols, pair, den, key_dens) for `symmetrize` at the point t, from
    the cleared coordinates t_v = a_v/b_v and the integer forms of the
    parameters (`PolyParams.degree`): the columns of a `column_plan` and
    the pair factors phi(eta r)/phi(r) of t_w placed before t_v and
    phi(eta/r)/phi(1/r) of t_v placed before t_w, r = t_v/t_w, w < v
    (swapped when primed).

    Each column at v is a product of `factor_ints` numerators over
    (a_v^(L-1) b_v^L)^d, over the plan's key_dens.  With
    r = A/B and eta = e_1/e_2 the pair factors are N(e_1 A, e_2 B) and
    -N(e_1 B, e_2 A) over one E N(A, B), E = e_1^(L-1) e_2^L, N the
    `phi_ints`, by the reflection phi(1/z) = -z^(-1) phi(z) of 1 - z and
    theta (Gasper-Rahman, Basic Hypergeometric Series, eq. 1.6.1).  The
    columns at v and each pair's two factors are divided by their content
    (`exactnum.primitive`), and den, of the kind of `params.one`, is the
    product of all the denominators over that of the contents.
    Coincident coordinates (A = B) are rejected."""
    mod, _, _, (e1, e2) = params.cleared
    last = params.degree
    consts, rests, keys, key_dens, degree = plan
    ts = [num_den(mod, u) for u in t]
    ell = len(ts)
    at_v = params.factor_ints(ts, consts)
    # each distinct product of other factors is built once; of none, 1
    rests = [list(map(math.prod, zip(*[at_v[i] for i in rest]))) if rest else [1] * ell
             for rest in rests]
    cols = []
    for _, rest, first in keys:
        col = list(map(operator.mul, rests[rest], at_v[first])) if first is not None \
            else [1] * ell
        cols.append([x % mod for x in col] if mod else col)
    cols, content = primitive(cols, mod)
    cols = {key: col for (key, _, _), col in zip(keys, cols)}
    den = math.prod([a ** (last - 1) * b ** last for a, b in ts]) ** degree
    # per pair w < v with r = A/B: the arguments of N(e_1 A, e_2 B),
    # N(e_1 B, e_2 A) and N(A, B)
    pairs, args = [], []
    for w in range(ell):
        for v in range(w + 1, ell):
            big_a, big_b = ts[v][0] * ts[w][1], ts[w][0] * ts[v][1]
            if not ((big_a - big_b) % mod if mod else big_a - big_b):
                raise DegenerateInputError("coincident t coordinates in symmetrized sum")
            pairs.append((w, v))
            args += [(e1 * big_a, e2 * big_b), (e1 * big_b, e2 * big_a), (big_a, big_b)]
    nums = params.phi_ints(args)
    befores, afters = nums[::3], [-x for x in nums[1::3]]
    if primed:
        befores, afters = afters, befores
    if mod:
        befores, afters = [x % mod for x in befores], [x % mod for x in afters]
    (befores, afters), g = primitive([befores, afters], mod)
    pair = [[None] * ell for _ in ts]
    for (w, v), before, after in zip(pairs, befores, afters):
        pair[w][v], pair[v][w] = before, after
    den *= (e1 ** (last - 1) * e2 ** last) ** len(pairs) * math.prod(nums[2::3])
    return cols, pair, from_ints(params.one, mod, den, content * g), key_dens


def from_ints(one, mod, num, den):
    """num/den as a value of the kind of `one`, modulo `mod` (QQ for 0): a
    series of `one`'s order from an `IntSeries`, else a field scalar (as a
    constant series if `one` is one)."""
    if isinstance(num, IntSeries):
        return PSeries._from_ints(one.field, num.num, den, one.order)
    value = scalar_of(mod, num, den)
    return one * value if isinstance(one, PSeries) else value


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def multiplicity_prefactor(mults, params):
    """prod_m prod_{s=2}^{w_m} phi(eta)/phi(eta^s) of a multiplicity vector,
    memoized on params."""
    phi, eta = params.phi, params.eta
    return params.memo(("prefactor", mults), lambda: product(
        (phi(eta) / phi(eta ** s) for w in mults for s in range(2, w + 1)), params.one))


def weights(parts, t, params, primed=False):
    """[the multiplicity prefactor times the sum over S_ell of the column
    of (shift, part) at each position a and the pair factors, for lam in
    parts] at the point t, with shift = params.column_shift(a, ell): P (or
    P') on `PolyParams`, the theta weights Xi (or Xi') on
    `elliptic.EllParams`, from the `weight_tables` of the parameters."""
    # lists, not tuple(generator): CPython builds such a tuple by resizing
    # it, and the resized tuples pile up in its tuple free lists (peak RSS
    # of the poly benchmark crept up about 0.4 MB over 12 passes)
    seqs = [[(params.column_shift(a, lam.ell), part)
             for a, part in enumerate(lam.entries, start=1)] for lam in parts]
    cols, pair, den, key_dens = params.weight_tables(
        dict.fromkeys(key for seq in seqs for key in seq), tuple(t), primed)
    return symmetrize(seqs, cols, pair, params.one, den,
                      [multiplicity_prefactor(lam.multiplicities(), params) for lam in parts],
                      key_dens)


def weight(lam, t, params, primed=False):
    """P (or P') of one partition at an explicit point."""
    return weights([lam], t, params, primed)[0]


def symmetric_products(seqs, column, one, den=1):
    """[(1/prod_k mult_k!) sum_sigma prod_a column(seq[a])[sigma_a] for seq
    in seqs]: symmetrized products of one column per key, keys may repeat,
    each distinct key's column built once; the columns are integers (or,
    for series, `IntSeries`) over den.  `symmetrize` sums them with no pair
    table, by the sub-multiset layers, once per distinct arrangement, and
    its exit multiplies each sum by prod_k mult_k!: the scales 1/prod_k
    mult_k! cancel that factor in the one reduction of each sum."""
    cols = {key: column(key) for key in dict.fromkeys(key for seq in seqs for key in seq)}
    mod = modulus(one.field if isinstance(one, PSeries) else field_of(one))
    return symmetrize(seqs, cols, None, one, den,
                      [multiplicity_scale(tuple(seq), mod) for seq in seqs])


@functools.lru_cache(maxsize=4096)
def multiplicity_scale(seq, mod):
    """1/prod_k mult_k! of a key sequence as a field scalar modulo `mod`
    (QQ for 0), built once for all the points that repeat the sequence."""
    return scalar_of(mod, 1, math.prod(map(math.factorial, Counter(seq).values())))


def monomials(seqs, t, one):
    """[(1/prod_k mult_k!) sum_sigma t_{sigma_1}^{e_1} ... for e in seqs];
    exponents may repeat and be zero.  The columns are integers at once:
    the pair t_v = a_v/b_v (`num_den`) gives t_v^e = a_v^e b_v^(E-e) / b_v^E,
    with E the largest exponent, in both fields: modulo p, a_v^e is
    reduced and b_v is 1."""
    fld = field_of(one)
    mod = modulus(fld)
    ts = [num_den(mod, fld.of(u)) for u in t]
    top = max((e for seq in seqs for e in seq), default=0)
    return symmetric_products(
        seqs, lambda e: [pow(a, e, mod or None) * b ** (top - e) for a, b in ts],
        one, math.prod([b ** top for _, b in ts]))


def monomial_symmetric(exponents, t, one, zero):
    """One exponent tuple's value in `monomials` (`zero` is not needed)."""
    return monomials([tuple(exponents)], t, one)[0]


def q_monomials(parts, t, params):
    """[Q_lam(t) for lam in parts]."""
    return monomials([lam.entries for lam in parts], t, params.one)


def block_product(params, m, w):
    """prod_{s<w} f(x_m, eta^s y_m) of the parameters' linear factor f."""
    xm, ym = params.x[m - 1], params.y[m - 1]
    return product((params.factor(xm, params.eta ** s * ym) for s in range(w)), params.one)


def window_products(lam, i, j, params):
    """The block products for i < k < j times, with lead_a = eta^(ell-a) y_i,
    f(lead_a, x_k) for i < k < lam_a and f(lead_a, y_m) for lam_a < m < j."""
    if lam.entries and not (i <= lam.entries[-1] and lam.entries[0] <= j):
        raise UsageError("partition %r lies outside the window [%d, %d]" % (lam.entries, i, j))
    mults = lam.multiplicities()
    leads = [params.eta ** (lam.ell - a) * params.y[i - 1] for a in range(1, lam.ell + 1)]
    return product(chain(
        (block_product(params, k, mults[k - 1]) for k in range(i + 1, j)),
        (params.factor(lead, c) for lead, la in zip(leads, lam.entries)
         for c in params.x[i:la - 1] + params.y[la:j - 1])), params.one)


# ---------------------------------------------------------------------------
# identity values, and the check values value(cfg, params, sampler)
# ---------------------------------------------------------------------------

def alternating_sum(params, t, columns, lows, highs, prefs, mutate=False):
    """sum_k prefs[k] times the k-th sum over S_ell at the point t, of the
    columns of lows[:k] + highs[k:] (`columns` maps each key to the
    cleared constants of its factors) and the unprimed pair factors: the
    sums of `jing_value` and `elliptic.idp2_value`, k low chain keys then
    high ones, whose ell + 1 sequences share their leading low keys.  One
    `symmetrize` call on the tables of `point_tables` takes the
    prefactors as its scales; a mutated run doubles prefs[1]."""
    seqs = [lows[:k] + highs[k:] for k in range(len(t) + 1)]
    cols, pair, den, key_dens = point_tables(params, t, column_plan(params, columns))
    if mutate and t:
        prefs[1] = prefs[1] * 2
    return sum(symmetrize(seqs, cols, pair, params.one, den, prefs, key_dens), params.zero)


def jing_value(eta, t, one, zero, mutate=False):
    """The double sum over k and S_ell whose vanishing is the base
    combinatorial identity: the k-th sum over S_ell, of k columns u - 1 and
    ell - k columns u - eta^(ell-1), times prod_{s<k} (eta^ell - eta^s)/
    (1 - eta^(s+1)), the ell + 1 prefactors one running product, by
    `alternating_sum` (`zero` is not needed)."""
    ell, fld = len(t), field_of(one)
    prefs, top = [one], eta ** ell
    for s in range(ell):
        prefs.append(prefs[-1] * (top - eta ** s) / (one - eta ** (s + 1)))
    # the weights' unprimed pair table, and columns u - 1 and u - eta^(ell-1)
    columns = {"low": [(1, 1)], "high": [num_den(modulus(fld), eta ** (ell - 1))]}
    return alternating_sum(PolyParams((), (), eta, ell, 0, fld), t, columns,
                           ("low",) * ell, ("high",) * ell, prefs, mutate)


def window_value(params, t, i, j, mutate=False):
    """sum over the window [i, j] of params.window_coeff(lam, i, j) times
    lam's weight at t; shared by both window identities."""
    lams = enumerate_window(params.ell, i, j, params.n)
    coeffs = [params.window_coeff(lam, i, j) for lam in lams]
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
        coeff = wp * params.norm(lam)
        if mutate and idx == 0:
            coeff = coeff * 2
        total = total + coeff * w
    return total


def jing_residual(cfg, eta, sampler):
    """`jing_value` at a fresh point."""
    fld = sampler.field
    return jing_value(eta, sample_t(sampler, cfg.ell), fld.one, fld.zero, cfg.mutate)


def window_residual(cfg, params, sampler):
    """`window_value` at a fresh point, in either layer."""
    return window_value(params, sample_t(sampler, cfg.ell), cfg.i, cfg.j, cfg.mutate)


def id2_residual(cfg, params, sampler):
    """`id2_value` at a fresh point."""
    return id2_value(params, sample_t(sampler, cfg.ell), cfg.j, cfg.mutate)
