"""Iterated residues against the factorized kernel, the residue-sum scalar
product, biorthogonality of the primed/unprimed weights, the transition solve
(to the monomial basis here, to the theta basis in the elliptic layer), and
the closed determinant formulas.

One kernel residue serves the rational and the theta kernel.  Both are
products of the factors phi(c t_i/t_j) of

    Omega(t) = prod_a prod_m phi(t_a/x_m) phi(t_a/y_m)
               prod_{a != b} phi(eta t_a/t_b) / phi(t_a/t_b),

with phi = theta for the elliptic layer and phi(z) = 1 - z for the
polynomial one.  Since theta(z; 0) = 1 - z (Jacobi triple product), the
rational kernel is the p = 0 form of the theta kernel times a constant:

    S(t) = prod_a prod_m (t_a - x_m)(t_a - y_m)
           prod_{a != b} (t_a - eta t_b)/(t_a - t_b)
         = prod_m (x_m y_m)^ell * Omega(t)|_{p = 0},

by t_a - x_m = -x_m (1 - t_a/x_m) and (t_a - eta t_b)/(t_a - t_b) =
(1 - eta t_b/t_a)/(1 - t_b/t_a).

Residues are taken by symbolic factor cancellation, never by numeric
limiting: at each step (innermost variable first) exactly one numerator
factor vanishes at the target coordinate (its argument becomes 1); it is
removed and the variable is substituted.  A step contributes -1 when t_a
stands in the numerator of the cancelled argument and +1 when it stands in
the denominator.  The parameter object supplies phi, the linear factor of
det A and the constant the residue divides by: prod_m (x_m y_m)^ell on
`PolyParams`, and on `elliptic.EllParams` ((p; p)^3)^ell, theta's
derivative constant at 1 once per step.  The scalar product is defined
operationally by the residue sums; the torus contour is never integrated.

Over a field the arguments of the kernel factors are integer pairs built
from the cleared coordinates, so in both layers the residue at a point is
one product of phi's integer numerators over one denominator
(`PolyParams.phi_product`; theta numerators on `elliptic.EllParams`).
Every residue sum is one dense product:
`residue_pairing` evaluates both families and the residue once per point
and ends in `linalg.diag_mat_mul`, which folds the residue into each
point's cleared row, and the `mn` residual is the product of its Gram
matrix with the transition matrix.  The kernel, the weight family, the
norms and ell all come from the parameter object, so the residue, the
Gram matrix and its residual `gram_residual`, the special values and the
transition solve serve P and Xi alike; the check values return residual
entries, which `reporting` writes for either layer, and resI returns a
finished trial that lists its findings whatever the verdict.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .errors import (
    ConsistencyError, DegenerateInputError, NonInvertibleError, PoleOrderError)
from .exactnum import num_den, product
from .linalg import diag_mat_mul, mat_det, mat_mul, mat_solve, transpose
from .partitions import binom, enumerate_partitions, x_point, y_point
from .polyweights import monomials, q_monomials, weights
# uncalled here: benchmarks/test_benchmark.py checks that the tracer rebinds
# the one-partition `weight` in this module
from .polyweights import weight  # noqa: F401


def cancel_poles(params, point):
    """Cancel one kernel factor per variable, innermost last variable
    first, and return (sign, numerator arguments, denominator arguments):
    sign is -1 per cancelled factor with t_a in the numerator of its
    argument, the argument lists are those of the remaining factors, each
    argument P/Q an integer pair (P, Q).

    Substituting from the last variable down completes phi(c t_i/t_j) at
    step min(i, j), and phi(t_a/x_m), phi(t_a/y_m) at step a, so each
    argument is built once at the point and tested only at its step.  The
    arguments are cross products of the cleared coordinates and parameters
    (`exactnum.num_den`), and one is tested as P = Q (P = Q mod p), with
    no field operation.  At its step the vanishing numerator factor is
    discovered and must be unique, with no vanishing denominator factor
    (the simple-pole condition).
    """
    mod, xs, ys, (e1, e2) = params.cleared
    t = point.coords
    ts = [num_den(mod, u) for u in t]
    # per step: (t_step in the numerator, argument); (argument, tag)
    numer = [[] for _ in t]
    denom = [[] for _ in t]
    for a, (ua, ub) in enumerate(ts):
        for (xn, xd), (yn, yd) in zip(xs, ys):
            numer[a].append((True, (ua * xd, ub * xn)))
            numer[a].append((True, (ua * yd, ub * yn)))
        for b in range(a + 1, len(t)):
            va, vb = ts[b]
            r, s = ua * vb, ub * va          # t_a/t_b = r/s
            numer[a].append((True, (e1 * r, e2 * s)))
            numer[a].append((False, (e1 * s, e2 * r)))
            denom[a].append(((r, s), ("den", a, b)))
            denom[a].append(((s, r), ("den", b, a)))

    def is_one(arg):
        diff = arg[0] - arg[1]
        return not (diff % mod if mod else diff)

    sign, rest_numer, rest_denom = 1, [], []
    for a in reversed(range(len(t))):
        hits = [f for f in numer[a] if is_one(f[1])]
        if len(hits) != 1:
            raise PoleOrderError(
                "step t_%d -> %s: %d vanishing numerator factors (need exactly 1)"
                % (a + 1, t[a], len(hits)))
        bad = [tag for c, tag in denom[a] if is_one(c)]
        if bad:
            raise PoleOrderError(
                "step t_%d -> %s: denominator factor %r vanishes" % (a + 1, t[a], bad[0]))
        hit = hits[0]
        if hit[0]:
            sign = -sign
        rest_numer.extend(f[1] for f in numer[a] if f is not hit)
        rest_denom.extend(c for c, _ in denom[a])
    return sign, rest_numer, rest_denom


def kernel_residue_parts(params, point):
    """Cancel one kernel factor per variable (see `cancel_poles`) and return
    (scale, numer_value, denom_value), so that

        Res(1/kernel (dt/t)^ell) = denom_value / (numer_value * scale),

    with scale = sign * `params.kernel_constant(ell)` and the values
    `params.phi_product` of the remaining arguments, one product of phi's
    integer numerators over one denominator each, in either layer.  Every
    remaining argument differs from 1
    (`cancel_poles` tested it at its step), and phi(c) has constant term
    1 - c, so numer_value is invertible.
    """
    sign, numer, denom = cancel_poles(params, point)
    return (params.kernel_constant(point.ell) * sign,
            params.phi_product(numer), params.phi_product(denom))


def kernel_residue(params, point):
    """Res(1/kernel (dt/t)^ell) at the point: 1/S for `PolyParams`, 1/Omega
    as a truncated series for `elliptic.EllParams`."""
    scale, nval, dval = kernel_residue_parts(params, point)
    return dval / (nval * scale)


def point_family(make_point, params):
    """The special points of one side (`x_point` or `y_point`), one per
    partition of params.ell, in enumeration order."""
    return [make_point(lam, params) for lam in enumerate_partitions(params.ell, params.n)]


def residue_pairing(left, right, params, points):
    """The matrix [sum over the points of left[a] * r * right[b]], where
    `left(t)` and `right(t)` return one value per family member and r is
    the `kernel_residue` of the parameters' kernel.  Each family and the
    residue are evaluated once per point, and the sum over the points is
    one `linalg.diag_mat_mul`, which folds r into each point's cleared
    left row.
    """
    lefts, residues, rights = [], [], []
    for pt in points:
        residues.append(kernel_residue(params, pt))
        lefts.append(left(pt.coords))
        rights.append(right(pt.coords))
    return diag_mat_mul(lefts, residues, rights)


def side_pairings(left, right, params):
    """The x-side and the y-side `residue_pairing` over the special points
    of the partitions of params.ell."""
    return tuple(residue_pairing(left, right, params, point_family(make_point, params))
                 for make_point in (x_point, y_point))


MISMATCH = "x- and y-side residue sums disagree; f*g is not admissible"


def gram_matrix(left, right, params):
    """The x-side pairing of two families.  The y side checks every entry
    against (-1)^ell times the x side and raises ConsistencyError on any
    difference, which flags an inadmissible product rather than a bug
    downstream.
    """
    xs, ys = side_pairings(left, right, params)
    odd = params.ell % 2
    for x_row, y_row in zip(xs, ys):
        if any(x != (-y if odd else y) for x, y in zip(x_row, y_row)):
            raise ConsistencyError(MISMATCH)
    return xs


def scalar_product(f, g, params):
    """<f, g> against the parameters' kernel, with the (-1)^ell y-side
    self-check."""
    return gram_matrix(lambda t: [f(t)], lambda t: [g(t)], params)[0][0]


def weight_gram(params):
    """The matrix [<W'_lam, W_mu>] of the parameters' weights (P over Q,
    Xi over the theta kernel) over all partitions, in enumeration order."""
    parts = enumerate_partitions(params.ell, params.n)
    return gram_matrix(lambda t: weights(parts, t, params, primed=True),
                       lambda t: weights(parts, t, params), params)


def special_values(table, params):
    """[[lam's value at x |> kap for kap] for lam] over the partitions of
    params.ell in enumeration order, from one call table(parts, x |> kap,
    params) per point."""
    pts = point_family(x_point, params)
    parts = enumerate_partitions(params.ell, params.n)
    return transpose([table(parts, pt.coords, params) for pt in pts])


def transition_matrix(basis, params):
    """(A, W, B) with W = special_values(weights), B = special_values(basis)
    and A B = W: weight(lam) = sum_mu A[lam][mu] basis(mu) at the special
    points, for P over Q and for Xi over Theta alike (the parameters
    decide which weights).  A is found by one solve, B^T A^T = W^T, never
    through B^(-1)."""
    w, b = special_values(weights, params), special_values(basis, params)
    return transpose(mat_solve(transpose(b), transpose(w), params.zero)), w, b


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


def detq_rhs(params):
    """Closed form for det[Q_lam(x |> mu)]: a deformed symmetric power of
    the Vandermonde determinant."""
    ell, n, eta, x = params.ell, params.n, params.eta, params.x
    out = eta ** (-(n * (n + 1) // 2) * binom(n + ell - 1, n + 1))
    for m in range(n):
        out = out * x[m] ** binom(n + ell - 1, n)
    for s in range(1 - ell, ell):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                out = out * (eta ** s * x[k - 1] - x[j - 1]) ** d_exponent(n, ell, s)
    return out


def deta_rhs(params):
    """Closed form for det[A]: prod_{s<ell} prod_{j<k} f(eta^s y_j, x_k)^e,
    e = C(n+ell-s-2, n-1), f the parameters' linear factor."""
    ell, n, eta, x, y = params.ell, params.n, params.eta, params.x, params.y
    return product((params.factor(eta ** s * y[j], x[k]) ** binom(n + ell - s - 2, n - 1)
                    for s in range(ell) for j in range(n) for k in range(j + 1, n)), params.one)


# ---------------------------------------------------------------------------
# check values: value(cfg, params, sampler)
# ---------------------------------------------------------------------------

def matrix_entries(mat):
    """("[r,c]", entry) for every entry of a matrix, rows first."""
    return [("[%d,%d]" % (r, c), v) for r, row in enumerate(mat) for c, v in enumerate(row)]


def gram_residual(cfg, params, sampler):
    """The entries of [<W'_lam, W_mu>] - diag(1/N_lam), N_lam the
    parameters' norm: P over Q, Xi to order K.  A mutated run doubles
    1/N of the first partition."""
    gram = weight_gram(params)
    for r, lam in enumerate(enumerate_partitions(params.ell, params.n)):
        inv_norm = params.one / params.norm(lam)
        if cfg.mutate and r == 0:
            inv_norm = inv_norm * 2
        gram[r][r] = gram[r][r] - inv_norm
    return matrix_entries(gram)


def mn_residual(cfg, params, sampler):
    """The entries of G A - 1, where G[mu][lam] = sum_kap M_kap^{-1}
    Q_mu(x|>kap) P'_lam(x|>kap) N_lam and A is the transition matrix to
    the monomials.  A mutated run adds 1 to A[0][0]."""
    parts = enumerate_partitions(params.ell, params.n)
    pts = point_family(x_point, params)
    a, _, b = transition_matrix(q_monomials, params)
    if cfg.mutate:
        a[0][0] = a[0][0] + 1
    norms = [params.norm(lam) for lam in parts]
    # B's columns are the Q_mu at the same x-points, so none is
    # evaluated twice
    q_at = dict(zip((pt.coords for pt in pts), transpose(b)))
    gram = residue_pairing(
        q_at.__getitem__,
        lambda t: [w * nl for w, nl in zip(weights(parts, t, params, True), norms)],
        params, pts)
    residual = mat_mul(gram, a)
    for mu, row in enumerate(residual):
        row[mu] = row[mu] - params.one
    return matrix_entries(residual)


def detq_residual(cfg, params, sampler):
    """det B = det[Q_lam(x|>mu)] minus its closed form, which a mutated run
    doubles."""
    lhs = mat_det(special_values(q_monomials, params), params.one, params.zero)
    rhs = detq_rhs(params)
    return lhs - (rhs * 2 if cfg.mutate else rhs)


def deta_residual(cfg, params, sampler):
    """det A = det W / det B, W = [P_lam(x|>mu)], minus its closed form,
    which a mutated run doubles; resampled where B is singular and A
    therefore undefined."""
    det_b = mat_det(special_values(q_monomials, params), params.one, params.zero)
    if det_b == params.zero:
        raise NonInvertibleError("det[Q_lam(x|>mu)] = 0: A is undefined")
    lhs = mat_det(special_values(weights, params), params.one, params.zero) / det_b
    rhs = deta_rhs(params)
    return lhs - (rhs * 2 if cfg.mutate else rhs)


def admissible_exponent_tuples(ell, n):
    """Weakly decreasing exponent tuples with entries in [0, 2n-1]; the
    residue-sum agreement sweep runs over all of them and records which
    ones satisfy the x/y relation."""
    return list(combinations_with_replacement(range(2 * n - 1, -1, -1), ell))


def resi_trial(cfg, params, sampler):
    """The finished trial (lines, is zero, notes) of the empirical x/y
    residue-sum identity on symmetric monomials: one "agree" or "differ"
    line per exponent tuple, whatever the verdict.  Agreement holds
    exactly when every exponent lies in [1, 2n-1], i.e. for products
    divisible by t_1...t_ell of degree < 2n in each variable.  Agreement
    where the sums differ is a zero of a nonzero difference at the draw
    (mod p, say), so that draw is resampled; only a difference where
    agreement is due falsifies."""
    one = params.one
    sweep = admissible_exponent_tuples(cfg.ell, cfg.n)
    xs, ys = side_pairings(lambda t: monomials(sweep, t, one), lambda t: [one], params)
    findings, spurious = [], []
    ok = True
    for exps, (x,), (y,) in zip(sweep, xs, ys):
        if cfg.mutate:
            y = y * 2
        agree = x == (-one) ** cfg.ell * y
        expected = min(exps) >= 1
        findings.append("%r: %s" % (exps, "agree" if agree else "differ"))
        if agree and not expected:
            spurious.append(exps)
        elif expected and not agree:
            ok = False
    if ok and spurious:
        # a zero of a nonzero difference at this draw proves nothing
        raise DegenerateInputError(
            "x- and y-sums agree at exponents %s, where they differ"
            % ", ".join(map(repr, spurious)))
    return findings, ok, ["x-sum = (-1)^ell y-sum observed exactly for exponents "
                          "within [1, 2n-1]"]
