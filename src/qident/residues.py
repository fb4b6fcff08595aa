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
the denominator.  The parameter object supplies phi and the constant the
residue divides by: prod_m (x_m y_m)^ell on `PolyParams`, and on
`elliptic.EllParams` ((p; p)^3)^ell, theta's derivative constant at 1 once
per step.  The scalar product is defined operationally by the residue
sums; the torus contour it replaces is never integrated.

Every residue sum is one dense product: `residue_pairing` evaluates both
families and the residue once per point and ends in `linalg.mat_mul`, and
the `mn` residual is the product of its Gram matrix with the transition
matrix.  The kernel, the weight family and ell all come from the
parameter object, so the residue, the Gram matrix, the special values and
the transition solve serve P and Xi alike.
"""

from __future__ import annotations

from .errors import (
    ConsistencyError, DegenerateInputError, NonInvertibleError, PoleOrderError)
from .exactnum import scalar_str
from .linalg import mat_det, mat_mul, mat_solve, transpose
from .partitions import binom, enumerate_partitions, x_point, y_point
from .polyweights import monomials, norm_n, q_monomials, sample_poly_params, weights
# uncalled here: benchmarks/test_benchmark.py checks that the tracer rebinds
# the one-partition `weight` in this module
from .polyweights import weight  # noqa: F401
from .reporting import run_trials


def cancel_poles(params, point):
    """Cancel one kernel factor per variable, innermost last variable
    first, and return (sign, numerator arguments, denominator arguments):
    sign is -1 per cancelled factor with t_a in the numerator of its
    argument, the argument lists are those of the remaining factors.

    Substituting from the last variable down completes phi(c t_i/t_j) at
    step min(i, j), and phi(t_a/x_m), phi(t_a/y_m) at step a, so each
    argument is evaluated once at the point and tested only at its step.
    There the vanishing numerator factor is discovered and must be unique,
    with no vanishing denominator factor (the simple-pole condition).
    """
    one, eta, t = params.field.one, params.eta, point.coords
    # per step: (t_step in the numerator, argument, tag)
    numer = [[] for _ in t]
    denom = [[] for _ in t]
    for a, u in enumerate(t):
        for m in range(params.n):
            numer[a].append((True, u / params.x[m], ("x", a, m + 1)))
            numer[a].append((True, u / params.y[m], ("y", a, m + 1)))
        for b in range(a + 1, len(t)):
            r = u / t[b]
            numer[a].append((True, eta * r, ("pair", a, b)))
            numer[a].append((False, eta / r, ("pair", b, a)))
            denom[a].append((r, ("den", a, b)))
            denom[a].append((one / r, ("den", b, a)))
    sign, rest_numer, rest_denom = one, [], []
    for a in reversed(range(len(t))):
        hits = [f for f in numer[a] if f[1] == one]
        if len(hits) != 1:
            raise PoleOrderError(
                "step t_%d -> %s: %d vanishing numerator factors (need exactly 1)"
                % (a + 1, t[a], len(hits)))
        bad = [tag for c, tag in denom[a] if c == one]
        if bad:
            raise PoleOrderError(
                "step t_%d -> %s: denominator factor %r vanishes" % (a + 1, t[a], bad[0]))
        hit = hits[0]
        if hit[0]:
            sign = -sign
        rest_numer.extend(f[1] for f in numer[a] if f is not hit)
        rest_denom.extend(c for c, _ in denom[a])
    return sign, rest_numer, rest_denom


def phi_product(params, args):
    """prod phi(c) over the arguments, from the first factor on."""
    factors = map(params.phi, args)
    out = next(factors, params.one)
    for f in factors:
        out = out * f
    return out


def kernel_residue_parts(params, point):
    """Cancel one kernel factor per variable (see `cancel_poles`) and return
    (scale, numer_value, denom_value), so that

        Res(1/kernel (dt/t)^ell) = denom_value / (numer_value * scale),

    with scale = sign * `params.kernel_constant(ell)` and the values the
    products of phi over the remaining arguments.  Every remaining argument
    differs from 1 (`cancel_poles` tested it at its step), and phi(c) has
    constant term 1 - c, so numer_value is invertible.
    """
    sign, numer, denom = cancel_poles(params, point)
    return (params.kernel_constant(point.ell) * sign, phi_product(params, numer),
            phi_product(params, denom))


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
    one `mat_mul`.
    """
    scaled, plain = [], []     # per point: [left[a] r], [right[b]]
    for pt in points:
        r = kernel_residue(params, pt)
        scaled.append([v * r for v in left(pt.coords)])
        plain.append(right(pt.coords))
    return mat_mul(transpose(scaled), plain)


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
    sign = (-params.field.one) ** params.ell
    for x_row, y_row in zip(xs, ys):
        if any(x != sign * y for x, y in zip(x_row, y_row)):
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
    fld = cfg.scalar_field()

    def trial(sampler):
        params = sample_poly_params(sampler, cfg.ell, cfg.n)
        parts = enumerate_partitions(cfg.ell, cfg.n)
        gram = weight_gram(params)
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
    fld = cfg.scalar_field()

    def trial(sampler):
        params = sample_poly_params(sampler, cfg.ell, cfg.n)
        parts = enumerate_partitions(cfg.ell, cfg.n)
        pts = point_family(x_point, params)
        a, _, b = transition_matrix(q_monomials, params)
        if cfg.mutate:
            a[0][0] = a[0][0] + 1
        norms = [norm_n(lam, params) for lam in parts]
        # B's columns are the Q_mu at the same x-points, so none is
        # evaluated twice
        q_at = dict(zip((pt.coords for pt in pts), transpose(b)))
        # G[mu][lam] = sum_kap M_kap^{-1} Q_mu(x|>kap) P'_lam(x|>kap) N_lam
        gram = residue_pairing(
            q_at.__getitem__,
            lambda t: [w * nl for w, nl in zip(weights(parts, t, params, True), norms)],
            params, pts)
        residual = mat_mul(gram, a)
        for mu, row in enumerate(residual):
            row[mu] = row[mu] - fld.one
        flat = _fmt_residual_matrix(residual, fld.zero)
        return flat, not flat, []

    return run_trials(cfg, ["eta^s != 1", "x,y nonzero pairwise distinct",
                            "det[Q_lam(x|>kap)] != 0"], trial)


def verify_det(cfg):
    """detq: det B = det[Q_lam(x|>mu)] against its closed form; deta:
    det A = det W / det B with W = [P_lam(x|>mu)], resampled where B is
    singular and A therefore undefined."""
    fld = cfg.scalar_field()

    def trial(sampler):
        params = sample_poly_params(sampler, cfg.ell, cfg.n)
        det_b = mat_det(special_values(q_monomials, params), fld.one, fld.zero)
        if cfg.check == "detq":
            lhs, rhs = det_b, detq_rhs(cfg.ell, cfg.n, params)
        else:
            if det_b == fld.zero:
                raise NonInvertibleError("det[Q_lam(x|>mu)] = 0: A is undefined")
            lhs = mat_det(special_values(weights, params), fld.one, fld.zero) / det_b
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
    in each variable.  Agreement where the sums differ is a zero of a
    nonzero difference at the draw (mod p, say), so that draw is
    resampled; only a difference where agreement is due falsifies."""
    fld = cfg.scalar_field()

    def trial(sampler):
        params = sample_poly_params(sampler, cfg.ell, cfg.n)
        sweep = admissible_exponent_tuples(cfg.ell, cfg.n)

        xs, ys = side_pairings(lambda t: monomials(sweep, t, fld.one),
                               lambda t: [fld.one], params)
        findings, spurious = [], []
        ok = True
        for exps, (x,), (y,) in zip(sweep, xs, ys):
            if cfg.mutate:
                y = y * 2
            agree = x == (-fld.one) ** cfg.ell * y
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
        notes = ["x-sum = (-1)^ell y-sum observed exactly for exponents within [1, 2n-1]"]
        return findings, ok, notes

    return run_trials(
        cfg, ["eta^s != 1", "x,y nonzero pairwise distinct"], trial,
        notes=["divisibility finding: agreement iff every exponent >= 1 "
               "(f*g divisible by t_1...t_ell) and <= 2n-1"])
