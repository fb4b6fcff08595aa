from fractions import Fraction
from itertools import product
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qident import uqrep
from qident.cli import validate
from qident.errors import DepthOverflowError, UsageError
from qident.exactnum import PrimeField, QQ, Sampler, SamplerConfig
from qident.partitions import enumerate_partitions
from qident.polyweights import weight
from qident.reporting import DEFAULT_PRIME, RunConfig
from qident.uqrep import (
    MAX_LISTED_RESIDUALS, TensorVector, WeightParams, apply_by_basis, apply_string,
    bc_strings, gamma, impose_resonance, kbi_lowering_rhs,
    kbi_raising_rhs, modules_of, mutated_caps, param_map, sample_weight_params,
    tensor_entry, verify_bc, verify_kbi, verify_rll, verify_singular)


def nonzero_items(vec):
    """Test helper: the (key, coefficient) pairs of a tensor vector's
    nonzero terms, in key order."""
    return [(k, vec.coeff(k)) for k in sorted(vec.num)]


def wp_for(n, seed=2):
    return sample_weight_params(Sampler(SamplerConfig(seed)), n)


def chain_sum_tensor_entry(vec, i, j, u, modules, q, mutate=False):
    """Test oracle for `tensor_entry`: the literal sum over all 2^(n-1)
    index chains i = k_0, ..., k_n = j of the per-slot entry products, each
    slot value recomputed from s, z, q and the direct sum `gamma`."""
    one = vec.field.one

    def slot_action(a, b, s, z, k):
        if a == 1 and b == 1:
            return [(k, -((u / z) * s * q ** (-k) - q ** k / s))]
        if a == 1 and b == 2:
            return [(k + 1, -(u / z) * (q - 1 / q))]
        if a == 2 and b == 1:
            out = [(k - 1, -(q - 1 / q) * gamma(k, s, q))] if k > 0 else []
            if mutate:
                out.append((k, one))
            return out
        return [(k, -((u / z) * q ** k / s - s * q ** (-k)))]

    out = vec.copy_empty()
    for chain_mid in product((1, 2), repeat=vec.nslots - 1):
        chain = (i,) + chain_mid + (j,)
        for key, coeff in nonzero_items(vec):
            partial = [((), coeff)]
            for slot, mod in enumerate(modules):
                steps = slot_action(chain[slot], chain[slot + 1], mod.s, mod.z, key[slot])
                partial = [(kk + (k2,), cc * c2) for kk, cc in partial for k2, c2 in steps]
            for kk, cc in partial:
                out.add_term(kk, cc)
    return out


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=7)
nonzero_small = small_fractions.filter(lambda v: v != 0)


# no shrink phase: shrinking a failure here took minutes; the unshrunk
# example is reported at once
@given(st.integers(1, 4), st.sampled_from([1, 2]), st.sampled_from([1, 2]), st.data())
@settings(max_examples=80, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_transfer_matrix_matches_chain_sum_oracle(n, i, j, data):
    q = data.draw(nonzero_small.filter(lambda v: v * v != 1))
    s = data.draw(st.lists(nonzero_small, min_size=n, max_size=n))
    z = data.draw(st.lists(nonzero_small, min_size=n, max_size=n))
    # u = 0 zeroes every raising step, so paths reach keys with zero sums
    u = data.draw(st.one_of(st.just(Fraction(0)), small_fractions))
    cap = data.draw(st.integers(1, 6))
    total_cap = data.draw(st.integers(cap, cap * n))
    keys = st.tuples(*[st.integers(0, cap)] * n).filter(lambda k: sum(k) <= total_cap)
    terms = data.draw(st.dictionaries(keys, nonzero_small, min_size=2, max_size=5))
    for fld, mutate in product((QQ, PrimeField(DEFAULT_PRIME)), (False, True)):
        wp = WeightParams(fld.of(q), tuple(map(fld.of, s)), tuple(map(fld.of, z)), fld)
        mods = modules_of(wp)
        vec = TensorVector(fld, n, cap, total_cap, {k: fld.of(c) for k, c in terms.items()})
        try:
            want = chain_sum_tensor_entry(vec, i, j, fld.of(u), mods, wp.q, mutate=mutate)
        except DepthOverflowError:
            with pytest.raises(DepthOverflowError):
                tensor_entry(vec, i, j, fld.of(u), mods, wp.q, mutate=mutate)
            continue
        got = tensor_entry(vec, i, j, fld.of(u), mods, wp.q, mutate=mutate)
        assert nonzero_items(got) == nonzero_items(want)
        # the depth bound that `mutated_caps` widens the caps by
        extra = (n + 1) // 2 if mutate else 0
        for key, _ in nonzero_items(got):
            assert sum(key) <= max(map(sum, terms)) + (j - i) + extra
            assert all(k <= max(t[m] for t in terms) + 1 for m, k in enumerate(key))


# the same draws as the oracle test above; the table is shared by several
# vectors whose keys come from one small pool, so that keys recur
@given(st.integers(1, 4), st.sampled_from([1, 2]), st.sampled_from([1, 2]), st.data())
@settings(max_examples=60, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_basis_image_table_matches_chain_sum_oracle(n, i, j, data):
    q = data.draw(nonzero_small.filter(lambda v: v * v != 1))
    s = data.draw(st.lists(nonzero_small, min_size=n, max_size=n))
    z = data.draw(st.lists(nonzero_small, min_size=n, max_size=n))
    u = data.draw(st.one_of(st.just(Fraction(0)), small_fractions))
    cap = data.draw(st.integers(1, 6))
    total_cap = data.draw(st.integers(cap, cap * n))
    keys = st.tuples(*[st.integers(0, cap)] * n).filter(lambda k: sum(k) <= total_cap)
    pool = data.draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    vectors = data.draw(st.lists(st.dictionaries(st.sampled_from(pool), nonzero_small,
                                                 min_size=1, max_size=len(pool)),
                                 min_size=2, max_size=4))
    vectors.insert(data.draw(st.integers(0, len(vectors))), {})
    for fld, mutate in product((QQ, PrimeField(DEFAULT_PRIME)), (False, True)):
        wp = WeightParams(fld.of(q), tuple(map(fld.of, s)), tuple(map(fld.of, z)), fld)
        mods = modules_of(wp)
        entries = [(i, j, fld.of(u))]
        images, swept, overflows = {}, set(), 0
        with mock.patch.object(uqrep, "tensor_entry", wraps=uqrep.tensor_entry) as sweep:
            for terms in vectors:
                vec = TensorVector(fld, n, cap, total_cap,
                                   {k: fld.of(c) for k, c in terms.items()})
                try:
                    want = chain_sum_tensor_entry(vec, i, j, fld.of(u), mods, wp.q,
                                                  mutate=mutate)
                except DepthOverflowError:
                    with pytest.raises(DepthOverflowError):
                        apply_by_basis(vec, entries, mods, wp.q, images, mutate=mutate)
                    overflows += 1
                    continue
                got = apply_by_basis(vec, entries, mods, wp.q, images, mutate=mutate)
                assert nonzero_items(got) == nonzero_items(want)
                swept.update(terms)
        # each stored image took one sweep, and each overflow one more that
        # stored nothing; the zero vector took none
        assert {(cap, total_cap, k) for k in swept} <= set(images)
        assert set(images) <= {(cap, total_cap, k) for k in pool}
        assert sweep.call_count == len(images) + overflows


@pytest.mark.parametrize("fld", [QQ, PrimeField(DEFAULT_PRIME)], ids=["QQ", "GF(p)"])
def test_depth_overflow_inside_an_image_build_is_loud(fld):
    # past the slot cap in the last slot, past it in the first slot in the
    # middle of a string, and past the total cap
    wq = wp_for(3, seed=8)
    wp = WeightParams(fld.of(wq.q), tuple(map(fld.of, wq.s)), tuple(map(fld.of, wq.z)), fld)
    mods = modules_of(wp)
    up, diag = (1, 2, fld.of(Fraction(1, 2))), (1, 1, fld.of(Fraction(3, 7)))
    for key, caps, entries in [((0, 0, 2), (2, 4), [up]),
                               ((2, 0, 0), (2, 4), [diag, up, diag]),
                               ((1, 1, 1), (2, 3), [up, diag])]:
        images = {}
        vec = TensorVector(fld, 3, *caps, {(0, 0, 0): fld.of(5), key: fld.one})
        with pytest.raises(DepthOverflowError):
            apply_by_basis(vec, entries, mods, wp.q, images)
        # the key swept before the overflow keeps its image; the
        # overflowing one has none
        assert list(images) == [(*caps, (0, 0, 0))]


@pytest.mark.parametrize("field", ["rational", "prime"])
def test_rll_sweeps_each_basis_image_once(monkeypatch, field):
    # one sweep per distinct (cap pair, basis key, entry, argument): 160 at
    # n = 3, where applying every L entry to every vector made 600
    calls = []
    sweep = uqrep.tensor_entry

    def counted(vec, i, j, u, *args, **kwargs):
        calls.append((vec.cap, vec.total_cap, tuple(vec.num), i, j, u))
        return sweep(vec, i, j, u, *args, **kwargs)

    monkeypatch.setattr(uqrep, "tensor_entry", counted)
    report = verify_rll(RunConfig(check="rll", n=3, trials=1, seed=1, field=field))
    assert report.verdict == "verified"
    assert len(calls) == len(set(calls)) == 160
    assert all(len(key) == 1 for _, _, key, *_ in calls)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prime_field_strings_reduce_the_rational_ones(seed):
    # a mutated bc1 string and a by-basis lowering string over QQ and over
    # GF(p), from the same draws: each GF(p) coefficient is the reduction of
    # the rational one, and both leave the same nonzero keys
    gf = PrimeField(DEFAULT_PRIME)
    cfg = RunConfig(check="bc1", ell=2, n=3, i=1, j=3)
    wq = impose_resonance(wp_for(3, seed=seed), cfg.i, cfg.j, cfg.ell)
    draws = Sampler(SamplerConfig(seed + 100)).draw_distinct(cfg.ell + 4)
    t, word_u = draws[:cfg.ell], draws[cfg.ell:]
    args = bc_strings(cfg, wq)
    entries = [(2, 1, u) for u in args] + [(1, 2, ta) for ta in t]
    outs = {}
    for fld in (QQ, gf):
        wp = WeightParams(fld.of(wq.q), tuple(map(fld.of, wq.s)),
                          tuple(map(fld.of, wq.z)), fld)
        mods = modules_of(wp)
        ents = [(i, j, fld.of(u)) for i, j, u in entries]
        cap, total_cap = mutated_caps(cfg.ell + 2, cfg.ell + 2, 3, len(ents))
        v0 = TensorVector.generating(fld, 3, cap, total_cap)
        spanning = [v0] + [tensor_entry(v0, i, j, fld.of(u), mods, wp.q)
                           for (i, j), u in zip([(1, 2), (1, 1), (2, 2), (1, 2)], word_u)]
        lower, images = ents[:cfg.ell + 1], {}
        outs[fld] = ([apply_string(v0, ents, mods, wp.q, mutate=True)]
                     + [apply_by_basis(vec, lower, mods, wp.q, images, mutate=True)
                        for vec in spanning])
    assert len(outs[QQ]) == len(outs[gf]) == 6
    assert any(not out.is_zero() for out in outs[QQ])
    for rat, red in zip(outs[QQ], outs[gf]):
        assert [k for k, _ in nonzero_items(rat)] == [k for k, _ in nonzero_items(red)]
        assert all(gf.of(c) == red.coeff(k) for k, c in nonzero_items(rat))


@pytest.mark.parametrize("mutate", [False, True])
def test_linear_reuse_matches_direct_strings(mutate):
    wp = impose_resonance(wp_for(3, seed=21), 1, 3, 1)
    mods = modules_of(wp)
    us = Sampler(SamplerConfig(22)).draw_distinct(8)
    spanning = [TensorVector.generating(QQ, 3, 6, 18)]
    for u, (i, j) in zip(us, [(1, 2), (1, 1), (2, 2), (1, 2)]):
        spanning.extend(tensor_entry(vec, i, j, u, mods, wp.q) for vec in list(spanning))
    lower = [(2, 1, u) for u in us[4:6]]
    images = {}
    outs = [apply_by_basis(vec, lower, mods, wp.q, images, mutate=mutate)
            for vec in spanning]
    assert len(outs) == len(spanning) == 16
    assert any(not out.is_zero() for out in outs)
    for vec, out in zip(spanning, outs):
        want = apply_string(vec, lower, mods, wp.q, mutate=mutate)
        assert nonzero_items(out) == nonzero_items(want)


def basis_vec(fld, key, cap=6):
    n = len(key)
    return TensorVector(fld, n, cap, cap * n, {key: fld.one})


def test_defining_relations_on_basis_vectors():
    # q^H E = q E q^H, q^H F = q^{-1} F q^H, [E, F] = (q^{2H}-q^{-2H})/(q-1/q)
    wp = wp_for(1)
    q, s = wp.q, wp.s[0]
    qh = lambda k: s * q ** (-k)
    for k in range(5):
        if k > 0:
            # q^H (E F^k v) vs q E (q^H F^k v)
            assert qh(k - 1) * gamma(k, s, q) == q * gamma(k, s, q) * qh(k)
        assert qh(k + 1) == (1 / q) * qh(k)
        lhs = gamma(k + 1, s, q) - (gamma(k, s, q) if k > 0 else QQ.zero)
        assert lhs == (qh(k) ** 2 - qh(k) ** -2) / (q - 1 / q)
    assert gamma(1, s, q) == (s * s - 1 / (s * s)) / (q - 1 / q)


def test_gamma_matches_product_form():
    wp = wp_for(1, seed=4)
    q, s = wp.q, wp.s[0]
    for r in range(1, 6):
        lhs = gamma(r, s, q) * (q - 1 / q)
        rhs = (q ** r - q ** (-r)) * (s * s * q ** (1 - r) - q ** (r - 1) / (s * s)) / (q - 1 / q)
        assert lhs == rhs


def test_single_factor_entries():
    wp = wp_for(1, seed=5)
    q, s, z = wp.q, wp.s[0], wp.z[0]
    mods = modules_of(wp)
    u = Fraction(9, 4)
    v = basis_vec(QQ, (0,))
    raised = tensor_entry(v, 1, 2, u, mods, q)
    assert nonzero_items(raised) == [((1,), -(u / z) * (q - 1 / q))]
    diag = tensor_entry(v, 1, 1, u, mods, q)
    assert nonzero_items(diag) == [((0,), -((u / z) * s - 1 / s))]
    lowered = tensor_entry(v, 2, 1, u, mods, q)
    assert lowered.is_zero()


def test_coproduct_two_factor_expansion():
    # entry (1,2) over two slots equals L11 (x) L12 + L12 (x) L22
    wp = wp_for(2, seed=6)
    q = wp.q
    mods = modules_of(wp)
    u = Fraction(3, 8)
    for key in [(0, 0), (1, 0), (1, 1)]:
        v = basis_vec(QQ, key)
        got = tensor_entry(v, 1, 2, u, mods, q)
        exp = v.copy_empty()
        m1 = modules_of(WeightParams(q, wp.s[:1], wp.z[:1], QQ))
        m2 = modules_of(WeightParams(q, wp.s[1:], wp.z[1:], QQ))
        # hand expansion: L11(slot1) L12(slot2) + L12(slot1) L22(slot2)
        for k1c, c1 in nonzero_items(tensor_entry(basis_vec(QQ, key[:1]), 1, 1, u, m1, q)):
            for k2c, c2 in nonzero_items(tensor_entry(basis_vec(QQ, key[1:]), 1, 2, u, m2, q)):
                exp.add_term(k1c + k2c, c1 * c2)
        for k1c, c1 in nonzero_items(tensor_entry(basis_vec(QQ, key[:1]), 1, 2, u, m1, q)):
            for k2c, c2 in nonzero_items(tensor_entry(basis_vec(QQ, key[1:]), 2, 2, u, m2, q)):
                exp.add_term(k1c + k2c, c1 * c2)
        assert (got - exp).is_zero()

        # diagonal entry: L11 (x) L11 + L12 (x) L21
        got11 = tensor_entry(v, 1, 1, u, mods, q)
        exp11 = v.copy_empty()
        for k1c, c1 in nonzero_items(tensor_entry(basis_vec(QQ, key[:1]), 1, 1, u, m1, q)):
            for k2c, c2 in nonzero_items(tensor_entry(basis_vec(QQ, key[1:]), 1, 1, u, m2, q)):
                exp11.add_term(k1c + k2c, c1 * c2)
        for k1c, c1 in nonzero_items(tensor_entry(basis_vec(QQ, key[:1]), 1, 2, u, m1, q)):
            for k2c, c2 in nonzero_items(tensor_entry(basis_vec(QQ, key[1:]), 2, 1, u, m2, q)):
                exp11.add_term(k1c + k2c, c1 * c2)
        assert (got11 - exp11).is_zero()


def test_depth_grading():
    wp = wp_for(3, seed=7)
    mods = modules_of(wp)
    u = Fraction(2, 5)
    vec = basis_vec(QQ, (1, 0, 2))
    for (i, j, shift) in [(1, 2, 1), (2, 1, -1), (1, 1, 0), (2, 2, 0)]:
        out = tensor_entry(vec, i, j, u, mods, wp.q)
        for key, _ in nonzero_items(out):
            assert sum(key) == 3 + shift


def test_depth_cap_overflow_is_loud():
    wp = wp_for(1, seed=8)
    mods = modules_of(wp)
    vec = TensorVector(QQ, 1, 1, 1, {(1,): QQ.one})
    with pytest.raises(DepthOverflowError):
        tensor_entry(vec, 1, 2, Fraction(1, 2), mods, wp.q)


@pytest.mark.parametrize("fld", [QQ, PrimeField(DEFAULT_PRIME)])
def test_combining_vectors_checks_caps_once_not_keys(monkeypatch, fld):
    # every stored key has passed the cap check, so + and - compare the
    # caps of the two vectors and re-check no key
    a = TensorVector(fld, 2, 3, 4, {(1, 2): fld.of(3), (0, 0): fld.one})
    b = TensorVector(fld, 2, 3, 4, {(1, 2): fld.of(2), (3, 1): fld.of(5)})
    for other in (TensorVector(fld, 2, 4, 4), TensorVector(fld, 2, 3, 5),
                  TensorVector(fld, 3, 3, 4),
                  TensorVector(QQ if fld is not QQ else PrimeField(101), 2, 3, 4)):
        with pytest.raises(UsageError):
            a + other
        with pytest.raises(UsageError):
            other - a
    checked = []
    monkeypatch.setattr(TensorVector, "check_key",
                        lambda self, key: checked.append(key))
    total, diff = a + b, a - b
    assert checked == []
    assert nonzero_items(total) == [((0, 0), fld.one), ((1, 2), fld.of(5)),
                                    ((3, 1), fld.of(5))]
    assert nonzero_items(diff) == [((0, 0), fld.one), ((1, 2), fld.one),
                                   ((3, 1), -fld.of(5))]


def test_operator_entries_are_polynomial_of_degree_n_in_u():
    # Lagrange interpolation through n+1 points predicts an (n+2)-nd value
    for n in (2, 3):
        wp = wp_for(n, seed=9 + n)
        mods = modules_of(wp)
        s = Sampler(SamplerConfig(40 + n))
        us = s.draw_distinct(n + 2)
        vec = basis_vec(QQ, (1,) * n)
        outs = [tensor_entry(vec, 1, 1, u, mods, wp.q) for u in us]
        keys = set()
        for o in outs:
            keys.update(k for k, _ in nonzero_items(o))
        for key in keys:
            vals = [o.coeff(key) for o in outs]
            target = QQ.zero
            for r in range(n + 1):
                term = vals[r]
                for m in range(n + 1):
                    if m != r:
                        term = term * (us[n + 1] - us[m]) / (us[r] - us[m])
                target = target + term
            assert target == vals[n + 1]


def test_param_map():
    wp = WeightParams(Fraction(2), (Fraction(3),), (Fraction(5),), QQ)
    pp = param_map(wp, 1)
    assert pp.eta == 4 and pp.x == (Fraction(45),) and pp.y == (Fraction(5, 9),)
    wp2 = wp_for(2, seed=11)
    pp2 = param_map(wp2, 2)
    for xm, ym, zm in zip(pp2.x, pp2.y, wp2.z):
        assert xm * ym == zm * zm


def test_resonance_maps_to_eta_power_constraint():
    # z_i = s_i^2 s_j^2 q^(-2 ell) z_j  maps to  x_j = eta^ell y_i
    for ell in (0, 1, 2, 3):
        wp = impose_resonance(wp_for(2, seed=12), 1, 2, ell)
        pp = param_map(wp, ell)
        assert pp.x[1] == pp.eta ** ell * pp.y[0]


def test_kbi_both_directions():
    for (ell, n) in [(0, 2), (1, 1), (2, 2), (3, 2)]:
        wp = wp_for(n, seed=13 + ell + n)
        s = Sampler(SamplerConfig(60 + ell))
        t = tuple(s.draw_distinct(ell))
        mods = modules_of(wp)
        cap = ell + 2
        v0 = TensorVector.generating(QQ, n, cap, cap)
        lhs = apply_string(v0, [(1, 2, ta) for ta in t], mods, wp.q)
        pp = param_map(wp, ell)
        assert (lhs - kbi_raising_rhs(wp, pp, t)).is_zero()
        for lam in enumerate_partitions(ell, n):
            start = TensorVector(QQ, n, cap, cap, {tuple(lam.multiplicities()): QQ.one})
            low = apply_string(start, [(2, 1, ta) for ta in t], mods, wp.q)
            expect = kbi_lowering_rhs(wp, lam, weight(lam, t, pp, primed=True))
            assert (low - v0.scaled(expect)).is_zero()


def test_bc_and_singular_drivers():
    assert verify_bc(RunConfig(check="bc1", ell=1, n=2, trials=1, seed=1)).verdict == "verified"
    assert verify_bc(RunConfig(check="bc2", ell=1, n=2, trials=1, seed=1)).verdict == "verified"
    assert verify_bc(RunConfig(check="bc2", ell=2, n=3, i=1, j=3, trials=1,
                               seed=1)).verdict == "verified"
    # bc2 detects the lifted resonance; bc1 vanishes by depth grading alone
    r = verify_bc(RunConfig(check="bc2", ell=1, n=2, trials=1, seed=1, no_constraint=True))
    assert r.verdict == "condition-not-satisfied"
    r = verify_bc(RunConfig(check="bc1", ell=1, n=2, trials=1, seed=1, no_constraint=True))
    assert r.verdict == "verified"
    assert any("depth grading" in note for note in r.notes)
    # both fall to the mutated lowering operator
    assert verify_bc(RunConfig(check="bc1", ell=1, n=2, trials=1, seed=1,
                               mutate=True)).verdict == "falsified"
    assert verify_bc(RunConfig(check="bc2", ell=1, n=2, trials=1, seed=1,
                               mutate=True)).verdict == "falsified"
    with pytest.raises(UsageError):
        validate(RunConfig(check="bc2", ell=0, n=2))

    assert verify_singular(RunConfig(check="singular", ell=1, n=2, trials=1,
                                     seed=1)).verdict == "verified"
    assert verify_singular(RunConfig(check="singular", ell=1, n=2, trials=1, seed=1,
                                     no_constraint=True)).verdict == "condition-not-satisfied"
    assert verify_singular(RunConfig(check="singular", ell=1, n=2, trials=1, seed=1,
                                     mutate=True)).verdict == "falsified"


@pytest.mark.parametrize("check, ell, seed", [
    ("bc1", 2, 1), ("bc2", 1, 1), ("bc2", 3, 1), ("singular", 1, 1)])
def test_mutated_runs_fit_their_widened_caps(check, ell, seed):
    # with three factors a mutated chain 2 -> 1 -> 2 -> 1 raises the depth
    # past the in-contract caps
    verify = verify_singular if check == "singular" else verify_bc
    report = verify(RunConfig(check=check, ell=ell, n=3, i=1, j=3, trials=1,
                              seed=seed, mutate=True))
    assert report.verdict == "falsified"


def test_singular_lists_a_bounded_number_of_residuals():
    report = verify_singular(RunConfig(check="singular", ell=3, n=3, i=1, j=3,
                                       trials=1, seed=10, mutate=True))
    assert report.verdict == "falsified"
    value = report.trials[0].value
    assert len(value) == MAX_LISTED_RESIDUALS + 1
    assert value[-1].endswith("further nonzero residuals not listed")
    assert int(value[-1].split()[0]) > 1000


def test_rll_driver_and_field_agreement():
    r_rat = verify_rll(RunConfig(check="rll", n=2, trials=2, seed=3))
    r_gf = verify_rll(RunConfig(check="rll", n=2, trials=2, seed=3, field="prime"))
    assert r_rat.verdict == "verified"
    assert r_gf.verdict == "verified"
    assert verify_rll(RunConfig(check="rll", n=1, trials=1, seed=3)).verdict == "verified"
    assert verify_rll(RunConfig(check="rll", n=2, trials=1, seed=3,
                                mutate=True)).verdict == "falsified"


def test_kbi_driver_and_prime_mode():
    assert verify_kbi(RunConfig(check="kbi", ell=2, n=2, trials=1, seed=2)).verdict == "verified"
    assert verify_kbi(RunConfig(check="kbi", ell=2, n=2, trials=1, seed=2,
                                field="prime")).verdict == "verified"
    r = verify_kbi(RunConfig(check="kbi", ell=1, n=1, trials=1, seed=2, mutate=True))
    assert r.verdict == "falsified"
    assert any("(-1)^ell" in note for note in r.notes)
