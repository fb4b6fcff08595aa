"""Layer kernels: the public functions of single layers timed on seeded
generated inputs, outside any check.

Each kernel is timed in `REPEATS` rounds of enough calls to fill about
`ROUND_S` seconds, and reports the median round's time per call, in
reference seconds (see calib.py), except the scalar kernels (`*_ns`).  A
QQ scalar is a `Fraction`, as is the calibration loop, so in reference
seconds the QQ kernels would be pinned to the loop; the four scalar kernels
are reported in unscaled seconds instead, so that QQ and GF(p) are
measured the same way.
"""

import statistics

from calib import Clock
from qident.exactnum import (
    PSeries, PrimeField, QQ, Sampler, SamplerConfig, theta)
from qident.linalg import mat_det
from qident.partitions import enumerate_partitions
from qident.polyweights import sample_poly_params, sample_t, weight
from qident.reporting import DEFAULT_PRIME

REPEATS = 5
ROUND_S = 0.02


def per_call_s(fn, args, repeats=REPEATS, round_s=ROUND_S):
    """Medians over `repeats` rounds of (unscaled, reference) seconds per
    call, cycling through `args`; a round makes enough calls to last about
    `round_s` (one call if `round_s` is 0)."""
    def one_round(calls):
        for idx in range(calls):
            fn(*args[idx % len(args)])

    clock = Clock()
    calls = 1
    while round_s:
        elapsed = clock.call(one_round, calls)[1][0]
        if elapsed >= round_s / 4 or calls >= 1 << 20:
            calls = max(1, int(calls * round_s / max(elapsed, 1e-9)))
            break
        calls *= 4
    rounds = [clock.call(one_round, calls)[1] for _ in range(repeats)]
    return tuple(statistics.median(r[col] for r in rounds) / calls
                 for col in (0, 2))


def _series(sampler, order):
    return PSeries(sampler.field, [sampler.draw() for _ in range(order + 1)], order)


def _mat(make, size):
    return [[make() for _ in range(size)] for _ in range(size)]


def run(seed, quick=False):
    """Metric name -> value for every kernel, on inputs drawn from `seed`."""
    repeats, round_s = (1, 0) if quick else (REPEATS, ROUND_S)

    def time_it(fn, args):
        return per_call_s(fn, args, repeats, round_s)[1]

    def time_ns(fn, args):
        return per_call_s(fn, args, repeats, round_s)[0] * 1e9

    qq = Sampler(SamplerConfig(seed))
    gf = Sampler(SamplerConfig(seed), PrimeField(DEFAULT_PRIME))
    pairs_qq = [(qq.draw(), qq.draw()) for _ in range(64)]
    pairs_gf = [(gf.draw(), gf.draw()) for _ in range(64)]
    out = {
        "exactnum.qq_mul_ns": time_ns(lambda a, b: a * b, pairs_qq),
        "exactnum.qq_div_ns": time_ns(lambda a, b: a / b, pairs_qq),
        "exactnum.gfp_mul_ns": time_ns(lambda a, b: a * b, pairs_gf),
        "exactnum.gfp_inv_ns": time_ns(lambda a, _: a.inverse(), pairs_gf),
    }
    for order in (6, 12, 24):
        series = [(_series(qq, order), _series(qq, order)) for _ in range(4)]
        out["exactnum.pseries_mul_us.k%d" % order] = \
            time_it(lambda a, b: a * b, series) * 1e6
        if order == 12:
            out["exactnum.pseries_inverse_us.k12"] = \
                time_it(lambda a, _: a.inverse(), series) * 1e6
        points = [(qq.draw(), 1, order) for _ in range(4)]
        out["exactnum.theta_us.k%d" % order] = time_it(theta, points) * 1e6
    for ell in (3, 4, 5):
        params = sample_poly_params(qq, ell, 3)
        lam = enumerate_partitions(ell, 3)[-1]
        args = [(lam, sample_t(qq, ell), params) for _ in range(2)]
        out["polyweights.weight_ms.ell%d" % ell] = time_it(weight, args) * 1e3
    one, zero = QQ.one, QQ.zero
    mats = [(_mat(qq.draw, 10), one, zero) for _ in range(2)]
    out["linalg.mat_det_ms.qq10"] = time_it(mat_det, mats) * 1e3
    s_one, s_zero = (PSeries.constant(QQ, c, 6) for c in (one, zero))
    mats = [(_mat(lambda: _series(qq, 6), 10), s_one, s_zero,
             lambda s: s.invertible(), lambda s: s.is_zero()) for _ in range(2)]
    out["linalg.mat_det_ms.series10"] = time_it(mat_det, mats) * 1e3
    return out
