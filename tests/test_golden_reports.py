"""Replay of the benchmark's four mixes (`poly`, `elliptic`, `uq`, `prime`)
at seeds 1 and 2, in-process through `cli.run_one`: every
canonical report must hash to its golden digest in benchmarks/goldens.json,
so a faster evaluation path that changes any reported value fails here, not
only in the benchmark run.  The mutated `singular` of `uq` (entry 9) has no
golden digest; its report, thousands of large exact rationals, is pinned in
`PINNED` by the sha256 digest and length recorded from the `Fraction`-based
tensor operators.  No workload runs a mutated `mn` or `xt`; their reports
at seeds 1 and 2 over both fields are pinned the same way in
`PINNED_MUTATED`, recorded from the entry-by-entry product loops that
`linalg.mat_mul` replaced in `residue_pairing` and the `mn` and `xt`
checks.  Elimination and products at sizes no workload reaches are
pinned in `PINNED_FRONTIER`, recorded from the `Fraction` and
`PrimeScalar` elimination that `linalg` ran before its bare-integer
paths; detq at (5, 5) over QQ is pinned in `PINNED_DETQ_FRONTIER`,
recorded from the rational elimination before it loaded each row
primitive.  Tensor checks at sizes no workload reaches, and mutated ones,
are pinned in `PINNED_TENSOR`, recorded from the operator sweep that
applied each entry to whole vectors, before the per-trial basis-image
table; the mutated `kbi` and `bc1` runs there, and the `singular` run with
the resonance lifted in `PINNED_TENSOR_LIFTED`, were recorded from the
sweep that rebuilt each slot's diagonal values per target state, before
one pass per (slot, state) replaced it.
Residue sums at sizes no workload reaches are pinned in `PINNED_RESIDUE`,
recorded from the step-by-step pole cancellation and the separate theta
residue that one kernel residue for both layers replaced.  Mutated `xx`
and `xt` reports print every series coefficient, so those in
`PINNED_SERIES` pin (p; p)^3 and (p^5; p^5)_inf themselves; they were
recorded from the truncated q-Pochhammer products that theta values
replaced.  Negative controls that print a whole window sum or det A are
pinned in `PINNED_FORMULA`, recorded from the column, norm, window
coefficient and det A products written once per layer, before both layers
wrote them once over the parameters' linear factor.  Mutated `pp`, `detq`,
`id1`, `id2`, `idp1` and `idp2` reports, which no workload runs, are
pinned in `PINNED_DRIVER`, recorded from the drivers that formatted their
values themselves and the per-layer Gram checks, norms and window
coefficients, before the parameters supplied the norm and the window
coefficient and `reporting` wrote every exact value.  The prime-field runs
of `id1`, `id2`, `idp1`, `idp2`, `xt` and `detprod` and the lifted-constraint
runs of `id2` and `idp2`, which nothing above prints, are pinned in
`PINNED_ROWS`, recorded from the per-module drivers before each of these
checks became a row of the check table (sampler, value, constraint lines)
run by one trial loop, now `reporting.run_trials`.  Each entry states its verdict: a lifted
constraint leaves `id2` not satisfied but `idp2` verified, since `idp2`
depends on the parameters only through beta.  Plain and mutated `kbi`,
`jing`, `id2`, `deta` and `pp` runs at seed 3 over both fields are pinned
in `PINNED_POINTS`, recorded from the weight columns, pair tables and
kernel residues built by field operations, before they were built from
cleared integer coordinates.  Plain and mutated `xx`, `idp1`, `idp2`, `xt`
and `detprod` runs at seed 3 over both fields are pinned in
`PINNED_THETA_POINTS`, recorded from the theta columns, pair factors and
basis products built by series ring operations, before they were built as
integer coefficient lists over one denominator per point.  The
prime-field, mutated and lifted-resonance runs of `bc1`, `bc2` and `resI`
that nothing above prints are pinned in `PINNED_LAST_DRIVERS`, recorded
from the last per-check drivers before every check became a row.  Plain
and mutated `jing` at ell 1 and 2 and `idp2` at (1, 2, K=0) and
(2, 2, K=3), two trials at seed 1 over both fields, the smallest sizes of
the two alternating sums, are pinned in `PINNED_PREFACTORS`, recorded from
the sums that rebuilt every prefactor for each k and multiplied it into
the symmetrized sum themselves, before the prefactors went through
`symmetrize`'s scales.  Plain and mutated `xt` at (3, 3, K=6), plain
`xt` at (4, 2, K=6) and `resI` at (5, 2) over both fields, and `detq` at
(5, 5) over GF(p), one trial at seed 1, the pair-free sums of the theta
basis products and the monomials at sizes nothing above prints, are pinned
in `PINNED_PAIR_FREE`, recorded from the subset trie that `symmetrize` ran
with or without a pair table, before the pair-free sums ran over
sub-multiset layers.  `detprod` at (4, 3, K=6), plain and mutated `xt` at
(2, 4, K=8) and `jing` at ell 12, one trial at seed 1 over both fields,
the theta subset layers, the series solve and the integer subset layers at
sizes nothing above prints, are pinned in `PINNED_HOT_LOOPS`, recorded
from the series eliminations and products that normalized each product and
each difference on its own and the subset layers that made two products
per move, before one normalization per series result and one multiply per
move where the trie shares a column.  Plain and mutated `idp2` at
(6, 2, K=8) and `idp1` at (4, 3, 1, 3, K=6), one trial at seed 1 over both
fields, the two-chain subset layers above ell 3, are pinned in
`PINNED_CHAINS`, recorded from the subset layers that walked the trie
depth first and moved an unshared node by its two factors, before they
walked it one depth at a time."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks")
sys.path.insert(0, BENCH)

from worker import build_manifest, digest, load_goldens   # noqa: E402

from qident.cli import run_one   # noqa: E402
from qident.reporting import (   # noqa: E402
    CONDITION_NOT_SATISFIED, FALSIFIED, VERIFIED, RunConfig)

RUNS = [(mix, seed) for seed in (1, 2) for mix in ("poly", "elliptic", "uq", "prime")]
MANIFESTS = {run: build_manifest(*run, smoke=False) for run in RUNS}
GOLDENS = {run: load_goldens(*run, smoke=False) for run in RUNS}
# (mix, seed, entry) -> (digest, length) for the entries without a golden
PINNED = {
    ("uq", 1, 9): ("afa1046e7c58932542c24887e690967acf4e21ba2125c43f3cb590c7f1173ee8", 81037),
    ("uq", 2, 9): ("4597fd047c8a853866b48e9bd73efe3839b5df7f1054c46e5567e8681c968c0c", 86769),
}
# (check, field, seed) -> (digest, length) of one mutated trial at SIZES
SIZES = {"mn": dict(ell=3, n=3), "xt": dict(ell=2, n=3, k=8)}
PINNED_MUTATED = {
    ("mn", "rational", 1):
        ("a1a1b5bf6c1e3a9d846cb937cfb9b1ebf6bb6bf5515b68c370bfbdb820fd2a2f", 1616),
    ("mn", "rational", 2):
        ("0c10e4dd82d5055543531dffb35a20f7b27a5d3c75ac17e7306f90274fa955ff", 1596),
    ("mn", "prime", 1):
        ("9084bf8952813883eadab696822efebffdf651dd7a7658e42b23776d640b73e7", 1345),
    ("mn", "prime", 2):
        ("d87c989cb70eaafb6f9d70c1f80a71f8fa0a10538e2b68a5e026da332c3bd333", 1346),
    ("xt", "rational", 1):
        ("9a4fcac6390a5a79834429d4283b7373cd0931f4f3f80f028dc8f806ff95ccaf", 4462),
    ("xt", "rational", 2):
        ("18484bab5ff5e74dd1c0fa05caef1228e9d2365ed4ab7a497a1bc0b4548e466e", 4512),
    ("xt", "prime", 1):
        ("090d09d8ff4b7a7c87e1e2f1c65b84a83b1fa55a10dff26c3b22b1c63306641f", 2262),
    ("xt", "prime", 2):
        ("7084106531863573d8f8f395acc6ba277cc87ebac9efac6c92e5766beaa9ac5f", 2258),
}

# (check, field, mutate) -> (digest, length) of one trial at seed 1 at
# FRONTIER_SIZES
FRONTIER_SIZES = {"detq": dict(ell=5, n=4), "deta": dict(ell=4, n=4), "mn": dict(ell=4, n=3)}
PINNED_FRONTIER = {
    ("detq", "rational", False):
        ("5e0e51a98789db9650a9c30fc731a95ff1e894adfe6297bb2950e8c0f1678dcf", 705),
    ("detq", "prime", False):
        ("b316948f0f253608b0804ae13b1c4d0c9f98059956c49961ffbf6f1a944179fd", 852),
    ("deta", "rational", False):
        ("8b412836f5590d9a0e26395b4eaa6a7dc16cdf4fdd7e85b24f2dcb07c03b7f07", 705),
    ("deta", "prime", False):
        ("3ff12032b3a5369235670c0e9cbeca13b79fe933bc7f6a215512c8c9e959fbe2", 852),
    ("mn", "rational", False):
        ("9b38fa8b727234ae4c34751c975ea416937f2d562a3e70482edd8a72c935326e", 697),
    ("mn", "prime", False):
        ("54b0b269f151a6f26a590d2f5a89957e68904923e12cf15646c0608ccb2e530d", 820),
    ("mn", "rational", True):
        ("95c2ca7b1dbd5bbc572c1bf6158a9bacfab37085ec55e659f34b53b05760e3cc", 2749),
    ("mn", "prime", True):
        ("7a1d751ca78d72c316b7acd1f6baa7f1c662249bc2f29013b9d554e691d19f89", 1610),
}

# detq at (ell, n) = (5, 5), rational, one trial at seed 1: the largest
# rational elimination pinned, recorded before `RatRows.load` made each row
# primitive
PINNED_DETQ_FRONTIER = (
    "dd78f66a491505d058b08add9ff90eecce0e84faf1a2572993171ccd5538095e", 739)


def test_detq_frontier_report_matches_pinned_digest():
    report = run_one(RunConfig(check="detq", field="rational", seed=1, trials=1, ell=5, n=5))
    assert report.verdict == VERIFIED
    assert digest(report) == PINNED_DETQ_FRONTIER


def replay_test(mix, seed):
    """The replay test of one (mix, seed) of RUNS, parametrized over the
    manifest's entries: each has a golden digest, except the PINNED ones."""

    @pytest.mark.parametrize("index", range(len(MANIFESTS[mix, seed])))
    def test(index):
        cfg, expect = MANIFESTS[mix, seed][index]
        report = run_one(cfg)
        assert report.verdict == expect
        golden = GOLDENS[mix, seed][index]
        pinned = PINNED.get((mix, seed, index))
        if pinned is None:
            assert golden is not None and digest(report)[0] == golden
        else:
            assert golden is None and digest(report) == pinned
    return test


# one body for every run, bound under the test ids the replays have always had
test_poly_report_matches_golden_digest = replay_test("poly", 1)
test_elliptic_report_matches_golden_digest = replay_test("elliptic", 1)
test_uq_report_matches_golden_digest = replay_test("uq", 1)
test_prime_report_matches_golden_digest = replay_test("prime", 1)
test_poly_seed_2_report_matches_golden_digest = replay_test("poly", 2)
test_elliptic_seed_2_report_matches_golden_digest = replay_test("elliptic", 2)
test_uq_seed_2_report_matches_golden_digest = replay_test("uq", 2)
test_prime_seed_2_report_matches_golden_digest = replay_test("prime", 2)


# (check, field, mutate) -> (digest, length) of one trial at seed 1 at
# TENSOR_SIZES
TENSOR_SIZES = {
    ("rll", False): dict(n=5),
    ("singular", False): dict(ell=4, n=4, i=1, j=4),
    ("kbi", False): dict(ell=6, n=4),
    ("bc2", False): dict(ell=6, n=5, i=1, j=5),
    ("singular", True): dict(ell=4, n=3, i=1, j=3),
    ("rll", True): dict(n=4),
    ("kbi", True): dict(ell=6, n=4),
    ("bc1", True): dict(ell=5, n=4, i=1, j=4),
}
PINNED_TENSOR = {
    ("rll", "rational", False):
        ("1dd6ebb3ae746931119c11664f1cd4dfd8cdd0e95b029893b12f89eeaac2c433", 760),
    ("rll", "prime", False):
        ("24b59d597d7708096cefd16589368cb55e47495e25d1927a38382ef0be723483", 883),
    ("singular", "rational", False):
        ("2564d4285abc9c3cd17103abf1b1608f8f37bce8356c0ae008dd8026c2c43679", 13481),
    ("singular", "prime", False):
        ("a1466355ec57e67736814c28b39f42a33ce545e68fbb334a88d2fd97e55eb39c", 13606),
    ("kbi", "rational", False):
        ("24e7d7ee759e07299b666d246818ca0859de1d74e28630232462bc919b6959dd", 964),
    ("kbi", "prime", False):
        ("4d478c1af011fc1ef66bb593fe57ae5b34284f3a3d2939d98bfd45bd3da31ccb", 1089),
    ("bc2", "rational", False):
        ("8dccd217de47591dfa2de32c6c50cb01ae6dc18637201f4e4cca200fc28d4150", 886),
    ("bc2", "prime", False):
        ("35f0ad0b74e5cd33d229c7057efaafcc515ef9aeee544b7491b4185caa1bbb16", 1009),
    ("singular", "rational", True):
        ("4cc7cd1e282d0be9eb2175d2d260686088d1f0c0819debc60c2a8c52efdbafee", 128771),
    ("singular", "prime", True):
        ("2c461837aa414a9d3c969b0dd5a88c3e76d1ae3858b8f11589165c510f186780", 27705),
    ("rll", "rational", True):
        ("23a2dd726d5c79f6fe2849c7bd9a5128f56257faebcf39cebcb6cf29ccfb078f", 69358),
    ("rll", "prime", True):
        ("7c3d3dcc0df12470f882b23bb543cf7fa9dc9a3beda1db8eea3edb3e06b1fc0c", 28616),
    ("kbi", "rational", True):
        ("f05c66fa4536e18838d7d855743e4e362b267156f380f2369f89604779834598", 98042),
    ("kbi", "prime", True):
        ("b3c2c57e7a6d0ec32821e81c7caec02c61fa00f0e202ed18a6bf0d6aa86ba463", 14291),
    ("bc1", "rational", True):
        ("83c9fdeefaa45c73e4970f1290978eb4d78b0747f3ec721dbf03d4eb5931bdb1", 3356055),
    ("bc1", "prime", True):
        ("391e3189d8e51da7c43f02d8e38ba3af8f5f93a2dc3f2324815f4975d88c03ef", 135167),
}
# (check, field) -> (digest, length) of one trial with the resonance lifted
# (--no-constraint) at seed 1 at LIFTED_TENSOR_SIZES
LIFTED_TENSOR_SIZES = {"singular": dict(ell=4, n=4, i=1, j=4)}
PINNED_TENSOR_LIFTED = {
    ("singular", "rational"):
        ("5eb6baea24e3be5fecebda6820b2505d4b06b763a492207e9213a7071283ddb1", 186045),
    ("singular", "prime"):
        ("540ab3a772099acd6e417405d1549c5d1ec8453df77fe1589d5caf1443973f69", 28350),
}


# (check, field) -> (digest, length) of one trial at seed 1 at RESIDUE_SIZES
RESIDUE_SIZES = {"pp": dict(ell=5, n=4), "mn": dict(ell=4, n=4), "resI": dict(ell=4, n=3),
                 "xx": dict(ell=3, n=3, k=6)}
PINNED_RESIDUE = {
    ("mn", "prime"):
        ("9920d7f4ee5bd584cf52426bcfc9b59cdc64d0762f6d37df80bbdb8bff867174", 852),
    ("mn", "rational"):
        ("60507467cd8dee0f6d7ba191c11af7a4e3037accbe54886ef777b4f5b7e967d7", 729),
    ("pp", "prime"):
        ("8b1a2bf1082b1727a1b16ad783c91a0dbf2554a20e80a91a585a4d6a846ab3e9", 825),
    ("pp", "rational"):
        ("0811f9f9cef777d8aa45b224c329d59c4307f655bd33c96e4929ff90626f849f", 702),
    ("resI", "prime"):
        ("2b9de8e556338a73f790920d78bdd9c4a10a4f18d63a87bbad177b3b3c67434b", 3921),
    ("resI", "rational"):
        ("cb5d8ea5ab8d88d68cf6c63d6fc01bb5dec99cdf702c74be6055a0067347c938", 3796),
    ("xx", "prime"):
        ("2488bad8fb3a559abe04c0f23fb2f9b9b929ac262251240d4dcd7f1b5c32aab0", 856),
    ("xx", "rational"):
        ("c47b948c41db6ffa02460be7832b373c596201f9ae08e76373fa3a3d9e2038af", 733),
}


# (check, field) -> (digest, length) of one mutated trial at seed 1 at
# SERIES_SIZES
SERIES_SIZES = {"xx": dict(ell=2, n=3, k=20), "xt": dict(ell=1, n=5, k=16)}
PINNED_SERIES = {
    ("xt", "prime"):
        ("f1cb1d16d3ba3fd6c45dda18bd9353c4ab64ac5ffb648bde1a202ec420455cc3", 3396),
    ("xt", "rational"):
        ("a2e28dad7b158dc20f4174152c255d1dadcde1dcf10b0b5ef875cfba71b9634d", 7865),
    ("xx", "prime"):
        ("83a4350407bd1b050156b334ea4b95225e1f5dbda70ddddea5f5e1d93b54e621", 1843),
    ("xx", "rational"):
        ("ac73d4f07e21831810ad2be312c92d04bb65fc26e837d0010ca8bef168a73304", 9341),
}

# (check, field) -> (digest, length) of one trial at seed 1 at FORMULA_SIZES:
# negative controls that print a whole window sum or a closed form, so they
# pin the products written once over the parameters' linear factor
FORMULA_SIZES = {
    "id1": dict(ell=4, n=3, i=1, j=3, no_constraint=True),
    "idp1": dict(ell=2, n=4, i=1, j=4, k=6, no_constraint=True),
    "deta": dict(ell=4, n=3, mutate=True),
    "detprod": dict(ell=3, n=3, k=6, mutate=True),
}
PINNED_FORMULA = {
    ("deta", "prime"):
        ("594b551a0a08339e4533060d266e63fe9bdeacc18c7eb2c47526e7a1904061ff", 839),
    ("deta", "rational"):
        ("4334c04f3506158953744f2f79bb6e95e597c82cf036ba3d799336a4d4344d2c", 1398),
    ("detprod", "prime"):
        ("5a8078990824d8a2fc9bd12572edb266ae49119675a538055dc8fe82a7d07f53", 1322),
    ("detprod", "rational"):
        ("8f0990eecd8c9b7c25106921678901d129eb133280530d9d867c5b136dbac542", 10444),
    ("id1", "prime"):
        ("bbcbf0b957bed07286948946c14bdb1772bfe26c42bb6bad8932bf3ae9440d58", 996),
    ("id1", "rational"):
        ("75d1dfb886f63bd3bd7ae8a640ce5b91b981d46f38591700b539b82a1284ef61", 998),
    ("idp1", "prime"):
        ("d5ec01b6604de5b82465596d9feb78db6d9cb58e13feb7cf880ba585c0215d11", 1294),
    ("idp1", "rational"):
        ("ca4dfd64d89b9c0d2e2f4c7fe7068766086334a05ab518d67f605067f074134a", 3545),
}


def pinned_test(table, options):
    """The test of one pinned table, parametrized over its keys:
    `options(*key)` gives the run's `RunConfig` fields besides trials=1.
    A lifted constraint must not be satisfied, a mutated run must be
    falsified and any other run verified."""

    @pytest.mark.parametrize("key", sorted(table), ids=lambda key: "-".join(map(str, key)))
    def test(key):
        cfg = RunConfig(trials=1, **options(*key))
        report = run_one(cfg)
        assert report.verdict == (CONDITION_NOT_SATISFIED if cfg.no_constraint
                                  else FALSIFIED if cfg.mutate else VERIFIED)
        assert digest(report) == table[key]
    return test


# one body for every pinned table, bound under the test ids they have always had
test_mutated_report_matches_pinned_digest = pinned_test(
    PINNED_MUTATED, lambda check, field, seed: dict(
        check=check, field=field, seed=seed, mutate=True, **SIZES[check]))
test_frontier_report_matches_pinned_digest = pinned_test(
    PINNED_FRONTIER, lambda check, field, mutate: dict(
        check=check, field=field, seed=1, mutate=mutate, **FRONTIER_SIZES[check]))
test_tensor_report_matches_pinned_digest = pinned_test(
    PINNED_TENSOR, lambda check, field, mutate: dict(
        check=check, field=field, seed=1, mutate=mutate, **TENSOR_SIZES[check, mutate]))
test_lifted_tensor_report_matches_pinned_digest = pinned_test(
    PINNED_TENSOR_LIFTED, lambda check, field: dict(
        check=check, field=field, seed=1, no_constraint=True, **LIFTED_TENSOR_SIZES[check]))
test_residue_report_matches_pinned_digest = pinned_test(
    PINNED_RESIDUE, lambda check, field: dict(
        check=check, field=field, seed=1, **RESIDUE_SIZES[check]))
test_series_report_matches_pinned_digest = pinned_test(
    PINNED_SERIES, lambda check, field: dict(
        check=check, field=field, seed=1, mutate=True, **SERIES_SIZES[check]))
test_formula_report_matches_pinned_digest = pinned_test(
    PINNED_FORMULA, lambda check, field: dict(
        check=check, field=field, seed=1, **FORMULA_SIZES[check]))

# (check, field) -> (digest, length) of one mutated trial at seed 1 at
# DRIVER_SIZES: the drivers whose report values `reporting` writes
DRIVER_SIZES = {
    "pp": dict(ell=3, n=3),
    "detq": dict(ell=4, n=3),
    "id1": dict(ell=4, n=3, i=1, j=3),
    "id2": dict(ell=4, n=3, i=1, j=3),
    "idp1": dict(ell=2, n=3, i=1, j=3, k=6),
    "idp2": dict(ell=3, n=2, k=6),
}
PINNED_DRIVER = {
    ("detq", "prime"):
        ("15ffa18b1237260ed17ec1746502777d2a4b18bdecd4a906f46d5e67b6d6f700", 839),
    ("detq", "rational"):
        ("02dbb3249c93a0f6dadc27909a3f23e02d038304518665815f8dbe2f98316e0c", 1779),
    ("id1", "prime"):
        ("a3a8fc67b20925e2855f05a6c0b5b03ba95e9b021dabf6f45fc9c8a19bc7991b", 974),
    ("id1", "rational"):
        ("049eb6a5cbfc02a987370cfe89c6d23523414078437b846077cccab55691fe23", 1010),
    ("id2", "prime"):
        ("736bab2df9b3780f90c60704190657080cb7cec72311b155e70d1c694e42b4f7", 975),
    ("id2", "rational"):
        ("5acc1750da650ca9c21246b723729806dc04faefb6dbe9d621e1c6b136c41b4c", 1157),
    ("idp1", "prime"):
        ("5710dc030b0a4bb5eb855613acc297db10dc382a55dd2579837b1992b8b93678", 1240),
    ("idp1", "rational"):
        ("e0601506ecd38270278626760f2aaf22d60fbd02dedb4bea34bdb78dbc5fd64a", 2700),
    ("idp2", "prime"):
        ("ccd29a196c1cd887d31e604cd05ef31890b10f5adf74c8bd4e9bbe5774b742b4", 1305),
    ("idp2", "rational"):
        ("ab9217a42df6f6f7f08fcae934dc532c367346dcaed595fdbb742e630aebc239", 3415),
    ("pp", "prime"):
        ("6ecab131f3e6704a91da858d7ee9715b0da6a632eaf474ac708086bef6f70ba7", 844),
    ("pp", "rational"):
        ("7b8f02808b815eb2afe7430b912c39f1d6765cd4ebc6cb0c91ec69d4bf8e9674", 727),
}
test_driver_report_matches_pinned_digest = pinned_test(
    PINNED_DRIVER, lambda check, field: dict(
        check=check, field=field, seed=1, mutate=True, **DRIVER_SIZES[check]))

# (check, field, no_constraint) -> (verdict, digest, length) of one trial at
# seed 1 at ROW_SIZES: the prime-field and lifted-constraint variants of the
# value checks that no golden or other pinned table prints
ROW_SIZES = {
    "id1": dict(ell=4, n=3, i=1, j=3),
    "id2": dict(ell=4, n=3, i=1, j=3),
    "idp1": dict(ell=2, n=3, i=1, j=3, k=6),
    "idp2": dict(ell=3, n=2, k=6),
    "xt": dict(ell=2, n=3, k=8),
    "detprod": dict(ell=3, n=3, k=6),
}
PINNED_ROWS = {
    ("detprod", "prime", False): (VERIFIED,
        "ce72b8022e850febcbf302e946698c07b18c5d77dcb204d76a4e76738eb7af89", 1199),
    ("id1", "prime", False): (VERIFIED,
        "d685358fddab9bd32aab8a5c9f5aec0d8c99af9d0de7baa2ede5a2636311ebd2", 956),
    ("id2", "prime", False): (VERIFIED,
        "49b1f7005d778ab960a4cdc97bfe49d3bdd4fbda389d06323eba0f61f50907ff", 956),
    ("id2", "prime", True): (CONDITION_NOT_SATISFIED,
        "a96c35cbf5124695f07b9ddcc498eb024a55d85b7491b46e32ea72b021261570", 996),
    ("idp1", "prime", False): (VERIFIED,
        "4a3700d4e8caf622e5a261a03a6677d7a49e349b5697369a3693b97c7f212f36", 1115),
    ("idp2", "prime", False): (VERIFIED,
        "1d698e5d6ee126988929435c5dedef85e7a40c432df6bc27301fb441349e9f10", 1180),
    # idp2 depends on the parameters only through beta, so lifting the
    # window constraint leaves it an identity: verified, not a failed
    # condition
    ("idp2", "prime", True): (VERIFIED,
        "9cd758b30f6be331f2eeba24b7a460becd0b809fdd6a5267148da7e13c7cf61a", 1186),
    ("idp2", "rational", True): (VERIFIED,
        "0f1df18ff43248b9c90d5afba86f5817593e946e95025fb6c4a5fdd555afd6d5", 893),
    ("xt", "prime", False): (VERIFIED,
        "2bf0e746a2b3a80dfd7b73e5c64254471ca370c8dc0a7280157a7740b2340889", 961),
}


@pytest.mark.parametrize("key", sorted(PINNED_ROWS), ids=lambda key: "-".join(map(str, key)))
def test_row_report_matches_pinned_digest(key):
    check, field, no_constraint = key
    verdict, *pinned = PINNED_ROWS[key]
    report = run_one(RunConfig(check=check, field=field, seed=1, trials=1,
                               no_constraint=no_constraint, **ROW_SIZES[check]))
    assert report.verdict == verdict
    assert digest(report) == tuple(pinned)


# (check, field, mutate) -> (verdict, digest, length) of one trial at seed 3
# at POINT_SIZES: the callers of the per-point weight and residue tables
# that no other table prints at these sizes or this seed (`kbi` is `uq`'s
# only caller of `weights`), recorded from the `Fraction` and `PrimeScalar`
# weight columns, pair tables and kernel residues before they were built
# from cleared integer coordinates
POINT_SIZES = {
    "kbi": dict(ell=5, n=3),
    "jing": dict(ell=8),
    "id2": dict(ell=4, n=3, i=1, j=3),
    "deta": dict(ell=4, n=4),
    "pp": dict(ell=3, n=3),
}
PINNED_POINTS = {
    ("deta", "prime", False): (VERIFIED,
        "3fb47f005c3269528e2aa183d4bfee6f344abc1bedfb48d0d6fe627c73c25268", 852),
    ("deta", "prime", True): (FALSIFIED,
        "e40ce8d1f8c42286a020bab28214745f8e727c20ba06b34641b6b74624c4c4e2", 871),
    ("deta", "rational", False): (VERIFIED,
        "42d205db3a8592099baf8438d8af5463ef087870035c47205f27cd25cec58424", 705),
    ("deta", "rational", True): (FALSIFIED,
        "18beb6bd38c93162cb4db1b2e6870ff499f2d8cdcf29edba1831962c57e7573e", 2969),
    ("id2", "prime", False): (VERIFIED,
        "dbb34a41b5dc831357800935fcf39b2b9412c400c30f0434ae0bb8694a37455d", 956),
    ("id2", "prime", True): (FALSIFIED,
        "1e552cc1cc5dc7477a89876b4c1d7c210c513f051201a6125bd266dac206fc10", 974),
    ("id2", "rational", False): (VERIFIED,
        "98812d42cdc08c7883c84b048b9a552d5900776d3c7abf4d07f8508326fc3b3f", 809),
    ("id2", "rational", True): (FALSIFIED,
        "b634f9dab15292163bd12da6e50ddbf4899c4e8671c89c944d28ec6753f7f169", 1136),
    ("jing", "prime", False): (VERIFIED,
        "35eb44d04ffc57682f830a4f831ef027f431ec84315382de4267030fe8801994", 857),
    ("jing", "prime", True): (FALSIFIED,
        "6e7de6d37fe53eae5be872a1fed7978491414fbfacb751c8b77ce7ae07219c9f", 876),
    ("jing", "rational", False): (VERIFIED,
        "4637e6f649472751f7c12b780a0e65fce683ad1ec03fb97e2f37fe334f47cae0", 710),
    ("jing", "rational", True): (FALSIFIED,
        "d31f9300a5545e5a9cca0ba03d8328306109342495278a649bbb172b9907b5ee", 1094),
    ("kbi", "prime", False): (VERIFIED,
        "909e59ef2fbbfa2b8cdba256bf9c46da1751dc70e0cf90b5ecf8bcc71c27abd8", 1040),
    ("kbi", "prime", True): (FALSIFIED,
        "9c6516af94459c229a2aebe5fd2214d36d77dce9b4ac5ca477b5955a6001b7f4", 4147),
    ("kbi", "rational", False): (VERIFIED,
        "bd994deb110411ba122d4441d52442dd8d8ccfb3f24ebc35e8b0cdba86444d69", 915),
    ("kbi", "rational", True): (FALSIFIED,
        "edc8b93ef6fd26ae57a694c3d42507f1e04cccd0dc3bd993969fe9bd2bff2baf", 16165),
    ("pp", "prime", False): (VERIFIED,
        "4b9d72ecc09f13d6e24e71127f7dd7c3bc0c3dde8823d992e20f9f90e310598f", 794),
    ("pp", "prime", True): (FALSIFIED,
        "7abc92a28d6147463f5a928a05f1d0cfa6664d6977c850593e3d65915f314d6b", 845),
    ("pp", "rational", False): (VERIFIED,
        "ca16308554913a82edf6c28b4c3f3e6a8240bc03f374ab1c7a66e24e487b3337", 671),
    ("pp", "rational", True): (FALSIFIED,
        "dc34a7b67febb96e44e3616043dc95e2b4d4a4e2abf4d9051b3d80ca3303d5c3", 733),
}


@pytest.mark.parametrize("key", sorted(PINNED_POINTS), ids=lambda key: "-".join(map(str, key)))
def test_point_table_report_matches_pinned_digest(key):
    check, field, mutate = key
    verdict, *pinned = PINNED_POINTS[key]
    report = run_one(RunConfig(check=check, field=field, seed=3, trials=1, mutate=mutate,
                               **POINT_SIZES[check]))
    assert report.verdict == verdict
    assert digest(report) == tuple(pinned)


# (check, field, mutate) -> (verdict, digest, length) of one trial at seed 3
# at THETA_POINT_SIZES: the callers of the theta layer's per-point weight
# tables and symmetrized basis products, recorded from the series columns
# and theta pair quotients built by `PSeries` ring operations, before they
# were built as integer coefficient lists over one denominator per point
THETA_POINT_SIZES = {
    "xx": dict(ell=3, n=3, k=8),
    "idp1": dict(ell=3, n=3, i=1, j=3, k=8),
    "idp2": dict(ell=4, n=2, k=8),
    "xt": dict(ell=2, n=3, k=10),
    "detprod": dict(ell=4, n=3, k=6),
}
PINNED_THETA_POINTS = {
    ("detprod", "prime", False): (VERIFIED,
        "c6135ee1860d86f387247ec6b618d33fd89b2b98f96753709c8e2300ea45f0b9", 1201),
    ("detprod", "prime", True): (FALSIFIED,
        "3c35a737c92e1b04858c36cd5b170e3d9b92f2283ab329d1a8ad230f7083feaa", 1326),
    ("detprod", "rational", False): (VERIFIED,
        "65b08670396d8482555eada3c17d7343efd5b4802ee91fbe264f303153d6e579", 908),
    ("detprod", "rational", True): (FALSIFIED,
        "c767f976e98bee51528242b2c7d01d496d967301e984dc842ff85995c5b70c12", 21535),
    ("idp1", "prime", False): (VERIFIED,
        "43d21a90365da32a993169225989ef78589e12e57f9fa2b5f5106572c2cea2e8", 1190),
    ("idp1", "prime", True): (FALSIFIED,
        "1eb7746f52acb28d31bbf328e4ecfbf579e94e2b8e0f5a946580219e349de50f", 1350),
    ("idp1", "rational", False): (VERIFIED,
        "2b74617063b6c6e45a23d60ef507f15bbbbb4a96977061fc5f874a65b0802c03", 851),
    ("idp1", "rational", True): (FALSIFIED,
        "dc81a4e5c4cc4fb6c1e69e681286b5e3668736dae932a89335454cdecce6b1e0", 5408),
    ("idp2", "prime", False): (VERIFIED,
        "d2a2f5de8c97886f9734252390ad50bd935224d94ded722c217e164e50bb5f5c", 1254),
    ("idp2", "prime", True): (FALSIFIED,
        "faf0b639595c43ef50cbb7fe29c2332c602a64e0ae8925727270b0f5fb961224", 1411),
    ("idp2", "rational", False): (VERIFIED,
        "f282b5d9a3c6edd50ebedfe9d9411937abd3ca98561b89fa250c8963fc15a65c", 913),
    ("idp2", "rational", True): (FALSIFIED,
        "148106fa639ad44392dc8e0e65b7e6ef22896298fec0a3a12381cd9d49a2f162", 6477),
    ("xt", "prime", False): (VERIFIED,
        "a30d1da2902f2443574abaf4982bc7ab74172808634d727f6d814916ce8783bc", 965),
    ("xt", "prime", True): (FALSIFIED,
        "d316f3d60cc8af89179ca4f0c0f65ee95ec70775305379e932640c70e0283e12", 2538),
    ("xt", "rational", False): (VERIFIED,
        "b67385fe6902af883d71b26ea11fccfd6b14288f18c31ed5e23638c13eea6fad", 842),
    ("xt", "rational", True): (FALSIFIED,
        "eef6e682b38ebc75975c2c061b94b1506afe23fffd4667bfe2ded385972f3d5e", 6377),
    ("xx", "prime", False): (VERIFIED,
        "daa6bc9cb0dd2265f84eec6912f949e8220ca1b60a0b934ceee6b1b0d8548392", 858),
    ("xx", "prime", True): (FALSIFIED,
        "ddc55f0daccf46ef8563305e7b73f214228b0d86220f7b007782113289d25eb5", 1288),
    ("xx", "rational", False): (VERIFIED,
        "389875a1398aaade10500be25eff4f74ef5fcbf0e5c47b001bd0eca9b643a05f", 735),
    ("xx", "rational", True): (FALSIFIED,
        "d9bde7751e0d00f21c7fbad4254599238c3af3cc6d2fb3e07d665b699b95366e", 3904),
}


@pytest.mark.parametrize("key", sorted(PINNED_THETA_POINTS),
                         ids=lambda key: "-".join(map(str, key)))
def test_theta_point_table_report_matches_pinned_digest(key):
    check, field, mutate = key
    verdict, *pinned = PINNED_THETA_POINTS[key]
    report = run_one(RunConfig(check=check, field=field, seed=3, trials=1, mutate=mutate,
                               **THETA_POINT_SIZES[check]))
    assert report.verdict == verdict
    assert digest(report) == tuple(pinned)


# (check, field, variant) -> (verdict, digest, length) of one trial at seed
# 1 at LAST_DRIVER_SIZES: the prime-field, mutated and lifted-resonance runs
# of `bc1`, `bc2` and `resI` that no golden or other pinned table prints,
# recorded from the per-check drivers that drew their parameters, held
# their constraint lines and notes and formatted their own lines, before
# every check became a row of the check table.  bc1 vanishes by depth
# grading alone, so it reads verified with the resonance lifted as well.
LAST_DRIVER_SIZES = {
    "bc1": dict(ell=5, n=4, i=1, j=4),
    "bc2": dict(ell=3, n=3, i=1, j=3),
    "resI": dict(ell=3, n=3),
}
PINNED_LAST_DRIVERS = {
    ("bc1", "prime", "plain"): (VERIFIED,
        "fc535ce183d2d2a93af319281cb22af3150b46f747a840ff015532bb3de20da0", 1200),
    ("bc1", "prime", "lifted"): (VERIFIED,
        "c3501f85c74c5b99f9274321eab8ceaf4ecb3e7aeb6866aa587322870b131309", 1194),
    ("bc1", "rational", "lifted"): (VERIFIED,
        "989a23826ecc4f290e32b95ba2a245a0b6b528bb889d90d6844a3c95ab0e83ae", 1069),
    ("bc2", "prime", "lifted"): (CONDITION_NOT_SATISFIED,
        "cb000a8b533c9031ae4b14e985d009793d8b09ae86a2f39342a3abd214a25a5f", 1071),
    ("bc2", "prime", "mutated"): (FALSIFIED,
        "d3e9726de1cdf2a48356f0a9f5267530aebbf407e7f64259c2190103c8297075", 8132),
    ("bc2", "rational", "mutated"): (FALSIFIED,
        "5d56ef0074cf24cf714e45c5b58e3b50731fe835360bdf6c09e8de9d59ad3ec2", 64928),
    ("resI", "prime", "mutated"): (FALSIFIED,
        "6a63e5013d4a1c94bfbb41fbdfde149eee3e05462f1c7273f6a30a0506374838", 2144),
    ("resI", "rational", "mutated"): (FALSIFIED,
        "3c521fad0709f72c9658db0687ebe975dfbe9a83de85c494c86785598333ed73", 2019),
}


@pytest.mark.parametrize("key", sorted(PINNED_LAST_DRIVERS),
                         ids=lambda key: "-".join(map(str, key)))
def test_last_driver_report_matches_pinned_digest(key):
    check, field, variant = key
    verdict, *pinned = PINNED_LAST_DRIVERS[key]
    report = run_one(RunConfig(check=check, field=field, seed=1, trials=1,
                               mutate=variant == "mutated",
                               no_constraint=variant == "lifted", **LAST_DRIVER_SIZES[check]))
    assert report.verdict == verdict
    assert digest(report) == tuple(pinned)


# (check, ell, field, mutate) -> (verdict, digest, length) of two trials at
# seed 1 at PREFACTOR_SIZES: the smallest sizes of the two alternating sums,
# which no golden or other pinned table prints below ell = 3; at ell = 1
# the k = 0 and k = 1 prefactors make the whole sum, and K = 0 makes every
# theta a constant
PREFACTOR_SIZES = {
    ("jing", 1): dict(ell=1),
    ("jing", 2): dict(ell=2),
    ("idp2", 1): dict(ell=1, n=2, k=0),
    ("idp2", 2): dict(ell=2, n=2, k=3),
}
PINNED_PREFACTORS = {
    ("idp2", 1, "prime", False): (VERIFIED,
        "a0014a182b4dad7b0b9329fb1ecbbc2ac3cfd057b6d502e9544f9ba46a6203f8", 1316),
    ("idp2", 1, "prime", True): (FALSIFIED,
        "f8cb8dc45d7ec3df2a3bc32f7d4974dfae9778093d2e8ed9673dba4dae540d50", 1353),
    ("idp2", 1, "rational", False): (VERIFIED,
        "2b393a9e5d74f2a06a5f5d90fbd5721436e737142453931f68b30c4207436a99", 1143),
    ("idp2", 1, "rational", True): (FALSIFIED,
        "8fc5d426d1c56da5dde2c2f969e291f0e4825ddcd9738b1f2436af0b327eac3b", 1213),
    ("idp2", 2, "prime", False): (VERIFIED,
        "9753a686f24a2cb6051106c976929f0bfdca31d9852bca9f1084a35eab90db13", 1524),
    ("idp2", 2, "prime", True): (FALSIFIED,
        "06e29a8722fed6256e6097230c3d15fc50c6bcaa9e09b426316e440d6821691a", 1669),
    ("idp2", 2, "rational", False): (VERIFIED,
        "34cad2eacc7a06d4dd9929632dd56c66d9b43ae6f337bad0f62ef0527e1c5373", 1207),
    ("idp2", 2, "rational", True): (FALSIFIED,
        "e785f361ff467e7cd328b511698931ff8f5c1cdbb35a4d2ae7f9acdbd43babd1", 2767),
    ("jing", 1, "prime", False): (VERIFIED,
        "3c8bd25953dd2fb417f824aba7e373f4a32dd045aae2075b9ea5a6db343ad10d", 936),
    ("jing", 1, "prime", True): (FALSIFIED,
        "175344753ce999987c7c459ca51b39012168fbc7494b1eb76ce1c6cd32da6c64", 972),
    ("jing", 1, "rational", False): (VERIFIED,
        "04e15d1b558ea60dd5ff09aecf3b7c97741574e3d9067eda13af8b802ce34d70", 765),
    ("jing", 1, "rational", True): (FALSIFIED,
        "59f1ec2b711c807b43da28c6bd25219f1cb7b33d4d12983f8a4b8eac23f8bcc4", 780),
    ("jing", 2, "prime", False): (VERIFIED,
        "6233b4265718bb20e439aeca23621e71481daa38fc34c72414936385bc330cd1", 968),
    ("jing", 2, "prime", True): (FALSIFIED,
        "0b06c4df7bcea9aca49d18020a5839564e822634bcf74adda88c3a59cfa30aac", 1005),
    ("jing", 2, "rational", False): (VERIFIED,
        "02fe4d00b675b13eac033615b164af500549711c34cb268f23f212068e71be7e", 797),
    ("jing", 2, "rational", True): (FALSIFIED,
        "53605141f634c1e9bf16a31e4a9a1e5172a759fc792f2ec1cd1d7753f8cf10de", 842),
}


@pytest.mark.parametrize("key", sorted(PINNED_PREFACTORS),
                         ids=lambda key: "-".join(map(str, key)))
def test_prefactor_report_matches_pinned_digest(key):
    check, ell, field, mutate = key
    verdict, *pinned = PINNED_PREFACTORS[key]
    report = run_one(RunConfig(check=check, field=field, seed=1, trials=2, mutate=mutate,
                               **PREFACTOR_SIZES[check, ell]))
    assert report.verdict == verdict
    assert digest(report) == tuple(pinned)


# (check, ell, n, k, field, mutate) -> (verdict, digest, length) of one
# trial at seed 1: the pair-free symmetrized sums (the monomials and the
# theta basis products) that no golden or other pinned table prints at
# ell >= 3 over the series, or over GF(p) at the largest size
PINNED_PAIR_FREE = {
    ("detq", 5, 5, 0, "prime", False): (VERIFIED,
        "820fbbfd5e33a7953ee4c0d451e9d056e99fc0b0e4f2ef54c96baf9e5bedc6bd", 886),
    ("resI", 5, 2, 0, "prime", False): (VERIFIED,
        "e1e4c3ed64d18a322b2240f23b213daa4651bebe8436413368d0b8dfc136ac10", 2426),
    ("resI", 5, 2, 0, "rational", False): (VERIFIED,
        "de034a8682f44b6ae3ac204b537861dcfd7a8683027029067b68c972ab87eb53", 2301),
    ("xt", 3, 3, 6, "prime", False): (VERIFIED,
        "7a44e5e814f9c1bac0b51cbe49822ca6dc82c73ed87105ca234390ff37b9101d", 1012),
    ("xt", 3, 3, 6, "prime", True): (FALSIFIED,
        "37e9087ecdb3f0d6a10ecbd28a1da640824682ea05672484d6e0a10085f988fc", 2035),
    ("xt", 3, 3, 6, "rational", False): (VERIFIED,
        "c7656c4399371d2697f633c993b28947447012671d42d93f152419f8f41c8c55", 889),
    ("xt", 3, 3, 6, "rational", True): (FALSIFIED,
        "0762ab6f29d81925358aa3800457bca2e737efa16431c152a027994f51b14995", 4681),
    ("xt", 4, 2, 6, "prime", False): (VERIFIED,
        "8b9a844e9a53a016305a65b00472b256fd557d7fc255b584d32db41b5a026bed", 1028),
    ("xt", 4, 2, 6, "rational", False): (VERIFIED,
        "215fbf9a5f885db34321b80349334d5b14ceb56c2a7589b88b861f9a14387b10", 905),
}


@pytest.mark.parametrize("key", sorted(PINNED_PAIR_FREE),
                         ids=lambda key: "-".join(map(str, key)))
def test_pair_free_report_matches_pinned_digest(key):
    check, ell, n, k, field, mutate = key
    verdict, *pinned = PINNED_PAIR_FREE[key]
    size = dict(ell=ell, n=n, k=k) if check == "xt" else dict(ell=ell, n=n)
    report = run_one(RunConfig(check=check, field=field, seed=1, trials=1, mutate=mutate, **size))
    assert report.verdict == verdict
    assert digest(report) == tuple(pinned)


# (check, size, field, mutate) -> (verdict, digest, length) of one trial at
# seed 1 at HOT_LOOP_SIZES: the theta subset layers (detprod), the series
# solve (xt) and the integer subset layers (jing) at sizes that no golden
# or other pinned table prints
HOT_LOOP_SIZES = {
    "detprod": dict(ell=4, n=3, k=6),
    "xt": dict(ell=2, n=4, k=8),
    "jing": dict(ell=12),
}
PINNED_HOT_LOOPS = {
    ("detprod", "prime", False): (VERIFIED,
        "ec8cdaa84f924b23cb20368d541f2f73cb19d67384655fa2f84fbad93cfb68fd", 1199),
    ("detprod", "rational", False): (VERIFIED,
        "f7c85c1223a9b53ef3b54983eb4a3afc7875604ae898dab016df3a2b08160b55", 906),
    ("jing", "prime", False): (VERIFIED,
        "1df10f0aa6e1e120573c47beadb381888bec7b5c00c30850d03775339f47657b", 924),
    ("jing", "rational", False): (VERIFIED,
        "c1d1a5674751e9d461d3dd10a10f33b9fe437073d9f36e78fc032c632db38af0", 777),
    ("xt", "prime", False): (VERIFIED,
        "6f3feac93caf7e0b240d7992aaf8e21ffdbb3e69192ce5c6179eb5d96524c4f6", 995),
    ("xt", "prime", True): (FALSIFIED,
        "1558392d9a7a91be4ec8f1ec138baf123520fe7ebda876e5c09d0caa83c05c89", 2191),
    ("xt", "rational", False): (VERIFIED,
        "747ea8f15205c184373117dde73b819a8128da595550923d42b8cae7a82dd6d3", 872),
    ("xt", "rational", True): (FALSIFIED,
        "f9b99d15ab23f436e0c600cbdb2b40530553d736ff0bfd811bb35c09ce406c23", 3937),
}


@pytest.mark.parametrize("key", sorted(PINNED_HOT_LOOPS),
                         ids=lambda key: "-".join(map(str, key)))
def test_hot_loop_report_matches_pinned_digest(key):
    check, field, mutate = key
    verdict, *pinned = PINNED_HOT_LOOPS[key]
    report = run_one(RunConfig(check=check, field=field, seed=1, trials=1, mutate=mutate,
                               **HOT_LOOP_SIZES[check]))
    assert report.verdict == verdict
    assert digest(report) == tuple(pinned)


# (check, field, mutate) -> (verdict, digest, length) of one trial at seed
# 1 at CHAIN_SIZES: the prefix and suffix chains of the subset layers at
# sizes that no golden or other pinned table prints
CHAIN_SIZES = {
    "idp2": dict(ell=6, n=2, k=8),
    "idp1": dict(ell=4, n=3, i=1, j=3, k=6),
}
PINNED_CHAINS = {
    ("idp1", "prime", False): (VERIFIED,
        "dab8c83ef7ef37db73705e5bff06ab4f7a384ddf9cad7143e2e65447e1d4b014", 1149),
    ("idp1", "prime", True): (FALSIFIED,
        "a49ef6ea58b564fe4195c7785fa95db25dd82f61ea9855d2832cb0b2dde7aaf0", 1272),
    ("idp1", "rational", False): (VERIFIED,
        "d9162807e0ee81520e7807299c0e80482abd8fb367d0ba7d021de7482b195e77", 858),
    ("idp1", "rational", True): (FALSIFIED,
        "0be9d4dde199cf6e63a4bdc860a3467bc56e448d52e07c2f74d71e8f663985c2", 5151),
    ("idp2", "prime", False): (VERIFIED,
        "6498879b5e75bbe55293b380579ff963502f3ff20b3139f9d144c9d29f6be7cb", 1289),
    ("idp2", "prime", True): (FALSIFIED,
        "cafc1bc3cdecb317646e073c61274b1c8ada45f17bd6c3a311b74a714b240359", 1448),
    ("idp2", "rational", False): (VERIFIED,
        "a74721604e2c17f7423a3158f66f39449f69f92d5bb0a99356380a429c3b16fa", 948),
    ("idp2", "rational", True): (FALSIFIED,
        "10c89b608a7f2ce59f93709f5de989ff37b33e8560481ca15bc63f46eb65cbb9", 9850),
}


@pytest.mark.parametrize("key", sorted(PINNED_CHAINS),
                         ids=lambda key: "-".join(map(str, key)))
def test_chain_report_matches_pinned_digest(key):
    check, field, mutate = key
    verdict, *pinned = PINNED_CHAINS[key]
    report = run_one(RunConfig(check=check, field=field, seed=1, trials=1, mutate=mutate,
                               **CHAIN_SIZES[check]))
    assert report.verdict == verdict
    assert digest(report) == tuple(pinned)
