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
`linalg.mat_mul` replaced in `residue_pairing`, `verify_mn` and
`verify_xt`.  Elimination and products at sizes no workload reaches are
pinned in `PINNED_FRONTIER`, recorded from the `Fraction` and
`PrimeScalar` elimination that `linalg` ran before its bare-integer
paths.  Tensor checks at sizes no workload reaches, and mutated ones, are
pinned in `PINNED_TENSOR`, recorded from the operator sweep that applied
each entry to whole vectors, before the per-trial basis-image table.
Residue sums at sizes no workload reaches are pinned in `PINNED_RESIDUE`,
recorded from the step-by-step pole cancellation and the separate theta
residue that one kernel residue for both layers replaced."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks")
sys.path.insert(0, BENCH)

from worker import build_manifest, digest, load_goldens   # noqa: E402

from qident.cli import run_one   # noqa: E402
from qident.reporting import FALSIFIED, VERIFIED, RunConfig   # noqa: E402

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


def replay(mix, index, seed=1):
    cfg, expect = MANIFESTS[mix, seed][index]
    report = run_one(cfg)
    assert report.verdict == expect
    golden = GOLDENS[mix, seed][index]
    pinned = PINNED.get((mix, seed, index))
    if pinned is None:
        assert digest(report)[0] == golden
    else:
        assert golden is None and digest(report) == pinned


@pytest.mark.parametrize("index", range(len(MANIFESTS["poly", 1])))
def test_poly_report_matches_golden_digest(index):
    assert GOLDENS["poly", 1][index] is not None
    replay("poly", index)


@pytest.mark.parametrize("index", range(len(MANIFESTS["elliptic", 1])))
def test_elliptic_report_matches_golden_digest(index):
    assert GOLDENS["elliptic", 1][index] is not None
    replay("elliptic", index)


@pytest.mark.parametrize("index", range(len(MANIFESTS["uq", 1])))
def test_uq_report_matches_golden_digest(index):
    replay("uq", index)


@pytest.mark.parametrize("index", range(len(MANIFESTS["prime", 1])))
def test_prime_report_matches_golden_digest(index):
    assert GOLDENS["prime", 1][index] is not None
    replay("prime", index)


@pytest.mark.parametrize("index", range(len(MANIFESTS["poly", 2])))
def test_poly_seed_2_report_matches_golden_digest(index):
    assert GOLDENS["poly", 2][index] is not None
    replay("poly", index, seed=2)


@pytest.mark.parametrize("index", range(len(MANIFESTS["uq", 2])))
def test_uq_seed_2_report_matches_golden_digest(index):
    replay("uq", index, seed=2)


@pytest.mark.parametrize("index", range(len(MANIFESTS["elliptic", 2])))
def test_elliptic_seed_2_report_matches_golden_digest(index):
    assert GOLDENS["elliptic", 2][index] is not None
    replay("elliptic", index, seed=2)


@pytest.mark.parametrize("index", range(len(MANIFESTS["prime", 2])))
def test_prime_seed_2_report_matches_golden_digest(index):
    assert GOLDENS["prime", 2][index] is not None
    replay("prime", index, seed=2)


@pytest.mark.parametrize("check, field, seed", sorted(PINNED_MUTATED))
def test_mutated_report_matches_pinned_digest(check, field, seed):
    report = run_one(RunConfig(check=check, trials=1, seed=seed, field=field, mutate=True,
                               **SIZES[check]))
    assert report.verdict == FALSIFIED
    assert digest(report) == PINNED_MUTATED[check, field, seed]


@pytest.mark.parametrize("check, field, mutate", sorted(PINNED_FRONTIER))
def test_frontier_report_matches_pinned_digest(check, field, mutate):
    report = run_one(RunConfig(check=check, trials=1, seed=1, field=field, mutate=mutate,
                               **FRONTIER_SIZES[check]))
    assert report.verdict == (FALSIFIED if mutate else VERIFIED)
    assert digest(report) == PINNED_FRONTIER[check, field, mutate]


# (check, field, mutate) -> (digest, length) of one trial at seed 1 at
# TENSOR_SIZES
TENSOR_SIZES = {
    ("rll", False): dict(n=5),
    ("singular", False): dict(ell=4, n=4, i=1, j=4),
    ("kbi", False): dict(ell=6, n=4),
    ("bc2", False): dict(ell=6, n=5, i=1, j=5),
    ("singular", True): dict(ell=4, n=3, i=1, j=3),
    ("rll", True): dict(n=4),
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
}


@pytest.mark.parametrize("check, field, mutate", sorted(PINNED_TENSOR))
def test_tensor_report_matches_pinned_digest(check, field, mutate):
    report = run_one(RunConfig(check=check, trials=1, seed=1, field=field, mutate=mutate,
                               **TENSOR_SIZES[check, mutate]))
    assert report.verdict == (FALSIFIED if mutate else VERIFIED)
    assert digest(report) == PINNED_TENSOR[check, field, mutate]


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


@pytest.mark.parametrize("check, field", sorted(PINNED_RESIDUE))
def test_residue_report_matches_pinned_digest(check, field):
    report = run_one(RunConfig(check=check, trials=1, seed=1, field=field,
                               **RESIDUE_SIZES[check]))
    assert report.verdict == VERIFIED
    assert digest(report) == PINNED_RESIDUE[check, field]
