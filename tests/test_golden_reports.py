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
`verify_xt`."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks")
sys.path.insert(0, BENCH)

from worker import build_manifest, digest, load_goldens   # noqa: E402

from qident.cli import run_one   # noqa: E402
from qident.reporting import FALSIFIED, RunConfig   # noqa: E402

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
