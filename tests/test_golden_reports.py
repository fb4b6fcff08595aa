"""Replay of the benchmark's four mixes (`poly`, `elliptic`, `uq`, `prime`)
at seeds 1 and 2, in-process through `cli.run_one`: every
canonical report must hash to its golden digest in benchmarks/goldens.json,
so a faster evaluation path that changes any reported value fails here, not
only in the benchmark run.  The mutated `singular` of `uq` (entry 9) has no
golden digest; its report, thousands of large exact rationals, is pinned in
`PINNED` by the sha256 digest and length recorded from the `Fraction`-based
tensor operators."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks")
sys.path.insert(0, BENCH)

from worker import build_manifest, digest, load_goldens   # noqa: E402

from qident.cli import run_one   # noqa: E402

RUNS = [(mix, seed) for seed in (1, 2) for mix in ("poly", "elliptic", "uq", "prime")]
MANIFESTS = {run: build_manifest(*run, smoke=False) for run in RUNS}
GOLDENS = {run: load_goldens(*run, smoke=False) for run in RUNS}
# (mix, seed, entry) -> (digest, length) for the entries without a golden
PINNED = {
    ("uq", 1, 9): ("afa1046e7c58932542c24887e690967acf4e21ba2125c43f3cb590c7f1173ee8", 81037),
    ("uq", 2, 9): ("4597fd047c8a853866b48e9bd73efe3839b5df7f1054c46e5567e8681c968c0c", 86769),
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
