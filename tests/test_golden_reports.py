"""Replay of the benchmark's four mixes (`poly`, `elliptic`, `uq`, `prime`)
at seed 1, in-process through `cli.run_one`: every canonical report must
hash to its golden digest in benchmarks/goldens.json, so a faster evaluation
path that changes any reported value fails here, not only in the benchmark
run.  An entry without a golden digest (the mutated `singular` of `uq`) is
checked by its verdict alone."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks")
sys.path.insert(0, BENCH)

from worker import build_manifest, digest, load_goldens   # noqa: E402

from qident.cli import run_one   # noqa: E402

SEED = 1
MIXES = ("poly", "elliptic", "uq", "prime")
MANIFESTS = {mix: build_manifest(mix, SEED, smoke=False) for mix in MIXES}
GOLDENS = {mix: load_goldens(mix, SEED, smoke=False) for mix in MANIFESTS}


def replay(mix, index):
    cfg, expect = MANIFESTS[mix][index]
    report = run_one(cfg)
    assert report.verdict == expect
    golden = GOLDENS[mix][index]
    if golden is not None:
        assert digest(report)[0] == golden


@pytest.mark.parametrize("index", range(len(MANIFESTS["poly"])))
def test_poly_report_matches_golden_digest(index):
    assert GOLDENS["poly"][index] is not None
    replay("poly", index)


@pytest.mark.parametrize("index", range(len(MANIFESTS["elliptic"])))
def test_elliptic_report_matches_golden_digest(index):
    assert GOLDENS["elliptic"][index] is not None
    replay("elliptic", index)


@pytest.mark.parametrize("index", range(len(MANIFESTS["uq"])))
def test_uq_report_matches_golden_digest(index):
    replay("uq", index)


@pytest.mark.parametrize("index", range(len(MANIFESTS["prime"])))
def test_prime_report_matches_golden_digest(index):
    assert GOLDENS["prime"][index] is not None
    replay("prime", index)
