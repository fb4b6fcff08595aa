"""Replay of the benchmark's `poly` mix at seed 1, in-process through
`cli.run_one`: every canonical report must hash to its golden digest in
benchmarks/goldens.json, so a faster evaluation path that changes any
reported value fails here, not only in the benchmark run."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks")
sys.path.insert(0, BENCH)

from worker import build_manifest, digest, load_goldens   # noqa: E402

from qident.cli import run_one   # noqa: E402

SEED = 1
MANIFEST = build_manifest("poly", SEED, smoke=False)
GOLDENS = load_goldens("poly", SEED, smoke=False)


@pytest.mark.parametrize("index", range(len(MANIFEST)))
def test_poly_report_matches_golden_digest(index):
    cfg, expect = MANIFEST[index]
    report = run_one(cfg)
    assert report.verdict == expect
    assert digest(report)[0] == GOLDENS[index]
