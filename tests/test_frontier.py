"""The frontier manifests: tests/frontier.json, the sizes that set each
layer's reach, run by `qident suite tests/frontier.json --json OUT` to
time a change against its parent (about 10-15 s), and
tests/frontier_heavy.json, the slowest entries that set the reach (about
35 s), run the same way by a change that claims one of them.  Here every
entry must be a valid configuration of a check that runs, and each
manifest at tiny sizes must verify through the suite, so neither file can
rot between the runs that time it; the full sizes never run here."""

import json
import pathlib

import pytest

from qident.cli import run_suite, validate
from qident.reporting import EXIT_VERIFIED, VERIFIED, RunConfig

HERE = pathlib.Path(__file__).resolve().parent

# manifest -> the fields its entries run in
MANIFESTS = {"frontier.json": {"rational", "prime"}, "frontier_heavy.json": {"rational"}}

# each size option an entry names, shrunk: the window keys stay 1 <= i < j <= n
TINY = {"ell": 2, "n": 2, "i": 1, "j": 2, "k": 2}


def entries(name):
    return json.loads((HERE / name).read_text())


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_every_frontier_entry_is_a_valid_configuration(name):
    configs = [RunConfig.from_dict(entry) for entry in entries(name)]
    for cfg in configs:
        validate(cfg)
    assert {cfg.field for cfg in configs} == MANIFESTS[name]


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_frontier_manifest_verifies_at_tiny_sizes(tmp_path, name):
    tiny = [{key: TINY.get(key, value) for key, value in entry.items()}
            for entry in entries(name)]
    manifest, out = tmp_path / "tiny.json", tmp_path / "out.json"
    manifest.write_text(json.dumps(tiny))
    assert run_suite(str(manifest), str(out)) == EXIT_VERIFIED
    aggregate = json.loads(out.read_text())
    assert aggregate["verdicts"] == [VERIFIED] * len(tiny)
    assert [e["config"]["check"] for e in aggregate["entries"]] == \
        [entry["check"] for entry in entries(name)]
