"""The frontier manifest, tests/frontier.json: the sizes that set each
layer's reach, run by `qident suite tests/frontier.json --json OUT` to
time a change against its parent (about 10-15 s).  Here every entry must
be a valid configuration of a check that runs, and the same manifest at
tiny sizes must verify through the suite, so the file cannot rot between
the runs that time it."""

import json
import pathlib

from qident.cli import run_suite, validate
from qident.reporting import EXIT_VERIFIED, VERIFIED, RunConfig

MANIFEST = pathlib.Path(__file__).resolve().parent / "frontier.json"

# each size option an entry names, shrunk: the window keys stay 1 <= i < j <= n
TINY = {"ell": 2, "n": 2, "i": 1, "j": 2, "k": 2}


def entries():
    return json.loads(MANIFEST.read_text())


def test_every_frontier_entry_is_a_valid_configuration():
    configs = [RunConfig.from_dict(entry) for entry in entries()]
    for cfg in configs:
        validate(cfg)
    assert {cfg.field for cfg in configs} == {"rational", "prime"}


def test_frontier_manifest_verifies_at_tiny_sizes(tmp_path):
    tiny = [{key: TINY.get(key, value) for key, value in entry.items()} for entry in entries()]
    manifest, out = tmp_path / "tiny.json", tmp_path / "out.json"
    manifest.write_text(json.dumps(tiny))
    assert run_suite(str(manifest), str(out)) == EXIT_VERIFIED
    aggregate = json.loads(out.read_text())
    assert aggregate["verdicts"] == [VERIFIED] * len(tiny)
    assert [e["config"]["check"] for e in aggregate["entries"]] == \
        [entry["check"] for entry in entries()]
