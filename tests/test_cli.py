import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import qident
from qident.cli import CHECKS, run, run_one
from qident.errors import UsageError
from qident.reporting import RunConfig


def test_every_check_routes_and_verifies(tmp_path):
    quick = {
        "jing": ["jing", "--ell", "2"],
        "id1": ["id1", "--ell", "1", "--n", "2"],
        "id2": ["id2", "--ell", "1", "--n", "2"],
        "pp": ["pp", "--ell", "1", "--n", "2"],
        "mn": ["mn", "--ell", "1", "--n", "2"],
        "detq": ["detq", "--ell", "1", "--n", "2"],
        "deta": ["deta", "--ell", "1", "--n", "2"],
        "resI": ["resI", "--ell", "1", "--n", "1"],
        "idp1": ["idp1", "--ell", "1", "--n", "2", "--k", "2"],
        "idp2": ["idp2", "--ell", "1", "--n", "2", "--k", "2"],
        "xx": ["xx", "--ell", "1", "--n", "1", "--k", "2"],
        "xt": ["xt", "--ell", "1", "--n", "1", "--k", "2"],
        "detprod": ["detprod", "--ell", "1", "--n", "2", "--k", "2"],
        "rll": ["rll", "--n", "2"],
        "kbi": ["kbi", "--ell", "1", "--n", "2"],
        "bc1": ["bc1", "--ell", "1", "--n", "2"],
        "bc2": ["bc2", "--ell", "1", "--n", "2"],
        "singular": ["singular", "--ell", "0", "--n", "2"],
    }
    assert set(quick) == set(CHECKS)
    for name, argv in quick.items():
        assert run(argv + ["--trials", "1", "--seed", "1"]) == 0, name


def test_exit_codes():
    assert run(["jing", "--ell", "3", "--seed", "1", "--trials", "2"]) == 0
    assert run(["id1", "--ell", "-1"]) == 2
    assert run(["nosuchcheck"]) == 2
    assert run(["id2", "--ell", "2", "--n", "2", "--i", "1", "--j", "2",
                "--mutate", "--trials", "1"]) == 1
    assert run(["id1", "--ell", "1", "--n", "2", "--no-constraint", "--trials", "1"]) == 1
    assert run(["id1", "--ell", "1", "--n", "2", "--i", "2", "--j", "1"]) == 2


def test_json_report_shape(tmp_path):
    out = tmp_path / "report.json"
    code = run(["jing", "--ell", "2", "--seed", "7", "--trials", "2",
                "--json", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["verdict"] == "verified"
    assert doc["config"]["check"] == "jing"
    assert doc["config"]["seed"] == 7
    assert "splitmix64" in doc["prng"]
    assert len(doc["trials"]) == 2
    for trial in doc["trials"]:
        assert trial["zero"] is True
        # values are exact strings, never decimals
        assert isinstance(trial["value"], str)
        assert "." not in trial["value"]
        assert trial["draws"]


def test_verdict_exit_coupling():
    for argv, expect in [(["pp", "--ell", "1", "--n", "1", "--trials", "1"], "verified"),
                         (["pp", "--ell", "1", "--n", "1", "--trials", "1",
                           "--mutate"], "falsified")]:
        cfg_args = argv
        report = run_one(RunConfig(
            check=cfg_args[0], ell=1, n=1, trials=1, seed=1,
            mutate="--mutate" in cfg_args))
        assert report.verdict == expect
        assert (report.exit_code == 0) == (report.verdict == "verified")


def test_replay_is_bit_identical():
    cfg = RunConfig(check="idp1", ell=1, n=2, k=3, trials=2, seed=11)
    first = run_one(cfg)
    embedded = json.loads(first.to_json())["config"]
    second = run_one(RunConfig.from_dict(embedded))
    assert first.canonical() == second.canonical()


def test_seed_env_override(monkeypatch, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    monkeypatch.setenv("QIDENT_SEED", "12345")
    assert run(["jing", "--ell", "2", "--trials", "1", "--json", str(out1)]) == 0
    assert json.loads(out1.read_text())["config"]["seed"] == 12345
    assert run(["jing", "--ell", "2", "--trials", "1", "--seed", "6",
                "--json", str(out2)]) == 0
    assert json.loads(out2.read_text())["config"]["seed"] == 6


def test_suite(tmp_path):
    manifest = tmp_path / "m.json"
    aggregate = tmp_path / "agg.json"
    entries = [
        {"check": "jing", "ell": 2, "trials": 1, "seed": 3},
        {"check": "detq", "ell": 1, "n": 2, "trials": 1, "seed": 4},
    ]
    manifest.write_text(json.dumps(entries))
    assert run(["suite", str(manifest), "--json", str(aggregate)]) == 0
    doc = json.loads(aggregate.read_text())
    assert doc["all_verified"] is True
    assert doc["verdicts"] == ["verified", "verified"]

    entries.append({"check": "jing", "ell": 2, "trials": 1, "seed": 3, "mutate": True})
    manifest.write_text(json.dumps(entries))
    assert run(["suite", str(manifest)]) == 1

    # per-entry errors are collected, not fatal to siblings
    entries = [{"check": "id1", "ell": 1, "n": 2, "i": 2, "j": 1},
               {"check": "jing", "ell": 2, "trials": 1, "seed": 3}]
    manifest.write_text(json.dumps(entries))
    assert run(["suite", str(manifest)]) == 3

    manifest.write_text("[]")
    assert run(["suite", str(manifest)]) == 2

    manifest.write_text("not json {")
    assert run(["suite", str(manifest)]) == 2


def test_suite_unknown_field_mode_is_an_error_report_not_a_traceback(tmp_path):
    manifest = tmp_path / "m.json"
    aggregate = tmp_path / "agg.json"
    manifest.write_text(json.dumps([{"check": "jing", "field": "fast"}]))
    assert run(["suite", str(manifest), "--json", str(aggregate)]) == 3
    assert json.loads(aggregate.read_text())["verdicts"] == ["error"]


@pytest.mark.parametrize("entry", [
    {"check": "jing", "ell": "3"},      # a string where an int is due
    {"check": "jing", "ell": True},     # a bool where an int is due
    {"check": "jing", "elll": 9},       # an unknown key (a typo of ell)
    {"ell": 2},                         # no check
    5,                                  # not an object
])
def test_malformed_manifest_entry_is_a_usage_error(tmp_path, entry):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"check": "jing", "ell": 2, "trials": 1}, entry]))
    assert run(["suite", str(manifest)]) == 2
    with pytest.raises(UsageError):
        RunConfig.from_dict(entry)


def test_unexpected_exception_is_an_error_report(monkeypatch):
    def broken(cfg):
        raise RuntimeError("a bug")

    monkeypatch.setitem(CHECKS, "jing", broken)
    report = run_one(RunConfig(check="jing"))
    assert report.verdict == "error"
    assert report.trials[0].notes == ["RuntimeError: a bug"]
    assert run(["jing"]) == 3


def test_small_prime_resamples_draws_that_vanish_mod_p():
    # with p = 101 under the height bound 1000 some draws are 0 mod p; the
    # inverse of such a value must be resampled, not crash the run
    for argv in (["pp", "--ell", "2", "--n", "2"], ["rll", "--n", "2"]):
        assert run(argv + ["--field", "prime", "--prime", "101",
                           "--trials", "3", "--seed", "1"]) == 0, argv[0]


def test_prime_mode_rejects_draws_that_vanish_mod_p():
    # 202 = 2 * 101 used to be accepted as a zero parameter
    report = run_one(RunConfig(check="rll", n=2, field="prime", prime=101,
                               seed=1, trials=3))
    assert report.verdict == "verified"
    draws = [Fraction(q) for trial in report.trials for _, q in trial.draws]
    assert draws and all(q.numerator % 101 for q in draws)


def test_composite_prime_modulus_is_a_usage_error():
    for modulus in ("1001", "1000", "561"):
        assert run(["jing", "--ell", "3", "--field", "prime", "--prime", modulus,
                    "--trials", "1"]) == 2, modulus
    assert run(["jing", "--ell", "3", "--field", "prime", "--prime", "1009",
                "--trials", "1"]) == 0


def test_large_prime_modulus_records_a_probable_prime_note():
    proven = run_one(RunConfig(check="jing", ell=2, trials=1, field="prime"))
    assert not any("probable prime" in note for note in proven.notes)
    large = run_one(RunConfig(check="jing", ell=2, trials=1, field="prime",
                              prime=2 ** 89 - 1))
    assert large.verdict == "verified"
    assert any("probable prime" in note for note in large.notes)


def test_unwritable_json_path_exits_3_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(qident.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "missing" / "x.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qident", "jing", "--ell", "2", "--trials", "1",
         "--json", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
