import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qident
from qident import polyweights
from qident.cli import CHECK_OPTIONS, CHECKS, run, run_one
from qident.errors import UsageError
from qident.reporting import DEFAULT_PRIME, RunConfig


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


def test_non_integer_seed_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("QIDENT_SEED", "abc")
    assert run(["jing", "--ell", "2", "--trials", "1"]) == 2
    assert capsys.readouterr().err.startswith("usage error: QIDENT_SEED")
    # an explicit --seed never reads the variable
    assert run(["jing", "--ell", "2", "--trials", "1", "--seed", "3"]) == 0


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

    # an inverted window is a usage error decided before any entry runs,
    # as on the command line
    entries = [{"check": "id1", "ell": 1, "n": 2, "i": 2, "j": 1},
               {"check": "jing", "ell": 2, "trials": 1, "seed": 3}]
    manifest.write_text(json.dumps(entries))
    assert run(["suite", str(manifest)]) == 2

    manifest.write_text("[]")
    assert run(["suite", str(manifest)]) == 2

    manifest.write_text("not json {")
    assert run(["suite", str(manifest)]) == 2


def test_suite_unknown_field_mode_is_a_usage_error(tmp_path):
    manifest = tmp_path / "m.json"
    aggregate = tmp_path / "agg.json"
    manifest.write_text(json.dumps([{"check": "jing", "field": "fast"}]))
    assert run(["suite", str(manifest), "--json", str(aggregate)]) == 2
    assert not aggregate.exists()


@pytest.mark.parametrize("entry, argv", [
    ({"check": "nope"}, ["nope"]),
    ({"check": "jing", "ell": -1}, ["jing", "--ell", "-1"]),
    ({"check": "id1", "ell": 1, "n": 2, "i": 2, "j": 1},
     ["id1", "--ell", "1", "--n", "2", "--i", "2", "--j", "1"]),
    ({"check": "jing", "field": "fast"}, ["jing", "--field", "fast"]),
])
def test_manifest_usage_error_exits_like_its_command_line(tmp_path, entry, argv):
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([entry]))
    assert run(["suite", str(manifest)]) == 2
    assert run(argv) == 2


def test_negative_word_len_is_a_usage_error(tmp_path):
    # it swept a spanning set of size 1 and reported verified
    assert run(["singular", "--ell", "1", "--n", "2", "--word-len", "-1",
                "--trials", "1"]) == 2
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(
        [{"check": "singular", "ell": 1, "n": 2, "word_len": -1, "trials": 1}]))
    assert run(["suite", str(manifest)]) == 2


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


def test_an_option_the_check_never_reads_is_a_usage_error(tmp_path):
    assert run(["jing", "--ell", "2", "--i", "5", "--j", "1", "--k", "9"]) == 2
    assert run(["rll", "--n", "2", "--ell", "7"]) == 2
    # explicit counts, not the value: the default value is rejected as well
    assert run(["rll", "--n", "2", "--ell", "1"]) == 2
    assert run(["xx", "--ell", "1", "--n", "1", "--k", "2", "--no-constraint"]) == 2
    manifest = tmp_path / "m.json"
    for entry in ({"check": "jing", "ell": 2, "i": 5, "j": 1, "k": 9},
                  {"check": "rll", "n": 2, "ell": 7},
                  {"check": "pp", "ell": 1, "n": 2, "no_constraint": False}):
        manifest.write_text(json.dumps([{"check": "jing", "ell": 2, "trials": 1}, entry]))
        assert run(["suite", str(manifest)]) == 2, entry
    # a replayed report config names every option; it stays valid
    report = run_one(RunConfig(check="rll", n=2, trials=1))
    assert RunConfig.from_dict(report.config.to_dict()) == report.config


def test_unexpected_exception_is_an_error_report(monkeypatch):
    def broken(cfg):
        raise RuntimeError("a bug")

    monkeypatch.setitem(CHECKS, "jing", CHECKS["jing"]._replace(driver=broken))
    report = run_one(RunConfig(check="jing"))
    assert report.verdict == "error"
    assert report.trials[0].notes == ["RuntimeError: a bug"]
    assert run(["jing"]) == 3


@pytest.mark.parametrize("entry", [
    {"check": "id1", "ell": 1, "n": 2, "i": 2, "j": 1},     # inverted window
    {"check": "bc2", "ell": 0, "n": 2},                     # bc2 needs ell >= 1
    {"check": "idp2", "ell": 1, "n": 3, "i": 1, "j": 3},    # idp2 is (1, 2) only
])
def test_suite_usage_error_ends_it_before_any_entry_runs(tmp_path, monkeypatch, entry):
    calls = []
    jing = CHECKS["jing"]
    monkeypatch.setitem(CHECKS, "jing", jing._replace(
        driver=lambda cfg: calls.append(cfg) or jing.driver(cfg)))
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps([{"check": "jing", "ell": 2, "trials": 1}, entry]))
    assert run(["suite", str(manifest)]) == 2
    assert calls == []


def test_usage_error_inside_a_running_check_is_an_internal_fault(monkeypatch):
    def broken(*args, **kwargs):
        raise UsageError("a broken library invariant")

    monkeypatch.setattr(polyweights, "jing_value", broken)
    report = run_one(RunConfig(check="jing", ell=2, trials=1))
    assert report.verdict == "error"
    code, output = run_captured(["jing", "--ell", "2", "--trials", "1"])
    assert code == 3
    assert "Traceback" not in output


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


def test_resi_spurious_agreement_mod_p_is_resampled():
    # mod 7, tuples with a zero exponent, whose x- and y-sums differ as
    # rationals, can agree at a draw; that zero proves nothing, so the draw
    # is resampled, while a mutated run still differs where agreement is due
    argv = ["resI", "--ell", "2", "--n", "2", "--field", "prime", "--prime", "7",
            "--trials", "5"]
    assert run(argv) == 0
    assert run(argv + ["--mutate"]) == 1


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


# ---------------------------------------------------------------------------
# contract fuzz: every argv and every manifest ends in an exit code of the
# contract and never in a traceback.  Sizes stay capped (ell <= 2, n <= 3,
# k <= 3, trials = 1, word length <= 2, bound <= 50), so no case is expensive.
# ---------------------------------------------------------------------------

CHECK_NAMES = st.sampled_from(sorted(CHECKS))
PRIMES = st.sampled_from([2, 7, 101, DEFAULT_PRIME])
CAPPED_INTS = {
    "ell": st.integers(0, 2), "n": st.integers(1, 3), "k": st.integers(0, 3),
    "i": st.integers(1, 3), "j": st.integers(1, 3), "seed": st.integers(0, 3),
    "trials": st.just(1), "word_len": st.sampled_from([1, 2]),
    "bound": st.integers(1, 50),
}
MUST_CAP = ("k", "trials", "word_len", "bound")   # defaults exceed the caps
OPTION_VALUES = dict(CAPPED_INTS, no_constraint=st.booleans())
# one corruption per malformed input: (key, value)
BAD_VALUES = st.sampled_from([
    ("check", "nope"), ("ell", -1), ("n", 0), ("k", -1), ("trials", 0), ("bound", 0),
    ("word_len", -1),
    ("field", "fast"), ("prime", 561), ("prime", 1), ("prime", -5),
    ("ell", "x"), ("n", "1.5"), ("seed", ""), ("bound", True), ("k", None),
    ("elll", 9),
])


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue() + err.getvalue()


def valid_config(check):
    """A capped configuration of `check` giving only options it reads."""
    def given(key):
        return key not in CHECK_OPTIONS or key in CHECKS[check].reads
    return st.fixed_dictionaries(
        {"check": st.just(check),
         **{key: CAPPED_INTS[key] for key in MUST_CAP if given(key)}},
        optional={**{key: OPTION_VALUES[key] for key in OPTION_VALUES
                     if key not in MUST_CAP and given(key)},
                  "field": st.sampled_from(["rational", "prime"]), "prime": PRIMES,
                  "mutate": st.booleans()})


def unused_option(check):
    """(key, value) for an option `check` never reads."""
    return st.sampled_from([key for key in CHECK_OPTIONS if key not in CHECKS[check].reads]) \
        .flatmap(lambda key: OPTION_VALUES[key].map(lambda value: (key, value)))


def configs():
    """A capped configuration as a dict, with one corruption one time in
    four: a malformed value, or an option the check never reads."""
    def corrupt(cfg, kind, bad, unused):
        change = (None, bad, unused)[kind]
        return cfg if change is None else dict(cfg, **{change[0]: change[1]})

    return CHECK_NAMES.flatmap(lambda check: st.tuples(
        valid_config(check), st.sampled_from([0] * 6 + [1, 2]), BAD_VALUES,
        unused_option(check))).map(lambda t: corrupt(*t))


def unused_options(cfg):
    """The options of a manifest entry that its (known) check never reads."""
    if not isinstance(cfg, dict) or cfg.get("check") not in CHECKS:
        return []
    return [key for key in cfg
            if key in CHECK_OPTIONS and key not in CHECKS[cfg["check"]].reads]


def to_argv(cfg):
    argv = [str(cfg["check"])]
    for key, value in cfg.items():
        if key == "check" or value is False:
            continue
        argv.append("--" + key.replace("_", "-"))
        if value is not True:
            argv.append("" if value is None else str(value))
    return argv


MALFORMED_ENTRIES = st.one_of(
    st.none(), st.integers(), st.text(max_size=3), st.lists(st.integers(), max_size=2),
    configs().map(lambda d: {k: v for k, v in d.items() if k != "check"}))
ENTRIES = st.tuples(configs(), st.integers(0, 3), MALFORMED_ENTRIES).map(
    lambda t: t[2] if t[1] == 0 else t[0])
MANIFESTS = st.one_of(
    st.lists(ENTRIES, min_size=1, max_size=3),
    st.sampled_from(['{"check": "jing"}', "7", "[]", "not json {", ""]))


@given(cfg=configs(), unwritable_json=st.sampled_from([False, False, False, True]))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_argv_keeps_the_exit_code_contract(tmp_path, cfg, unwritable_json):
    argv = to_argv(cfg)
    if unwritable_json:
        argv += ["--json", str(tmp_path / "missing" / "r.json")]
    code, output = run_captured(argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in output
    # a False flag is not passed on the command line
    if any(cfg[key] is not False for key in unused_options(cfg)):
        assert code == 2, argv


@given(manifest_doc=MANIFESTS, with_json=st.booleans())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_manifest_keeps_the_exit_code_contract(tmp_path, manifest_doc, with_json):
    text = manifest_doc if isinstance(manifest_doc, str) else json.dumps(manifest_doc)
    manifest = tmp_path / "m.json"
    manifest.write_text(text)
    argv = ["suite", str(manifest)] + (["--json", str(tmp_path / "agg.json")]
                                       if with_json else [])
    code, output = run_captured(argv)
    assert code in (0, 1, 2, 3), text
    assert "Traceback" not in output
    if isinstance(manifest_doc, list) and any(map(unused_options, manifest_doc)):
        assert code == 2, text
