"""Command-line driver: subcommand routing, configuration, seeded trial
orchestration, machine-readable reports, and negative-control self-tests.

Exit codes: 0 verified, 1 falsified (or condition not satisfied), 2 usage
error, 3 internal or degenerate-input error.  A check can only exit 0 when
its report verdict reads "verified".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import elliptic, polyweights, residues, uqrep
from .errors import UsageError
from .reporting import (
    DEFAULT_PRIME, ERROR, EXIT_ERROR, EXIT_FALSIFIED, EXIT_USAGE, EXIT_VERIFIED,
    Report, RunConfig, TrialRecord, VERIFIED)

SEED_ENV_VAR = "QIDENT_SEED"

CHECKS = {
    "jing": polyweights.verify_jing,
    "id1": polyweights.verify_id,
    "id2": polyweights.verify_id,
    "pp": residues.verify_pp,
    "mn": residues.verify_mn,
    "detq": residues.verify_det,
    "deta": residues.verify_det,
    "resI": residues.verify_resi,
    "idp1": elliptic.verify_idp,
    "idp2": elliptic.verify_idp,
    "xx": elliptic.verify_xx,
    "xt": elliptic.verify_xt,
    "detprod": elliptic.verify_detprod,
    "rll": uqrep.verify_rll,
    "kbi": uqrep.verify_kbi,
    "bc1": uqrep.verify_bc,
    "bc2": uqrep.verify_bc,
    "singular": uqrep.verify_singular,
}

# The options a check reads besides trials, seed, field, prime, bound and
# mutate, which every check reads.  Giving any other of CHECK_OPTIONS, on
# the command line or as a manifest key, is a usage error: the check would
# ignore it and still report a verdict.
CHECK_OPTIONS = ("ell", "n", "i", "j", "k", "no_constraint", "word_len")
_WINDOW = ("ell", "n", "i", "j", "no_constraint")
READS = {
    "jing": ("ell",),
    "id1": _WINDOW, "id2": _WINDOW,
    "pp": ("ell", "n"), "mn": ("ell", "n"), "detq": ("ell", "n"),
    "deta": ("ell", "n"), "resI": ("ell", "n"),
    "idp1": _WINDOW + ("k",), "idp2": _WINDOW + ("k",),
    "xx": ("ell", "n", "k"), "xt": ("ell", "n", "k"), "detprod": ("ell", "n", "k"),
    "rll": ("n",),
    "kbi": ("ell", "n"),
    "bc1": _WINDOW, "bc2": _WINDOW,
    "singular": _WINDOW + ("word_len",),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qident",
        description="Exact seeded verification of the implemented identity family.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("suite", help="run every entry of a JSON manifest")
    run.add_argument("manifest", help="path to a JSON list of run configurations")
    run.add_argument("--json", dest="out", default=None,
                     help="write the aggregate report to this path")

    # CHECK_OPTIONS stay off the namespace unless given; RunConfig has
    # their defaults
    for name in CHECKS:
        c = sub.add_parser(name, help="verify the '%s' check" % name,
                           argument_default=argparse.SUPPRESS)
        c.add_argument("--ell", type=int)
        c.add_argument("--n", type=int)
        c.add_argument("--i", type=int)
        c.add_argument("--j", type=int)
        c.add_argument("--k", type=int,
                       help="series truncation order for elliptic checks")
        c.add_argument("--trials", type=int, default=3)
        c.add_argument("--seed", type=int, default=None)
        c.add_argument("--field", choices=("rational", "prime"), default="rational")
        c.add_argument("--prime", type=int, default=DEFAULT_PRIME)
        c.add_argument("--bound", type=int, default=1000)
        c.add_argument("--mutate", action="store_true", default=False,
                       help="perturb one internal coefficient (negative control)")
        c.add_argument("--no-constraint", action="store_true",
                       help="skip the theorem's parameter constraint (negative control)")
        c.add_argument("--word-len", type=int,
                       help="word length for the submodule spanning set (0 = ell+1)")
        c.add_argument("--json", dest="out", default=None,
                       help="write the report to this path")
    return parser


def reject_unused(check, given):
    """A UsageError if `given` names one of CHECK_OPTIONS that `check`
    does not read.  An unknown check is left to `validate`."""
    if check not in READS:
        return
    unused = [key for key in CHECK_OPTIONS if key in given and key not in READS[check]]
    if unused:
        raise UsageError("%s does not read option(s) %s" % (check, ", ".join(unused)))


def config_from_args(args):
    seed = args.seed
    if seed is None:
        text = os.environ.get(SEED_ENV_VAR, "1")
        try:
            seed = int(text)
        except ValueError:
            raise UsageError("%s must be an integer, got %r" % (SEED_ENV_VAR, text)) from None
    given = {key: getattr(args, key) for key in CHECK_OPTIONS if hasattr(args, key)}
    reject_unused(args.command, given)
    return RunConfig(
        check=args.command, trials=args.trials, seed=seed, field=args.field,
        prime=args.prime, bound=args.bound, mutate=args.mutate, **given)


def validate(cfg):
    if cfg.check not in CHECKS:
        raise UsageError("unknown check %r" % cfg.check)
    if cfg.trials < 1:
        raise UsageError("need at least one trial")
    if cfg.ell < 0 or cfg.n < 1 or cfg.k < 0 or cfg.bound < 1 or cfg.word_len < 0:
        raise UsageError("ell, n, k, bound, word_len out of range")
    cfg.scalar_field()   # a UsageError for an unknown field or a composite modulus


def dispatch(cfg):
    validate(cfg)
    return CHECKS[cfg.check](cfg)


def error_report(cfg, exc):
    return Report(
        config=cfg, verdict=ERROR,
        trials=[TrialRecord(index=0, draws=[], constraints=[], value=None,
                            zero=False, notes=["%s: %s" % (type(exc).__name__, exc)])],
        notes=[], timing_s=0.0)


def run_one(cfg):
    """The report of one run.  A usage error propagates; any other
    exception, a bug included, becomes an `error` report (exit 3), never a
    traceback."""
    try:
        report = dispatch(cfg)
    except UsageError:
        raise
    except Exception as exc:
        report = error_report(cfg, exc)
    return report


def run_suite(path, out):
    with open(path) as handle:
        try:
            entries = json.load(handle)
        except ValueError as exc:
            raise UsageError("manifest is not valid JSON: %s" % exc)
    if not isinstance(entries, list) or not entries:
        raise UsageError("manifest must be a nonempty JSON list of run configurations")
    configs = []
    for idx, entry in enumerate(entries):
        try:
            cfg = RunConfig.from_dict(entry)
            reject_unused(cfg.check, entry)
            validate(cfg)
        except UsageError as exc:
            raise UsageError("manifest entry %d: %s" % (idx, exc))
        configs.append(cfg)
    started = time.perf_counter()
    reports = []
    for idx, cfg in enumerate(configs):
        try:
            reports.append(run_one(cfg))
        except UsageError as exc:
            raise UsageError("manifest entry %d: %s" % (idx, exc))
    aggregate = {
        "schema_version": reports[0].schema_version,
        "entries": [r.to_dict() for r in reports],
        "verdicts": [r.verdict for r in reports],
        "all_verified": all(r.verdict == VERIFIED for r in reports),
        "timing_s": time.perf_counter() - started,
    }
    if out:
        with open(out, "w") as handle:
            handle.write(json.dumps(aggregate, indent=2, sort_keys=True))
    for idx, r in enumerate(reports):
        print("[%d] %s: %s" % (idx, r.config.check, r.verdict))
    if aggregate["all_verified"]:
        return EXIT_VERIFIED
    if any(r.verdict == ERROR for r in reports):
        return EXIT_ERROR
    return EXIT_FALSIFIED


def run(argv):
    """Parse arguments, run the named check (or suite), write the report,
    and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_VERIFIED
    try:
        if args.command == "suite":
            return run_suite(args.manifest, args.out)
        cfg = config_from_args(args)
        report = run_one(cfg)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report.to_json())
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_ERROR
    print("%s: %s (%.3fs)" % (cfg.check, report.verdict, report.timing_s))
    return report.exit_code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
