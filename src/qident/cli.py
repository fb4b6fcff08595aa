"""Command-line driver: subcommand routing, configuration, seeded trial
orchestration, machine-readable reports, and negative-control self-tests.

Exit codes: 0 verified, 1 falsified (or condition not satisfied), 2 usage
error, 3 internal or degenerate-input error.  A check can only exit 0 when
its report verdict reads "verified".  `validate` decides every usage error
from the check table `CHECKS` before any check runs; any exception inside a
running check, a UsageError included, is an internal fault (exit 3).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, NamedTuple

from . import elliptic, polyweights, residues, uqrep
from .errors import UsageError
from .reporting import (
    DEFAULT_PRIME, ERROR, EXIT_ERROR, EXIT_FALSIFIED, EXIT_USAGE, EXIT_VERIFIED,
    Report, RunConfig, TrialRecord, VERIFIED)

SEED_ENV_VAR = "QIDENT_SEED"

CHECK_OPTIONS = ("ell", "n", "i", "j", "k", "no_constraint", "word_len")
_WINDOW = ("ell", "n", "i", "j", "no_constraint")


class Check(NamedTuple):
    """A row of the check table, all that `validate` needs.  `reads` names
    the CHECK_OPTIONS the check reads (every check reads trials, seed, field,
    prime, bound and mutate); giving any other is a usage error, since the
    check would ignore it and still report a verdict.  A check that reads
    `i` needs the window 1 <= i < j <= n."""
    driver: Callable
    reads: tuple
    min_ell: int


CHECKS = {
    "jing": Check(polyweights.verify_jing, ("ell",), 1),
    "id1": Check(polyweights.verify_id, _WINDOW, 1),
    "id2": Check(polyweights.verify_id, _WINDOW, 1),
    "pp": Check(residues.verify_pp, ("ell", "n"), 1),
    "mn": Check(residues.verify_mn, ("ell", "n"), 1),
    "detq": Check(residues.verify_det, ("ell", "n"), 1),
    "deta": Check(residues.verify_det, ("ell", "n"), 1),
    "resI": Check(residues.verify_resi, ("ell", "n"), 1),
    "idp1": Check(elliptic.verify_idp, _WINDOW + ("k",), 1),
    "idp2": Check(elliptic.verify_idp, _WINDOW + ("k",), 1),
    "xx": Check(elliptic.verify_xx, ("ell", "n", "k"), 1),
    "xt": Check(elliptic.verify_xt, ("ell", "n", "k"), 1),
    "detprod": Check(elliptic.verify_detprod, ("ell", "n", "k"), 1),
    "rll": Check(uqrep.verify_rll, ("n",), 0),
    "kbi": Check(uqrep.verify_kbi, ("ell", "n"), 0),
    "bc1": Check(uqrep.verify_bc, _WINDOW, 0),
    # with no lowering arguments the string value is the singular vector
    # itself, not zero
    "bc2": Check(uqrep.verify_bc, _WINDOW, 1),
    "singular": Check(uqrep.verify_singular, _WINDOW + ("word_len",), 0),
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
    if check not in CHECKS:
        return
    unused = [key for key in CHECK_OPTIONS if key in given and key not in CHECKS[check].reads]
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
    """A UsageError for a configuration out of its check's contract, decided
    here alone and before the check runs."""
    if cfg.check not in CHECKS:
        raise UsageError("unknown check %r" % cfg.check)
    check = CHECKS[cfg.check]
    if cfg.trials < 1:
        raise UsageError("need at least one trial")
    if cfg.n < 1 or cfg.k < 0 or cfg.bound < 1 or cfg.word_len < 0:
        raise UsageError("n, k, bound, word_len out of range")
    if cfg.ell < check.min_ell:
        raise UsageError("%s needs ell >= %d" % (cfg.check, check.min_ell))
    if "i" in check.reads and not 1 <= cfg.i < cfg.j <= cfg.n:
        raise UsageError("%s needs 1 <= i < j <= n" % cfg.check)
    if cfg.check == "idp2" and (cfg.i, cfg.j) != (1, 2):
        raise UsageError("idp2 is the (i, j) = (1, 2) window form")
    cfg.scalar_field()   # a UsageError for an unknown field or a composite modulus


def error_report(cfg, exc):
    return Report(
        config=cfg, verdict=ERROR,
        trials=[TrialRecord(index=0, draws=[], constraints=[], value=None,
                            zero=False, notes=["%s: %s" % (type(exc).__name__, exc)])],
        notes=[], timing_s=0.0)


def run_one(cfg):
    """The report of one run.  `validate` raises its usage error before the
    check runs; any exception the check raises, a bug or a UsageError
    alike, becomes an `error` report (exit 3), never a traceback."""
    validate(cfg)
    try:
        return CHECKS[cfg.check].driver(cfg)
    except Exception as exc:
        return error_report(cfg, exc)


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
    reports = [run_one(cfg) for cfg in configs]
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
