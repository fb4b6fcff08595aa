"""Command-line driver: subcommand routing, configuration, and the check
table `CHECKS`, whose rows name each check's sampler, value, constraint
lines and notes, all run by `reporting.run_trials`.

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
    ERROR, EXIT_ERROR, EXIT_FALSIFIED, EXIT_USAGE, EXIT_VERIFIED,
    Report, RunConfig, TrialRecord, VERIFIED, run_trials)

SEED_ENV_VAR = "QIDENT_SEED"

CHECK_OPTIONS = ("ell", "n", "i", "j", "k", "no_constraint", "word_len")
_WINDOW = ("ell", "n", "i", "j", "no_constraint")


class Check(NamedTuple):
    """A row of the check table.  `reads` names the CHECK_OPTIONS the check
    reads (every check reads trials, seed, field, prime, bound and mutate);
    giving any other is a usage error, since the check would ignore it and
    still report a verdict.  A check that reads `i` needs the window
    1 <= i < j <= n.  `reporting.run_trials` runs every row: per trial
    `sample(sampler, cfg)` draws the parameters and `value(cfg, params,
    sampler)` returns an exact value or a finished trial.  The report
    carries the constraint lines, the (imposed, lifted) line of a window
    identity or a resonance and the notes."""
    reads: tuple
    min_ell: int
    sample: Callable
    value: Callable
    constraints: tuple = ()
    window: tuple = ()
    notes: tuple = ()


def draw_eta(sampler, cfg):
    return polyweights.sample_eta(sampler, cfg.ell)


def draw_poly(sampler, cfg):
    return polyweights.sample_poly_params(sampler, cfg.ell, cfg.n)


def draw_poly_window(sampler, cfg):
    return polyweights.sample_poly_params(sampler, cfg.ell, cfg.n,
                                          None if cfg.no_constraint else (cfg.i, cfg.j))


def draw_weights(sampler, cfg):
    return uqrep.sample_weight_params(sampler, cfg.n)


def draw_elliptic(sampler, cfg):
    return elliptic.sample_ell_params(sampler, cfg.ell, cfg.n, cfg.k)


def draw_elliptic_window(sampler, cfg):
    return elliptic.sample_ell_params(sampler, cfg.ell, cfg.n, cfg.k,
                                      None if cfg.no_constraint else (cfg.i, cfg.j))


_POLY = ("eta^s != 1", "x,y nonzero pairwise distinct")
_ELLIPTIC = _POLY + ("alpha != 1",)
_ID = ("eta^s != 1 for s = 1..ell", "x,y nonzero pairwise distinct", "t pairwise distinct")
_IMPOSED = ("imposed x_j = eta^(ell-1) y_i", "constraint lifted (negative control)")
_UQ = ("q^2 != 1", "s, z nonzero")
_RESONANCE = ("imposed z_i = s_i^2 s_j^2 q^(-2 ell) z_j", "resonance lifted (negative control)")

CHECKS = {
    "jing": Check(("ell",), 1, sample=draw_eta, value=polyweights.jing_residual,
                  constraints=("eta^s != 1 for s = 1..ell", "t pairwise distinct")),
    "id1": Check(_WINDOW, 1, sample=draw_poly_window, value=polyweights.window_residual,
                 constraints=_ID, window=_IMPOSED),
    "id2": Check(_WINDOW, 1, sample=draw_poly_window, value=polyweights.id2_residual,
                 constraints=_ID, window=_IMPOSED),
    "pp": Check(("ell", "n"), 1, sample=draw_poly, value=residues.gram_residual,
                constraints=_POLY),
    "mn": Check(("ell", "n"), 1, sample=draw_poly, value=residues.mn_residual,
                constraints=_POLY + ("det[Q_lam(x|>kap)] != 0",)),
    "detq": Check(("ell", "n"), 1, sample=draw_poly, value=residues.detq_residual,
                  constraints=_POLY),
    "deta": Check(("ell", "n"), 1, sample=draw_poly, value=residues.deta_residual,
                  constraints=_POLY),
    "resI": Check(("ell", "n"), 1, sample=draw_poly, value=residues.resi_trial,
                  constraints=_POLY,
                  notes=("divisibility finding: agreement iff every exponent >= 1 "
                         "(f*g divisible by t_1...t_ell) and <= 2n-1",)),
    "idp1": Check(_WINDOW + ("k",), 1, sample=draw_elliptic_window,
                  value=polyweights.window_residual,
                  constraints=_ELLIPTIC + ("t pairwise distinct",), window=_IMPOSED),
    "idp2": Check(_WINDOW + ("k",), 1, sample=draw_elliptic_window,
                  value=elliptic.idp2_residual,
                  constraints=_ELLIPTIC + ("t pairwise distinct",), window=_IMPOSED,
                  notes=("idp2 depends on the parameters only through "
                         "beta = eta^(1-2 ell) alpha x_1/y_1",)),
    "xx": Check(("ell", "n", "k"), 1, sample=draw_elliptic, value=residues.gram_residual,
                constraints=_ELLIPTIC + ("denominator thetas invertible",)),
    "xt": Check(("ell", "n", "k"), 1, sample=draw_elliptic, value=elliptic.xt_residual,
                constraints=_ELLIPTIC + ("basis matrix invertible to order K",)),
    "detprod": Check(("ell", "n", "k"), 1, sample=draw_elliptic,
                     value=elliptic.detprod_residual, constraints=_ELLIPTIC,
                     notes=("the root-of-unity constant of the basis determinant and "
                            "its inverse in the transition determinant cancel in the "
                            "asserted product; cyclotomic values are never computed",)),
    "rll": Check(("n",), 0, sample=draw_weights, value=uqrep.rll_residual,
                 constraints=_UQ + ("u != z",)),
    "kbi": Check(("ell", "n"), 0, sample=draw_weights, value=uqrep.kbi_residual,
                 constraints=_UQ + ("t pairwise distinct",),
                 notes=("lowering-string prefactor carries (-1)^ell relative to the bare "
                        "product form, as required by the operator sign convention that "
                        "the raising expansion fixes",)),
    "bc1": Check(_WINDOW, 0, sample=uqrep.resonance, value=uqrep.bc1_residual,
                 constraints=_UQ + ("t pairwise distinct",), window=_RESONANCE,
                 notes=("bc1 as stated vanishes by depth grading alone (ell+1 lowering "
                        "steps against ell raising steps): the resonance is not needed "
                        "for this composite; the resonance-sensitive content lives in "
                        "the singular-vector and submodule-annihilation checks",)),
    # with no lowering arguments the string value is the singular vector
    # itself, not zero
    "bc2": Check(_WINDOW, 1, sample=uqrep.resonance, value=uqrep.bc2_residual,
                 constraints=_UQ + ("t pairwise distinct",), window=_RESONANCE),
    "singular": Check(_WINDOW + ("word_len",), 0, sample=uqrep.resonance,
                      value=uqrep.singular_trial, constraints=_UQ, window=_RESONANCE,
                      notes=("word-bounded spanning set stands in for the full "
                             "submodule; words of length ell+1 carry the "
                             "resonance-sensitive content",)),
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

    # CHECK_OPTIONS and --prime stay off the namespace unless given;
    # RunConfig has their defaults
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
        c.add_argument("--prime", type=int, help="the modulus of --field prime")
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


def reject_unused(check, given, field):
    """A UsageError if `given` names one of CHECK_OPTIONS that `check`
    does not read, or a `prime` modulus that a run over `field` other than
    "prime" would ignore.  An unknown check is left to `validate`."""
    if check not in CHECKS:
        return
    unused = [key for key in CHECK_OPTIONS if key in given and key not in CHECKS[check].reads]
    if unused:
        raise UsageError("%s does not read option(s) %s" % (check, ", ".join(unused)))
    if "prime" in given and field != "prime":
        raise UsageError("a prime modulus is read only with field 'prime', not %r" % (field,))


def config_from_args(args):
    seed = args.seed
    if seed is None:
        text = os.environ.get(SEED_ENV_VAR, "1")
        try:
            seed = int(text)
        except ValueError:
            raise UsageError("%s must be an integer, got %r" % (SEED_ENV_VAR, text)) from None
    given = {key: getattr(args, key) for key in CHECK_OPTIONS + ("prime",)
             if hasattr(args, key)}
    reject_unused(args.command, given, args.field)
    return RunConfig(
        check=args.command, trials=args.trials, seed=seed, field=args.field,
        bound=args.bound, mutate=args.mutate, **given)


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
        return run_trials(cfg, CHECKS[cfg.check])
    except Exception as exc:
        return error_report(cfg, exc)


def run_suite(path, out):
    try:
        with open(path) as handle:
            entries = json.load(handle)
    except OSError as exc:
        raise UsageError("cannot read manifest %s: %s" % (path, exc.strerror or exc)) from None
    except ValueError as exc:
        raise UsageError("manifest is not valid JSON: %s" % exc) from None
    if not isinstance(entries, list) or not entries:
        raise UsageError("manifest must be a nonempty JSON list of run configurations")
    configs = []
    for idx, entry in enumerate(entries):
        try:
            cfg = RunConfig.from_dict(entry)
            # a report's embedded configuration names every field; it is a
            # replay, not a choice of options
            if set(entry) != set(cfg.to_dict()):
                reject_unused(cfg.check, entry, cfg.field)
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
        print("[%d] %s: %s (%.3fs)" % (idx, r.config.check, r.verdict, r.timing_s))
    idx, r = max(enumerate(reports), key=lambda item: item[1].timing_s)
    print("slowest: [%d] %s (%.3fs)" % (idx, r.config.check, r.timing_s))
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
