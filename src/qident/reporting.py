"""Run configuration and machine-readable reports.

A report embeds the exact configuration that produced it; replaying that
configuration reproduces the per-trial values bit for bit (timing is the
one field excluded from the replay comparison).  All numbers are emitted as
exact numerator/denominator strings, never decimals, and `exact_form` is
the one place that decides how an exact value (a scalar, a truncated
series, a tensor vector or a list of residual entries) enters a report.
`run_trials` is the seeded trial loop that runs every check.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import get_type_hints

from .errors import SamplingError, UsageError, VerifierError
from .exactnum import (
    MR_BASES, MR_EXACT_BELOW, PRNG_DESCRIPTION, PrimeField, PSeries, QQ, Sampler,
    SamplerConfig, resample)
from .tensors import TensorVector

SCHEMA_VERSION = 1

VERIFIED = "verified"
FALSIFIED = "falsified"
CONDITION_NOT_SATISFIED = "condition-not-satisfied"
ERROR = "error"

EXIT_VERIFIED = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_ERROR = 3

DEFAULT_PRIME = 2 ** 61 - 1


@dataclass
class RunConfig:
    check: str
    ell: int = 1
    n: int = 2
    i: int = 1
    j: int = 2
    k: int = 6
    trials: int = 3
    seed: int = 1
    field: str = "rational"
    prime: int = DEFAULT_PRIME
    bound: int = 1000
    mutate: bool = False
    no_constraint: bool = False
    word_len: int = 0

    def scalar_field(self):
        if self.field == "rational":
            return QQ
        if self.field == "prime":
            return PrimeField(self.prime)
        raise UsageError("unknown field mode %r" % self.field)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        """The configuration a manifest entry or an embedded report config
        names.  A non-object, a missing check, an unknown key or a value of
        the wrong type (a bool where an int is due included) is a usage
        error, never silently dropped."""
        if not isinstance(d, dict):
            raise UsageError("a run configuration must be a JSON object, not %r" % (d,))
        types = get_type_hints(cls)
        unknown = sorted(map(repr, set(d) - set(types)))
        if unknown:
            raise UsageError("unknown configuration key(s): %s" % ", ".join(unknown))
        if "check" not in d:
            raise UsageError("a run configuration needs a 'check'")
        for key, value in d.items():
            want = types[key]
            if type(value) is not want:
                raise UsageError("configuration key %r must be of type %s, not %r"
                                 % (key, want.__name__, value))
        return cls(**d)


@dataclass
class TrialRecord:
    index: int
    draws: list
    constraints: list
    value: object
    zero: bool
    notes: list = field(default_factory=list)


@dataclass
class Report:
    config: RunConfig
    verdict: str
    trials: list
    notes: list = field(default_factory=list)
    timing_s: float = 0.0
    prng: str = PRNG_DESCRIPTION
    schema_version: int = SCHEMA_VERSION

    def canonical(self):
        """Everything a replay must reproduce (timing excluded)."""
        return {
            "schema_version": self.schema_version,
            "prng": self.prng,
            "config": self.config.to_dict(),
            "verdict": self.verdict,
            "notes": list(self.notes),
            "trials": [asdict(t) for t in self.trials],
        }

    def to_dict(self):
        d = self.canonical()
        d["timing_s"] = self.timing_s
        return d

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @property
    def exit_code(self):
        if self.verdict == VERIFIED:
            return EXIT_VERIFIED
        if self.verdict in (FALSIFIED, CONDITION_NOT_SATISFIED):
            return EXIT_FALSIFIED
        return EXIT_ERROR


def exact_form(value):
    """(report form, is zero) of an exact value: the coefficient strings of
    a truncated series, the string of a scalar, the `TensorVector.fmt`
    lines of a tensor vector, and for a list of (label, value) residual
    entries the lines of each nonzero entry: "label=value" for a scalar,
    "label: [coefficients]" for a series and "label key: value" per
    coefficient of a tensor vector."""
    if isinstance(value, list):
        lines = []
        for label, entry in value:
            form, zero = exact_form(entry)
            if zero:
                continue
            if isinstance(entry, TensorVector):
                lines.extend("%s %s" % (label, line) for line in form)
            else:
                lines.append(("%s: %s" if isinstance(form, list) else "%s=%s") % (label, form))
        return lines, not lines
    if isinstance(value, PSeries):
        return value.coeff_strings(), value.is_zero()
    if isinstance(value, TensorVector):
        return value.fmt(), value.is_zero()
    return str(value), value == 0


def verdict_for(all_zero, no_constraint=False):
    if all_zero:
        return VERIFIED
    return CONDITION_NOT_SATISFIED if no_constraint else FALSIFIED


def run_trials(cfg, check):
    """The report of one run of a check, a row of the check table
    (`cli.Check`): a seeded sampler, per trial `check.sample` draws the
    parameters and `check.value` the value, resampled on degenerate
    inputs, and the verdict over all trials.

    A value that is a tuple is a finished trial, the (lines, is zero,
    trial notes) of a check that writes its own lines; `exact_form` writes
    any other value.  Sampling draws made during resampled attempts stay
    in the log, so replays are bit-identical.
    """
    start = time.perf_counter()
    fld = cfg.scalar_field()
    sampler = Sampler(SamplerConfig(cfg.seed, cfg.bound), fld)
    constraints = list(check.constraints)
    if check.window:
        constraints.append(check.window[cfg.no_constraint])
    notes = list(check.notes)
    if cfg.field == "prime":
        notes.append("prime-field fast mode (p = %d): an unlucky prime can "
                     "produce spurious zeros; rational mode is authoritative"
                     % cfg.prime)
        if not fld.proven_prime:
            notes.append("p is only a strong probable prime to the bases %s; "
                         "primality is proven below %d"
                         % (", ".join(map(str, MR_BASES)), MR_EXACT_BELOW))

    def trial():
        value = check.value(cfg, check.sample(sampler, cfg), sampler)
        return value if isinstance(value, tuple) else (*exact_form(value), [])

    trials = []
    all_zero = True
    try:
        for idx in range(cfg.trials):
            log_start = len(sampler.log)
            value, zero, tnotes = resample(trial)
            trials.append(TrialRecord(
                index=idx,
                draws=[list(d) for d in sampler.log[log_start:]],
                constraints=list(constraints),
                value=value,
                zero=zero,
                notes=list(tnotes)))
            all_zero = all_zero and zero
        verdict = verdict_for(all_zero, cfg.no_constraint)
    except (SamplingError, VerifierError) as exc:
        trials.append(TrialRecord(
            index=len(trials), draws=[], constraints=list(constraints),
            value=None, zero=False, notes=["error: %s" % exc]))
        verdict = ERROR
    return Report(
        config=cfg,
        verdict=verdict,
        trials=trials,
        notes=notes,
        timing_s=time.perf_counter() - start)
