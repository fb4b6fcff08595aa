"""The benchmark's fixed check mixes.

Each workload is a list of entries run in order through
`qident.cli.run_one`.  Entry k of a workload runs with `seed = s + k` and
`trials = 1`, where s is the workload seed.  Every entry carries the
verdict the paper's statements predict; the `smoke` variants shrink every
size so that the whole mix runs in well under a second.
"""

VERIFIED = "verified"
FALSIFIED = "falsified"
NOT_SATISFIED = "condition-not-satisfied"


def entry(check, expect, field="rational", **options):
    """One run configuration plus its expected verdict."""
    cfg = {"check": check, "field": field}
    cfg.update(options)
    return {"config": cfg, "expect": expect}


def _mut(check, **options):
    return entry(check, FALSIFIED, mutate=True, **options)


def _nc(check, **options):
    return entry(check, NOT_SATISFIED, no_constraint=True, **options)


# poly: symmetrized weights, residues and elimination over QQ.
POLY = [
    entry("jing", VERIFIED, ell=6),
    _mut("jing", ell=6),
    entry("id1", VERIFIED, ell=4, n=3, i=1, j=3),
    entry("id2", VERIFIED, ell=4, n=3, i=1, j=3),
    _nc("id2", ell=4, n=3, i=1, j=3),
    entry("pp", VERIFIED, ell=3, n=3),
    _mut("pp", ell=2, n=3),
    entry("mn", VERIFIED, ell=3, n=3),
    entry("detq", VERIFIED, ell=4, n=4),
    entry("deta", VERIFIED, ell=4, n=3),
    entry("resI", VERIFIED, ell=3, n=3),
]

# elliptic: truncated series, theta and series elimination over QQ; the
# truncation order K takes the values 6, 8 and 10.
ELLIPTIC = [
    entry("xx", VERIFIED, ell=2, n=3, k=6),
    _mut("xx", ell=2, n=2, k=10),
    entry("idp1", VERIFIED, ell=3, n=3, i=1, j=3, k=6),
    _nc("idp1", ell=3, n=3, i=1, j=3, k=6),
    entry("idp2", VERIFIED, ell=3, n=2, k=6),
    entry("xt", VERIFIED, ell=2, n=3, k=8),
    entry("detprod", VERIFIED, ell=3, n=3, k=6),
]

# uq: sparse tensor operators; no symmetrization, series or residues.
# `singular` at (3, 3, 1, 3) with --mutate reports `error` (depth cap
# exceeded) instead of `falsified`: a known defect, kept so that it shows.
UQ = [
    entry("rll", VERIFIED, n=4),
    _mut("rll", n=3),
    entry("kbi", VERIFIED, ell=5, n=3),
    _mut("kbi", ell=3, n=3),
    entry("bc1", VERIFIED, ell=5, n=4, i=1, j=4),
    entry("bc2", VERIFIED, ell=5, n=4, i=1, j=4),
    _nc("bc2", ell=3, n=3, i=1, j=3),
    entry("singular", VERIFIED, ell=4, n=3, i=1, j=3),
    entry("singular", VERIFIED, ell=3, n=4, i=1, j=4),
    _mut("singular", ell=3, n=3, i=1, j=3),
    _nc("singular", ell=3, n=3, i=1, j=3),
]

# prime: a cross-section of the three mixes above in GF(2^61 - 1).
PRIME = [
    entry("jing", VERIFIED, "prime", ell=6),
    _mut("jing", field="prime", ell=5),
    entry("pp", VERIFIED, "prime", ell=3, n=3),
    entry("resI", VERIFIED, "prime", ell=3, n=3),
    entry("xx", VERIFIED, "prime", ell=2, n=2, k=10),
    _mut("xx", field="prime", ell=2, n=2, k=6),
    entry("rll", VERIFIED, "prime", n=3),
    entry("singular", VERIFIED, "prime", ell=3, n=3, i=1, j=3),
    _mut("kbi", field="prime", ell=3, n=3),
]

WORKLOADS = {"poly": POLY, "elliptic": ELLIPTIC, "uq": UQ, "prime": PRIME}

# Tiny versions of the four mixes: one entry per check kind, small sizes.
SMOKE = {
    "poly": [
        entry("jing", VERIFIED, ell=3),
        _mut("jing", ell=3),
        entry("id2", VERIFIED, ell=2, n=2, i=1, j=2),
        entry("pp", VERIFIED, ell=1, n=2),
        entry("detq", VERIFIED, ell=2, n=2),
    ],
    "elliptic": [
        entry("xx", VERIFIED, ell=1, n=2, k=3),
        _mut("idp1", ell=1, n=2, i=1, j=2, k=3),
        entry("xt", VERIFIED, ell=1, n=2, k=3),
    ],
    "uq": [
        entry("rll", VERIFIED, n=2),
        _mut("kbi", ell=2, n=2),
        entry("singular", VERIFIED, ell=1, n=2, i=1, j=2),
    ],
    "prime": [
        entry("jing", VERIFIED, "prime", ell=3),
        entry("xx", VERIFIED, "prime", ell=1, n=2, k=3),
        _mut("rll", field="prime", n=2),
    ],
}
