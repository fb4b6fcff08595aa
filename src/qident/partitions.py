"""Partitions with bounded parts, their multiplicities, and the special
evaluation points attached to them.

A partition here is a weakly decreasing tuple (lam_1 >= ... >= lam_ell) with
entries in [1, n].  The special x-point lists, block by block in ascending
m, the geometric progression eta^(1-w_m) x_m, ..., eta^(-1) x_m, x_m for
each block with multiplicity w_m > 0; the y-point runs the progression the
other way.  Blocks with w_m = 0 contribute nothing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

from .errors import UsageError

def binom(a, b):
    """Binomial coefficient, zero outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


@dataclass(frozen=True)
class Partition:
    entries: tuple
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise UsageError("entry bound n must be >= 1")
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        for a, b in zip(entries, entries[1:]):
            if a < b:
                raise UsageError("partition entries must be weakly decreasing: %r" % (entries,))
        if entries and not (1 <= entries[-1] and entries[0] <= self.n):
            raise UsageError("partition entries must lie in [1, %d]: %r" % (self.n, entries))

    @property
    def ell(self):
        return len(self.entries)

    def multiplicities(self):
        """w_k = number of parts equal to k, for k = 1..n; sums to ell."""
        return _multiplicities(self.entries, self.n)

    def __repr__(self):
        return "Partition(%r, n=%d)" % (self.entries, self.n)


@functools.lru_cache(maxsize=None)
def _multiplicities(entries, n):
    out = [0] * n
    for e in entries:
        out[e - 1] += 1
    return tuple(out)


def enumerate_partitions(ell, n):
    """All partitions of length ell with parts in [1, n], lexicographically
    ordered: (1,1) < (2,1) < (2,2).  Count is C(n+ell-1, ell)."""
    if ell < 0 or n < 1:
        raise UsageError("need ell >= 0 and n >= 1")
    out = []
    for combo in combinations_with_replacement(range(1, n + 1), ell):
        out.append(Partition(tuple(reversed(combo)), n))
    return out


def enumerate_window(ell, i, j, n):
    """Partitions with j >= lam_1 >= ... >= lam_ell >= i and parts bounded
    by n."""
    if not (1 <= i <= j):
        raise UsageError("window needs 1 <= i <= j")
    if j > n:
        raise UsageError("window top %d exceeds entry bound %d" % (j, n))
    out = []
    for combo in combinations_with_replacement(range(i, j + 1), ell):
        out.append(Partition(tuple(reversed(combo)), n))
    return out


def kappa(ell, j, n):
    """The constant partition (j, ..., j) of length ell."""
    if not (1 <= j <= n):
        raise UsageError("kappa needs 1 <= j <= n")
    return Partition((j,) * ell, n)


@dataclass(frozen=True)
class EvalPoint:
    """An ordered tuple of scalars with provenance (x- or y-type, source
    partition), as consumed by the residue engine."""
    coords: tuple
    kind: str
    partition: Partition

    @property
    def ell(self):
        return len(self.coords)


def x_point(lam, params):
    """x |> lam: per block m (ascending), eta^(1-w_m) x_m, ..., x_m."""
    coords = []
    eta = params.eta
    for m, w in enumerate(lam.multiplicities(), start=1):
        xm = params.x[m - 1]
        for r in range(w):
            coords.append(eta ** (1 - w + r) * xm)
    return EvalPoint(tuple(coords), "x", lam)


def y_point(lam, params):
    """y <| lam: per block m (ascending), eta^(w_m-1) y_m, ..., y_m."""
    coords = []
    eta = params.eta
    for m, w in enumerate(lam.multiplicities(), start=1):
        ym = params.y[m - 1]
        for r in range(w):
            coords.append(eta ** (w - 1 - r) * ym)
    return EvalPoint(tuple(coords), "y", lam)
