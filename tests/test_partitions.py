from itertools import product

import pytest

from qident.errors import UsageError
from qident.exactnum import QQ, Sampler, SamplerConfig
from qident.partitions import (
    Partition, binom, enumerate_partitions, enumerate_window, kappa, x_point, y_point)
from qident.polyweights import sample_poly_params

LE = "le"
GE = "ge"
BOTH = "both"
INCOMPARABLE = "incomparable"


def leq(lam, mu):
    """Oracle: the componentwise order of two partitions of equal length,
    which the triangularity of the weights at special points follows."""
    if lam.ell != mu.ell:
        raise UsageError("cannot compare partitions of lengths %d and %d" % (lam.ell, mu.ell))
    le = all(a <= b for a, b in zip(lam.entries, mu.entries))
    ge = all(a >= b for a, b in zip(lam.entries, mu.entries))
    if le and ge:
        return BOTH
    if le:
        return LE
    if ge:
        return GE
    return INCOMPARABLE


def brute_count(ell, n):
    return sum(1 for combo in product(range(1, n + 1), repeat=ell)
               if all(a >= b for a, b in zip(combo, combo[1:])))


def test_enumerate_examples():
    got = [p.entries for p in enumerate_partitions(2, 2)]
    assert got == [(1, 1), (2, 1), (2, 2)]
    got = [p.entries for p in enumerate_partitions(1, 3)]
    assert got == [(1,), (2,), (3,)]
    assert len(enumerate_partitions(3, 3)) == 10
    assert enumerate_partitions(0, 4) == [Partition((), 4)]


def test_enumerate_counts_against_brute_force():
    for ell in range(7):
        for n in range(1, 7):
            parts = enumerate_partitions(ell, n)
            assert len(parts) == binom(n + ell - 1, ell) == brute_count(ell, n)
            assert len(set(p.entries for p in parts)) == len(parts)


def test_window_is_filter_of_full_enumeration():
    for (ell, i, j, n) in [(2, 1, 2, 3), (3, 2, 3, 3), (1, 1, 1, 2)]:
        full = [p.entries for p in enumerate_partitions(ell, n)
                if not p.entries or (p.entries[0] <= j and p.entries[-1] >= i)]
        win = [p.entries for p in enumerate_window(ell, i, j, n)]
        assert sorted(win) == sorted(full)


def test_multiplicities():
    assert Partition((2, 2, 1), 3).multiplicities() == (1, 2, 0)
    assert Partition((), 4).multiplicities() == (0, 0, 0, 0)
    assert Partition((3, 3, 3), 3).multiplicities() == (0, 0, 3)
    for p in enumerate_partitions(4, 3):
        assert sum(p.multiplicities()) == 4


def test_invalid_partitions_rejected():
    with pytest.raises(UsageError):
        Partition((1, 2), 2)
    with pytest.raises(UsageError):
        Partition((3,), 2)
    with pytest.raises(UsageError):
        enumerate_partitions(-1, 2)


def _params(ell, n, seed=2):
    return sample_poly_params(Sampler(SamplerConfig(seed)), ell, n)


def test_eval_points():
    p = _params(2, 2)
    eta, x, y = p.eta, p.x, p.y
    assert x_point(Partition((2, 1), 2), p).coords == (x[0], x[1])
    assert x_point(Partition((2, 2), 2), p).coords == (x[1] / eta, x[1])
    p1 = _params(2, 1)
    assert y_point(Partition((1, 1), 1), p1).coords == (p1.eta * p1.y[0], p1.y[0])
    p32 = _params(3, 2)
    for lam in enumerate_partitions(3, 2):
        for pt in (x_point(lam, p32), y_point(lam, p32)):
            assert len(pt.coords) == 3
            prod = QQ.one
            for c in pt.coords:
                prod = prod * c
            assert prod != 0


def test_leq():
    assert leq(Partition((2, 1), 3), Partition((1, 1), 3)) == GE
    assert leq(Partition((3, 1), 3), Partition((2, 2), 3)) == INCOMPARABLE
    lam = Partition((2, 2), 3)
    assert leq(lam, lam) == BOTH
    with pytest.raises(UsageError):
        leq(Partition((1,), 2), Partition((1, 1), 2))


def test_leq_is_a_partial_order():
    parts = enumerate_partitions(3, 3)
    for a in parts:
        assert leq(a, a) == BOTH
        for b in parts:
            ab, ba = leq(a, b), leq(b, a)
            if ab == BOTH:
                assert a.entries == b.entries
            if ab == LE:
                assert ba == GE
            for c in parts:
                if ab in (LE, BOTH) and leq(b, c) in (LE, BOTH):
                    assert leq(a, c) in (LE, BOTH)


def test_kappa():
    assert kappa(3, 2, 3).entries == (2, 2, 2)
    assert kappa(0, 1, 2).entries == ()
    p = _params(2, 2)
    assert x_point(kappa(2, 2, 2), p).coords == (p.x[1] / p.eta, p.x[1])

