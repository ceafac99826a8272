"""Closed-form answers for the query workloads, independent of the timed code.

Nothing here imports ``hinak``: the benchmark judges the program's answers
against formulas written out again from the paper's statements, so a bug in
the program's own combinatorics cannot make its answers look right.

A family is described by a small dict (``FamilySpec``) with the keys the
formulas need: ``family``, ``d`` and one of ``n`` (linear-a), ``series``
(kupisch-a) or ``n`` plus ``bound`` (the orbit families selfinj-atilde and
tube-trunc, whose Loewy bound is a constant).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

ORBIT_FAMILIES = ("selfinj-atilde", "tube-trunc")


def _weakly_increasing(t) -> bool:
    return all(a <= b for a, b in zip(t, t[1:]))


def _interlaces(x, y) -> bool:
    """x_1 <= y_1 <= x_2 <= y_2 <= ... <= x_k <= y_k."""
    k = len(x)
    return all(x[i] <= y[i] for i in range(k)) and all(y[i] <= x[i + 1] for i in range(k - 1))


def _loewy(t) -> int:
    return t[-1] - t[0] + 1


def _bound_at(fam: dict, t: int) -> int:
    """Loewy length of the indecomposable projective whose top sits at entry t."""
    if fam["family"] == "linear-a":
        return t + 1
    if fam["family"] == "kupisch-a":
        return fam["series"][t]
    return fam["bound"]


def summands(fam: dict) -> list[tuple[int, ...]]:
    """Index tuples of the distinguished module, in lexicographic order."""
    k = fam["d"] + 1
    if fam["family"] in ORBIT_FAMILIES:
        n, bound = fam["n"], fam["bound"]
        out = []
        for first in range(n):
            for rest in itertools.combinations_with_replacement(range(first, first + bound), k - 1):
                out.append((first,) + rest)
        return out
    last = fam["n"] - 1 if fam["family"] == "linear-a" else len(fam["series"]) - 1
    return [
        t
        for t in itertools.combinations_with_replacement(range(last + 1), k)
        if _loewy(t) <= _bound_at(fam, t[-1])
    ]


def is_projective(fam: dict, lam) -> bool:
    """An interval summand is projective exactly when it is as long as its top allows."""
    return _loewy(lam) == _bound_at(fam, lam[-1])


def canonical(fam: dict, t) -> tuple[int, ...]:
    """Representative of t in its orbit (first entry in [0, n)); t itself off orbit families."""
    if fam["family"] not in ORBIT_FAMILIES:
        return tuple(t)
    s = t[0] // fam["n"]
    return tuple(a - s * fam["n"] for a in t)


def hom_dim(fam: dict, lam, mu) -> int:
    """dim Hom between interval summands: the interlacing count, over orbit shifts."""
    if fam["family"] not in ORBIT_FAMILIES:
        return int(_interlaces(lam, mu))
    n = fam["n"]
    reach = (abs(lam[0]) + abs(lam[-1]) + abs(mu[0]) + abs(mu[-1])) // n + 2
    return sum(
        1 for k in range(-reach, reach + 1) if _interlaces(lam, tuple(x + k * n for x in mu))
    )


def tau(fam: dict, lam) -> tuple[int, ...] | None:
    """The higher translate of an interval summand: None (zero) on a projective."""
    if is_projective(fam, lam):
        return None
    return canonical(fam, tuple(x - 1 for x in lam))


def ext_dim(fam: dict, lam, mu, degree: int) -> int | None:
    """dim Ext^degree between summands where a closed form exists, else None.

    Extensions vanish in degrees 1..d-1 on every family.  In degree d the
    translate-interlacing formula holds on linear-a; elsewhere there is no
    closed form and the answer is None.
    """
    if 1 <= degree < fam["d"]:
        return 0
    if degree != fam["d"] or fam["family"] != "linear-a":
        return None
    shifted = tuple(x - 1 for x in lam)
    if shifted[0] < 0:
        return 0
    return int(_interlaces(mu, shifted))


def fmt(t) -> str:
    return ",".join(map(str, t))


# ---------------------------------------------------------------- rational base change


def _small_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def inverse(m: list[list[Fraction]]) -> list[list[Fraction]] | None:
    """Exact Gauss-Jordan inverse of a square matrix, or None when singular."""
    n = len(m)
    a = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            return None
        a[c], a[p] = a[p], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def matmul(a: list[list[Fraction]], b: list[list[Fraction]]) -> list[list[Fraction]]:
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols)] for i in range(len(a))]


def random_invertible(rng: random.Random, n: int) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """A dense invertible n x n matrix with small rational entries, and its inverse."""
    while True:
        g = [[_small_fraction(rng) for _ in range(n)] for _ in range(n)]
        g_inv = inverse(g)
        if g_inv is not None:
            return g, g_inv


def block_diag(blocks: list[list[list[Fraction]]], shapes: list[tuple[int, int]]) -> list[list[Fraction]]:
    rows = sum(r for r, _ in shapes)
    cols = sum(c for _, c in shapes)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for block, (r, c) in zip(blocks, shapes):
        for i in range(r):
            out[r0 + i][c0 : c0 + c] = block[i]
        r0 += r
        c0 += c
    return out
