"""Combinatorics of weakly increasing integer tuples and Kupisch series.

Weakly increasing tuples play two roles throughout the package: tuples of
length d index the vertices of the algebras built in :mod:`hinak.algebras`,
and tuples of length d+1 index the distinguished interval modules.  All
tuples are plain Python tuples of ints; positions are 0-indexed in storage
and rendered 1-indexed (as ``x_1,...,x_k``) only in textual output.

A Kupisch series records the Loewy lengths of the indecomposable projective
modules of a Nakayama algebra along its linear or cyclic quiver: the
``linear-a`` and ``cyclic-a`` variants.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Sequence

IntTuple = tuple[int, ...]

LINEAR_A = "linear-a"
CYCLIC_A = "cyclic-a"


def as_os(entries: Iterable[int]) -> IntTuple:
    """Validate and normalize a weakly increasing tuple.

    >>> as_os([0, 1, 1])
    (0, 1, 1)
    """
    t = tuple(int(x) for x in entries)
    if not t:
        raise ValueError("tuple must be nonempty")
    for i in range(len(t) - 1):
        if t[i] > t[i + 1]:
            raise ValueError(f"not weakly increasing at position {i + 1}: {t}")
    return t


def is_os(entries: Sequence[int]) -> bool:
    return all(entries[i] <= entries[i + 1] for i in range(len(entries) - 1))


def interlaces(x: Sequence[int], y: Sequence[int]) -> bool:
    """Whether x_1 <= y_1 <= x_2 <= y_2 <= ... <= x_k <= y_k.

    >>> interlaces((0, 1), (1, 2))
    True
    >>> interlaces((0, 2), (1, 1))
    False
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    k = len(x)
    if any(x[i] > y[i] for i in range(k)):
        return False
    return all(y[i] <= x[i + 1] for i in range(k - 1))


def loewy_len(lam: Sequence[int]) -> int:
    """Loewy length of the interval module indexed by ``lam``: last - first + 1."""
    return lam[-1] - lam[0] + 1


def translate_tuple(lam: Sequence[int], k: int = 1) -> IntTuple:
    """Subtract k from every entry; negative k adds (inverse translation)."""
    return tuple(a - k for a in lam)


def enumerate_os(n: int, k: int) -> list[IntTuple]:
    """All weakly increasing k-tuples with entries in {0,...,n-1}, in lex order.

    The count is C(n+k-1, k).

    >>> enumerate_os(3, 2)
    [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    return list(itertools.combinations_with_replacement(range(n), k))


def count_os(n: int, k: int) -> int:
    return comb(n + k - 1, k)


def enumerate_window_os(a: int, b: int, k: int) -> list[IntTuple]:
    """Weakly increasing k-tuples with entries in {a,...,b}, in lex order."""
    if a > b:
        raise ValueError(f"empty window [{a},{b}]")
    return [tuple(x + a for x in t) for t in enumerate_os(b - a + 1, k)]


def dominates(hi: Sequence[int], lo: Sequence[int]) -> bool:
    """Product order: lo <= hi componentwise."""
    if len(hi) != len(lo):
        raise ValueError("length mismatch")
    return all(l <= h for l, h in zip(lo, hi))


def box_interval(lo: Sequence[int], hi: Sequence[int]) -> list[IntTuple]:
    """Weakly increasing tuples in the product-order interval [lo, hi], lex order."""
    if len(lo) != len(hi):
        raise ValueError("length mismatch")
    if not dominates(hi, lo):
        return []
    out = []
    for t in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if is_os(t):
            out.append(t)
    return out


def canonical_orbit_rep(lam: Sequence[int], n: int) -> tuple[IntTuple, int]:
    """Unique (rho, s) with lam = rho + s*n*(1,...,1) and rho_1 in {0,...,n-1}.

    >>> canonical_orbit_rep((4, 5, 7), 3)
    ((1, 2, 4), 1)
    """
    if n < 1:
        raise ValueError("n must be positive")
    s = lam[0] // n
    return tuple(a - s * n for a in lam), s


def mesh_coordinates(lam: Sequence[int]) -> tuple[IntTuple, int]:
    """Split a tuple into (slopes relative to the first entry, first entry).

    This is the vertex bijection between the standard presentation on
    (k+1)-tuples and the mesh presentation on (slope k-tuple, slice) pairs.

    >>> mesh_coordinates((2, 3, 5))
    ((1, 3), 2)
    """
    if len(lam) < 2:
        raise ValueError("need length >= 2")
    return tuple(a - lam[0] for a in lam[1:]), lam[0]


def mesh_from_coordinates(slopes: Sequence[int], s: int) -> IntTuple:
    """Inverse of :func:`mesh_coordinates`."""
    return (s,) + tuple(s + a for a in slopes)


def nakayama_permutation(lam: Sequence[int], ell: int) -> IntTuple:
    """Rotate a tuple one step and push the first entry forward by ell - 1.

    Defined on tuples of Loewy length at most ell; the image again has Loewy
    length at most ell.  This is the Nakayama/Serre permutation of the
    constant-series category with bound ell.

    >>> nakayama_permutation((0, 1), 4)
    (1, 3)
    """
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if loewy_len(lam) > ell:
        raise ValueError(f"tuple {lam} has Loewy length > {ell}")
    return tuple(lam[1:]) + (lam[0] + ell - 1,)


def nakayama_permutation_inverse(lam: Sequence[int], ell: int) -> IntTuple:
    if ell < 2:
        raise ValueError("ell must be >= 2")
    if loewy_len(lam) > ell:
        raise ValueError(f"tuple {lam} has Loewy length > {ell}")
    return (lam[-1] - ell + 1,) + tuple(lam[:-1])


@dataclass(frozen=True)
class KupischSeries:
    """A validated tuple of projective Loewy lengths, one per quiver vertex."""

    variant: str
    lengths: IntTuple

    @staticmethod
    def linear_a(lengths: Iterable[int]) -> "KupischSeries":
        return KupischSeries(LINEAR_A, tuple(int(x) for x in lengths))

    @staticmethod
    def cyclic_a(lengths: Iterable[int]) -> "KupischSeries":
        return KupischSeries(CYCLIC_A, tuple(int(x) for x in lengths))

    @property
    def size(self) -> int:
        """Number of vertices of the underlying quiver."""
        return len(self.lengths)

    @property
    def max_length(self) -> int:
        return max(self.lengths)

    def violation(self) -> str | None:
        """None if the variant's inequalities hold, else a description."""
        ls = self.lengths
        if not ls:
            return "empty series"
        if self.variant == LINEAR_A:
            if ls[0] != 1:
                return f"violation at i=0 (l_0 = {ls[0]} != 1)"
            for i in range(1, len(ls)):
                if ls[i] < 2:
                    return f"violation at i={i} ({ls[i]} < 2)"
                if ls[i] > ls[i - 1] + 1:
                    return f"violation at i={i} ({ls[i]} > {ls[i - 1]}+1)"
            return None
        if self.variant == CYCLIC_A:
            n = len(ls)
            for i in range(n):
                if ls[i] < 2:
                    return f"violation at i={i} ({ls[i]} < 2)"
                if ls[i] > ls[(i - 1) % n] + 1:
                    return f"violation at i={i} ({ls[i]} > {ls[(i - 1) % n]}+1)"
            return None
        return f"unknown variant {self.variant!r}"

    def require_valid(self) -> None:
        msg = self.violation()
        if msg is not None:
            raise ValueError(f"invalid Kupisch series {self.variant}{self.lengths}: {msg}")

    def length_at(self, i: int) -> int:
        """Loewy length bound at quiver vertex i (indexed mod the period when cyclic)."""
        if self.variant == LINEAR_A:
            if not 0 <= i < len(self.lengths):
                raise IndexError(f"vertex {i} out of range")
            return self.lengths[i]
        return self.lengths[i % len(self.lengths)]


def validate_kupisch(series: KupischSeries) -> str | None:
    """None when valid, otherwise the first violated inequality."""
    return series.violation()


def restrict_os(series: KupischSeries, k: int) -> list[IntTuple]:
    """Tuples of length k whose Loewy length is within the series bound at their last entry.

    For the linear variant this filters ``enumerate_os(n, k)``.  For the
    cyclic variant the result is the set of canonical orbit representatives
    (first entry in {0,...,n-1}); the bound is indexed by the last entry mod n.
    """
    series.require_valid()
    if k < 1:
        raise ValueError("k must be positive")
    if series.variant == LINEAR_A:
        return [t for t in enumerate_os(series.size, k) if loewy_len(t) <= series.lengths[t[-1]]]
    n = series.size
    out = []
    for first in range(n):
        hi = first + series.max_length - 1
        for rest in itertools.combinations_with_replacement(range(first, hi + 1), k - 1) if k > 1 else [()]:
            t = (first,) + rest
            if loewy_len(t) <= series.length_at(t[-1] % n):
                out.append(t)
    return sorted(out)


def kupisch_hasse_path(series: KupischSeries) -> list[KupischSeries]:
    """Chain in the Hasse quiver of linear Kupisch series from series up to (1,2,...,n).

    Consecutive entries differ by one in exactly one coordinate; each step
    increments the leftmost coordinate that stays valid.
    """
    if series.variant != LINEAR_A:
        raise ValueError("Hasse path is defined for the linear variant")
    series.require_valid()
    path = [series]
    cur = list(series.lengths)
    n = len(cur)
    while True:
        for i in range(1, n):
            if cur[i] <= cur[i - 1]:
                cur[i] += 1
                break
        else:
            break
        step = KupischSeries.linear_a(cur)
        step.require_valid()
        path.append(step)
    return path


def iter_linear_kupisch(n: int) -> Iterator[KupischSeries]:
    """All valid linear Kupisch series on n vertices, lexicographically."""

    def extend(prefix: list[int]) -> Iterator[IntTuple]:
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for v in range(2, prefix[-1] + 2):
            yield from extend(prefix + [v])

    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        yield KupischSeries.linear_a((1,))
        return
    for tail in extend([1]):
        yield KupischSeries.linear_a(tail)
