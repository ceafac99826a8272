"""Exact linear algebra over the rationals, on dense matrices.

Entries are ``int | Fraction``: ints until a division, which always goes through
:func:`_div`, is inexact.  No floating point is used anywhere.  Matrices stay
small (a few hundred rows).  :meth:`Mat.rref` eliminates fraction-free over
integer rows, each kept primitive by dividing out its gcd, so no Fraction
arithmetic runs inside the elimination; ``//`` appears only where the
division is exact.  Its working rows are held sparse, as dicts of their
non-zero entries, only when the matrix holds a Fraction and has at least 10
rows or columns.  Every construction checks that the data has the stated shape.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence


def _div(x: int | Fraction, p: int | Fraction) -> int | Fraction:
    """The exact quotient x / p: an int when it is integral, else a Fraction."""
    if type(x) is int and type(p) is int:
        return x // p if x % p == 0 else Fraction(x, p)
    q = x / p
    return q.numerator if q.denominator == 1 else q


def _rref_sparse(m: list[list[int | Fraction]], cols: int) -> tuple[list[list[int | Fraction]], list[int]]:
    """Mat.rref's steps on the rows m, each scaled to integers and held as a dict of its non-zero entries."""
    sp = []
    for row in m:
        nonzero = {j: x for j, x in enumerate(row) if x}
        den = lcm(*[x.denominator for x in nonzero.values()])
        sp.append({j: x.numerator * (den // x.denominator) for j, x in nonzero.items()})
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(sp)) if c in sp[i]), None)
        if pr is None:
            continue
        sp[r], sp[pr] = sp[pr], sp[r]
        if sp[r][c] != 1:
            g = gcd(*sp[r].values()) if sp[r][c] > 0 else -gcd(*sp[r].values())
            sp[r] = {j: x // g for j, x in sp[r].items()}
        pivot_row, pv = sp[r], sp[r][c]
        for i, row in enumerate(sp):
            if i == r or c not in row:
                continue
            f = row[c]
            if pv != 1:
                g = gcd(pv, f)
                p, f = pv // g, f // g
                row = sp[i] = {j: p * a for j, a in row.items()}
            for j, b in pivot_row.items():
                row[j] = row.get(j, 0) - f * b
                if not row[j]:
                    del row[j]
            if pv != 1 and (g := gcd(*row.values())) > 1:
                sp[i] = {j: x // g for j, x in row.items()}
        pivots.append(c)
    red = [[0] * cols for _ in m]
    for out, row, c in zip(red, sp, pivots):
        for j, x in row.items():
            out[j] = _div(x, row[c])
    return red, pivots


_INT = {int}
# the one matrix of each shape with no row or no column: it has no entry, so sharing it is safe
_EMPTY: dict[tuple[int, int], "Mat"] = {}


class Mat:
    """An immutable-by-convention dense rational matrix."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: list[list[int | Fraction]], rows: int | None = None, cols: int | None = None):
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or (rows and set(map(len, data)) != {cols}):
            raise ValueError("inconsistent matrix data")
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Mat":
        return Mat([[x if type(x) is int else _div(Fraction(x), 1) for x in r] for r in rows])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        """A new zero matrix, or the shared one of its shape when it has no row or no column."""
        if rows and cols:
            return Mat([[0] * cols for _ in range(rows)], rows, cols)
        m = _EMPTY.get((rows, cols))
        if m is None:
            m = _EMPTY[rows, cols] = Mat([[] for _ in range(rows)], rows, cols)
        return m

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat([[int(i == j) for j in range(n)] for i in range(n)], n, n)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        raise TypeError("Mat is unhashable")

    def __repr__(self) -> str:
        return f"Mat({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
            self.rows,
            self.cols,
        )

    def scale(self, c) -> "Mat":
        if type(c) is not int:
            c = _div(Fraction(c), 1)
        return Mat([[c * x for x in row] for row in self.data], self.rows, self.cols)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = [[0] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            out_i = out[i]
            for k, a in enumerate(row):
                if a == 0:
                    continue
                brow = other.data[k]
                for j, b in enumerate(brow):
                    if b != 0:
                        out_i[j] += a * b
        return Mat(out, self.rows, other.cols)

    def transpose(self) -> "Mat":
        if self.rows == 0:
            return Mat([[] for _ in range(self.cols)], self.cols, 0) if self.cols else Mat([], 0, 0)
        return Mat([list(col) for col in zip(*self.data)], self.cols, self.rows)

    def column(self, j: int) -> list[int | Fraction]:
        return [row[j] for row in self.data]

    def _same_shape(self, other: "Mat") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def rref(self) -> tuple["Mat", list[int]]:
        """Reduced row echelon form and the pivot column indices.

        Fraction-free: when the matrix holds a Fraction, each row is scaled
        to integers by the lcm of its denominators, which leaves the row
        space unchanged.  A pivot row is first divided by its content (the
        gcd of its entries, signed so the pivot is positive), so a pivot that
        divides its row becomes 1 and the elimination is plain ``r_i - f*r``.
        Otherwise ``r_i <- p*r_i - f*r`` with ``p, f`` divided by their gcd,
        and the new row by its content.  Only at the end is each pivot row
        divided by its pivot, through :func:`_div`.  The reduced form is
        unique, so this is the Gauss-Jordan result, with an int wherever an
        entry is integral.  A matrix that holds a Fraction and has at least 10
        rows or columns takes these steps in :func:`_rref_sparse`, on rows held
        as ``{column: entry}`` dicts: the same pivots and row operations, which
        skip only zero entries, so the same exact result.  A single row is
        divided by its first non-zero entry in one pass; an integer row whose
        first non-zero entry is 1 is already reduced and is returned itself.
        """
        rows, cols = self.rows, self.cols
        if not rows or not cols:
            return self, []
        if rows == 1:
            row = self.data[0]
            pivots = [c for c, x in enumerate(row) if x][:1]
            pv = row[pivots[0]] if pivots else 1
            if pv == 1 and set(map(type, row)) == _INT:
                return self, pivots
            return Mat([[_div(x, pv) for x in row]], 1, cols), pivots
        m = [row[:] for row in self.data]
        pivots: list[int] = []
        if set(map(type, chain.from_iterable(m))) != _INT:
            if rows >= 10 or cols >= 10:
                red, pivots = _rref_sparse(m, cols)
                return Mat(red, rows, cols), pivots
            for i, row in enumerate(m):
                # a list, not a generator: a star-unpacked generator resizes its argument
                # tuple, and the resized tuples pile up in CPython's tuple free lists
                den = lcm(*[x.denominator for x in row])
                m[i] = [x.numerator * (den // x.denominator) for x in row]
        unit_pivots = True
        r = 0
        for c in range(cols):
            if r >= rows:
                break
            for pr in range(r, rows):
                if m[pr][c] != 0:
                    break
            else:
                continue
            m[r], m[pr] = m[pr], m[r]
            pv = m[r][c]
            if pv != 1:
                g = gcd(*m[r]) if pv > 0 else -gcd(*m[r])
                if g != 1:
                    m[r] = [x // g for x in m[r]]
                    pv = m[r][c]
                unit_pivots = unit_pivots and pv == 1
            pivot_row = m[r]
            for i in range(rows):
                f = m[i][c]
                if i == r or f == 0:
                    continue
                if pv == 1:
                    m[i] = [a - f * b for a, b in zip(m[i], pivot_row)]
                    continue
                g = gcd(pv, f)
                p, f = pv // g, f // g
                row = [p * a - f * b for a, b in zip(m[i], pivot_row)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
            pivots.append(c)
            r += 1
        if not unit_pivots:
            # a step with a pivot above 1 scales the earlier pivot rows too, so every one is checked
            for k, c in enumerate(pivots):
                pv = m[k][c]
                if pv != 1:
                    m[k] = [_div(x, pv) for x in m[k]]
        return Mat(m, rows, cols), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "Mat":
        """Columns form the canonical rref basis of the right null space."""
        red, pivots = self.rref()
        if len(pivots) == self.cols:
            return Mat.zeros(self.cols, 0)
        if not pivots:
            return Mat.identity(self.cols)
        basis = []
        for fc in [c for c in range(self.cols) if c not in pivots]:
            v = [0] * self.cols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -red.data[r][fc]
            basis.append(v)
        return Mat([list(col) for col in zip(*basis)], self.cols, len(basis))

    def solve(self, rhs: "Mat") -> "Mat | None":
        """A particular solution X of self * X = rhs, or None if inconsistent."""
        if rhs.rows != self.rows:
            raise ValueError("shape mismatch in solve")
        aug = Mat([a + b for a, b in zip(self.data, rhs.data)], self.rows, self.cols + rhs.cols)
        red, pivots = aug.rref()
        if pivots and pivots[-1] >= self.cols:
            return None
        sol = [[0] * rhs.cols for _ in range(self.cols)]
        for r, pc in enumerate(pivots):
            sol[pc] = red.data[r][self.cols:]
        return Mat(sol, self.cols, rhs.cols)

    def inverse(self) -> "Mat | None":
        if self.rows != self.cols:
            return None
        sol = self.solve(Mat.identity(self.rows))
        if sol is None or (self * sol) != Mat.identity(self.rows):
            return None
        return sol


def hstack(mats: Sequence[Mat]) -> Mat:
    mats = [m for m in mats]
    if not mats:
        raise ValueError("nothing to stack")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("row mismatch in hstack")
    data = [sum((m.data[i] for m in mats), []) for i in range(rows)]
    return Mat(data, rows, sum(m.cols for m in mats))


def cokernel_projection(m: Mat) -> Mat:
    """A full-row-rank P with P * m = 0; P presents the cokernel of m."""
    return m.transpose().kernel_basis().transpose()


def column_space_completion(m: Mat) -> list[int]:
    """Indices of standard basis vectors completing col(m) to the full space.

    Greedy in index order, so the choice is deterministic.
    """
    chosen: list[int] = []
    cur = m
    rank = m.rank()
    for j in range(m.rows):
        if rank == m.rows:
            break
        e = Mat.zeros(m.rows, 1)
        e.data[j][0] = 1
        cand = hstack([cur, e])
        r = cand.rank()
        if r > rank:
            chosen.append(j)
            cur = cand
            rank = r
    return chosen
