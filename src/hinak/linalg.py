"""Dense exact linear algebra over the rationals.

Entries are ``int | Fraction``: ints until a division, which always goes through
:func:`_div`, is inexact.  No floating point is used anywhere.  Matrices stay
small (a few hundred rows).  :meth:`Mat.rref` eliminates fraction-free over
integer rows, each kept primitive by dividing out its gcd, so no Fraction
arithmetic runs inside the elimination; ``//`` appears only where the
division is exact.  Every construction checks that the data has the stated
shape.
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


_INT = {int}


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
        data = [[x if type(x) is int else _div(Fraction(x), 1) for x in r] for r in rows]
        if not data:
            return Mat([], 0, 0)
        return Mat(data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat([[0] * cols for _ in range(rows)], rows, cols)

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
        entry is integral.
        """
        m = [row[:] for row in self.data]
        rows, cols = self.rows, self.cols
        pivots: list[int] = []
        if not rows or not cols:
            return Mat(m, rows, cols), pivots
        if set(map(type, chain.from_iterable(m))) != _INT:
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
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [0] * self.cols
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -red.data[r][fc]
            basis.append(v)
        if not basis:
            return Mat([[] for _ in range(self.cols)], self.cols, 0) if self.cols else Mat([], 0, 0)
        return Mat([list(col) for col in zip(*basis)], self.cols, len(basis))

    def solve(self, rhs: "Mat") -> "Mat | None":
        """A particular solution X of self * X = rhs, or None if inconsistent."""
        if rhs.rows != self.rows:
            raise ValueError("shape mismatch in solve")
        aug_cols = self.cols + rhs.cols
        aug = Mat(
            [self.data[i][:] + rhs.data[i][:] for i in range(self.rows)],
            self.rows,
            aug_cols,
        )
        red, pivots = aug.rref()
        for c in pivots:
            if c >= self.cols:
                return None
        sol = [[0] * rhs.cols for _ in range(self.cols)]
        for r, pc in enumerate(pivots):
            for j in range(rhs.cols):
                sol[pc][j] = red.data[r][self.cols + j]
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


def block_diag(mats: Sequence[Mat]) -> Mat:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = Mat.zeros(rows, cols)
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            out.data[r0 + i][c0 : c0 + m.cols] = m.data[i][:]
        r0 += m.rows
        c0 += m.cols
    return out


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
