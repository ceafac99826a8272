import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from hinak import linalg
from hinak.linalg import Mat, _div, cokernel_projection, column_space_completion, hstack

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# ints, Fractions, and Fractions whose denominator is 1, all in one matrix
mixed_entries = st.one_of(st.integers(-6, 6), rationals, st.integers(-6, 6).map(Fraction))
# zeros and small ints with common factors, so integer pivots often fail to divide their row,
# and p/q with |p|, q up to 10^6, so rows are scaled by large lcms
hard_entries = st.one_of(
    st.just(0),
    st.sampled_from([2, -2, 3, -3, 4, 6, -6]),
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)),
)


def small_rows(entries, max_dim=5):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda rc: st.lists(
            st.lists(entries, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        )
    )


def small_matrix(max_dim=5):
    return small_rows(rationals, max_dim).map(Mat.from_rows)


def test_rank_examples():
    assert Mat.identity(3).rank() == 3
    assert Mat.zeros(2, 5).rank() == 0
    assert Mat.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_kernel_examples():
    assert Mat.identity(4).kernel_basis().cols == 0
    assert Mat.zeros(1, 3).kernel_basis().cols == 3


def test_solve_example():
    sol = Mat.from_rows([[2]]).solve(Mat.from_rows([[4]]))
    assert sol is not None and sol.data[0][0] == Fraction(2)
    assert Mat.zeros(2, 2).solve(Mat.from_rows([[1], [0]])) is None


@given(small_matrix())
@settings(max_examples=examples(150))
def test_rank_nullity(m):
    assert m.rank() + m.kernel_basis().cols == m.cols


@given(small_matrix())
@settings(max_examples=examples(150))
def test_kernel_annihilates(m):
    k = m.kernel_basis()
    assert (m * k).is_zero()


@given(small_matrix())
@settings(max_examples=examples(100))
def test_cokernel_projection_properties(m):
    p = cokernel_projection(m)
    assert p.rows == m.rows - m.rank()
    assert (p * m).is_zero()
    assert p.rank() == p.rows


@given(small_matrix())
@settings(max_examples=examples(100))
def test_solve_returns_actual_solution(m):
    rhs = m * Mat.from_rows([[Fraction(i - j, 2)] for i in range(m.cols) for j in [1]])
    sol = m.solve(rhs)
    assert sol is not None
    assert m * sol == rhs


def test_inverse_roundtrip():
    m = Mat.from_rows([[1, 2], [3, 5]])
    inv = m.inverse()
    assert inv is not None
    assert m * inv == Mat.identity(2)
    assert Mat.from_rows([[1, 2], [2, 4]]).inverse() is None


def test_construction_checks_shape():
    for data, rows, cols in (([[1, 2], [3]], 2, 2), ([[1]], 2, 1), ([[1, 2]], 1, 1), ([], 1, 0)):
        with pytest.raises(ValueError, match="inconsistent"):
            Mat(data, rows, cols)
    assert (Mat([[], [], []], 3, 0).rows, Mat([[], [], []], 3, 0).cols) == (3, 0)
    assert (Mat([], 0, 5).rows, Mat([], 0, 5).cols) == (0, 5)


def test_empty_zero_matrices_are_shared_and_stay_empty():
    # an empty matrix has no entry to change, so Mat.zeros hands out one instance per shape;
    # a non-empty zero matrix is written into by its callers, so it is always a new one
    assert Mat.zeros(3, 0) is Mat.zeros(3, 0) and Mat.zeros(0, 4) is Mat.zeros(0, 4)
    assert Mat.zeros(0, 0) is Mat.zeros(0, 0) and Mat.zeros(3, 0) is not Mat.zeros(0, 3)
    fresh = Mat.zeros(2, 3)
    assert fresh is not Mat.zeros(2, 3) and fresh.data[0] is not fresh.data[1]
    fresh.data[0][0] = 1
    assert Mat.zeros(2, 3).is_zero()
    with pytest.raises(ValueError, match="inconsistent"):
        Mat.zeros(-1, 0)
    # the kernel of a matrix of full column rank is the shared empty one; with no pivot, the identity
    assert Mat.from_rows([[1, 2], [0, 3], [1, 1]]).kernel_basis() is Mat.zeros(2, 0)
    assert Mat.zeros(3, 0).kernel_basis() is Mat.zeros(0, 0)
    assert Mat.zeros(0, 3).kernel_basis() == Mat.zeros(3, 2).transpose().kernel_basis() == Mat.identity(3)
    # a whole run of every suite leaves each shared matrix with its shape and empty rows
    from hinak.algebras import AlgebraSpec
    from hinak.checks import run_all

    run_all(AlgebraSpec.linear_an(4, 2))
    assert (0, 0) in linalg._EMPTY
    for (rows, cols), m in linalg._EMPTY.items():
        assert (m.rows, m.cols, len(m.data)) == (rows, cols, rows) and 0 in (rows, cols)
        assert all(type(row) is list and row == [] for row in m.data)


def test_stacking():
    a = Mat.from_rows([[1, 2]])
    b = Mat.from_rows([[3, 4]])
    assert hstack([a, b]).data == Mat.from_rows([[1, 2, 3, 4]]).data


@given(small_matrix())
@settings(max_examples=examples(100))
def test_column_space_completion(m):
    extra = column_space_completion(m)
    assert len(extra) == m.rows - m.rank()
    cols = [m]
    for j in extra:
        e = Mat.zeros(m.rows, 1)
        e.data[j][0] = Fraction(1)
        cols.append(e)
    assert hstack(cols).rank() == m.rows


# ------------------------------------------------------------------ int-first exactness


def reference_rref(rows):
    """Gauss-Jordan elimination with every entry a Fraction, as Mat.rref once did it."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r >= len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def reference_kernel(rows):
    """The canonical rref basis of the null space, one list per basis vector."""
    red, pivots = reference_rref(rows)
    cols = len(rows[0])
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def assert_exact(m):
    assert all(type(x) in (int, Fraction) for row in m.data for x in row)


def assert_int_first(m):
    assert all(type(x) is int or (type(x) is Fraction and x.denominator != 1) for row in m.data for x in row)


def test_div_is_int_first():
    assert type(_div(4, 2)) is int and _div(4, 2) == 2
    assert type(_div(6, -3)) is int and _div(6, -3) == -2
    assert _div(1, 2) == Fraction(1, 2) and type(_div(1, 2)) is Fraction
    assert _div(-3, 2) == Fraction(-3, 2)
    assert _div(Fraction(4), 2) == 2 and type(_div(Fraction(4), 2)) is int
    assert _div(3, Fraction(3, 2)) == 2 and type(_div(3, Fraction(3, 2))) is int
    assert _div(Fraction(1, 2), 3) == Fraction(1, 6)


@given(small_rows(mixed_entries), mixed_entries)
@settings(max_examples=examples(200))
def test_entries_stay_exact_and_match_fraction_reference(rows, c):
    raw = Mat([row[:] for row in rows])
    m = Mat.from_rows(rows)
    assert_exact(m)
    assert m == raw
    assert all(type(x) is int for row in m.data for x in row if x.denominator == 1)
    ref_red, ref_pivots = reference_rref(rows)
    for a in (raw, m):
        red, pivots = a.rref()
        assert_int_first(red)
        assert (red.data, pivots) == (ref_red, ref_pivots)
        assert a.rank() == len(ref_pivots)
        k = a.kernel_basis()
        assert_int_first(k)
        assert k.transpose().data == reference_kernel(rows)
    scaled = raw.scale(c)
    assert_exact(scaled)
    assert scaled.data == [[Fraction(c) * x for x in row] for row in rows]
    sq = raw * raw.transpose()
    assert_exact(sq)
    assert sq.data == [[sum((Fraction(x) * y for x, y in zip(ra, rb)), Fraction(0)) for rb in rows] for ra in rows]
    rhs = raw * Mat.from_rows([[j - 1] for j in range(raw.cols)])
    sol = raw.solve(rhs)
    assert_int_first(sol)
    assert raw * sol == rhs
    inv = sq.inverse()
    assert (inv is None) == (len(reference_rref(sq.data)[1]) < sq.rows)
    if inv is not None:
        assert_int_first(inv)
        assert sq * inv == Mat.identity(sq.rows)


def test_rref_examples():
    # the second pivot step scales the first row, whose pivot was already 1, by 2
    red, pivots = Mat([[1, 1, 1], [0, 2, 1]]).rref()
    assert (red.data, pivots) == ([[1, 0, Fraction(1, 2)], [0, 1, Fraction(1, 2)]], [0, 1])
    red, pivots = Mat([[1, 1], [Fraction(1, 2), Fraction(3, 2)]]).rref()
    assert (red.data, pivots) == ([[1, 0], [0, 1]], [0, 1])
    assert_int_first(red)
    red, pivots = Mat([[0, -2, 4], [0, 3, 6]]).rref()
    assert (red.data, pivots) == ([[0, 1, 0], [0, 0, 1]], [1, 2])
    for rows, cols in ((0, 3), (2, 0), (0, 0)):
        m = Mat.zeros(rows, cols)
        red, pivots = m.rref()
        assert (red.rows, red.cols, red.data, pivots) == (rows, cols, [[]] * rows, [])
        assert red is m  # a matrix with no row or no column is its own reduced form, not copied


@given(small_rows(hard_entries, max_dim=6))
@settings(max_examples=examples(200))
def test_rref_matches_reference_on_non_dividing_pivots_and_large_denominators(rows):
    m = Mat([row[:] for row in rows])
    red, pivots = m.rref()
    assert (red.data, pivots) == reference_rref(rows)
    assert_int_first(red)
    assert m.data == rows  # rref leaves its input alone


row_entries = st.one_of(st.just(0), st.integers(-9, 9), rationals, st.integers(-6, 6).map(Fraction))


@st.composite
def single_rows(draw):
    """1 to 16 entries: mixed ints and Fractions (denominator-1 ones included), all-zero rows, and
    integer rows that are already reduced (zeros, then a 1, then any ints)."""
    k = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(["mixed", "zero", "fraction-zero", "reduced"]))
    if kind == "zero":
        return [0] * k
    if kind == "fraction-zero":
        return [Fraction(0)] * k
    if kind == "reduced":
        lead = draw(st.integers(0, k - 1))
        return [0] * lead + [1] + draw(st.lists(st.integers(-9, 9), min_size=k - lead - 1, max_size=k - lead - 1))
    return draw(st.lists(row_entries, min_size=k, max_size=k))


@given(single_rows())
@settings(max_examples=examples(300))
def test_single_row_rref_matches_reference_and_returns_a_reduced_integer_row_itself(row):
    m = Mat([row[:]])
    red, pivots = m.rref()
    assert (red.data, pivots) == reference_rref([row])
    assert_int_first(red)
    assert m.data == [row]  # rref leaves its input alone
    already_reduced = all(type(x) is int for x in row) and (not pivots or row[pivots[0]] == 1)
    assert (red is m) == already_reduced


@st.composite
def sparse_rational_rows(draw):
    """10 to 16 rows or columns, mostly zeros, with zero rows, single-entry rows and at least one Fraction."""
    big, small = draw(st.integers(10, 16)), draw(st.integers(1, 16))
    rows, cols = draw(st.sampled_from([(big, small), (small, big)]))
    m = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["zero", "single", "sparse"]))
        row = [0] * cols
        if kind == "single":
            row[draw(st.integers(0, cols - 1))] = draw(hard_entries.filter(bool))
        elif kind == "sparse":
            row = draw(st.lists(st.one_of(st.just(0), hard_entries), min_size=cols, max_size=cols))
        m.append(row)
    m[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(
        st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(2, 10**6))
    )
    return m


@given(sparse_rational_rows())
@settings(max_examples=examples(100))
def test_sparse_rref_matches_reference_on_large_mostly_zero_rational_matrices(rows):
    m = Mat([row[:] for row in rows])
    red, pivots = m.rref()
    assert (red.data, pivots) == reference_rref(rows)
    assert_int_first(red)
    assert m.data == rows  # rref leaves its input alone
    assert m.kernel_basis().transpose().data == reference_kernel(rows)


def test_banded_matrix_reduces_alike_with_and_without_a_fraction(monkeypatch):
    # rank 11: the last row is the sum of the two above it, so the last column stays free
    band = [[(1, 2 + i % 3, -3)[j - i + 1] if abs(i - j) <= 1 else 0 for j in range(12)] for i in range(11)]
    band.append([a + b for a, b in zip(band[9], band[10])])
    scaled = [row[:] for row in band]
    scaled[4] = [Fraction(x, 3) for x in scaled[4]]
    sparse_calls = []
    sparse = linalg._rref_sparse

    def recording(m, cols):
        sparse_calls.append(cols)
        return sparse(m, cols)

    monkeypatch.setattr(linalg, "_rref_sparse", recording)
    red, pivots = Mat(band).rref()
    assert (red.data, pivots) == reference_rref(band)
    assert pivots == list(range(11)) and any(type(x) is Fraction for row in red.data for x in row)
    assert sparse_calls == []  # an integer matrix stays dense
    scaled_red, scaled_pivots = Mat(scaled).rref()
    assert sparse_calls == [12]  # one row scaled by 1/3 sends the matrix the sparse way
    assert (scaled_red.data, scaled_pivots) == (red.data, pivots)
    assert_int_first(red)
    assert_int_first(scaled_red)


def test_every_division_goes_through_div():
    # int / int is a float in Python, so the package divides only inside linalg._div
    def divisions(node):
        return [n for n in ast.walk(node) if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)]

    paths = sorted(Path(linalg.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    outside, inside = [], []
    for path in paths:
        tree = ast.parse(path.read_text())
        allowed = [
            n for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and (path.name, f.name) == ("linalg.py", "_div")
            for n in divisions(f)
        ]
        inside += allowed
        outside += [f"{path.name}:{n.lineno}" for n in divisions(tree) if n not in allowed]
    assert inside and outside == []
