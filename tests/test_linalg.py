from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from hinak.linalg import Mat, block_diag, cokernel_projection, column_space_completion, hstack

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def small_matrix(max_dim=5):
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).flatmap(
        lambda rc: st.lists(
            st.lists(rationals, min_size=rc[1], max_size=rc[1]),
            min_size=rc[0],
            max_size=rc[0],
        ).map(Mat.from_rows)
    )


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
@settings(max_examples=150)
def test_rank_nullity(m):
    assert m.rank() + m.kernel_basis().cols == m.cols


@given(small_matrix())
@settings(max_examples=150)
def test_kernel_annihilates(m):
    k = m.kernel_basis()
    assert (m * k).is_zero()


@given(small_matrix())
@settings(max_examples=100)
def test_cokernel_projection_properties(m):
    p = cokernel_projection(m)
    assert p.rows == m.rows - m.rank()
    assert (p * m).is_zero()
    assert p.rank() == p.rows


@given(small_matrix())
@settings(max_examples=100)
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


def test_stacking():
    a = Mat.from_rows([[1, 2]])
    b = Mat.from_rows([[3, 4]])
    assert hstack([a, b]).data == Mat.from_rows([[1, 2, 3, 4]]).data
    d = block_diag([Mat.identity(1), Mat.from_rows([[2]])])
    assert d.data == Mat.from_rows([[1, 0], [0, 2]]).data


@given(small_matrix())
@settings(max_examples=100)
def test_column_space_completion(m):
    extra = column_space_completion(m)
    assert len(extra) == m.rows - m.rank()
    cols = [m]
    for j in extra:
        e = Mat.zeros(m.rows, 1)
        e.data[j][0] = Fraction(1)
        cols.append(e)
    assert hstack(cols).rank() == m.rows
