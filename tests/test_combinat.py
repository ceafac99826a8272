import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples
from corpus import iter_linear_kupisch
from hinak.algebras import AlgebraSpec, build
from hinak.combinat import (
    KupischSeries,
    as_os,
    box_interval,
    canonical_orbit_rep,
    interlaces,
    is_os,
    kupisch_hasse_path,
    loewy_len,
    mesh_coordinates,
    mesh_from_coordinates,
    nakayama_permutation,
    nakayama_permutation_inverse,
    translate_tuple,
)


def window_os(a, b, k):
    """Weakly increasing k-tuples with entries in {a,...,b}, in lex order."""
    return list(itertools.combinations_with_replacement(range(a, b + 1), k))


os_tuples = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(-3, 6), min_size=k, max_size=k).map(
        lambda xs: tuple(sorted(xs))
    )
)


def test_interlaces_examples():
    assert interlaces((0, 1), (1, 2))
    assert not interlaces((0, 2), (1, 1))


def test_interlaces_reflexive_on_ordered_sequences():
    for lam in window_os(0, 3, 3):
        assert interlaces(lam, lam)


def test_interlaces_length_mismatch():
    with pytest.raises(ValueError):
        interlaces((0, 1), (0, 1, 2))


@given(os_tuples, os_tuples)
@settings(max_examples=examples(300))
def test_interlacing_iff_box_stays_ordered(x, y):
    # componentwise domination plus every box point weakly increasing
    if len(x) != len(y):
        return
    dominated = all(a <= b for a, b in zip(x, y))
    box_ok = dominated and all(
        tuple(sorted(t)) == t
        for t in itertools.product(*(range(a, b + 1) for a, b in zip(x, y)))
    )
    assert interlaces(x, y) == box_ok


def int_tuples(k):
    """Integer k-tuples, sorted or not."""
    raw = st.lists(st.integers(-2, 4), min_size=k, max_size=k)
    return st.one_of(raw.map(tuple), raw.map(sorted).map(tuple))


# two tuples of length 1 to 4, half the time of one length and otherwise of two different lengths
tuple_pairs = st.integers(1, 4).flatmap(
    lambda k: st.tuples(int_tuples(k), st.one_of(int_tuples(k), int_tuples(k % 4 + 1)))
)


@given(st.integers(1, 4).flatmap(int_tuples))
@settings(max_examples=examples(300))
def test_is_os_means_sorted(t):
    assert is_os(t) == (list(t) == sorted(t))


@given(tuple_pairs)
@settings(max_examples=examples(300))
def test_interlaces_is_a_weakly_increasing_merge(pair):
    x, y = pair
    if len(x) != len(y):
        with pytest.raises(ValueError):
            interlaces(x, y)
        return
    merged = [e for xy in zip(x, y) for e in xy]  # x_1, y_1, x_2, y_2, ...
    assert interlaces(x, y) == (merged == sorted(merged))


@given(tuple_pairs)
@settings(max_examples=examples(300))
def test_box_interval_is_the_sorted_part_of_the_product(pair):
    # lo need not lie below hi, and neither need be sorted
    lo, hi = pair
    if len(lo) != len(hi):
        with pytest.raises(ValueError):
            box_interval(lo, hi)
        return
    product = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    assert box_interval(lo, hi) == [t for t in product if list(t) == sorted(t)]


def test_loewy_len():
    assert loewy_len((1, 3, 4)) == 4
    assert loewy_len((5, 5, 5)) == 1
    assert loewy_len((0, 1, 2)) == 3


def test_translate_tuple():
    assert translate_tuple((1, 2, 3), 1) == (0, 1, 2)
    assert translate_tuple((0, 1), -1) == (1, 2)
    assert translate_tuple((4, 7), 0) == (4, 7)


@given(os_tuples, st.integers(-3, 3))
def test_translate_preserves_loewy_length(lam, k):
    assert loewy_len(translate_tuple(lam, k)) == loewy_len(lam)


def linear_os(n, k):
    """The ordered sequences of length k over {0,...,n-1} as the program lists them: the vertices of A^{k}_n."""
    return list(build(AlgebraSpec.linear_an(n, k)).vertices)


def test_enumerate_os_small():
    assert linear_os(3, 2) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert len(linear_os(4, 2)) == 10
    assert linear_os(1, 5) == [(0, 0, 0, 0, 0)]


def test_enumerate_os_counts():
    for n in range(1, 9):
        for k in range(1, 5):
            assert len(linear_os(n, k)) == math.comb(n + k - 1, k)
            assert len(build(AlgebraSpec.linear_an(n, k)).summands()) == math.comb(n + k, k + 1)


def test_enumerate_os_lex_sorted():
    for n, k in [(4, 2), (3, 3)]:
        ts = linear_os(n, k)
        assert ts == sorted(ts)
        ss = build(AlgebraSpec.linear_an(n, k)).summands()
        assert ss == sorted(ss)


def test_validate_kupisch():
    assert KupischSeries.linear_a((1, 2, 2, 3)).violation() is None
    msg = KupischSeries.linear_a((1, 3, 2)).violation()
    assert msg is not None and "i=1" in msg
    msg = KupischSeries.linear_a((2, 2)).violation()
    assert msg is not None and "i=0" in msg
    assert KupischSeries.cyclic_a((2, 3, 3)).violation() is None
    assert KupischSeries.cyclic_a((2, 4, 3)).violation() is not None


def test_kupisch_derived_inequalities():
    for series in iter_linear_kupisch(5):
        ls = series.lengths
        assert all(ls[i] <= i + 1 for i in range(len(ls)))
        for i in range(len(ls)):
            for j in range(i, len(ls)):
                assert i - j <= ls[i] - ls[j]


def test_kupisch_hasse_path():
    path = kupisch_hasse_path(KupischSeries.linear_a((1, 2, 2, 3)))
    assert [p.lengths for p in path] == [(1, 2, 2, 3), (1, 2, 3, 3), (1, 2, 3, 4)]
    path = kupisch_hasse_path(KupischSeries.linear_a((1, 2, 3, 4)))
    assert [p.lengths for p in path] == [(1, 2, 3, 4)]
    path = kupisch_hasse_path(KupischSeries.linear_a((1, 2, 2)))
    assert [p.lengths for p in path] == [(1, 2, 2), (1, 2, 3)]


def test_kupisch_hasse_path_neighbours():
    for series in iter_linear_kupisch(5):
        path = kupisch_hasse_path(series)
        for cur, nxt in zip(path, path[1:]):
            diffs = [b - a for a, b in zip(cur.lengths, nxt.lengths)]
            assert sorted(diffs) == [0] * (len(diffs) - 1) + [1]
            assert nxt.violation() is None


def test_nakayama_permutation_examples():
    assert nakayama_permutation((0, 1), 4) == (1, 3)
    assert nakayama_permutation((0, 1, 2), 3) == (1, 2, 2)


def test_nakayama_permutation_bijection_and_domain():
    ell, k = 4, 3
    window = [t for t in window_os(-2, 8, k) if loewy_len(t) <= ell]
    for lam in window:
        image = nakayama_permutation(lam, ell)
        assert loewy_len(image) <= ell
        assert nakayama_permutation_inverse(image, ell) == tuple(lam)
        assert image != tuple(lam)  # no fixed points
    # the tuples with entries in [0, ell-2] are a fundamental domain
    domain = window_os(0, ell - 2, k)
    seen = set()
    for mu in domain:
        cur = tuple(mu)
        for _ in range(3):
            assert cur not in seen
            seen.add(cur)
            cur = nakayama_permutation(cur, ell)


def test_canonical_orbit_rep():
    assert canonical_orbit_rep((4, 5, 7), 3) == ((1, 2, 4), 1)
    assert canonical_orbit_rep((0, 2), 3) == ((0, 2), 0)
    assert canonical_orbit_rep((-1, 0), 3) == ((2, 3), -1)


@given(os_tuples, st.integers(1, 4))
def test_canonical_orbit_rep_roundtrip(lam, n):
    rep, s = canonical_orbit_rep(lam, n)
    assert 0 <= rep[0] < n
    assert tuple(x + s * n for x in rep) == lam


def test_mesh_coordinates():
    assert mesh_coordinates((2, 3, 5)) == ((1, 3), 2)
    assert mesh_coordinates((4, 4, 4)) == ((0, 0), 4)


@given(os_tuples)
def test_mesh_coordinates_roundtrip(lam):
    if len(lam) < 2:
        return
    slopes, s = mesh_coordinates(lam)
    assert mesh_from_coordinates(slopes, s) == lam


def test_as_os_rejects_decreasing():
    with pytest.raises(ValueError):
        as_os((1, 0))
    with pytest.raises(ValueError):
        as_os(())


def test_doctests():
    import doctest

    import hinak.combinat as mod

    results = doctest.testmod(mod)
    assert results.failed == 0 and results.attempted > 0
