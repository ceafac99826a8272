import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hinak.combinat import (
    KupischSeries,
    as_os,
    box_interval,
    canonical_orbit_rep,
    count_os,
    enumerate_os,
    enumerate_window_os,
    interlaces,
    iter_linear_kupisch,
    kupisch_hasse_path,
    loewy_len,
    mesh_coordinates,
    mesh_from_coordinates,
    nakayama_permutation,
    nakayama_permutation_inverse,
    restrict_os,
    translate_tuple,
    validate_kupisch,
)

os_tuples = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(-3, 6), min_size=k, max_size=k).map(
        lambda xs: tuple(sorted(xs))
    )
)


def test_interlaces_examples():
    assert interlaces((0, 1), (1, 2))
    assert not interlaces((0, 2), (1, 1))


def test_interlaces_reflexive_on_ordered_sequences():
    for lam in enumerate_os(4, 3):
        assert interlaces(lam, lam)


def test_interlaces_length_mismatch():
    with pytest.raises(ValueError):
        interlaces((0, 1), (0, 1, 2))


@given(os_tuples, os_tuples)
@settings(max_examples=300)
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


def test_enumerate_os_small():
    assert enumerate_os(3, 2) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert len(enumerate_os(4, 2)) == 10
    assert enumerate_os(1, 5) == [(0, 0, 0, 0, 0)]


def test_enumerate_os_counts():
    for n in range(1, 9):
        for k in range(1, 5):
            assert len(enumerate_os(n, k)) == count_os(n, k)


def test_enumerate_os_lex_sorted():
    for n, k in [(4, 2), (3, 3)]:
        ts = enumerate_os(n, k)
        assert ts == sorted(ts)


def test_restrict_os_example():
    series = KupischSeries.linear_a((1, 2, 2, 3))
    got = set(restrict_os(series, 2))
    assert got == {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)}


def test_restrict_os_full_series_is_everything():
    for n, k in [(4, 2), (5, 3)]:
        series = KupischSeries.linear_a(range(1, n + 1))
        assert restrict_os(series, k) == enumerate_os(n, k)


def test_restrict_os_box_closure():
    # every box between the leading and trailing faces of a restricted tuple is restricted
    for lengths in [(1, 2, 2, 3), (1, 2, 3, 3), (1, 2, 2, 2), (1, 2, 3, 4)]:
        series = KupischSeries.linear_a(lengths)
        for d in (1, 2, 3):
            allowed = set(restrict_os(series, d))
            for lam in restrict_os(series, d + 1):
                for mu in box_interval(lam[:-1], lam[1:]):
                    assert mu in allowed


def test_validate_kupisch():
    assert validate_kupisch(KupischSeries.linear_a((1, 2, 2, 3))) is None
    msg = validate_kupisch(KupischSeries.linear_a((1, 3, 2)))
    assert msg is not None and "i=1" in msg
    msg = validate_kupisch(KupischSeries.linear_a((2, 2)))
    assert msg is not None and "i=0" in msg
    assert validate_kupisch(KupischSeries.cyclic_a((2, 3, 3))) is None
    assert validate_kupisch(KupischSeries.cyclic_a((2, 4, 3))) is not None


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
    window = [t for t in enumerate_window_os(-2, 8, k) if loewy_len(t) <= ell]
    for lam in window:
        image = nakayama_permutation(lam, ell)
        assert loewy_len(image) <= ell
        assert nakayama_permutation_inverse(image, ell) == tuple(lam)
        assert image != tuple(lam)  # no fixed points
    # the tuples with entries in [0, ell-2] are a fundamental domain
    domain = [t for t in enumerate_window_os(0, ell - 2, k)]
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
