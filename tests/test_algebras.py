import itertools
import json
import math

import pytest

from corpus import GOLDEN_SPECS, iter_linear_kupisch
from hinak.algebras import (
    AlgebraSpec,
    BasisElt,
    QuiverWithRelations,
    build,
    export_dot,
    export_json,
    export_qpa,
    factor_into_arrows,
    mesh_presentation,
    minimal_zero_relations,
    relations,
)
from hinak.combinat import KupischSeries, box_interval, interlaces


def enumerate_os(n, k):
    """All weakly increasing k-tuples with entries in {0,...,n-1}, in lex order."""
    return list(itertools.combinations_with_replacement(range(n), k))


def presentation_quiver(alg):
    """The algebra's quiver with the relations the QPA export emits."""
    return QuiverWithRelations(alg.vertices, alg.arrows(), relations(alg))


def brute_interlace(x, y):
    k = len(x)
    return all(x[i] <= y[i] for i in range(k)) and all(y[i] <= x[i + 1] for i in range(k - 1))


def test_kupisch_a_vertices_example():
    alg = build(AlgebraSpec.kupisch_a((1, 2, 2, 3), 2))
    assert set(alg.vertices) == {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (3, 3)}


def test_kupisch_a_full_series_is_everything():
    assert build(AlgebraSpec.linear_an(3, 2)).vertices == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    for n, d in [(4, 1), (4, 2), (5, 2)]:
        alg = build(AlgebraSpec.kupisch_a(range(1, n + 1), d))
        assert list(alg.vertices) == enumerate_os(n, d)
        assert alg.summands() == enumerate_os(n, d + 1)


def test_kupisch_a_box_closure():
    # every box between the leading and trailing faces of a summand is a vertex
    for lengths in [(1, 2, 2, 3), (1, 2, 3, 3), (1, 2, 2, 2), (1, 2, 3, 4)]:
        for d in (1, 2, 3):
            alg = build(AlgebraSpec.kupisch_a(lengths, d))
            allowed = set(alg.vertices)
            for lam in alg.summands():
                for mu in box_interval(lam[:-1], lam[1:]):
                    assert mu in allowed


def test_build_counts():
    alg = build(AlgebraSpec.linear_an(4, 2))
    assert len(alg.vertices) == 10
    assert len(alg.arrows()) == 12
    alg = build(AlgebraSpec.kupisch_a((1, 2, 2, 3), 2))
    assert len(alg.vertices) == 8
    alg = build(AlgebraSpec.linear_an(5, 1))
    assert len(alg.vertices) == 5 and len(alg.arrows()) == 4  # linear path quiver
    for n in range(1, 7):
        for d in range(1, 4):
            alg = build(AlgebraSpec.linear_an(n, d))
            assert len(alg.vertices) == math.comb(n + d - 1, d)
            assert len(alg.summands()) == math.comb(n + d, d + 1)


def test_build_rejects_bad_specs():
    with pytest.raises(ValueError):
        build(AlgebraSpec.linear_an(0, 2))
    with pytest.raises(ValueError):
        build(AlgebraSpec.kupisch_a((1, 3, 2), 2))
    with pytest.raises(ValueError):
        build(AlgebraSpec.window_spec(3, 1, 2))
    with pytest.raises(ValueError):
        build(AlgebraSpec.selfinj_atilde(3, 1, 2))


def test_hom_dim_examples():
    alg = build(AlgebraSpec.linear_an(4, 2))
    assert alg.hom_dim((0, 1), (1, 2)) == 1
    assert alg.hom_dim((1, 2), (1, 2)) == 1
    k = build(AlgebraSpec.kupisch_a((1, 2, 2, 3), 2))
    assert k.hom_dim((0, 0), (0, 2)) == 0  # (0,2) is not a vertex
    with pytest.raises(ValueError):
        k.hom_dim((0, 0), (0,))


def test_hom_dim_matches_raw_interlacing_count():
    alg = build(AlgebraSpec.linear_an(4, 2))
    for v in alg.vertices:
        for w in alg.vertices:
            assert alg.hom_dim(v, w) == int(brute_interlace(v, w))


def test_hom_dim_reduced_test_equals_naive_box_scan():
    # the last-coordinate scan agrees with scanning the full interval
    for lengths, d in [((1, 2, 2, 3), 2), ((1, 2, 3, 3), 2), ((1, 2, 2, 3), 3)]:
        series = KupischSeries.linear_a(lengths)
        alg = build(AlgebraSpec.kupisch_a(series, d))
        vset = set(alg.vertices)
        for v in alg.vertices:
            for w in alg.vertices:
                naive = 0
                if brute_interlace(v, w):
                    box = itertools.product(*(range(a, b + 1) for a, b in zip(v, w)))
                    naive = int(all(t in vset for t in box))
                assert alg.hom_dim(v, w) == naive


def test_compose_examples():
    alg = build(AlgebraSpec.linear_an(4, 2))
    f = alg.hom_basis((0, 0), (0, 1))[0]
    g = alg.hom_basis((0, 1), (0, 2))[0]
    assert alg.compose(f, g) == alg.hom_basis((0, 0), (0, 2))[0]
    # crossing the staircase boundary kills the composite: [(0,0),(1,1)] holds (1,0)
    g_up = alg.hom_basis((0, 1), (1, 1))[0]
    assert alg.compose(f, g_up) is None
    k = build(AlgebraSpec.kupisch_a((1, 2, 2, 3), 2))
    f = k.hom_basis((0, 1), (1, 1))[0]
    g = k.hom_basis((1, 1), (1, 2))[0]
    assert k.compose(f, g) is None  # (0,2) is missing from the vertex set
    ident = k.identity((0, 1))
    assert k.compose(ident, f) == f
    assert k.compose(f, k.identity((1, 1))) == f


def _direct_hom_basis(alg, v, w):
    # no memo: every shift of a wide window whose shifted target passes the box test
    shifts = range(-12, 13) if alg.orbit_modulus else (0,)
    return tuple(BasisElt(v, w, k) for k in shifts if alg._ambient_hom(v, alg.shifted(w, k)))


def _direct_compose(alg, f, g):
    k = f.shift + g.shift
    return BasisElt(f.src, g.dst, k) if alg._ambient_hom(f.src, alg.shifted(g.dst, k)) else None


def _check_memo_against_direct(alg, hom_ref, compose_ref):
    pairs = [(v, w) for v in alg.vertices for w in alg.vertices]
    for _ in ("cold", "warm"):
        assert all(alg.hom_basis(v, w) == hom_ref(v, w) for v, w in pairs)
    basis = [b for v, w in pairs for b in hom_ref(v, w)]
    by_src = {}
    for b in basis:
        by_src.setdefault(b.src, []).append(b)
    composable = [(f, g) for f in basis for g in by_src.get(f.dst, ())]
    for _ in ("cold", "warm"):
        assert all(alg.compose(f, g) == compose_ref(f, g) for f, g in composable)
    return basis


def test_hom_basis_and_compose_memo_match_direct_computation():
    multi_shift = False
    for spec in GOLDEN_SPECS:
        alg = build(spec)
        basis = _check_memo_against_direct(
            alg, lambda v, w: _direct_hom_basis(alg, v, w), lambda f, g: _direct_compose(alg, f, g)
        )
        multi_shift |= any(b.shift for b in basis)
    assert multi_shift  # the orbit families' shift scan is exercised

    # the opposite of an orbit family reads the base's memo through flipped pairs
    base = build(AlgebraSpec.selfinj_atilde(3, 3, 2))

    def op_compose(f, g):
        c = _direct_compose(base, g.flipped(), f.flipped())
        return None if c is None else c.flipped()

    _check_memo_against_direct(
        base.opposite(), lambda v, w: tuple(b.flipped() for b in _direct_hom_basis(base, w, v)), op_compose
    )


def test_compose_memo_keeps_the_composability_check():
    alg = build(AlgebraSpec.linear_an(4, 2))
    f = alg.identity((0, 0))
    assert alg.compose(f, alg.hom_basis((0, 0), (0, 2))[0]) is not None  # memoizes ((0,0), (0,2), 0)
    g = alg.hom_basis((0, 1), (0, 2))[0]  # same memo key, but g starts at (0,1)
    with pytest.raises(ValueError, match="non-composable"):
        alg.compose(f, g)


def test_algebras_share_no_memo_entries():
    an = build(AlgebraSpec.linear_an(4, 2))
    kup = build(AlgebraSpec.kupisch_a((1, 2, 2, 3), 2))
    f, g = an.hom_basis((0, 1), (1, 1))[0], an.hom_basis((1, 1), (1, 2))[0]
    assert an.compose(f, g) is not None  # warm an(4,2) first
    assert an.hom_basis((0, 1), (1, 2)) and kup.hom_basis((0, 1), (1, 2)) == ()
    assert kup.compose(f, g) is None  # (0,2) is missing from kupisch-a 1,2,2,3
    twin = build(AlgebraSpec.linear_an(4, 2))
    assert not twin._hom_memo and not twin._compose_memo
    assert an._hom_memo is not twin._hom_memo and an._compose_memo is not twin._compose_memo


def test_composition_associative_on_small_algebras():
    specs = [
        AlgebraSpec.linear_an(3, 2),
        AlgebraSpec.kupisch_a((1, 2, 2, 3), 2),
        AlgebraSpec.selfinj_atilde(3, 3, 2),
        AlgebraSpec.tube_trunc(2, 2, 3),
    ]
    for spec in specs:
        alg = build(spec)
        assert len(alg.vertices) <= 40
        basis = alg.all_basis()
        by_src = {}
        for b in basis:
            by_src.setdefault(b.src, []).append(b)
        for f in basis:
            for g in by_src.get(f.dst, ()):
                fg = alg.compose(f, g)
                for h in by_src.get(g.dst, ()):
                    gh = alg.compose(g, h)
                    left = alg.compose(fg, h) if fg is not None else None
                    right = alg.compose(f, gh) if gh is not None else None
                    assert left == right


def test_full_series_equals_linear():
    for n, d in [(4, 2), (3, 3)]:
        full = build(AlgebraSpec.kupisch_a(tuple(range(1, n + 1)), d))
        lin = build(AlgebraSpec.linear_an(n, d))
        assert full.vertices == lin.vertices
        for v in full.vertices:
            for w in full.vertices:
                assert full.hom_dim(v, w) == lin.hom_dim(v, w)


def test_window_is_translated_linear():
    win = build(AlgebraSpec.window_spec(2, 5, 2))
    lin = build(AlgebraSpec.linear_an(4, 2))
    shift = lambda t: tuple(x - 2 for x in t)
    assert sorted(shift(v) for v in win.vertices) == list(lin.vertices)
    for v in win.vertices:
        for w in win.vertices:
            assert win.hom_dim(v, w) == lin.hom_dim(shift(v), shift(w))


def test_algebra_dimension():
    assert len(build(AlgebraSpec.linear_an(2, 1)).all_basis()) == 3
    # independent oracle: count interlacing pairs by raw enumeration
    vs = enumerate_os(3, 2)
    want = sum(1 for v in vs for w in vs if brute_interlace(v, w))
    assert want == 15
    assert len(build(AlgebraSpec.linear_an(3, 2)).all_basis()) == want


def test_orbit_shift_scan_is_exhaustive():
    # widening the scan window does not reveal additional basis morphisms
    alg = build(AlgebraSpec.selfinj_atilde(3, 3, 2))
    n = alg.orbit_modulus
    for v in alg.vertices:
        for w in alg.vertices:
            found = {b.shift for b in alg.hom_basis(v, w)}
            wide = {
                k
                for k in range(-12, 13)
                if alg._ambient_hom(v, tuple(x + k * n for x in w))
            }
            assert found == wide


def _interval_scan_hom(alg, v, u):
    # reference: the bound checked at every last entry t of the interval [v, u]
    series = alg.spec.series
    if not interlaces(v, u) or (not alg.spec.is_orbit and u[-1] >= series.size):
        return False
    return all(t - v[0] + 1 <= series.length_at(t) for t in range(v[-1], u[-1] + 1))


def test_hom_endpoint_bound_equals_interval_scan():
    # a valid series has l_t <= l_{t-1} + 1, so checking the far end of [v, u] suffices
    specs = []
    for d in (1, 2, 3):
        specs += [AlgebraSpec.kupisch_a(s, d) for n in range(1, 5) for s in iter_linear_kupisch(n)]
        specs += [AlgebraSpec.atilde_kupisch(s, d) for s in ((2, 3), (3, 3, 2), (4, 3, 2, 3))]
    for spec in specs:
        alg = build(spec)
        top = spec.n + 1 + (max(spec.series.lengths) if spec.is_orbit else 0)
        for v in alg.vertices:
            # every tuple v interlaces, with last entry up to top
            boxes = [range(a, b + 1) for a, b in zip(v, v[1:])] + [range(v[-1], top + 1)]
            for u in itertools.product(*boxes):
                assert alg._ambient_hom(v, u) == _interval_scan_hom(alg, v, u), (spec, v, u)


def test_orbit_hom_dims_are_finite_and_match_ambient_sum():
    tube = build(AlgebraSpec.tube_trunc(3, 2, 5))
    assert all(
        tube.hom_dim(v, w) < 10 for v in tube.vertices for w in tube.vertices
    )


def test_opposite():
    alg = build(AlgebraSpec.kupisch_a((1, 2, 2, 3), 2))
    op = alg.opposite()
    assert op.opposite() is alg
    for v in alg.vertices:
        for w in alg.vertices:
            assert op.hom_dim(w, v) == alg.hom_dim(v, w)
    lin = build(AlgebraSpec.linear_an(4, 1))
    rev = lin.opposite()
    assert sorted((a.src, a.dst) for a in rev.arrows()) == sorted(
        (a.dst, a.src) for a in lin.arrows()
    )


def test_factor_into_arrows():
    alg = build(AlgebraSpec.linear_an(4, 2))
    for b in alg.all_basis():
        chain = factor_into_arrows(alg, b)
        assert len(chain) == alg.path_length(b)
        cur = alg.identity(b.src)
        for a in chain:
            cur = alg.compose(cur, a)
            assert cur is not None
        assert cur == b


def test_export_dot_counts():
    alg = build(AlgebraSpec.linear_an(4, 2))
    dot = export_dot(alg)
    assert dot.count('";') == 10  # node lines
    assert dot.count("->") == 12


def test_export_json_schema():
    payload = json.loads(export_json(build(AlgebraSpec.tube_trunc(2, 2, 3))))
    assert payload["family"] == "tube-trunc"
    assert payload["orbit_modulus"] == 2
    assert all(set(a) == {"source", "i", "target", "shift"} for a in payload["arrows"])


def test_export_qpa_mentions_quiver_and_relations():
    alg = build(AlgebraSpec.kupisch_a((1, 2, 2, 3), 2))
    script = export_qpa(alg)
    assert script.startswith("quiver := Quiver(8, [")
    assert "PathAlgebra(Rationals, quiver)" in script
    assert "relations := [" in script
    assert "A := kQ/Ideal(kQ, relations);" in script


def test_relations_present_the_algebra():
    # graded dimensions of the emitted presentation match the basis predicate
    specs = [
        AlgebraSpec.linear_an(3, 2),
        AlgebraSpec.kupisch_a((1, 2, 2, 3), 2),
        AlgebraSpec.kupisch_a((1, 2, 3, 3), 1),
        AlgebraSpec.selfinj_atilde(2, 3, 2),
        AlgebraSpec.tube_trunc(2, 2, 4),
        AlgebraSpec.window_spec(0, 3, 2),
        AlgebraSpec.zl_window(3, 0, 4, 2),
    ]
    for spec in specs:
        alg = build(spec)
        got = presentation_quiver(alg).graded_hom_dims()
        want = {}
        for v in alg.vertices:
            for w in alg.vertices:
                for b in alg.hom_basis(v, w):
                    deg = alg.path_length(b)
                    want.setdefault((v, w), {})
                    want[(v, w)][deg] = want[(v, w)].get(deg, 0) + 1
        assert got == want, spec


def test_zero_relations_exist_for_d1_quotient():
    alg = build(AlgebraSpec.kupisch_a((1, 2, 3, 3), 1))
    chains = minimal_zero_relations(alg)
    assert any(len(c) == 3 for c in chains)  # a cubic monomial relation


def test_commutation_relations_shape():
    alg = build(AlgebraSpec.linear_an(3, 2))
    rels = relations(alg)
    assert all(1 <= len(r) <= 2 for r in rels)
    two_route = [r for r in rels if len(r) == 2]
    assert two_route, "commutativity squares must exist"
    for r in two_route:
        ends = {route[-1].dst for route in r}
        assert len(ends) == 1


def test_mesh_presentation_counts():
    mesh = mesh_presentation(1, None, (0, 4))
    std = build(AlgebraSpec.window_spec(0, 4, 2))
    assert len(mesh.quiver.vertices) == len(std.vertices)
    assert sorted(mesh.to_standard(v) for v in mesh.quiver.vertices) == list(std.vertices)
    mesh = mesh_presentation(2, 3, (0, 6))
    std = build(AlgebraSpec.zl_window(3, 0, 6, 3))
    assert len(mesh.quiver.vertices) == len(std.vertices)
    assert len(mesh.quiver.arrows) == len(std.arrows())


def test_mesh_connecting_arrow_rule():
    mesh = mesh_presentation(2, 3, (0, 6))
    verts = set(mesh.quiver.vertices)
    lowered = {(p, s): (tuple(x - 1 for x in p), s + 1) for (p, s) in verts}
    want = {v: w for v, w in lowered.items() if v[0][0] > 0 and w in verts}
    assert {a.src: a.dst for a in mesh.quiver.arrows if a.direction == 0} == want


def test_summand_sets():
    alg = build(AlgebraSpec.kupisch_a((1, 2, 2, 3), 2))
    lams = alg.summands()
    assert len(lams) == 13
    assert all(alg.is_summand(l) for l in lams)
    assert not alg.is_summand((0, 0, 2))
    lin = build(AlgebraSpec.linear_an(4, 2))
    assert lin.summands() == enumerate_os(4, 3)


def test_module_hom_formula_orbit_shift_sum():
    tube = build(AlgebraSpec.tube_trunc(3, 2, 5))
    # identity contributes exactly one shift here
    assert tube.module_hom_formula((0, 1, 2), (0, 1, 2)) == 1
    # raw count over a wide shift window agrees
    for lam in tube.summands()[:10]:
        for mu in tube.summands()[:10]:
            raw = sum(
                1
                for k in range(-10, 11)
                if interlaces(lam, tuple(x + 3 * k for x in mu))
            )
            assert tube.module_hom_formula(lam, mu) == raw
