import itertools
import json

import pytest

from hinak.algebras import (
    AlgebraSpec,
    build,
    commutation_relations,
    export_dot,
    export_json,
    export_qpa,
    factor_into_arrows,
    import_json,
    mesh_presentation,
    minimal_zero_relations,
    presentation_quiver,
)
from hinak.combinat import KupischSeries, enumerate_os, interlaces, iter_linear_kupisch


def brute_os(n, k):
    return set(itertools.combinations_with_replacement(range(n), k))


def brute_interlace(x, y):
    k = len(x)
    return all(x[i] <= y[i] for i in range(k)) and all(y[i] <= x[i + 1] for i in range(k - 1))


def test_build_counts():
    alg = build(AlgebraSpec.linear_an(4, 2))
    assert len(alg.vertices) == 10
    assert len(alg.arrows()) == 12
    alg = build(AlgebraSpec.kupisch_a((1, 2, 2, 3), 2))
    assert len(alg.vertices) == 8
    alg = build(AlgebraSpec.linear_an(5, 1))
    assert len(alg.vertices) == 5 and len(alg.arrows()) == 4  # linear path quiver


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
    assert build(AlgebraSpec.linear_an(2, 1)).algebra_dimension() == 3
    # independent oracle: count interlacing pairs by raw enumeration
    vs = sorted(brute_os(3, 2))
    want = sum(1 for v in vs for w in vs if brute_interlace(v, w))
    assert want == 15
    assert build(AlgebraSpec.linear_an(3, 2)).algebra_dimension() == want


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
        top = spec.n + 1 + (spec.series.max_length if spec.is_orbit else 0)
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


def test_export_json_roundtrip():
    for spec in [AlgebraSpec.linear_an(3, 2), AlgebraSpec.selfinj_atilde(3, 3, 2)]:
        alg = build(spec)
        clone = import_json(export_json(alg))
        assert clone.vertices == alg.vertices
        for v in alg.vertices:
            for w in alg.vertices:
                assert clone.hom_basis(v, w) == alg.hom_basis(v, w)


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
    recs = commutation_relations(alg)
    assert all(1 <= len(r["routes"]) <= 2 for r in recs)
    two_route = [r for r in recs if len(r["routes"]) == 2]
    assert two_route, "commutativity squares must exist"
    for r in two_route:
        ends = {route[1].dst for route in r["routes"]}
        assert len(ends) == 1


def test_mesh_presentation_counts():
    mesh = mesh_presentation(1, None, (0, 4))
    std = build(AlgebraSpec.window_spec(0, 4, 2))
    assert len(mesh.vertices) == len(std.vertices)
    assert sorted(mesh.to_standard(v) for v in mesh.vertices) == list(std.vertices)
    mesh = mesh_presentation(2, 3, (0, 6))
    std = build(AlgebraSpec.zl_window(3, 0, 6, 3))
    assert len(mesh.vertices) == len(std.vertices)
    assert len(mesh.quiver.arrows) == len(std.arrows())


def test_mesh_connecting_arrow_rule():
    mesh = mesh_presentation(2, 3, (0, 6))
    for (p, s) in mesh.vertices:
        has_b0 = (tuple(x - 1 for x in p), s + 1) in set(mesh.vertices) and p[0] > 0
        assert ((p, s), 0) in mesh.arrow_index or not has_b0


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
