import json
import warnings

import pytest

from hinak import checks, reps
from hinak.algebras import AlgebraSpec, QuiverWithRelations, build
from hinak.checks import (
    CheckReport,
    _iso_ok,
    applicable_suites,
    check_gldim,
    check_homological_embedding,
    check_kupisch_lengths,
    check_mesh_iso,
    check_proj_inj,
    check_selfinjective,
    run_all,
    run_suite,
)
from hinak.reps import direct_sum_modules, interval_module, simple_module


def test_report_serialization_is_deterministic():
    spec = AlgebraSpec.kupisch_a((1, 2, 2), 2)
    a = check_kupisch_lengths(spec).to_json()
    b = check_kupisch_lengths(spec).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["suite"] == "kupisch-lengths"
    assert payload["passed"] is True
    assert all(c["counterexample"] is None for c in payload["checks"])


def test_failing_item_carries_counterexample():
    report = CheckReport("demo", {"family": "linear-a"})
    claim = report.claim("demo.claim")
    claim.record(True, lam=(0, 0), got=1, want=1)
    claim.record(False, lam=(0, 1), got=2, want=1)
    claim.record(False, lam=(1, 1), got=3, want=1)  # only the first counterexample is kept
    assert not report.passed and claim.checked == 3
    text = report.to_text()
    assert "FAIL" in text and "counterexample" in text
    assert json.loads(report.to_json())["checks"][0]["counterexample"]["lam"] == [0, 1]


def test_selfinjective_suite():
    assert check_selfinjective(AlgebraSpec.selfinj_atilde(3, 3, 2)).passed
    assert check_selfinjective(AlgebraSpec.selfinj_atilde(2, 4, 1)).passed


def test_proj_inj_on_windows():
    assert check_proj_inj(AlgebraSpec.zl_window(3, 0, 5, 2)).passed
    assert check_proj_inj(AlgebraSpec.window_spec(1, 4, 2)).passed


def test_gldim_suite():
    assert check_gldim(AlgebraSpec.linear_an(3, 2)).passed
    assert check_gldim(AlgebraSpec.kupisch_a((1, 2, 2), 2)).passed
    assert check_gldim(AlgebraSpec.window_spec(0, 3, 3)).passed


def test_embedding_requires_subset():
    report = check_homological_embedding(
        AlgebraSpec.window_spec(0, 4, 2), AlgebraSpec.window_spec(1, 3, 2), 1
    )
    assert not report.passed  # inner is not contained in outer


def test_default_embedding_partner():
    def partner(spec):
        return spec.row.embedding(spec)

    assert partner(AlgebraSpec.window_spec(1, 3, 2)) == (AlgebraSpec.window_spec(0, 4, 2), 3)
    assert partner(AlgebraSpec.kupisch_a((1, 2, 2, 3), 2)) == (AlgebraSpec.kupisch_a((1, 2, 3, 3), 2), 1)
    assert partner(AlgebraSpec.kupisch_a((1, 2, 3), 2)) is None
    assert partner(AlgebraSpec.linear_an(4, 2)) is None


def test_kupisch_embedding_at_d1_compares_hom_alone_and_passes():
    # the bound is d - 1, so d = 1 compares degree 0 only: Ext^1 = Ext^d differs between the two algebras
    for series in ((1, 2, 2, 3), (1, 2, 3, 3), (1, 2, 2, 2, 3)):
        spec = AlgebraSpec.kupisch_a(series, 1)
        assert spec.row.embedding(spec)[1] == 0
        report = run_suite(spec, "homological-embedding")
        assert report.passed, report.to_json()
        assert report.spec["degrees"] == 0


def test_mesh_iso_without_bound():
    assert check_mesh_iso(1, None, (0, 4)).passed
    assert check_mesh_iso(2, None, (0, 4)).passed


def test_run_suite_dispatch():
    spec = AlgebraSpec.zl_window(3, 0, 6, 2)
    assert run_suite(spec, "mesh-iso").passed
    with pytest.raises(ValueError):
        run_suite(spec, "no-such-suite")
    with pytest.raises(ValueError, match="mesh-iso does not apply to linear-a"):
        run_suite(AlgebraSpec.linear_an(3, 2), "mesh-iso")
    with pytest.raises(ValueError, match="mesh-iso needs a zl-window spec with d >= 2"):
        run_suite(AlgebraSpec.zl_window(3, 0, 4, 1), "mesh-iso")
    with pytest.raises(ValueError, match="orbit-periodicity does not apply to atilde-kupisch"):
        run_suite(AlgebraSpec.atilde_kupisch((3, 3, 2), 2), "orbit-periodicity")
    # a spec the gate refuses gets no desk-scale warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="hasse-tower does not apply to linear-a"):
            run_suite(AlgebraSpec.linear_an(9, 2), "hasse-tower")


def test_mesh_iso_failure_names_the_differing_key(monkeypatch):
    true_dims = QuiverWithRelations.graded_hom_dims

    def perturbed(self):
        dims = true_dims(self)
        key = min(dims, key=str)
        dims[key] = {deg: k + 1 for deg, k in dims[key].items()}
        return dims

    monkeypatch.setattr(QuiverWithRelations, "graded_hom_dims", perturbed)
    report = check_mesh_iso(1, None, (0, 4))
    claim = next(i for i in report.items if i.name == "mesh.graded_hom_dimensions_match")
    assert not claim.ok and claim.checked == 1
    assert set(claim.counterexample) == {"src", "dst", "got", "want"}
    assert claim.counterexample["got"] != claim.counterexample["want"]


FAMILY_SPECS = [
    AlgebraSpec.linear_an(3, 2),
    AlgebraSpec.kupisch_a((1, 2, 2), 2),
    AlgebraSpec.window_spec(0, 2, 1),
    AlgebraSpec.zl_window(3, 0, 4, 2),
    AlgebraSpec.selfinj_atilde(2, 3, 2),
    AlgebraSpec.atilde_kupisch((2, 3), 2),
    AlgebraSpec.tube_trunc(2, 2, 3),
]


def test_applicable_suites_cover_families():
    for spec in FAMILY_SPECS:
        names = applicable_suites(spec)
        assert "hom-ext" in names and "tau-translate" in names


def test_run_suite_is_the_one_gate(monkeypatch):
    assert len(checks.SUITES) == 13
    calls = []
    for name in list(checks.SUITES):
        monkeypatch.setitem(checks.SUITES, name, lambda spec, name=name: calls.append((spec, name)) or name)
    for spec in FAMILY_SPECS:
        admitted = applicable_suites(spec)
        for name in checks.SUITES:
            calls.clear()
            if name in admitted:
                assert run_suite(spec, name) == name and calls == [(spec, name)]
            else:
                with pytest.raises(ValueError) as excinfo:
                    run_suite(spec, name)
                assert calls == [] and str(excinfo.value) == checks._inapplicable(spec, name)


def test_run_all_on_atilde_kupisch():
    reports = run_all(AlgebraSpec.atilde_kupisch((2, 3), 2))
    assert all(r.passed for r in reports), [
        (r.suite, i.name) for r in reports for i in r.items if not i.ok
    ]


def test_run_all_on_small_window():
    reports = run_all(AlgebraSpec.window_spec(1, 3, 2))
    assert all(r.passed for r in reports), [
        (r.suite, i.name) for r in reports for i in r.items if not i.ok
    ]


def test_tube_periodicity_quick():
    from hinak.checks import check_orbit_periodicity

    report = check_orbit_periodicity(AlgebraSpec.tube_trunc(2, 2, 3))
    assert report.passed, [i.counterexample for i in report.items if not i.ok]


def test_desk_scale_warning():
    import warnings

    from hinak.checks import warn_beyond_desk_scale

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warn_beyond_desk_scale(AlgebraSpec.linear_an(6, 2))
        warn_beyond_desk_scale(AlgebraSpec.linear_an(4, 2))
    assert len(caught) == 1 and "n=6" in str(caught[0].message)


def test_iso_ok_names_the_certificate_that_decided(monkeypatch):
    alg = build(AlgebraSpec.linear_an(4, 2))

    def intervals(*lams):
        return direct_sum_modules([interval_module(alg, lam) for lam in lams])

    U = intervals((0, 0, 1))
    layers = direct_sum_modules([simple_module(alg, v) for v in alg.vertices for _ in range(U.dim(v))])
    assert _iso_ok(U, intervals((0, 0, 1))) == (True, "isomorphic")
    assert _iso_ok(U, intervals((0, 1, 2))) == (False, "dimension vectors differ")
    # dim Hom is 2 one way and 1 the other
    hom = (False, "dim Hom(M, N) is 0 or differs from dim Hom(N, M)")
    assert _iso_ok(intervals((0, 0, 0), (0, 1, 1)), intervals((0, 0, 1), (1, 1, 1))) == hom
    # a uniserial module and its composition factors: dim Hom is 1 both ways
    assert _iso_ok(U, layers) == (False, "socle or top dimension vectors differ")
    # a certificate that misses makes modules_isomorphic answer None
    for namespace in (reps, checks):
        monkeypatch.setattr(namespace, "iso_certificate", lambda M, N: "undetermined")
    assert _iso_ok(U, U) == (False, "undetermined")
