"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
the failure output).  All comparisons are exact integer equalities.
"""

import json

import pytest

from corpus import iter_linear_kupisch
from hinak.algebras import AlgebraSpec, build, export_dot, export_json
from hinak.checks import (
    check_cluster_tilting,
    check_endo_tower,
    check_hom_ext_formulas,
    check_homological_embedding,
    check_kupisch_lengths,
    check_mesh_iso,
    check_orbit_periodicity,
    check_proj_inj,
    check_resolutions,
    check_selfinjective,
    check_tau_translate,
)
from hinak.reps import gldim

HOM_EXT_RANGE = [(n, d) for n in range(2, 6) for d in range(1, 4)]


@pytest.fixture(scope="module")
def hom_ext_reports():
    return {
        (n, d): check_hom_ext_formulas(AlgebraSpec.linear_an(n, d)) for n, d in HOM_EXT_RANGE
    }


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, detail


def _claims(report, *names):
    picked = [item for item in report.items if item.name in names]
    assert len(picked) == len(names), f"missing claims {names} in {report.suite}"
    bad = [item for item in picked if not item.ok]
    return not bad, "; ".join(f"{i.name}: {i.counterexample}" for i in bad)


def test_criterion_01_hom_formula(hom_ext_reports):
    ok, detail = True, ""
    for key, report in sorted(hom_ext_reports.items()):
        good, why = _claims(report, "hom.dim_equals_interlacing_count")
        if not good:
            ok, detail = False, f"{key}: {why}"
            break
    _verdict("1 hom-formula-equivalence", ok, detail)


def test_criterion_02_rigidity_and_top_ext(hom_ext_reports):
    ok, detail = True, ""
    for key, report in sorted(hom_ext_reports.items()):
        good, why = _claims(
            report,
            "ext.vanishes_in_middle_degrees",
            "ext.top_degree_equals_translate_interlacing",
        )
        if not good:
            ok, detail = False, f"{key}: {why}"
            break
    _verdict("2 rigidity-and-top-ext", ok, detail)


def test_criterion_03_resolution_shapes():
    ok, detail = True, ""
    for spec in [AlgebraSpec.linear_an(4, 2), AlgebraSpec.linear_an(3, 3)]:
        good, why = _claims(
            check_resolutions(spec),
            "resolution.projective_terms_match_closed_form",
            "coresolution.injective_terms_match_closed_form",
            "syzygy.d_fold_lands_on_translated_interval",
        )
        if not good:
            ok, detail = False, f"{spec}: {why}"
    for d in (2, 3):
        spec = AlgebraSpec.kupisch_a((1, 2, 2, 3), d)
        good, why = _claims(check_resolutions(spec), "syzygy.d_fold_lands_on_translated_interval")
        if not good:
            ok, detail = False, f"{spec}: {why}"
    _verdict("3 resolution-shapes", ok, detail)


def test_criterion_04_kupisch_lengths():
    ok, detail = True, ""
    for d in (1, 2, 3):
        report = check_kupisch_lengths(AlgebraSpec.kupisch_a((1, 2, 2, 3), d))
        if not report.passed:
            ok, detail = False, f"d={d}"
    _verdict("4 kupisch-lengths", ok, detail)


def test_criterion_05_tau_agreement():
    ok, detail = True, ""
    specs = [
        AlgebraSpec.linear_an(4, 2),
        AlgebraSpec.kupisch_a((1, 2, 2, 3), 2),
        AlgebraSpec.selfinj_atilde(3, 3, 2),
        AlgebraSpec.tube_trunc(3, 2, 5),
    ]
    for spec in specs:
        report = check_tau_translate(spec)
        if not report.passed:
            bad = [i for i in report.items if not i.ok]
            ok, detail = False, f"{spec}: {bad[0].name} {bad[0].counterexample}"
    _verdict("5 tau-agreement", ok, detail)


def test_criterion_06_cluster_tilting_certificate():
    report = check_cluster_tilting(AlgebraSpec.kupisch_a((1, 2, 2, 3), 2))
    ok, detail = _claims(
        report,
        "ct.projectives_and_injectives_are_summands",
        "ct.rigid_below_top_degree",
        "ct.endomorphism_algebra_certificate",
    )
    _verdict("6 cluster-tilting-certificate", ok, detail)


def test_criterion_07_endomorphism_tower():
    ok, detail = True, ""
    for n, d in [(3, 1), (3, 2), (2, 3)]:
        report = check_endo_tower(AlgebraSpec.linear_an(n, d))
        if not report.passed:
            ok, detail = False, f"({n},{d})"
    _verdict("7 endomorphism-tower", ok, detail)


def test_criterion_08_homological_embeddings():
    report = check_homological_embedding(
        AlgebraSpec.window_spec(1, 3, 2), AlgebraSpec.window_spec(0, 4, 2), 3
    )
    ok, detail = report.passed, "window pair"
    for inner, outer in [
        ((1, 2, 2), (1, 2, 3)),
        ((1, 2, 2, 3), (1, 2, 3, 3)),
    ]:
        r = check_homological_embedding(
            AlgebraSpec.kupisch_a(inner, 2), AlgebraSpec.kupisch_a(outer, 2), 1
        )
        if not r.passed:
            ok, detail = False, f"kupisch pair {inner} in {outer}"
    _verdict("8 homological-embeddings", ok, detail)


def test_criterion_09_selfinjectivity_and_periodicity():
    spec = AlgebraSpec.selfinj_atilde(3, 3, 2)
    ok = check_selfinjective(spec).passed
    ok = ok and check_kupisch_lengths(spec).passed
    report = check_orbit_periodicity(spec)
    ok = ok and report.passed
    _verdict("9 selfinjectivity-and-periodicity", ok)


def test_criterion_10_mesh_presentation():
    ok, detail = True, ""
    for d in (1, 2):
        for ell in (3, 4):
            report = check_mesh_iso(d, ell, (0, 2 * ell))
            if not report.passed:
                bad = [i for i in report.items if not i.ok]
                ok, detail = False, f"d={d} l={ell}: {bad[0].name}"
    _verdict("10 mesh-presentation-isomorphism", ok, detail)


def test_criterion_11_global_dimension():
    ok, detail = True, ""
    for n in range(2, 6):
        for d in range(1, 4):
            got = gldim(build(AlgebraSpec.linear_an(n, d)), 2 * d + 2)
            if got != d:
                ok, detail = False, f"linear ({n},{d}) gldim {got}"
    for series in iter_linear_kupisch(4):
        for d in (2, 3):
            spec = AlgebraSpec.kupisch_a(series, d)
            cert = check_cluster_tilting(spec)
            value = gldim(build(spec), 4 * d)
            if not cert.passed:
                ok, detail = False, f"{series.lengths} d={d}: certificate failed"
            elif value is not None and value % d != 0:
                ok, detail = False, f"{series.lengths} d={d}: gldim {value}"
    _verdict("11 global-dimension", ok, detail)


def test_criterion_12_figure_conformance():
    frozen = {
        ("linear-a", 4, 2): (10, 12),
        ("linear-a", 4, 3): (20, 30),
        ("kupisch-a", (1, 2, 2, 3), 2): (8, 8),
        ("kupisch-a", (1, 2, 2, 3), 3): (13, 15),
    }
    ok, detail = True, ""
    for key, (nodes, edges) in frozen.items():
        if key[0] == "linear-a":
            spec = AlgebraSpec.linear_an(key[1], key[2])
        else:
            spec = AlgebraSpec.kupisch_a(key[1], key[2])
        alg = build(spec)
        dot = export_dot(alg)
        payload = json.loads(export_json(alg))
        got = (dot.count('";'), dot.count("->"))
        if got != (nodes, edges) or len(payload["vertices"]) != nodes or len(payload["arrows"]) != edges:
            ok, detail = False, f"{key}: got {got}, want {(nodes, edges)}"
    _verdict("12 figure-conformance", ok, detail)
