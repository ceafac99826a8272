"""The benchmark's closed-form oracles agree with the program on every summand."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from run import import_hinak
from workloads import CLI_FAMILIES, RATIONAL_ALGEBRAS, RationalBaseChange

FAMILIES = [fam for _, fam in CLI_FAMILIES] + list(RATIONAL_ALGEBRAS)


def _algebra(hk, fam):
    AlgebraSpec = hk.algebras.AlgebraSpec
    if fam["family"] == "linear-a":
        return hk.algebras.build(AlgebraSpec.linear_an(fam["n"], fam["d"]))
    if fam["family"] == "kupisch-a":
        return hk.algebras.build(AlgebraSpec.kupisch_a(fam["series"], fam["d"]))
    if fam["family"] == "selfinj-atilde":
        return hk.algebras.build(AlgebraSpec.selfinj_atilde(fam["n"], fam["bound"], fam["d"]))
    return hk.algebras.build(AlgebraSpec.tube_trunc(fam["n"], fam["d"], fam["bound"]))


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f"{f['family']}-d{f['d']}")
def test_oracles_match_program(fam):
    hk = import_hinak()
    reps = hk.reps
    alg = _algebra(hk, fam)
    lams = oracles.summands(fam)
    assert lams == alg.summands()
    mods = {lam: reps.interval_module(alg, lam) for lam in lams}
    d = fam["d"]
    for lam in lams:
        assert oracles.is_projective(fam, lam) == reps.is_projective(mods[lam])
        image = oracles.tau(fam, lam)
        translate = reps.tau_d(mods[lam], d)
        if image is None:
            assert translate.is_zero()
        else:
            assert reps.modules_isomorphic(translate, mods[image]) is True
        res = reps.min_proj_resolution(mods[lam], max(reps.default_cap(alg), d + 2))
        for mu in lams:
            assert oracles.hom_dim(fam, lam, mu) == len(reps.hom_space(mods[lam], mods[mu]))
            for degree in range(1, d + 1):
                want = oracles.ext_dim(fam, lam, mu, degree)
                if want is not None:
                    assert want == reps.ext_dim_from_resolution(res, mods[mu], degree)


def test_conjugated_sums_are_modules():
    hk = import_hinak()
    wl = RationalBaseChange(hk, 5)
    ops = wl.ops(0)
    assert len(ops) == 3 * 2 * 5 * 3 - 2 * 5  # tube-trunc sums get no ext query
    for fam, alg, arrows, pieces in wl.algebras:
        lams = sorted(pieces)[:3]
        orig = wl._direct_sum(arrows, [pieces[l] for l in lams])
        conj = wl._conjugate(random.Random(0), arrows, orig)
        dims, mats = conj
        M = hk.reps.MatrixModule(
            alg, dims, {hk.algebras.BasisElt(*e): hk.linalg.Mat(rows) for e, rows in mats.items()}
        )
        M.validate()
        assert any(x.denominator != 1 for rows in mats.values() for row in rows for x in row)


def test_refuses_to_run_without_sources(tmp_path):
    bench = Path(__file__).resolve().parents[1]
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for f in bench.glob("*.py"):
        (copy / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "cli-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
