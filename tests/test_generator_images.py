"""Resolution differentials as generator images, against the reference resolution.

``ProjResolution.diffs[j]`` stores the map terms[j+1] -> terms[j] as the
images of the generators of terms[j+1], the form ``hom_from_generators``
takes.  The Hom complex of ``ext_dim_from_resolution`` and the transpose
step of ``tau_d`` read those images.  They replaced a matrix over the
algebra (``AlgMat``); the tests keep its name.  ``reference.resolution``
builds the resolution from covers and kernels and reads each differential
off the composite map; ``reference.differential`` composes that map out of
basis morphisms, and ``reference.ext_dim`` and ``reference.tau_d`` read the
reference resolution.  The two must agree entry for entry, on the summands
of the golden specs, on direct sums under dense rational base changes, and
on the simples over an endomorphism algebra.
"""

import random
from fractions import Fraction

import pytest

import reference as ref
from corpus import AN42, GOLDEN_SPECS, TUBE_325, conjugate, direct_sum, summands
from hinak.algebras import build
from hinak.reps import (
    endo_algebra,
    ext_dim_from_resolution,
    hom_from_generators,
    interval_module,
    min_proj_resolution,
    simple_module,
    tau_d,
)


def check_module(M, others, d):
    """Compare the resolution of M, Ext from M to each of the others and tau_d M with the reference.

    Returns the number of differentials and whether tau_d M is non-zero.
    """
    res = min_proj_resolution(M, d + 2)
    ref_res, homs = ref.resolution(M, d + 2)
    assert [P.summands for P in res.terms] == [P.summands for P in ref_res.terms]
    assert res.complete == ref_res.complete and len(res.diffs) == len(ref_res.diffs)
    for j in range(len(res.diffs)):
        h = hom_from_generators(res.terms[j + 1], res.terms[j].module, res.diffs[j])
        assert h.src is res.terms[j + 1].module and h.dst is res.terms[j].module
        assert ref.same_hom(h, ref.differential(ref_res, j)) and ref.same_hom(h, homs[j])
    for N in others:
        for degree in range(d + 2):
            assert ext_dim_from_resolution(res, N, degree) == ref.ext_dim(ref_res, N, degree)
    t = tau_d(M, d)
    assert ref.same_blocks(t, ref.tau_d(M, d))
    return len(res.diffs), not t.is_zero()


def check_modules(mods, others, d):
    """check_module over mods; some resolution must have a differential and some translate be non-zero."""
    outcomes = [check_module(M, others, d) for M in mods]
    assert any(n for n, _ in outcomes) and any(t for _, t in outcomes)


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_generator_images_equal_alg_mats_on_golden_summands(spec):
    alg = build(spec)
    mods = summands(alg)
    check_modules(mods, mods, alg.d)


@pytest.mark.parametrize("spec", [AN42, TUBE_325], ids=lambda s: s.family)
def test_generator_images_equal_alg_mats_under_rational_base_change(spec):
    rng = random.Random(17)
    alg = build(spec)
    sums = [conjugate(rng, direct_sum(alg, rng.sample(alg.summands(), rng.choice((2, 3))))) for _ in range(4)]
    check_modules(sums, sums + [interval_module(alg, lam) for lam in alg.summands()[:4]], alg.d)
    coefficients = [c for M in sums for images in min_proj_resolution(M, 1).diffs for image in images for _, c in image]
    assert any(type(c) is Fraction for c in coefficients)


def test_generator_images_equal_alg_mats_over_an_endomorphism_algebra():
    E = endo_algebra(build(AN42))
    simples = [simple_module(E, v) for v in E.vertices]
    check_modules(simples, simples, E.d)
