"""Kernels, cokernels and radicals by their universal properties.

``cokernel_of_hom``, the Nakayama image ``D Hom(-, A)`` of a map between
projectives, ``tau_d``, ``tau_d_inverse``, ``is_injective`` and the
injective envelope are built as duals of the projective-side constructions,
and every map out of a sum of projectives through one Yoneda helper.  The
direct versions they replaced are in ``reference``, and the two must agree
entry for entry.  The predicates on module homomorphisms are the reference's
own, computed straight from the blocks.
"""

import random

import pytest

import reference as ref
from corpus import AN42, GOLDEN_SPECS, TUBE_325, conjugate, direct_sum, has_fractions, summands
from hinak.algebras import AlgebraSpec, build
from hinak.reps import (
    cokernel_of_hom,
    direct_sum_modules,
    endo_algebra,
    hom_from_generators,
    hom_space,
    injective_envelope,
    injective_module,
    interval_module,
    is_injective,
    kernel_of_hom,
    min_proj_resolution,
    projective_cover,
    projective_module,
    radical_module,
    simple_module,
    tau_d,
    tau_d_inverse,
)


def check_kernel(h):
    K, incl = kernel_of_hom(h)
    K.validate()
    assert ref.naturality_violation(incl) is None
    assert ref.is_mono(incl) and incl.then(h).is_zero()
    assert K.dims == {v: k for v in h.src.alg.vertices if (k := h.src.dim(v) - h.mat(v).rank())}


def check_cokernel(h):
    C, p = cokernel_of_hom(h)
    C.validate()
    assert C.alg is h.src.alg and p.src is h.dst and p.dst is C
    assert ref.naturality_violation(p) is None
    assert ref.is_epi(p) and h.then(p).is_zero()
    assert C.dims == {v: k for v in h.src.alg.vertices if (k := h.dst.dim(v) - h.mat(v).rank())}
    C_ref, p_ref = ref.cokernel(h)
    assert ref.same_blocks(C, C_ref) and ref.same_hom(p, p_ref)


def check_radical(M):
    R, incl = radical_module(M)
    R.validate()
    assert ref.naturality_violation(incl) is None and ref.is_mono(incl)
    top = ref.top_dims(M)
    assert R.dims == {v: k for v in M.alg.vertices if (k := M.dim(v) - top.get(v, 0))}


def check_module(M, others):
    """Every check on M, its cover and envelope, and the homs between M and the others."""
    check_radical(M)
    homs = [projective_cover(M)[1], injective_envelope(M)[1]]
    for X in others:
        there, back = hom_space(M, X), hom_space(X, M)
        homs += there + back
        if len(there) > 1:
            homs.append(there[0].add(there[-1].scale(-3)))
    for h in homs:
        check_kernel(h)
        check_cokernel(h)
    return homs


def check_nakayama_homs(M):
    """Each differential from its generator images, and D Hom(d, A) two ways: as the dual of the transposed
    differential, and as the direct loop over the injective sums."""
    res = min_proj_resolution(M, 2)
    assert res.diffs
    for j in range(len(res.diffs)):
        h = hom_from_generators(res.terms[j + 1], res.terms[j].module, res.diffs[j])
        assert ref.naturality_violation(h) is None and ref.same_hom(h, ref.differential(res, j))
        assert ref.same_hom(ref.dual(ref.hom_to_algebra(res, j)), ref.nakayama_hom(res, j))


@pytest.mark.parametrize("spec", [AN42, TUBE_325])
def test_subquotients_of_conjugated_direct_sums(spec):
    rng = random.Random(11)
    alg = build(spec)
    lams = rng.sample(alg.summands(), 5)
    S = conjugate(rng, direct_sum(alg, lams[:2]))
    T = conjugate(rng, direct_sum(alg, lams[2:]))
    S.validate()
    T.validate()
    homs = check_module(S, [T, interval_module(alg, lams[0])])
    assert any(x.denominator != 1 for h in homs for x in h.flatten())
    assert any(not cokernel_of_hom(h)[0].is_zero() and not kernel_of_hom(h)[0].is_zero() for h in homs)
    check_nakayama_homs(S)
    check_nakayama_homs(T)


def test_subquotients_over_an_endomorphism_algebra():
    E = endo_algebra(build(AlgebraSpec.linear_an(3, 2)))
    assert E.opposite().opposite() is E
    mods = [projective_module(E, v) for v in E.vertices[:4]] + [injective_module(E, E.vertices[-1])]
    mods += [simple_module(E, E.vertices[2]), direct_sum_modules(mods[:3])]
    for M in mods:
        check_module(M, mods)
    check_nakayama_homs(direct_sum_modules(mods[4:6]))


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_inverse_translate_and_injectivity_equal_the_direct_versions(spec):
    alg = build(spec)
    verdicts = set()
    for M in summands(alg):
        assert ref.same_blocks(tau_d_inverse(M, alg.d), ref.tau_d_inverse(M, alg.d))
        verdicts.add(is_injective(M))
        assert is_injective(M) == ref.is_injective(M)
    assert verdicts == {True, False}


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_translate_equals_the_dual_of_the_transpose(spec):
    alg = build(spec)
    zero = set()
    for M in summands(alg):
        t = tau_d(M, alg.d)
        assert ref.same_blocks(t, ref.tau_d(M, alg.d))
        zero.add(t.is_zero())
    assert zero == {True, False}


def check_maps_out_of_projectives(M):
    """The cover, the envelope and the maps of a resolution of M against the direct versions."""
    P, pi = projective_cover(M)
    P_ref, pi_ref = ref.cover(M)
    assert P.summands == P_ref.summands and ref.same_blocks(P.module, P_ref.module)
    assert pi.src is P.module and pi.dst is M and ref.same_hom(pi, pi_ref)
    Q, iota = injective_envelope(M)
    socle_vertices, iota_ref = ref.envelope(M)
    assert Q.alg is M.alg.opposite() and Q.summands == socle_vertices
    assert iota.src is M and ref.same_blocks(iota.dst, iota_ref.dst) and ref.same_hom(iota, iota_ref)
    res = min_proj_resolution(M, 2)
    for j in range(len(res.diffs)):
        P, Q = res.terms[j + 1], res.terms[j]
        h = hom_from_generators(P, Q.module, res.diffs[j])
        assert h.src is P.module and h.dst is Q.module
        assert ref.same_hom(h, ref.differential(res, j))
    return bool(res.diffs)


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_maps_out_of_projectives_equal_the_direct_loops(spec):
    alg = build(spec)
    rng = random.Random(13)
    mods = summands(alg)
    pairs = [rng.sample(mods, 2) for _ in range(3)]
    sums = [conjugate(rng, direct_sum_modules(pair)) for pair in pairs]
    assert has_fractions(sums)
    assert any([check_maps_out_of_projectives(M) for M in mods + sums])
