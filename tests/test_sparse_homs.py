"""Sparse module homomorphisms against the dense reference.

A ``ModuleHom`` stores a block only where both modules are non-zero.  The
dense operations of ``reference`` read every vertex through ``mat``, which
writes out the zero blocks.  Every sparse result must equal the dense one,
block for block.
"""

import itertools
import random

import pytest

import reference as ref
from corpus import AN42, TUBE_325, conjugate, fixed_sums, summands
from hinak.algebras import AlgebraSpec, build
from hinak.reps import (
    ModuleHom,
    direct_sum_modules,
    endo_algebra,
    hom_space,
    injective_envelope,
    projective_cover,
)


def check_homs(homs):
    """Compare every unary operation on homs, and add on each pair with the same ends."""
    for f in homs:
        assert f.is_zero() == ref.is_zero(f)
        assert f.flatten() == ref.flatten(f)
    for f, g in itertools.combinations(homs, 2):
        if f.src is g.src and f.dst is g.dst:
            assert ref.same_hom(f.add(g), ref.add(f, g))
            assert f.add(g.scale(-1)).is_zero() == ref.is_zero(ref.add(f, g.scale(-1)))


def check_composites(firsts, seconds):
    """Compare each composite, and return them."""
    out = []
    for f in firsts:
        for g in seconds:
            sparse, dense = f.then(g), ref.then(f, g)
            assert ref.same_hom(sparse, dense)
            assert sparse.is_zero() == ref.is_zero(dense)
            assert sparse.flatten() == ref.flatten(dense)
            out.append(sparse)
    return out


@pytest.mark.parametrize("spec", [AN42, TUBE_325, AlgebraSpec.selfinj_atilde(3, 3, 2)])
def test_sparse_homs_equal_dense_on_intervals_covers_and_envelopes(spec):
    alg = build(spec)
    mods = summands(alg)[:12]
    mods.append(direct_sum_modules([mods[0], mods[-1]]))
    basis = {(i, j): hom_space(A, B) for (i, A), (j, B) in itertools.product(enumerate(mods), repeat=2)}
    for firsts in basis.values():
        check_homs(firsts)
    # composites A -> B -> C through different B have different supports, and those
    # through a summand of A = C miss the blocks of the other summand; add them up
    missing_blocks = 0
    for i, k in itertools.product(range(len(mods)), repeat=2):
        composites = [h for j in range(len(mods)) for h in check_composites(basis[(i, j)], basis[(j, k)])]
        check_homs(composites)
        missing_blocks += sum(1 for h in composites for v in alg.vertices
                              if v not in h.mats and mods[i].dim(v) and mods[k].dim(v))
    assert missing_blocks
    for M in mods:
        P, pi = projective_cover(M)
        _, iota = injective_envelope(M)
        check_homs([pi, iota])
        for X in mods:
            into_p = hom_space(X, P.module)
            check_homs(into_p)
            check_homs(check_composites(into_p, [pi]))
            out_of_i = hom_space(iota.dst, X)
            check_homs(out_of_i)
            check_homs(check_composites([iota], out_of_i))


def test_sparse_homs_equal_dense_under_rational_base_change():
    rng = random.Random(7)
    sums = [(S, conjugate(rng, S)) for S in fixed_sums(build(AN42), rng)]
    for S, C in sums:
        C.validate()
        there, back = hom_space(C, S), hom_space(S, C)
        check_homs(there)
        check_homs(back)
        check_composites(there, back)
        check_composites(back, there)
    assert any(x.denominator != 1 for S, C in sums[:2] for h in hom_space(C, S) for x in h.flatten())


def test_endo_algebra_composition_equals_dense_reference(monkeypatch):
    alg = build(AN42)
    sparse = endo_algebra(alg)
    sparse_reps = ref.normalized_reps(alg, sparse.vertices)
    monkeypatch.setattr(ModuleHom, "then", ref.then)
    monkeypatch.setattr(ModuleHom, "is_zero", ref.is_zero)
    monkeypatch.setattr(ModuleHom, "flatten", ref.flatten)
    dense = endo_algebra(alg)
    dense_reps = ref.normalized_reps(alg, dense.vertices)
    assert sparse._comp == dense._comp
    assert sparse_reps.keys() == dense_reps.keys() == sparse._hom_memo.keys() == dense._hom_memo.keys()
    assert all(ref.same_hom(sparse_reps[key], dense_reps[key]) for key in sparse_reps)
