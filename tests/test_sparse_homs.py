"""Sparse module homomorphisms against the dense reference.

A ``ModuleHom`` stores a block only where both modules are non-zero.  The
functions below are the dense operations it replaced: they read every
vertex through ``mat``, which writes out the zero blocks.  Every sparse
result must equal the dense one, block for block.
"""

import itertools
import random
from fractions import Fraction

import pytest

from hinak.algebras import AlgebraSpec, build
from hinak.linalg import Mat
from hinak.reps import (
    MatrixModule,
    ModuleHom,
    direct_sum_modules,
    endo_algebra,
    hom_space,
    injective_envelope,
    interval_module,
    projective_cover,
)


def dense_then(f, g):
    return ModuleHom(f.src, g.dst, {v: g.mat(v) * f.mat(v) for v in f.src.alg.vertices})


def dense_add(f, g):
    return ModuleHom(f.src, f.dst, {v: f.mat(v) + g.mat(v) for v in f.src.alg.vertices})


def dense_is_zero(f):
    return all(f.mat(v).is_zero() for v in f.src.alg.vertices)


def dense_flatten(f):
    return [x for v in f.src.alg.vertices for row in f.mat(v).data for x in row]


def same_hom(sparse, dense):
    return all(sparse.mat(v) == dense.mat(v) for v in sparse.src.alg.vertices)


def check_homs(homs):
    """Compare every unary operation on homs, and add on each pair with the same ends."""
    for f in homs:
        assert f.is_zero() == dense_is_zero(f)
        assert f.flatten() == dense_flatten(f)
    for f, g in itertools.combinations(homs, 2):
        if f.src is g.src and f.dst is g.dst:
            assert same_hom(f.add(g), dense_add(f, g))
            assert f.add(g.scale(-1)).is_zero() == dense_is_zero(dense_add(f, g.scale(-1)))


def check_composites(firsts, seconds):
    """Compare each composite, and return them."""
    out = []
    for f in firsts:
        for g in seconds:
            sparse, dense = f.then(g), dense_then(f, g)
            assert same_hom(sparse, dense)
            assert sparse.is_zero() == dense_is_zero(dense)
            assert sparse.flatten() == dense_flatten(dense)
            out.append(sparse)
    return out


SPECS = [
    AlgebraSpec.linear_an(4, 2),
    AlgebraSpec.tube_trunc(3, 2, 5),
    AlgebraSpec.selfinj_atilde(3, 3, 2),
]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.describe())
def test_sparse_homs_equal_dense_on_intervals_covers_and_envelopes(spec):
    alg = build(spec)
    mods = [interval_module(alg, lam) for lam in alg.summands()[:12]]
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
                              if v not in h.mats and mods[i].dims[v] and mods[k].dims[v])
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


def random_invertible(rng, k):
    while True:
        m = Mat([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)] for _ in range(k)])
        inv = m.inverse()
        if inv is not None:
            return m, inv


def conjugate(rng, M):
    """M under a dense rational change of basis at every non-zero vertex."""
    g = {v: random_invertible(rng, k) for v, k in M.dims.items() if k}
    mats = {e: g[e.src][1] * m * g[e.dst][0] for e, m in M.mats.items() if m.rows and m.cols}
    return MatrixModule(M.alg, M.dims, mats)


def test_sparse_homs_equal_dense_under_rational_base_change():
    rng = random.Random(7)
    alg = build(AlgebraSpec.linear_an(4, 2))
    sums = []
    for lams in [[(0, 1, 2), (0, 1, 2)], [(0, 1, 2), (1, 2, 3), (0, 1, 3)], rng.sample(alg.summands(), 3)]:
        S = direct_sum_modules([interval_module(alg, lam) for lam in lams])
        C = conjugate(rng, S)
        C.validate()
        sums.append((S, C))
    for S, C in sums:
        there, back = hom_space(C, S), hom_space(S, C)
        check_homs(there)
        check_homs(back)
        check_composites(there, back)
        check_composites(back, there)
    assert any(x.denominator != 1 for S, C in sums[:2] for h in hom_space(C, S) for x in h.flatten())


def test_endo_algebra_composition_equals_dense_reference(monkeypatch):
    alg = build(AlgebraSpec.linear_an(4, 2))
    sparse = endo_algebra(alg)
    monkeypatch.setattr(ModuleHom, "then", dense_then)
    monkeypatch.setattr(ModuleHom, "is_zero", dense_is_zero)
    monkeypatch.setattr(ModuleHom, "flatten", dense_flatten)
    dense = endo_algebra(alg)
    assert sparse._comp == dense._comp
    assert sparse._reps.keys() == dense._reps.keys()
    assert all(same_hom(sparse._reps[key], dense._reps[key]) for key in sparse._reps)
