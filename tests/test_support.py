"""Module loops that walk the support, against the full scans of ``reference``.

``MatrixModule.support`` lists the vertices where a module is non-zero.
``hom_space``, the Hom complex of ``ext_dim_from_resolution``, ``ProjSum``,
``_submodule`` and ``dualize`` walk it, or the arrows at it, instead of every
vertex and arrow of the algebra.  ``hom_from_generators`` builds each column
as one matrix-vector product on the column of a shorter chain, and
``ProjSum`` places the cached indecomposable projective of each summand
block-diagonally.  Each must agree entry for entry with the reference, on
the summands of the golden specs, on direct sums under dense rational base
changes, and on simples and covers over an endomorphism algebra.
"""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

import reference as ref
from corpus import AN42, GOLDEN_SPECS, LOOP, conjugate, conjugated_sums, has_fractions, summands
from hinak import reps
from hinak.algebras import AlgebraSpec, build
from hinak.reps import (
    MatrixModule,
    ProjSum,
    _independent_columns,
    _submodule,
    direct_sum_modules,
    dualize,
    endo_algebra,
    ext_dim_from_resolution,
    hom_from_generators,
    hom_space,
    injective_module,
    interval_module,
    min_proj_resolution,
    projective_cover,
    projective_module,
    radical_spanning_columns,
    simple_module,
    syzygy_module,
)


def check_generator_images(mods, rng):
    """hom_from_generators against M.act on each module, its cover, its syzygy and its dual.

    The images are those of the projective cover, then dense rational vectors
    into a sum that repeats each summand of the cover.
    """
    for X in mods:
        for M in (X, projective_cover(X)[0].module, syzygy_module(X), dualize(X)):
            if M.is_zero():
                continue
            P, cover = projective_cover(M)
            units = [cover.mat(u).column(P.generator_position(s)) for s, u in enumerate(P.summands)]
            cases = [(P, [[(i, c) for i, c in enumerate(col) if c] for col in units])]
            Q = ProjSum(M.alg, P.summands * 2)
            dense = [[(i, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for i in range(M.dim(u))] for u in Q.summands]
            cases.append((Q, dense))
            for src, images in cases:
                assert hom_from_generators(src, M, images).mats == ref.hom_from_generators(src, M, images).mats


def check_modules(mods):
    """Compare every rewritten loop with its full scan on each module and each pair."""
    alg = mods[0].alg
    for M in mods:
        assert M.support == [v for v in alg.vertices if M.dim(v)]
        assert ref.same_blocks(dualize(M), ref.dualize(M))
        P, cover = projective_cover(M)
        index, mats = ref.proj_sum(alg, P.summands)
        assert P.basis_index == index and P.module.mats == mats
        kernels = {v: cover.mat(v).kernel_basis() for v in alg.vertices}
        radicals = {v: _independent_columns(radical_spanning_columns(M, v)) for v in alg.vertices}
        for src, bases in ((P.module, kernels), (M, radicals)):
            S, incl = _submodule(src, bases)
            assert ref.same_blocks(S, ref.submodule(src, bases))
            assert incl.mats == {v: m for v, m in bases.items() if m.rows and m.cols}
        res = min_proj_resolution(M, alg.d + 2)
        for N in mods:
            assert [h.mats for h in hom_space(M, N)] == [h.mats for h in ref.hom_space(M, N)]
            for degree in range(1, alg.d + 2):
                assert ext_dim_from_resolution(res, N, degree) == ref.ext_dim(res, N, degree)


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_support_loops_equal_full_scans_on_golden_summands(spec):
    alg = build(spec)
    mods = summands(alg)
    check_modules(mods + [direct_sum_modules(mods[:2])])
    assert ProjSum(alg, alg.vertices).module.mats == ref.proj_sum(alg, alg.vertices)[1]


def test_support_loops_equal_full_scans_under_rational_base_change():
    alg = build(AN42)
    mods = conjugated_sums(random.Random(11), alg) + summands(alg)[:6]
    assert has_fractions(mods)
    check_modules(mods)


def test_support_loops_equal_full_scans_over_an_endomorphism_algebra():
    E = endo_algebra(build(AN42))
    simples = [simple_module(E, v) for v in E.vertices]
    check_modules(simples + [projective_cover(S)[0].module for S in simples[::3]])


def test_support_loops_equal_full_scans_over_an_algebra_with_a_loop():
    # on a loop the naturality equation of hom_space writes both of its terms into one block
    rng = random.Random(29)
    alg = build(LOOP)
    mods = summands(alg)
    mods += [conjugate(rng, direct_sum_modules(mods[:2])), conjugate(rng, mods[-1])]
    assert any(a.src == a.dst for a in alg.arrows())
    check_modules(mods)
    check_generator_images(mods, rng)


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_generator_images_equal_the_act_loop_on_golden_summands(spec):
    check_generator_images(summands(build(spec)), random.Random(13))


def test_generator_images_equal_the_act_loop_under_rational_base_change():
    rng = random.Random(17)
    mods = conjugated_sums(rng, build(AN42))
    assert has_fractions(mods)
    check_generator_images(mods, rng)


def test_generator_images_equal_the_act_loop_over_an_endomorphism_algebra():
    E = endo_algebra(build(AN42))
    simples = [simple_module(E, v) for v in E.vertices]
    check_generator_images(simples + [projective_cover(S)[0].module for S in simples], random.Random(19))


@pytest.mark.parametrize(
    "alg",
    [build(spec) for spec in GOLDEN_SPECS] + [endo_algebra(build(AN42)), build(LOOP)],
    ids=[s.family for s in GOLDEN_SPECS] + ["endo-linear-a", "loop"],
)
def test_proj_sum_walk_equals_the_all_vertex_loop(alg):
    """On each algebra and its opposite: P_u itself, and sums with repeats, reversals and samples."""
    rng = random.Random(23)
    for A in (alg, alg.opposite()):
        vertices = list(A.vertices)
        cases = [vertices, vertices[::-1] + vertices[:3], rng.choices(vertices, k=8), vertices[:1] * 3]
        cases += [[u] for u in vertices] + [[u, u] for u in vertices[-2:]]
        for summands in cases:
            P = ProjSum(A, tuple(summands))
            index, mats = ref.proj_sum(A, P.summands)
            assert P.basis_index == index and P.module.mats == mats
            assert P.module.dims == {w: len(es) for w, es in index.items()}
        # a one-summand sum reads the blocks of the cached indecomposable projective: P_u is built once
        assert all(ProjSum(A, (u,)).module.mats is projective_module(A, u).mats for u in vertices)
    # and the injectives are still the duals of the projectives over the opposite algebra
    op = alg.opposite()
    for v in alg.vertices:
        index, mats = ref.proj_sum(op, (v,))
        full = MatrixModule(op, {w: len(es) for w, es in index.items()}, mats)
        assert ref.same_blocks(injective_module(alg, v), dualize(full))


def test_proj_sums_keep_an_explicit_zero_block_for_each_arrow_inside_their_support():
    # on tube-trunc an arrow can map P_u to zero at two vertices of its support, and in a sum of
    # two summands each can reach just one end of an arrow: either way the sum holds a zero block
    alg = build(AlgebraSpec.tube_trunc(2, 2, 4))
    for A in (alg, alg.opposite()):
        own = cross = 0
        for summands in [(u,) for u in A.vertices] + list(itertools.combinations(A.vertices, 2)):
            P = ProjSum(A, summands)
            assert P.module.mats == ref.proj_sum(A, summands)[1]
            assert set(P.module.mats) == {a.elt for a in A.arrows() if P.module.dim(a.src) and P.module.dim(a.dst)}
            for e, m in P.module.mats.items():
                if m.is_zero():
                    if any(e in projective_module(A, u).mats for u in summands):
                        own += 1
                    else:
                        cross += 1
        assert own and cross


def test_direct_sums_store_only_the_arrows_between_two_non_zero_vertices():
    alg = build(AlgebraSpec.linear_an(4, 2))
    rng = random.Random(5)
    cases = [[(0, 1, 2), (0, 1, 2)], [(0, 1, 2), (1, 2, 3), (0, 0, 1)], rng.sample(alg.summands(), 3)]
    for lams in cases:
        parts = [interval_module(alg, lam) for lam in lams]
        S = direct_sum_modules(parts)
        assert set(S.mats) == {a.elt for a in alg.arrows() if S.dim(a.src) and S.dim(a.dst)}
        assert all(S.mat(a.elt) == ref.block_diag([M.mat(a.elt) for M in parts]) for a in alg.arrows())
        S.validate()


def test_module_loops_never_scan_every_arrow():
    # each of these walks a module's support; a call of alg.arrows() would scan the whole algebra again
    tree = ast.parse(Path(reps.__file__).read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    proj_sum = next(c for c in tree.body if isinstance(c, ast.ClassDef) and c.name == "ProjSum")
    functions["ProjSum.__post_init__"] = next(f for f in proj_sum.body if getattr(f, "name", "") == "__post_init__")
    names = ["hom_space", "ext_dim_from_resolution", "ProjSum.__post_init__", "_indecomposable", "_walk_back",
             "_submodule", "dualize", "direct_sum_modules", "interval_module"]
    scans = {
        name: [n.lineno for n in ast.walk(functions[name])
               if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == "arrows"]
        for name in names
    }
    assert scans == {name: [] for name in names}
