"""Module loops that walk the support, against the full scans they replaced.

``MatrixModule.support`` lists the vertices where a module is non-zero.
``hom_space``, the Hom complex of ``ext_dim_from_resolution``, ``ProjSum``,
``_submodule`` and ``dualize`` walk it, or the arrows at it, instead of every
vertex and arrow of the algebra.  The functions below are the full scans:
each reads every vertex or arrow.  The two must agree entry for entry, on
the summands of the golden specs, on direct sums under dense rational base
changes, and on simples and covers over an endomorphism algebra.

``hom_from_generators`` builds each column as one matrix-vector product on
the column of a shorter chain, and ``ProjSum`` places the cached indecomposable
projective of each summand block-diagonally; ``act_hom_from_generators``,
``full_proj_sum`` and ``block_diag`` are the loops they replaced.
"""

import ast
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hinak import reps
from hinak.algebras import AlgebraSpec, CapExceeded, build
from hinak.linalg import Mat
from hinak.reps import (
    MatrixModule,
    ModuleHom,
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
from test_sparse_homs import conjugate
from test_subquotients import differential_terms


def full_hom_space(M, N):
    alg = M.alg
    offsets, total = {}, 0
    for v in alg.vertices:
        if M.dim(v) and N.dim(v):
            offsets[v] = total
            total += N.dim(v) * M.dim(v)
    if total == 0:
        return []
    rows = []
    for a in alg.arrows():
        v, w = a.src, a.dst
        Ma, Na = M.mat(a.elt), N.mat(a.elt)
        for i in range(N.dim(v)):
            for j in range(M.dim(w)):
                row = [0] * total
                if v in offsets:
                    for k in range(M.dim(v)):
                        row[offsets[v] + i * M.dim(v) + k] += Ma.data[k][j]
                if w in offsets:
                    for l in range(N.dim(w)):
                        row[offsets[w] + l * M.dim(w) + j] -= Na.data[i][l]
                rows.append(row)
    kernel = Mat(rows, len(rows), total).kernel_basis() if rows else Mat.identity(total)
    out = []
    for col in zip(*kernel.data):
        mats = {}
        for v, base in offsets.items():
            dN, dM = N.dim(v), M.dim(v)
            mats[v] = Mat([list(col[base + i * dM : base + (i + 1) * dM]) for i in range(dN)], dN, dM)
        out.append(ModuleHom(M, N, mats))
    return out


def full_ext_dim_from_resolution(res, N, degree):
    if not res.complete and len(res.terms) < degree + 2:
        raise CapExceeded(f"resolution too short for Ext^{degree}")

    def offsets(j):
        return list(itertools.accumulate((N.dim(u) for u in res.term_vertices(j)), initial=0))

    def delta(j):
        src_off, dst_off = offsets(j + 1), offsets(j)
        m = Mat.zeros(src_off[-1], dst_off[-1])
        if 0 <= j < len(res.diffs):
            for s, t, b, coeff in differential_terms(res, j):
                act = N.act(b)
                for r in range(act.rows):
                    for c in range(act.cols):
                        m.data[src_off[s] + r][dst_off[t] + c] += coeff * act.data[r][c]
        return m

    d_i, d_prev = delta(degree), delta(degree - 1)
    return (d_i.cols - d_i.rank() if d_i.cols else 0) - d_prev.rank()


def full_proj_sum(alg, summands):
    """The basis index, at the vertices where it is non-empty, and the arrow matrices of a sum of
    projectives, over every vertex and arrow."""
    index = {w: [(s, b) for s, u in enumerate(summands) for b in alg.hom_basis(w, u)] for w in alg.vertices}
    mats = {}
    for a in alg.arrows():
        rows = {key: i for i, key in enumerate(index[a.src])}
        if not (rows and index[a.dst]):
            continue
        m = Mat.zeros(len(rows), len(index[a.dst]))
        for col, (s, b) in enumerate(index[a.dst]):
            comp = alg.compose(a.elt, b)
            if comp is not None:
                m.data[rows[(s, comp)]][col] = 1
        mats[a.elt] = m
    return {w: es for w, es in index.items() if es}, mats


def block_diag(mats):
    """The block-diagonal matrix of the blocks, placed one by one: the loop of the old direct sum."""
    out = [[0] * sum(m.cols for m in mats) for _ in range(sum(m.rows for m in mats))]
    r0 = c0 = 0
    for m in mats:
        for i, row in enumerate(m.data):
            out[r0 + i][c0 : c0 + m.cols] = row
        r0, c0 = r0 + m.rows, c0 + m.cols
    return Mat(out, len(out), c0)


def act_hom_from_generators(P, M, images):
    """The hom of generator images with one product of arrow matrices, M.act(b), per basis morphism b."""
    mats = {}
    for w, entries in P.basis_index.items():
        if not (entries and M.dim(w)):
            continue
        cols = [[sum(c * row[i] for i, c in images[s] if row[i]) for row in M.act(b).data] for s, b in entries]
        mats[w] = Mat([list(row) for row in zip(*cols)], M.dim(w), len(cols))
    return ModuleHom(P.module, M, mats)


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
                assert hom_from_generators(src, M, images).mats == act_hom_from_generators(src, M, images).mats


def full_submodule(M, bases):
    alg = M.alg
    dims = {v: bases[v].cols for v in alg.vertices}
    mats = {}
    for a in alg.arrows():
        if dims[a.src] or dims[a.dst]:
            mats[a.elt] = bases[a.src].solve(M.mat(a.elt) * bases[a.dst])
    return MatrixModule(alg, dims, mats)


def full_dualize(M):
    op = M.alg.opposite()
    mats = {a.elt: M.mats[a.elt.flipped()].transpose() for a in op.arrows() if a.elt.flipped() in M.mats}
    return MatrixModule(op, M.dims, mats)


def same_module(M, N):
    return M.alg is N.alg and M.dims == N.dims and M.mats == N.mats


def check_modules(mods):
    """Compare every rewritten loop with its full scan on each module and each pair."""
    alg = mods[0].alg
    for M in mods:
        assert M.support == [v for v in alg.vertices if M.dim(v)]
        assert same_module(dualize(M), full_dualize(M))
        P, cover = projective_cover(M)
        index, mats = full_proj_sum(alg, P.summands)
        assert P.basis_index == index and P.module.mats == mats
        kernels = {v: cover.mat(v).kernel_basis() for v in alg.vertices}
        radicals = {v: _independent_columns(radical_spanning_columns(M, v)) for v in alg.vertices}
        for src, bases in ((P.module, kernels), (M, radicals)):
            S, incl = _submodule(src, bases)
            assert same_module(S, full_submodule(src, bases))
            assert incl.mats == {v: m for v, m in bases.items() if m.rows and m.cols}
        res = min_proj_resolution(M, alg.d + 2)
        for N in mods:
            assert [h.mats for h in hom_space(M, N)] == [h.mats for h in full_hom_space(M, N)]
            for degree in range(1, alg.d + 2):
                assert ext_dim_from_resolution(res, N, degree) == full_ext_dim_from_resolution(res, N, degree)


GOLDEN_SPECS = [
    AlgebraSpec.linear_an(4, 2),
    AlgebraSpec.kupisch_a((1, 2, 2, 3), 2),
    AlgebraSpec.window_spec(0, 3, 2),
    AlgebraSpec.zl_window(3, 0, 4, 2),
    AlgebraSpec.selfinj_atilde(3, 3, 2),
    AlgebraSpec.atilde_kupisch((3, 3, 2), 2),
    AlgebraSpec.tube_trunc(2, 2, 4),
]


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.describe()["family"])
def test_support_loops_equal_full_scans_on_golden_summands(spec):
    alg = build(spec)
    mods = [interval_module(alg, lam) for lam in alg.summands()]
    mods.append(direct_sum_modules(mods[:2]))
    check_modules(mods)
    assert ProjSum(alg, alg.vertices).module.mats == full_proj_sum(alg, alg.vertices)[1]


def test_support_loops_equal_full_scans_under_rational_base_change():
    rng = random.Random(11)
    alg = build(AlgebraSpec.linear_an(4, 2))
    mods = []
    for lams in [[(0, 1, 2), (0, 1, 2)], [(0, 1, 2), (1, 2, 3), (0, 1, 3)], rng.sample(alg.summands(), 3)]:
        mods.append(conjugate(rng, direct_sum_modules([interval_module(alg, lam) for lam in lams])))
    mods += [interval_module(alg, lam) for lam in alg.summands()[:6]]
    assert any(type(x) is Fraction for M in mods for m in M.mats.values() for row in m.data for x in row)
    check_modules(mods)


def test_support_loops_equal_full_scans_over_an_endomorphism_algebra():
    E = endo_algebra(build(AlgebraSpec.linear_an(4, 2)))
    simples = [simple_module(E, v) for v in E.vertices]
    covers = [projective_cover(S)[0].module for S in simples[::3]]
    check_modules(simples + covers)


def test_support_loops_equal_full_scans_over_an_algebra_with_a_loop():
    # on a loop the naturality equation of hom_space writes both of its terms into one block
    rng = random.Random(29)
    alg = build(AlgebraSpec.selfinj_atilde(1, 3, 1))
    mods = [interval_module(alg, lam) for lam in alg.summands()]
    mods += [conjugate(rng, direct_sum_modules(mods[:2])), conjugate(rng, mods[-1])]
    assert any(a.src == a.dst for a in alg.arrows())
    check_modules(mods)
    check_generator_images(mods, rng)


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.describe()["family"])
def test_generator_images_equal_the_act_loop_on_golden_summands(spec):
    alg = build(spec)
    check_generator_images([interval_module(alg, lam) for lam in alg.summands()], random.Random(13))


def test_generator_images_equal_the_act_loop_under_rational_base_change():
    rng = random.Random(17)
    alg = build(AlgebraSpec.linear_an(4, 2))
    mods = []
    for lams in [[(0, 1, 2), (0, 1, 2)], [(0, 1, 2), (1, 2, 3), (0, 1, 3)], rng.sample(alg.summands(), 3)]:
        mods.append(conjugate(rng, direct_sum_modules([interval_module(alg, lam) for lam in lams])))
    assert any(type(x) is Fraction for M in mods for m in M.mats.values() for row in m.data for x in row)
    check_generator_images(mods, rng)


def test_generator_images_equal_the_act_loop_over_an_endomorphism_algebra():
    E = endo_algebra(build(AlgebraSpec.linear_an(4, 2)))
    simples = [simple_module(E, v) for v in E.vertices]
    check_generator_images(simples + [projective_cover(S)[0].module for S in simples], random.Random(19))


@pytest.mark.parametrize(
    "alg",
    [build(spec) for spec in GOLDEN_SPECS]
    + [endo_algebra(build(AlgebraSpec.linear_an(4, 2))), build(AlgebraSpec.selfinj_atilde(1, 3, 1))],
    ids=[s.describe()["family"] for s in GOLDEN_SPECS] + ["endo-linear-a", "loop"],
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
            index, mats = full_proj_sum(A, P.summands)
            assert P.basis_index == index and P.module.mats == mats
            assert P.module.dims == {w: len(es) for w, es in index.items()}
        # a one-summand sum is the cached indecomposable projective itself
        assert all(ProjSum(A, (u,)).module is projective_module(A, u) for u in vertices)
    # and the injectives are still the duals of the projectives over the opposite algebra
    op = alg.opposite()
    for v in alg.vertices:
        index, mats = full_proj_sum(op, (v,))
        full = MatrixModule(op, {w: len(es) for w, es in index.items()}, mats)
        assert same_module(injective_module(alg, v), dualize(full))


def test_proj_sums_keep_an_explicit_zero_block_for_each_arrow_inside_their_support():
    # on tube-trunc an arrow can map P_u to zero at two vertices of its support, and in a sum of
    # two summands each can reach just one end of an arrow: either way the sum holds a zero block
    alg = build(AlgebraSpec.tube_trunc(2, 2, 4))
    for A in (alg, alg.opposite()):
        own = cross = 0
        for summands in [(u,) for u in A.vertices] + list(itertools.combinations(A.vertices, 2)):
            P = ProjSum(A, summands)
            assert P.module.mats == full_proj_sum(A, summands)[1]
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
        assert all(S.mat(a.elt) == block_diag([M.mat(a.elt) for M in parts]) for a in alg.arrows())
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
