"""Kernels, cokernels and radicals by their universal properties.

``cokernel_of_hom``, the Nakayama image ``D Hom(-, A)`` of a map between
projectives, ``tau_d``, ``tau_d_inverse``, ``is_injective`` and the
injective envelope are built as duals of the projective-side constructions,
and every map out of a sum of projectives through one Yoneda helper.  The
direct versions they replaced are kept below as the reference, and the two
must agree entry for entry.  The predicates on module homomorphisms here are
the test suite's own, computed straight from the blocks.
"""

import random

import pytest

from hinak.algebras import AlgebraSpec, build
from hinak.linalg import Mat, cokernel_projection, column_space_completion
from hinak.reps import (
    MatrixModule,
    ModuleHom,
    ProjSum,
    cokernel_of_hom,
    direct_sum_modules,
    dualize,
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
    radical_spanning_columns,
    simple_module,
    socle_module,
    syzygy_module,
    tau_d,
    tau_d_inverse,
    zero_module,
)
from test_sparse_homs import conjugate, same_hom


def is_mono(h):
    return all(h.mat(v).rank() == h.src.dim(v) for v in h.src.alg.vertices)


def is_epi(h):
    return all(h.mat(v).rank() == h.dst.dim(v) for v in h.src.alg.vertices)


def image_dims(h):
    return {v: h.mat(v).rank() for v in h.src.alg.vertices if h.src.dim(v)}


def naturality_violation(h):
    """The first arrow at which h does not commute with the two actions, or None."""
    for a in h.src.alg.arrows():
        if h.mat(a.src) * h.src.mat(a.elt) != h.dst.mat(a.elt) * h.mat(a.dst):
            return a.elt
    return None


def top_dims(M):
    """The non-zero dimensions of the top: the fiber minus the span of the arrows out of it."""
    out = {v: M.dim(v) - radical_spanning_columns(M, v).rank() for v in M.alg.vertices if M.dim(v)}
    return {v: k for v, k in out.items() if k}


def dual(h):
    """The transpose map D(h.dst) -> D(h.src) over the opposite algebra."""
    return ModuleHom(dualize(h.dst), dualize(h.src), {v: m.transpose() for v, m in h.mats.items()})


def differential(res, j):
    """The map terms[j+1] -> terms[j] of a resolution, from its generator images."""
    return hom_from_generators(res.terms[j + 1], res.terms[j].module, res.diffs[j])


def differential_terms(res, j):
    """(s, t, b, coeff) for each term coeff * (t, b) of the image of generator s under differential j."""
    P, Q = res.terms[j + 1], res.terms[j]
    return [(s, *Q.basis_index[P.summands[s]][i], coeff) for s, image in enumerate(res.diffs[j]) for i, coeff in image]


def hom_to_algebra(res, j):
    """Hom(d, A) of differential j: generator t of Hom(P^j, A) goes to the flipped terms in summand t."""
    op = res.base.alg.opposite()
    src, dst = ProjSum(op, res.terms[j].summands), ProjSum(op, res.terms[j + 1].summands)
    return direct_hom(src, dst, [(t, s, b.flipped(), coeff) for s, t, b, coeff in differential_terms(res, j)])


def nakayama_hom(res, j):
    """D Hom(-, A) of differential j, the dual of its transpose over the opposite algebra."""
    return dual(hom_to_algebra(res, j))


def direct_cokernel(h):
    alg = h.src.alg
    projs = {v: cokernel_projection(h.mat(v)) for v in alg.vertices}
    dims = {v: projs[v].rows for v in alg.vertices}
    mats = {}
    for a in alg.arrows():
        v, w = a.src, a.dst
        if dims[v] == 0 and dims[w] == 0:
            continue
        rhs = (projs[v] * h.dst.mat(a.elt)).transpose()
        mats[a.elt] = projs[w].transpose().solve(rhs).transpose()
    C = MatrixModule(alg, dims, mats)
    return C, ModuleHom(h.dst, C, projs)


def injective_sum(alg, summands):
    """D ProjSum(Aᵒᵖ, summands) and its basis at each w: (s, c) for the dual basis vector of c: u_s -> w."""
    P = ProjSum(alg.opposite(), summands)
    index = {w: [(s, b.flipped()) for s, b in P.basis_index.get(w, [])] for w in alg.vertices}
    return dualize(P.module), index


def direct_nakayama_hom(res, j):
    """nu of differential j between the injective sums, each dual basis vector sent through every term."""
    alg = res.base.alg
    src_summands, dst_summands = res.terms[j + 1].summands, res.terms[j].summands
    src, src_index = injective_sum(alg, src_summands)
    dst, dst_index = injective_sum(alg, dst_summands)
    terms = differential_terms(res, j)
    mats = {}
    for w in alg.vertices:
        cols = src_index[w]
        rows = {key: i for i, key in enumerate(dst_index[w])}
        m = Mat.zeros(len(rows), len(cols))
        for col, (s, c) in enumerate(cols):
            for s2, t, b, coeff in terms:
                if s2 != s:
                    continue
                for f in alg.hom_basis(dst_summands[t], w):
                    if alg.compose(b, f) == c:
                        m.data[rows[(t, f)]][col] += coeff
        mats[w] = m
    return ModuleHom(src, dst, mats)


def direct_projective_cover(M):
    """The cover with its blocks read column by column from M.act, one generator per top basis vector."""
    gens = [(v, j) for v in M.alg.vertices if M.dim(v) for j in column_space_completion(radical_spanning_columns(M, v))]
    P = ProjSum(M.alg, tuple(v for v, _ in gens))
    mats = {}
    for w in M.alg.vertices:
        if M.dim(w) and P.module.dim(w):
            cols = [M.act(b).column(gens[s][1]) for s, b in P.basis_index[w]]
            mats[w] = Mat([list(row) for row in zip(*cols)], M.dim(w), len(cols))
    return P, ModuleHom(P.module, M, mats)


def direct_injective_envelope(M):
    """The envelope with the row at the dual basis vector of c: v -> w read as xi * M.act(c)."""
    S, s_incl = socle_module(M)
    picks = []  # (vertex, functional row on the space at v)
    for v in M.alg.vertices:
        k = S.dim(v)
        if k:
            xi = s_incl.mat(v).transpose().solve(Mat.identity(k)).transpose()
            picks += [(v, Mat([row[:]], 1, M.dim(v))) for row in xi.data]
    I, index = injective_sum(M.alg, tuple(v for v, _ in picks))
    mats = {}
    for w in M.alg.vertices:
        if index[w] and M.dim(w):
            rows = [(picks[s][1] * M.act(c)).data[0] for s, c in index[w]]
            mats[w] = Mat(rows, len(rows), M.dim(w))
    return tuple(v for v, _ in picks), ModuleHom(M, I, mats)


def direct_hom(src, dst, terms):
    """The hom src -> dst sending generator s to the sum of coeff * (t, e) over the terms (s, t, e, coeff).

    Each basis vector (s, b) of src is composed with every term of generator s.
    """
    alg = src.alg
    mats = {}
    for w in alg.vertices:
        src_cols = src.basis_index.get(w, [])
        dst_rows = {key: i for i, key in enumerate(dst.basis_index.get(w, []))}
        if not (src_cols and dst_rows):
            continue
        m = Mat.zeros(len(dst_rows), len(src_cols))
        for j, (s, b) in enumerate(src_cols):
            for s2, t, e, coeff in terms:
                if s2 != s:
                    continue
                r = alg.compose(b, e)
                if r is not None:
                    m.data[dst_rows[(t, r)]][j] += coeff
        mats[w] = m
    return ModuleHom(src.module, dst.module, mats)


def same_module(M, N):
    return M.alg is N.alg and M.dims == N.dims and all(M.mat(a.elt) == N.mat(a.elt) for a in M.alg.arrows())


def check_kernel(h):
    K, incl = kernel_of_hom(h)
    K.validate()
    assert naturality_violation(incl) is None
    assert is_mono(incl) and incl.then(h).is_zero()
    assert K.dims == {v: k for v in h.src.alg.vertices if (k := h.src.dim(v) - h.mat(v).rank())}


def check_cokernel(h):
    C, p = cokernel_of_hom(h)
    C.validate()
    assert C.alg is h.src.alg and p.src is h.dst and p.dst is C
    assert naturality_violation(p) is None
    assert is_epi(p) and h.then(p).is_zero()
    assert C.dims == {v: k for v in h.src.alg.vertices if (k := h.dst.dim(v) - h.mat(v).rank())}
    C_ref, p_ref = direct_cokernel(h)
    assert same_module(C, C_ref) and same_hom(p, p_ref)


def check_radical(M):
    R, incl = radical_module(M)
    R.validate()
    assert naturality_violation(incl) is None and is_mono(incl)
    top = top_dims(M)
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


@pytest.mark.parametrize("spec", [AlgebraSpec.linear_an(4, 2), AlgebraSpec.tube_trunc(3, 2, 5)],
                         ids=lambda s: s.describe())
def test_subquotients_of_conjugated_direct_sums(spec):
    rng = random.Random(11)
    alg = build(spec)
    lams = rng.sample(alg.summands(), 5)
    S = conjugate(rng, direct_sum_modules([interval_module(alg, lam) for lam in lams[:2]]))
    T = conjugate(rng, direct_sum_modules([interval_module(alg, lam) for lam in lams[2:]]))
    S.validate()
    T.validate()
    homs = check_module(S, [T, interval_module(alg, lams[0])])
    assert any(x.denominator != 1 for h in homs for x in h.flatten())
    assert any(not cokernel_of_hom(h)[0].is_zero() and not kernel_of_hom(h)[0].is_zero() for h in homs)
    for X in (S, T):
        res = min_proj_resolution(X, 2)
        assert res.diffs
        for j in range(len(res.diffs)):
            assert naturality_violation(differential(res, j)) is None
            assert same_hom(nakayama_hom(res, j), direct_nakayama_hom(res, j))


def test_subquotients_over_an_endomorphism_algebra():
    E = endo_algebra(build(AlgebraSpec.linear_an(3, 2)))
    assert E.opposite().opposite() is E
    mods = [projective_module(E, v) for v in E.vertices[:4]] + [injective_module(E, E.vertices[-1])]
    mods += [simple_module(E, E.vertices[2]), direct_sum_modules(mods[:3])]
    for M in mods:
        check_module(M, mods)
    res = min_proj_resolution(direct_sum_modules(mods[4:6]), 2)
    assert res.diffs
    for j in range(len(res.diffs)):
        assert same_hom(nakayama_hom(res, j), direct_nakayama_hom(res, j))


GOLDEN_SPECS = [
    AlgebraSpec.linear_an(4, 2),
    AlgebraSpec.kupisch_a((1, 2, 2, 3), 2),
    AlgebraSpec.window_spec(0, 3, 2),
    AlgebraSpec.zl_window(3, 0, 4, 2),
    AlgebraSpec.selfinj_atilde(3, 3, 2),
    AlgebraSpec.atilde_kupisch((3, 3, 2), 2),
    AlgebraSpec.tube_trunc(2, 2, 4),
]


def transpose(X):
    """The Auslander-Bridger transpose coker Hom(d_1, A), a module over the opposite algebra."""
    if X.is_zero():
        return zero_module(X.alg.opposite())
    res = min_proj_resolution(X, 1)
    if len(res.terms) == 1:
        return zero_module(X.alg.opposite())
    return cokernel_of_hom(hom_to_algebra(res, 0))[0]


def direct_tau_d(M, d):
    """D Tr of the (d-1)-fold syzygy, through the cokernel of Hom(d_1, A) and two duals."""
    X = M
    for _ in range(d - 1):
        X = syzygy_module(X)
        if X.is_zero():
            return zero_module(M.alg)
    return dualize(transpose(X))


def direct_tau_d_inverse(M, d):
    """Tr of the (d-1)-fold syzygy of DM, without the round trip through tau_d."""
    X = dualize(M)
    for _ in range(d - 1):
        X = syzygy_module(X)
        if X.is_zero():
            return zero_module(M.alg)
    return transpose(X)


def envelope_is_injective(M):
    return M.is_zero() or injective_envelope(M)[1].dst.total_dim == M.total_dim


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_inverse_translate_and_injectivity_equal_the_direct_versions(spec):
    alg = build(spec)
    verdicts = set()
    for lam in alg.summands():
        M = interval_module(alg, lam)
        assert same_module(tau_d_inverse(M, alg.d), direct_tau_d_inverse(M, alg.d))
        verdicts.add(is_injective(M))
        assert is_injective(M) == envelope_is_injective(M)
    assert verdicts == {True, False}


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_translate_equals_the_dual_of_the_transpose(spec):
    alg = build(spec)
    zero = set()
    for lam in alg.summands():
        M = interval_module(alg, lam)
        t = tau_d(M, alg.d)
        assert same_module(t, direct_tau_d(M, alg.d))
        zero.add(t.is_zero())
    assert zero == {True, False}


def check_maps_out_of_projectives(M):
    """The cover, the envelope and the maps of a resolution of M against the direct versions."""
    P, pi = projective_cover(M)
    P_ref, pi_ref = direct_projective_cover(M)
    assert P.summands == P_ref.summands and same_module(P.module, P_ref.module)
    assert pi.src is P.module and pi.dst is M and same_hom(pi, pi_ref)
    Q, iota = injective_envelope(M)
    summands, iota_ref = direct_injective_envelope(M)
    assert Q.alg is M.alg.opposite() and Q.summands == summands
    assert iota.src is M and same_module(iota.dst, iota_ref.dst) and same_hom(iota, iota_ref)
    res = min_proj_resolution(M, 2)
    for j in range(len(res.diffs)):
        P, Q = res.terms[j + 1], res.terms[j]
        h = differential(res, j)
        assert h.src is P.module and h.dst is Q.module
        assert same_hom(h, direct_hom(P, Q, differential_terms(res, j)))
    return bool(res.diffs)


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_maps_out_of_projectives_equal_the_direct_loops(spec):
    alg = build(spec)
    rng = random.Random(13)
    mods = [interval_module(alg, lam) for lam in alg.summands()]
    pairs = [rng.sample(mods, 2) for _ in range(3)]
    sums = [conjugate(rng, direct_sum_modules(pair)) for pair in pairs]
    assert any(x.denominator != 1 for M in sums for m in M.mats.values() for row in m.data for x in row)
    assert any([check_maps_out_of_projectives(M) for M in mods + sums])
