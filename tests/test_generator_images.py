"""Resolution differentials as generator images, against the matrices over the algebra they replaced.

``ProjResolution.diffs[j]`` stores the map terms[j+1] -> terms[j] as the
images of the generators of terms[j+1], the form ``hom_from_generators``
takes.  The Hom complex of ``ext_dim_from_resolution`` and the transpose
step of ``tau_d`` read those images.  The functions below are the form they
replaced: a matrix over the algebra (``AlgMat``), its converters from and to
a hom, its transpose over the opposite algebra, and the ``delta`` and
``tau_d`` that read it.  The two must agree entry for entry, on the summands
of the golden specs, on direct sums under dense rational base changes, and
on the simples over an endomorphism algebra.
"""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from hinak.algebras import AlgebraSpec, BasisElt, CapExceeded, build
from hinak.linalg import Mat
from hinak.reps import (
    MatrixModule,
    ModuleHom,
    ProjResolution,
    ProjSum,
    _kernel_of_dual,
    direct_sum_modules,
    endo_algebra,
    ext_dim_from_resolution,
    hom_from_generators,
    interval_module,
    kernel_of_hom,
    min_proj_resolution,
    projective_cover,
    simple_module,
    syzygy_module,
    tau_d,
    zero_module,
)
from test_sparse_homs import conjugate, same_hom
from test_support import GOLDEN_SPECS, same_module


@dataclass
class AlgMat:
    """A matrix over the algebra presenting a map between sums of projectives."""

    src: ProjSum
    dst: ProjSum
    entries: dict[tuple[int, int], list[tuple[int | Fraction, BasisElt]]]  # (dst summand, src summand)


def hom_to_alg_mat(h: ModuleHom, src: ProjSum, dst: ProjSum) -> AlgMat:
    entries: dict[tuple[int, int], list[tuple[int | Fraction, BasisElt]]] = {}
    for s, u in enumerate(src.summands):
        col = h.mat(u).column(src.generator_position(s))
        for i, coeff in enumerate(col):
            if coeff:
                t, b = dst.basis_index[u][i]
                entries.setdefault((t, s), []).append((coeff, b))
    return AlgMat(src, dst, entries)


def alg_mat_to_hom(am: AlgMat) -> ModuleHom:
    """The hom that sends generator s of am.src to the sum of coeff * (t, e) over the entries (t, s)."""
    images = [[] for _ in am.src.summands]
    for (t, s), terms in am.entries.items():
        position = am.dst.basis_index[am.src.summands[s]].index
        images[s].extend((position((t, e)), coeff) for coeff, e in terms)
    return hom_from_generators(am.src, am.dst.module, images)


def transpose_alg_mat(am: AlgMat) -> AlgMat:
    """Hom(-, A) of a map between sums of projectives: the flipped matrix over the opposite algebra."""
    op = am.src.alg.opposite()
    entries = {(s, t): [(coeff, b.flipped()) for coeff, b in terms] for (t, s), terms in am.entries.items()}
    return AlgMat(ProjSum(op, am.dst.summands), ProjSum(op, am.src.summands), entries)


def alg_mat_resolution(M: MatrixModule, cap: int) -> tuple[ProjResolution, list[ModuleHom]]:
    """The minimal resolution with each differential as an AlgMat, and the homs they were read from."""
    if M.is_zero():
        return ProjResolution(M, [ProjSum(M.alg, ())], [], [], True), []
    terms, diffs, homs, syzygies = [], [], [], []
    K, incl = M, None
    for _ in range(cap + 1):
        P, h = projective_cover(K)
        terms.append(P)
        if incl is not None:
            homs.append(h.then(incl))
            diffs.append(hom_to_alg_mat(homs[-1], P, terms[-2]))
        K, incl = kernel_of_hom(h)
        syzygies.append(K)
        if K.is_zero():
            return ProjResolution(M, terms, diffs, syzygies, True), homs
    return ProjResolution(M, terms, diffs, syzygies, False), homs


def alg_mat_ext_dim(res: ProjResolution, N: MatrixModule, degree: int) -> int:
    """dim Ext^degree(M, N) from a resolution whose differentials are AlgMats."""
    if not res.complete and len(res.terms) < degree + 2:
        raise CapExceeded(f"resolution too short for Ext^{degree}")
    offsets = {
        j: list(itertools.accumulate((N.dim(u) for u in res.term_vertices(j)), initial=0))
        for j in (degree - 1, degree, degree + 1)
    }

    def delta(j: int) -> Mat:
        src_off, dst_off = offsets[j + 1], offsets[j]
        m = Mat.zeros(src_off[-1], dst_off[-1])
        if not 0 <= j < len(res.diffs):
            return m
        am = res.diffs[j]
        for (t, s), terms in am.entries.items():
            if not (N.dim(am.src.summands[s]) and N.dim(am.dst.summands[t])):
                continue
            for coeff, b in terms:
                for r, act_row in enumerate(N.act(b).data):
                    row = m.data[src_off[s] + r]
                    for c, x in enumerate(act_row, dst_off[t]):
                        if x:
                            row[c] += coeff * x
        return m

    d_i, d_prev = delta(degree), delta(degree - 1)
    return (d_i.cols - d_i.rank() if d_i.cols else 0) - d_prev.rank()


def alg_mat_tau_d(M: MatrixModule, d: int) -> MatrixModule:
    """ker nu(d_1) of the (d-1)-fold syzygy, with Hom(d_1, A) the transposed AlgMat."""
    X = M
    for _ in range(d - 1):
        X = syzygy_module(X)
        if X.is_zero():
            return zero_module(M.alg)
    res, _ = alg_mat_resolution(X, 1)
    if not res.diffs:
        return zero_module(M.alg)
    return _kernel_of_dual(alg_mat_to_hom(transpose_alg_mat(res.diffs[0])))[0]


def check_module(M, others, d):
    """Compare the resolution of M, Ext from M to each of the others and tau_d M with the AlgMat path.

    Returns the number of differentials and whether tau_d M is non-zero.
    """
    res = min_proj_resolution(M, d + 2)
    ref, homs = alg_mat_resolution(M, d + 2)
    assert [P.summands for P in res.terms] == [P.summands for P in ref.terms]
    assert res.complete == ref.complete and len(res.diffs) == len(ref.diffs)
    for j, am in enumerate(ref.diffs):
        h = hom_from_generators(res.terms[j + 1], res.terms[j].module, res.diffs[j])
        assert h.src is res.terms[j + 1].module and h.dst is res.terms[j].module
        assert same_hom(h, alg_mat_to_hom(am)) and same_hom(h, homs[j])
    for N in others:
        for degree in range(d + 2):
            assert ext_dim_from_resolution(res, N, degree) == alg_mat_ext_dim(ref, N, degree)
    t = tau_d(M, d)
    assert same_module(t, alg_mat_tau_d(M, d))
    return len(res.diffs), not t.is_zero()


def check_modules(mods, others, d):
    """check_module over mods; some resolution must have a differential and some translate be non-zero."""
    outcomes = [check_module(M, others, d) for M in mods]
    assert any(n for n, _ in outcomes) and any(t for _, t in outcomes)


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.describe()["family"])
def test_generator_images_equal_alg_mats_on_golden_summands(spec):
    alg = build(spec)
    mods = [interval_module(alg, lam) for lam in alg.summands()]
    check_modules(mods, mods, alg.d)


@pytest.mark.parametrize("spec", [AlgebraSpec.linear_an(4, 2), AlgebraSpec.tube_trunc(3, 2, 5)],
                         ids=lambda s: s.describe()["family"])
def test_generator_images_equal_alg_mats_under_rational_base_change(spec):
    rng = random.Random(17)
    alg = build(spec)
    sums = []
    for _ in range(4):
        lams = rng.sample(alg.summands(), rng.choice((2, 3)))
        sums.append(conjugate(rng, direct_sum_modules([interval_module(alg, lam) for lam in lams])))
    check_modules(sums, sums + [interval_module(alg, lam) for lam in alg.summands()[:4]], alg.d)
    coefficients = [c for M in sums for images in min_proj_resolution(M, 1).diffs for image in images for _, c in image]
    assert any(type(c) is Fraction for c in coefficients)


def test_generator_images_equal_alg_mats_over_an_endomorphism_algebra():
    E = endo_algebra(build(AlgebraSpec.linear_an(4, 2)))
    simples = [simple_module(E, v) for v in E.vertices]
    check_modules(simples, simples, E.d)
