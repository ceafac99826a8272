import ast
import gc
import itertools
import random
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

import reference as ref
from corpus import AN42, GOLDEN_SPECS, conjugated_sums, summands
from hinak import reps
from hinak.algebras import AlgebraSpec, BasisAlgebra, build
from hinak.cli import main, make_parser
from hinak.combinat import box_interval, interlaces, loewy_len
from hinak.reps import (
    CapExceeded,
    MatrixModule,
    ModuleHom,
    ProjSum,
    StructureConstantError,
    _normalize_hom,
    _proportionality,
    cokernel_of_hom,
    direct_sum_modules,
    domdim,
    dualize,
    endo_algebra,
    ext_dim,
    ext_dim_from_resolution,
    gldim,
    hom_from_generators,
    hom_space,
    hom_span_rank,
    injective_envelope,
    injective_module,
    interval_module,
    is_injective,
    is_projective,
    kernel_of_hom,
    loewy_length_module,
    min_inj_coresolution,
    min_proj_resolution,
    modules_isomorphic,
    projective_cover,
    projective_module,
    simple_module,
    socle_module,
    syzygy_module,
    tau_d,
    tau_d_inverse,
    zero_module,
)


def A42():
    return build(AlgebraSpec.linear_an(4, 2))


def K1223(d=2):
    return build(AlgebraSpec.kupisch_a((1, 2, 2, 3), d))


def stable_hom_dim(M, N):
    """dim Hom(M, N) minus the maps that factor through the projective cover of N."""
    P, pi = projective_cover(N)
    return len(hom_space(M, N)) - hom_span_rank([g.then(pi) for g in hom_space(M, P.module)])


def image_interval(lam, mu):
    """Closed form: the basis map between the intervals at lam and mu has image box [mu[:-1], lam[1:]]."""
    assert interlaces(lam, mu)
    return tuple(mu[:-1]), tuple(lam[1:])


# ------------------------------------------------------------------ interval modules


def test_interval_module_support():
    alg = A42()
    M = interval_module(alg, (0, 1, 2))
    assert {v for v, k in M.dims.items() if k} == {(0, 1), (0, 2), (1, 1), (1, 2)}
    assert M.total_dim == 4
    M.validate()


def test_module_dims_follow_the_lex_order_of_the_vertices():
    # MatrixModule puts dims in vertex order by sorting its keys, which needs every algebra's vertices in lex order
    algs = [build(spec) for spec in GOLDEN_SPECS]
    algs += [build(AlgebraSpec.window_spec(-2, 3, 2)), build(AlgebraSpec.linear_an(6, 3))]
    algs.append(endo_algebra(build(AN42)))
    for A in algs + [alg.opposite() for alg in algs]:
        assert list(A.vertices) == sorted(A.vertices)
    M = interval_module(A42(), (0, 1, 3))
    shuffled = MatrixModule(M.alg, dict(reversed(M.dims.items())), M.mats)
    assert list(shuffled.dims) == M.support == [v for v in M.alg.vertices if M.dim(v)]


def test_interval_module_simple_case():
    alg = A42()
    S = interval_module(alg, (2, 2, 2))
    assert S.total_dim == 1 and S.dim((2, 2)) == 1


def test_interval_module_loewy_length():
    alg = A42()
    for lam in alg.summands():
        assert loewy_length_module(interval_module(alg, lam)) == loewy_len(lam)


def test_interval_module_empty_support():
    alg = A42()
    with pytest.raises(ValueError):
        interval_module(alg, (4, 4, 4))


def test_orbit_interval_pushdown_dims():
    tube = build(AlgebraSpec.tube_trunc(2, 2, 4))
    lam = (0, 1, 3)
    M = interval_module(tube, lam)
    M.validate()
    # fibers count the orbit hits of the support box
    want = {}
    for t in box_interval(lam[:-1], lam[1:]):
        rep = tuple(x - (t[0] // 2) * 2 for x in t)
        want[rep] = want.get(rep, 0) + 1
    assert {v: k for v, k in M.dims.items() if k} == want


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_interval_support_holds_both_corners_of_its_box(spec):
    # hinak tau skips a summand with a corner outside the translate's support without building it,
    # which is exact only because every interval module is non-zero at lam[:-1] and lam[1:]
    alg = build(spec)
    for lam in alg.summands():
        dims = interval_module(alg, lam).dims
        assert alg.canonical(lam[:-1])[0] in dims and alg.canonical(lam[1:])[0] in dims, lam


# ------------------------------------------------------------------ projectives and injectives


def test_projective_closed_forms():
    alg = A42()
    for v in alg.vertices:
        assert modules_isomorphic(projective_module(alg, v), interval_module(alg, (0,) + v)) is True
        assert (
            modules_isomorphic(injective_module(alg, v), interval_module(alg, v + (3,))) is True
        )
    k = K1223()
    assert modules_isomorphic(projective_module(k, (2, 3)), interval_module(k, (1, 2, 3))) is True


def test_projective_cover_of_projective_is_identity_sized():
    alg = A42()
    P = projective_module(alg, (1, 2))
    cover, h = projective_cover(P)
    assert cover.summands == ((1, 2),)
    assert h.is_iso()


def test_top_and_socle_of_interval():
    alg = A42()
    M = interval_module(alg, (0, 1, 3))
    assert ref.top_dims(M) == {(1, 3): 1}
    S, _ = socle_module(M)
    assert {v: k for v, k in S.dims.items() if k} == {(0, 1): 1}


# ------------------------------------------------------------------ hom spaces


def test_hom_space_examples():
    alg = A42()
    M = interval_module(alg, (0, 1, 2))
    N = interval_module(alg, (1, 2, 3))
    assert len(hom_space(M, N)) == 1
    assert len(hom_space(M, M)) == 1
    S1 = interval_module(alg, (1, 1, 1))
    S0 = interval_module(alg, (0, 0, 0))
    assert len(hom_space(S1, S0)) == 0


def test_hom_space_naturality():
    alg = K1223()
    M = interval_module(alg, (1, 1, 2))
    N = interval_module(alg, (1, 2, 3))
    for h in hom_space(M, N):
        assert ref.naturality_violation(h) is None


def test_image_interval():
    # the image of every basis map between interval modules is the closed-form box
    for alg in (A42(), K1223()):
        lams = alg.summands()
        for lam in lams:
            for mu in lams:
                for h in hom_space(interval_module(alg, lam), interval_module(alg, mu)):
                    box = set(box_interval(*image_interval(lam, mu)))
                    assert {v: r for v, r in ref.image_dims(h).items() if r} == {v: 1 for v in box}


def test_image_interval_identity_case():
    # the identity's image is the whole interval: the box from its leading to its trailing face
    alg = K1223()
    for lam in alg.summands():
        (h,) = hom_space(interval_module(alg, lam), interval_module(alg, lam))
        assert ref.image_dims(h) == {v: 1 for v in box_interval(*image_interval(lam, lam))}


# ------------------------------------------------------------------ resolutions, ext


def test_resolution_closed_form_terms():
    alg = A42()
    lam = (1, 2, 3)
    res = min_proj_resolution(interval_module(alg, lam), 5)
    assert res.complete and res.length == 2
    assert [t.summands for t in res.terms] == [((2, 3),), ((0, 3),), ((0, 1),)]


def test_resolution_of_projective_has_length_zero():
    alg = A42()
    res = min_proj_resolution(projective_module(alg, (1, 2)), 3)
    assert res.complete and res.length == 0


def test_syzygy_example_over_kupisch():
    k = K1223()
    om2 = min_proj_resolution(interval_module(k, (2, 3, 3)), 4).syzygy(2)
    assert modules_isomorphic(om2, interval_module(k, (1, 1, 2))) is True


def test_ext_examples():
    alg = A42()
    M = interval_module(alg, (1, 2, 3))
    N = interval_module(alg, (0, 1, 2))
    assert ext_dim(M, N, 2) == 1
    assert ext_dim(M, N, 1) == 0
    assert ext_dim(M, N, 0) == len(hom_space(M, N))


def test_ext_cap_exceeded_reported():
    s = build(AlgebraSpec.selfinj_atilde(2, 2, 1))
    S = simple_module(s, (0,))
    res = min_proj_resolution(S, 3)
    assert not res.complete
    with pytest.raises(CapExceeded):
        ext_dim_from_resolution(res, S, 9)


def test_ext_degree_zero_from_resolution_is_hom():
    alg = A42()
    mods = [interval_module(alg, lam) for lam in alg.summands()[::2]]
    assert any(is_projective(M) for M in mods) and not all(is_projective(M) for M in mods)
    for M in mods:
        res = min_proj_resolution(M, 3)
        for N in mods:
            assert ext_dim_from_resolution(res, N, 0) == len(hom_space(M, N))


def test_resolution_differentials_compose_to_zero():
    alg = K1223()
    res = min_proj_resolution(interval_module(alg, (2, 3, 3)), 4)
    diffs = [hom_from_generators(res.terms[j + 1], res.terms[j].module, res.diffs[j]) for j in range(len(res.diffs))]
    assert len(diffs) >= 2
    for j, dh in enumerate(diffs):
        assert ref.naturality_violation(dh) is None and ref.same_hom(dh, ref.differential(res, j))
    for d1, d2 in zip(diffs, diffs[1:]):
        assert d2.then(d1).is_zero()
    P, pi = projective_cover(res.base)
    assert ref.is_epi(pi) and P.summands == res.terms[0].summands
    assert diffs[0].then(pi).is_zero()
    # exact at P^0: the image of the first differential is all of the kernel of the cover
    assert sum(ref.image_dims(diffs[0]).values()) == P.module.total_dim - res.base.total_dim


# ------------------------------------------------------------------ duality, translates


def test_dualize_involution():
    alg = K1223()
    M = interval_module(alg, (1, 2, 3))
    DD = dualize(dualize(M))
    assert DD.alg is alg
    assert modules_isomorphic(M, DD) is True


def test_dualize_swaps_projectives_and_injectives():
    alg = A42()
    op = alg.opposite()
    for v in alg.vertices:
        D = dualize(projective_module(alg, v))
        assert D.dims == injective_module_dims(op, v)


def injective_module_dims(alg, v):
    return {w: k for w in alg.vertices if (k := alg.hom_dim(v, w))}


def test_tau_examples():
    alg = A42()
    assert modules_isomorphic(
        tau_d(interval_module(alg, (1, 2, 3)), 2), interval_module(alg, (0, 1, 2))
    ) is True
    assert tau_d(projective_module(alg, (2, 3)), 2).is_zero()
    k = K1223()
    assert modules_isomorphic(
        tau_d(interval_module(k, (2, 3, 3)), 2), interval_module(k, (1, 2, 2))
    ) is True


def test_tau_inverse_examples():
    alg = A42()
    M = interval_module(alg, (0, 1, 2))
    assert modules_isomorphic(tau_d_inverse(M, 2), interval_module(alg, (1, 2, 3))) is True
    # injectives die under the inverse translate
    assert tau_d_inverse(injective_module(alg, (0, 1)), 2).is_zero()


def test_tau_via_nakayama_kernel():
    # the translate is the kernel of the induced map between coresolving injectives
    alg = A42()
    lam = (1, 2, 3)
    res = min_proj_resolution(interval_module(alg, lam), 3)
    nu_last = ref.nakayama_hom(res, len(res.diffs) - 1)  # nu(P^-d) -> nu(P^-d+1)
    K, _ = kernel_of_hom(nu_last)
    assert modules_isomorphic(K, tau_d(interval_module(alg, lam), 2)) is True


# ------------------------------------------------------------------ stable hom, gldim, domdim


def test_stable_hom():
    alg = A42()
    P = projective_module(alg, (1, 2))
    N = interval_module(alg, (0, 1, 2))
    assert stable_hom_dim(P, N) == 0
    for lam in alg.summands():
        M = interval_module(alg, lam)
        if not is_projective(M):
            assert stable_hom_dim(M, M) == 1


def test_stable_hom_equals_top_ext_of_translate():
    alg = K1223()
    lams = alg.summands()
    for lam in lams[:6]:
        for mu in lams[:6]:
            M, N = interval_module(alg, lam), interval_module(alg, mu)
            assert stable_hom_dim(M, N) == ext_dim(N, tau_d(M, 2), 2)


def test_gldim():
    assert gldim(build(AlgebraSpec.linear_an(4, 2)), 6) == 2
    assert gldim(build(AlgebraSpec.linear_an(1, 3)), 6) == 0
    assert gldim(build(AlgebraSpec.selfinj_atilde(2, 2, 1)), 5) is None  # infinite


def test_domdim_selfinjective_unbounded():
    s = build(AlgebraSpec.selfinj_atilde(3, 3, 2))
    value, exact = domdim(s, 3)
    assert value >= 4 and not exact


def test_domdim_with_every_term_projective_up_to_the_cap_is_a_lower_bound():
    alg = A42()
    assert domdim(alg, 6) == (2, True)
    assert domdim(alg, 0) == (1, False)
    assert domdim(alg, 1) == (2, False)


def test_streamed_domdim_equals_the_listed_coresolution():
    ends = [endo_algebra(build(spec)) for spec in (
        AlgebraSpec.linear_an(4, 2), AlgebraSpec.linear_an(5, 3),
        AlgebraSpec.selfinj_atilde(3, 3, 2), AlgebraSpec.tube_trunc(2, 2, 4))]
    answers = set()
    # on K1223 the coresolution goes on past its first non-projective term, where the stream stops
    for alg in [*ends, build(AlgebraSpec.selfinj_atilde(3, 3, 2)), A42(), K1223()]:
        for cap in range(alg.d + 3):
            got = domdim(alg, cap)
            assert got == ref.domdim(alg, cap), (alg, cap)
            answers.add(got[1])
    assert answers == {True, False}


def projectivity_corpus():
    """Modules on both sides of the line: golden summands, their syzygies and duals, modules over End of an(4,2)
    (its simples and the terms of the coresolution domdim walks), conjugated rational sums, and a projective
    plus a non-projective."""
    mods = []
    for spec in GOLDEN_SPECS:
        for M in summands(build(spec)):
            mods += [M, syzygy_module(M), dualize(M)]
    end = endo_algebra(build(AN42))
    mods += [simple_module(end, v) for v in end.vertices]
    cores = min_inj_coresolution(ProjSum(end, end.vertices).module, end.d + 2)
    mods += [dualize(P.module) for P in cores.terms]
    alg = A42()
    mods += conjugated_sums(random.Random(31), alg)
    mods.append(direct_sum_modules([projective_module(alg, (1, 2)), interval_module(alg, (1, 2, 3))]))
    return mods


def test_projectivity_by_counting_equals_the_built_cover():
    verdicts = [(is_projective(M), ref.is_projective(M)) for M in projectivity_corpus()]
    assert [got for got, _ in verdicts] == [want for _, want in verdicts]
    assert {got for got, _ in verdicts} == {True, False}
    assert verdicts[-1] == (False, False)  # the projective summand does not make the sum projective


def test_projectivity_by_counting_builds_no_projective_sum(monkeypatch):
    built = []
    post_init = ProjSum.__post_init__
    monkeypatch.setattr(ProjSum, "__post_init__", lambda self: built.append(self.summands) or post_init(self))
    for spec in GOLDEN_SPECS:
        for M in summands(build(spec)):
            is_projective(M)
            is_injective(M)
    assert built == []
    projective_cover(interval_module(A42(), (1, 2, 3)))
    assert len(built) == 1  # the counter sees a cover when one is built


def test_envelope_cokernel_reads_the_projective_sum_as_the_dual_of_its_codomain():
    end = endo_algebra(build(AN42))
    mods = [simple_module(end, v) for v in end.vertices] + [ProjSum(end, end.vertices).module]
    for spec in GOLDEN_SPECS[:3]:
        mods += summands(build(spec))
    for M in mods:
        P, h = injective_envelope(M)
        (C, p), (want, want_p) = cokernel_of_hom(h, P.module), cokernel_of_hom(h)
        assert (C.dims, C.mats, p.mats) == (want.dims, want.mats, want_p.mats)


def test_syzygies_at_zero_and_past_the_last_term():
    M = interval_module(A42(), (1, 2, 2))
    full = min_proj_resolution(M, 4)
    assert full.complete and full.length == 2
    assert full.syzygy(0) is M
    assert full.syzygy(full.length + 2).is_zero()
    capped = min_proj_resolution(M, 0)
    assert not capped.complete and not capped.syzygy(1).is_zero()
    with pytest.raises(CapExceeded):
        capped.syzygy(2)


# ------------------------------------------------------------------ iso testing


def test_modules_isomorphic_verdicts():
    alg = build(AlgebraSpec.linear_an(2, 1))
    M = interval_module(alg, (0, 1))  # the projective-injective of the A_2 quiver
    split = direct_sum_modules([simple_module(alg, (0,)), simple_module(alg, (1,))])
    assert modules_isomorphic(M, split) is False  # same dims and dim Hom 1 both ways, different socles
    assert modules_isomorphic(M, simple_module(alg, (0,))) is False
    assert modules_isomorphic(M, interval_module(alg, (0, 1))) is True


def test_zero_module_is_legal():
    alg = A42()
    z = zero_module(alg)
    assert z.is_zero() and loewy_length_module(z) == 0
    assert tau_d(z, 2).is_zero()


# ------------------------------------------------------------------ orbit operations


def test_orbit_hom_dim():
    tube = build(AlgebraSpec.tube_trunc(3, 2, 5))
    assert tube.module_hom_formula((0, 1, 2), (0, 1, 2)) == 1
    for lam in tube.summands():
        assert tube.module_hom_formula(lam, lam) >= 1
    # closed form equals brute force on a sample
    for lam in tube.summands()[:8]:
        for mu in tube.summands()[:8]:
            brute = len(hom_space(interval_module(tube, lam), interval_module(tube, mu)))
            assert tube.module_hom_formula(lam, mu) == brute


# ------------------------------------------------------------------ derived endomorphism algebra


def test_endo_algebra_matches_next_level():
    alg = build(AlgebraSpec.linear_an(3, 1))
    end = endo_algebra(alg)
    target = build(AlgebraSpec.linear_an(3, 2))
    assert end.vertices == target.vertices
    for a in end.vertices:
        for b in end.vertices:
            assert end.hom_dim(a, b) == target.hom_dim(a, b)


def test_endo_algebra_has_no_hom_off_its_vertex_set():
    # like every other algebra, a well-formed tuple that is not a vertex has Hom dimension 0
    end = endo_algebra(build(AlgebraSpec.linear_an(3, 2)))
    target = build(AlgebraSpec.linear_an(3, 3))
    assert (9, 9, 9) not in end.vertices
    assert end.hom_basis((9, 9, 9), (9, 9, 9)) == ()
    assert end.hom_dim((9, 9, 9), (9, 9, 9)) == target.hom_dim((9, 9, 9), (9, 9, 9)) == 0
    assert all(end.hom_dim(v, v) == 1 for v in end.vertices)


def test_endo_algebra_has_an_opposite():
    # duals and translates over a derived algebra need its opposite algebra
    end = endo_algebra(build(AlgebraSpec.linear_an(3, 1)))
    target = build(AlgebraSpec.linear_an(3, 2))
    assert end.opposite().opposite() is end
    for v in target.vertices:
        assert tau_d(simple_module(end, v), 2).dims == tau_d(simple_module(target, v), 2).dims
        assert dualize(projective_module(end, v)).dims == dualize(projective_module(target, v)).dims


def test_endo_algebra_supports_homology():
    end = endo_algebra(K1223())
    assert gldim(end, 4) <= 3
    value, _ = domdim(end, 3)
    assert value >= 3


def test_endo_algebra_composites_are_its_basis_elements():
    # each non-zero composite is the basis element End already holds for its Hom space, not an equal copy
    end = endo_algebra(A42())
    composites = 0
    for f in end.all_basis():
        for g in [g for c in end.vertices for g in end.hom_basis(f.dst, c)]:
            comp = end.compose(f, g)
            if comp is not None:
                assert comp is end.hom_basis(f.src, g.dst)[0]
                composites += 1
    assert composites > len(end.vertices)


def test_endo_algebra_keeps_only_its_tables():
    # the modules, basis homs and base algebra End is built from are dropped once its tables are filled
    end = endo_algebra(build(AlgebraSpec.linear_an(4, 2)))
    held = [
        name
        for name, value in vars(end).items()
        for x in [value, *(value.values() if isinstance(value, dict) else ())]
        if isinstance(x, (MatrixModule, ModuleHom, BasisAlgebra))
    ]
    assert held == []
    assert end._hom_memo and end._comp


def test_structure_constants_stay_exact():
    # a / b on two ints is a float; the structure-constant check must see Fraction(1, 2), not 0.5
    alg = build(AlgebraSpec.linear_an(4, 2))
    lams = alg.summands()
    homs = (hom_space(interval_module(alg, a), interval_module(alg, b)) for a in lams for b in lams if a != b)
    h = next(hs[0] for hs in homs if hs)
    assert all(type(x) is int for x in h.flatten())
    half = _proportionality(h, h.scale(2))
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(_proportionality(h.scale(2), h)) is int
    flat = _normalize_hom(h.scale(3)).flatten()
    assert next(x for x in flat if x != 0) == 1
    assert all(type(x) in (int, Fraction) for x in flat)



def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (ValueError, StructureConstantError) as exc:
        return type(exc), str(exc)
    return out.flatten() if isinstance(out, ModuleHom) else out


def _agree(h, rep=None):
    if rep is None:
        assert _outcome(_normalize_hom, h) == _outcome(ref.normalize_hom, h)
    else:
        assert _outcome(_proportionality, h, rep) == _outcome(ref.proportionality, h, rep)


def test_structure_constants_match_flatten_reference():
    checked = 0
    for alg in (build(AlgebraSpec.linear_an(4, 2)), K1223()):
        end = endo_algebra(alg)
        mods = {t: interval_module(alg, t) for t in end.vertices}
        for h in (h for a in end.vertices for b in end.vertices for h in hom_space(mods[a], mods[b])):
            _agree(h)
            _agree(h.scale(3))
        reps = ref.normalized_reps(alg, end.vertices)
        assert reps.keys() == end._hom_memo.keys()
        for (a, b), f in reps.items():
            for c in end.vertices:
                g, rep = reps.get((b, c)), reps.get((a, c))
                if g is None or rep is None:
                    continue
                composite = f.then(g)
                _agree(composite, rep)
                _agree(rep, composite)
                _agree(composite.scale(Fraction(-2, 3)), rep)
                checked += 1
    assert checked > 100

    # crafted: a hom with non-zero blocks at two vertices, blocks dropped on one side
    alg = build(AlgebraSpec.linear_an(4, 2))
    lams = alg.summands()
    homs = (h for a in lams for b in lams for h in hom_space(interval_module(alg, a), interval_module(alg, b)))
    h = next(h for h in homs if sum(not m.is_zero() for m in h.mats.values()) >= 2)
    first = next(v for v in alg.vertices if v in h.mats and not h.mats[v].is_zero())
    fewer = ModuleHom(h.src, h.dst, {v: m for v, m in h.mats.items() if v != first})
    for a, b, err in ((h, fewer, True), (fewer, h, True), (fewer, fewer.scale(2), False)):
        _agree(a, b)
        assert isinstance(_outcome(_proportionality, a, b), tuple) == err
    assert _proportionality(ModuleHom(h.src, h.dst, {}), h) == 0
    # normalization reads the blocks in vertex order, not in the order they were stored
    shuffled = ModuleHom(h.src, h.dst, {v: h.mats[v].scale(2 if v == first else 5) for v in reversed(h.mats)})
    _agree(shuffled)
    _agree(fewer)
    _agree(ModuleHom(h.src, h.dst, {}))


# ------------------------------------------------------------------ envelopes


def test_injective_envelope_is_mono():
    alg = K1223()
    for lam in [(1, 1, 2), (2, 3, 3)]:
        M = interval_module(alg, lam)
        I, h = injective_envelope(M)
        assert ref.is_mono(h)
        assert ref.naturality_violation(h) is None
    assert is_injective(injective_module(alg, (1, 2)))


def test_coresolution_of_noninjective():
    alg = A42()
    cores = min_inj_coresolution(interval_module(alg, (1, 2, 2)), 4)
    assert cores.complete and cores.length == 2
    assert [t.summands for t in cores.terms] == [((1, 2),), ((1, 3),), ((3, 3),)]


def test_coresolution_of_zero_and_below_the_injective_dimension():
    alg = A42()
    zero = min_inj_coresolution(zero_module(alg), 3)
    assert zero.complete and zero.length == 0
    assert zero.terms[0].alg is alg.opposite() and zero.terms[0].summands == ()
    capped = min_inj_coresolution(interval_module(alg, (1, 2, 2)), 1)
    assert not capped.complete and capped.length == 1
    assert [t.summands for t in capped.terms] == [((1, 2),), ((1, 3),)]


# ------------------------------------------------------------------ further contracts


def test_costable_hom_dual_formula():
    # costable Hom(M, N), the maps modulo those through an injective, is the stable Hom of the duals
    alg = A42()
    lams = alg.summands()
    for lam in lams[:6]:
        for mu in lams[:6]:
            M, N = interval_module(alg, lam), interval_module(alg, mu)
            assert stable_hom_dim(dualize(N), dualize(M)) == ext_dim(tau_d_inverse(N, 2), M, 2)


def test_module_json_schema():
    alg = K1223()
    payload = interval_module(alg, (1, 2, 3)).to_json()
    assert set(payload) == {"dims", "arrows"}
    assert payload["dims"]["1,2"] == 1
    for rows in payload["arrows"].values():
        for row in rows:
            assert all(isinstance(x, str) for x in row)


def test_validate_module_rejects_broken_action():
    alg = build(AlgebraSpec.kupisch_a((1, 2, 2), 1))
    # full interval over the path algebra is NOT a module over this quotient:
    # the length-two path must act by zero but acts invertibly here
    from fractions import Fraction

    from hinak.linalg import Mat

    dims = {(0,): 1, (1,): 1, (2,): 1}
    mats = {a.elt: Mat.from_rows([[Fraction(1)]]) for a in alg.arrows()}
    from hinak.reps import MatrixModule

    bad = MatrixModule(alg, dims, mats)
    with pytest.raises(ValueError):
        bad.validate()


def test_window_growth_kills_projectivity():
    # interior summands stop being projective or injective in a wider window
    inner = build(AlgebraSpec.window_spec(1, 3, 2))
    outer = build(AlgebraSpec.window_spec(0, 4, 2))
    for lam in inner.summands():
        M = interval_module(outer, lam)
        assert not is_projective(M) or lam[0] == 0
        assert not is_injective(M) or lam[-1] == 4


def test_default_cap_env_override(monkeypatch, capsys):
    from hinak.reps import default_cap

    alg = A42()
    assert default_cap(alg) == 6
    monkeypatch.setenv("HINAK_CAP", "11")
    assert default_cap(alg) == 11
    monkeypatch.setenv("HINAK_CAP", "abc")
    with pytest.raises(ValueError, match="HINAK_CAP.*'abc'"):
        default_cap(alg)
    code = main(["resolve", "--family", "an", "--n", "4", "--d", "2", "--module", "1,2,3"])
    assert code == 2
    assert "HINAK_CAP" in capsys.readouterr().err
    # below zero is refused like resolve --cap; zero is a cap of 0
    monkeypatch.setenv("HINAK_CAP", "-3")
    with pytest.raises(ValueError, match="HINAK_CAP.*'-3'"):
        default_cap(alg)
    code = main(["resolve", "--family", "an", "--n", "4", "--d", "2", "--module", "1,2,3"])
    assert code == 2
    assert "HINAK_CAP" in capsys.readouterr().err
    monkeypatch.setenv("HINAK_CAP", "0")
    assert default_cap(alg) == 0


def test_ext_dimension_shift_consistency():
    # Ext^i(M, N) == Ext^{i-1}(syzygy M, N) for i >= 2: ext_dim's three Hom dimensions on M against the
    # Hom complex of a resolution of the syzygy
    alg = K1223()
    lams = alg.summands()
    for lam in lams[:7]:
        M = interval_module(alg, lam)
        OM = syzygy_module(M)
        for mu in lams[:7]:
            N = interval_module(alg, mu)
            for i in (2, 3):
                assert ext_dim(M, N, i) == ext_dim_from_resolution(min_proj_resolution(OM, i), N, i - 1)


@pytest.mark.parametrize(
    "spec", [AN42, AlgebraSpec.selfinj_atilde(3, 3, 2), AlgebraSpec.tube_trunc(2, 2, 4)], ids=lambda s: s.family
)
def test_ext_by_dimension_shifting_matches_both_hom_complexes(spec):
    # ext_dim reads three Hom dimensions off the cover of one syzygy; ext_dim_from_resolution and the
    # reference engine take the cohomology of the Hom complex of a whole resolution
    alg = build(spec)
    mods = summands(alg)
    queries = [(M, N, i) for M in mods for N in mods for i in range(alg.d + 2)]
    if spec == AN42:  # the rational sums on either side, in degree d
        sums = conjugated_sums(random.Random(29), alg)
        queries += [(M, N, alg.d) for M in mods + sums for N in sums] + [(M, N, alg.d) for M in sums for N in mods]
        mods += sums
    resolutions = {M: (min_proj_resolution(M, alg.d + 2), ref.resolution(M, alg.d + 2)[0]) for M in mods}
    values = []
    for M, N, i in queries:
        res, ref_res = resolutions[M]
        values.append(ext_dim(M, N, i))
        assert values[-1] == ext_dim_from_resolution(res, N, i) == ref.ext_dim(ref_res, N, i), (M, N, i)
    assert any(v for v, (_, _, i) in zip(values, queries) if i == alg.d)


def test_hom_from_projective_is_fiber_dimension():
    for spec in [AlgebraSpec.linear_an(4, 2), AlgebraSpec.selfinj_atilde(3, 3, 2)]:
        alg = build(spec)
        for v in alg.vertices[:5]:
            P = projective_module(alg, v)
            for lam in alg.summands()[:5]:
                N = interval_module(alg, lam)
                assert len(hom_space(P, N)) == N.dim(v)


def test_ext_second_argument_dimension_shift():
    # Ext^i(M, N) == Ext^{i-1}(M, cosyzygy N) for i >= 2, and the long exact
    # sequence pins Ext^1 against Hom spaces through the injective envelope:
    # independent exercise of the envelope/cokernel machinery
    s = build(AlgebraSpec.selfinj_atilde(3, 3, 2))
    lams = [l for l in s.summands() if loewy_len(l) < 3][:4]
    for lam in lams:
        M = interval_module(s, lam)
        for mu in lams:
            N = interval_module(s, mu)
            _, envelope = injective_envelope(N)
            ON = cokernel_of_hom(envelope)[0]
            for i in (2, 3):
                assert ext_dim(M, N, i) == ext_dim(M, ON, i - 1)
            ext1 = (
                len(hom_space(M, ON)) - len(hom_space(M, envelope.dst)) + len(hom_space(M, N))
            )
            assert ext_dim(M, N, 1) == ext1


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_higher_translates_invert_each_other_on_summands(spec):
    # Iyama's d-AR translation: tau_d^- tau_d M = M off the projectives, tau_d tau_d^- N = N off the injectives
    alg = build(spec)
    for M in summands(alg):
        if not is_projective(M):
            assert modules_isomorphic(tau_d_inverse(tau_d(M, alg.d), alg.d), M) is True
        if not is_injective(M):
            assert modules_isomorphic(tau_d(tau_d_inverse(M, alg.d), alg.d), M) is True


@pytest.mark.parametrize("spec", GOLDEN_SPECS, ids=lambda s: s.family)
def test_ext_over_the_opposite_algebra_swaps_the_duals(spec):
    # D is a duality mod A -> mod A^op, so Ext^i_A(M, N) = Ext^i_{A^op}(DN, DM)
    alg = build(spec)
    top = alg.d + 1
    mods = summands(alg)
    duals = [dualize(M) for M in mods]
    res = [min_proj_resolution(M, top + 1) for M in mods]
    res_op = [min_proj_resolution(DM, top + 1) for DM in duals]
    for (M, DM, r), (N, DN, r_op) in itertools.product(zip(mods, duals, res), zip(mods, duals, res_op)):
        assert len(hom_space(M, N)) == len(hom_space(DN, DM))
        for i in range(1, top + 1):
            assert ext_dim_from_resolution(r, N, i) == ext_dim_from_resolution(r_op, DM, i), (M, N, i)


@pytest.mark.parametrize(
    "spec",
    [AlgebraSpec.linear_an(4, 2), AlgebraSpec.linear_an(5, 3), AlgebraSpec.tube_trunc(2, 2, 4),
     AlgebraSpec.selfinj_atilde(3, 3, 2)],
    ids=["an-4-2", "an-5-3", "tube-trunc", "selfinj-atilde"],
)
def test_dominant_dimension_of_end_follows_the_first_self_extension(spec):
    # Mueller: for a generator-cogenerator M, domdim End(M) >= k + 2 iff Ext^i(M, M) = 0 for 1 <= i <= k
    alg = build(spec)
    mods = summands(alg)
    cap = alg.d + 1
    resolutions = [min_proj_resolution(M, cap) for M in mods]
    first = next(i for i in range(1, cap) if any(ext_dim_from_resolution(r, N, i) for r in resolutions for N in mods))
    assert domdim(endo_algebra(alg), cap) == (1 + first, True)


@pytest.mark.parametrize(
    "make", [lambda: build(AlgebraSpec.linear_an(4, 3)), lambda: endo_algebra(build(AN42))], ids=["an-4-3", "end-an-4-2"]
)
def test_ext_out_of_simples_vanishes_into_injectives_and_matches_the_reference_into_projectives(make):
    # Ext^i(-, I) = 0 for i >= 1 on an injective I.  A Hom complex whose differentials lose a coefficient
    # is no longer a complex, and its "Ext" comes out non-zero, even negative, on these two algebras
    alg = make()
    top = gldim(alg, 8)
    for v in alg.vertices:
        S = simple_module(alg, v)
        res, ref_res = min_proj_resolution(S, top + 1), ref.resolution(S, top + 1)[0]
        for w in alg.vertices:
            I, P = injective_module(alg, w), projective_module(alg, w)
            for i in range(1, top + 1):
                assert ext_dim_from_resolution(res, I, i) == 0, (v, w, i)
                assert ext_dim_from_resolution(res, P, i) == ref.ext_dim(ref_res, P, i), (v, w, i)


def test_covers_and_resolutions_leave_no_cyclic_garbage():
    # the CLI builds one algebra per query; temporaries in a reference cycle would wait for the cyclic collector
    alg = build(AN42)
    mods = summands(alg)
    for M in mods:  # fill the algebra's tables, memos and P_u cache first: they live as long as it does
        min_proj_resolution(M, 4)
    gc.collect()
    gc.disable()
    try:
        for M in mods:
            projective_cover(M)
            assert gc.collect() == 0
            min_proj_resolution(M, 4)
            assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("spec", [AN42, AlgebraSpec.tube_trunc(2, 2, 4)], ids=["an-4-2", "tube-trunc-2-2-4"])
def test_a_dropped_algebra_is_freed_at_once_with_every_cache_filled(spec):
    # the algebra and its opposite point at each other's state, and the caches hold modules' blocks:
    # none of it may form a cycle, or each query's algebra would wait for the cyclic collector
    alg = build(spec)
    op = alg.opposite()
    for M in summands(alg):
        min_proj_resolution(M, 4)
        tau_d(M, alg.d)
    for v in alg.vertices:
        injective_module(alg, v)
        injective_module(op, v)
    assert op.arrows_from(alg.vertices[0]) == op._tables()[0][alg.vertices[0]]
    gc.collect()
    gc.disable()
    try:
        refs = weakref.ref(alg), weakref.ref(op)
        del alg, op, M
        assert [r() for r in refs] == [None, None]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_queries_leave_no_cyclic_garbage(capsys):
    # hom, ext and tau on the four families of the cli-queries benchmark; tube-trunc's ext rechecks
    # its value one truncation up, so it builds a second algebra
    families = [
        (["--family", "an", "--n", "5", "--d", "3"], "1,2,3,4", "0,1,2,3", "3"),
        (["--family", "kupisch-a", "--series", "1,2,3,3,3", "--d", "2"], "2,3,3", "1,2,2", "2"),
        (["--family", "selfinj-atilde", "--n", "4", "--l", "4", "--d", "2"], "1,2,3", "0,1,2", "2"),
        (["--family", "tube-trunc", "--n", "3", "--d", "2", "--trunc", "5"], "1,2,3", "0,1,2", "2"),
    ]
    make_parser()  # built once per process; argparse's help formatters hold cycles of their own
    gc.collect()
    gc.disable()
    try:
        for flags, lam, mu, d in families:
            for argv in (["hom", *flags, "--from", mu, "--to", lam],
                         ["ext", *flags, "--from", lam, "--to", mu, "--degree", d],
                         ["tau", *flags, "--module", lam]):
                assert main(argv) == 0, argv
                assert gc.collect() == 0, argv
    finally:
        gc.enable()
    assert capsys.readouterr().out.split() == ["1", "1", "0,1,2,3", "0", "1", "1,2,2"] + ["1", "1", "0,1,2"] * 2


def test_a_module_over_the_opposite_outlives_its_base():
    lam = (0, 1, 2)  # not injective, so its dual has a resolution of three terms
    held = build(AN42)
    want = dualize(interval_module(held, lam))
    want_homs, want_res = hom_space(want, want), min_proj_resolution(want, 3)
    D = dualize(interval_module(build(AN42), lam))  # its opposite algebra is all that holds this base
    assert D.alg.base is not held
    homs, res = hom_space(D, D), min_proj_resolution(D, 3)
    assert [h.mats for h in homs] == [h.mats for h in want_homs] and homs
    assert [t.summands for t in res.terms] == [t.summands for t in want_res.terms] and len(res.terms) > 1
    assert (res.diffs, res.complete) == (want_res.diffs, want_res.complete)
    base = D.alg.opposite()
    assert base.opposite() is D.alg and base.opposite().opposite() is base
    assert held.opposite() is held.opposite() and held.opposite().opposite() is held


def test_reps_imports_no_spec_policy():
    # the module layer works on the algebra it is handed; building from a spec belongs to checks and cli
    names = []
    for node in ast.walk(ast.parse(Path(reps.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [f"{node.module or ''}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    banned = {"AlgebraSpec", "build", "checks", "cli"}
    assert names and [n for n in names if banned & set(n.split("."))] == []
