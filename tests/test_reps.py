import ast
from fractions import Fraction
from pathlib import Path

import pytest

from hinak import reps
from hinak.algebras import AlgebraSpec, build
from hinak.cli import main
from hinak.combinat import box_interval, interlaces, loewy_len
from hinak.reps import (
    CapExceeded,
    ModuleHom,
    StructureConstantError,
    _normalize_hom,
    _proportionality,
    alg_mat_to_hom,
    cokernel_of_hom,
    direct_sum_modules,
    domdim,
    dualize,
    endo_algebra,
    ext_dim,
    ext_dim_from_resolution,
    gldim,
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
from test_subquotients import direct_nakayama_hom, image_dims, is_epi, is_mono, naturality_violation, top_dims


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
    assert top_dims(M) == {(1, 3): 1}
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
        assert naturality_violation(h) is None


def test_image_interval():
    # the image of every basis map between interval modules is the closed-form box
    for alg in (A42(), K1223()):
        lams = alg.summands()
        for lam in lams:
            for mu in lams:
                for h in hom_space(interval_module(alg, lam), interval_module(alg, mu)):
                    box = set(box_interval(*image_interval(lam, mu)))
                    assert {v: r for v, r in image_dims(h).items() if r} == {v: 1 for v in box}


def test_image_interval_identity_case():
    # the identity's image is the whole interval: the box from its leading to its trailing face
    alg = K1223()
    for lam in alg.summands():
        (h,) = hom_space(interval_module(alg, lam), interval_module(alg, lam))
        assert image_dims(h) == {v: 1 for v in box_interval(*image_interval(lam, lam))}


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
    diffs = [alg_mat_to_hom(am) for am in res.diffs]  # back from the AlgMat form
    assert len(diffs) >= 2
    for dh in diffs:
        assert naturality_violation(dh) is None
    for d1, d2 in zip(diffs, diffs[1:]):
        assert d2.then(d1).is_zero()
    P, pi = projective_cover(res.base)
    assert is_epi(pi) and P.summands == res.diffs[0].dst.summands
    assert diffs[0].then(pi).is_zero()
    # exact at P^0: the image of the first differential is all of the kernel of the cover
    assert sum(image_dims(diffs[0]).values()) == P.module.total_dim - res.base.total_dim


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
    return {w: alg.hom_dim(v, w) for w in alg.vertices}


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


def test_tau_roundtrip_on_interior_summand():
    k = K1223()
    M = interval_module(k, (2, 3, 3))
    assert modules_isomorphic(tau_d_inverse(tau_d(M, 2), 2), M) is True


def test_tau_via_nakayama_kernel():
    # the translate is the kernel of the induced map between coresolving injectives
    alg = A42()
    lam = (1, 2, 3)
    res = min_proj_resolution(interval_module(alg, lam), 3)
    nu_last = direct_nakayama_hom(res.diffs[-1])  # nu(P^-d) -> nu(P^-d+1)
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



def _flat_normalize_hom(h):
    # reference: the flatten-based normalization the block walk replaced
    for x in h.flatten():
        if x != 0:
            return h.scale(1 / Fraction(x))
    raise ValueError("zero hom cannot be normalized")


def _flat_proportionality(h, rep):
    coeff = None
    for a, b in zip(h.flatten(), rep.flatten()):
        if b == 0:
            if a != 0:
                raise StructureConstantError("composite not proportional to the basis hom")
            continue
        c = Fraction(a) / b
        if coeff is None:
            coeff = c
        elif coeff != c:
            raise StructureConstantError("composite not proportional to the basis hom")
    return coeff if coeff is not None else 0


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (ValueError, StructureConstantError) as exc:
        return type(exc), str(exc)
    return out.flatten() if isinstance(out, ModuleHom) else out


def _agree(h, rep=None):
    if rep is None:
        assert _outcome(_normalize_hom, h) == _outcome(_flat_normalize_hom, h)
    else:
        assert _outcome(_proportionality, h, rep) == _outcome(_flat_proportionality, h, rep)


def test_structure_constants_match_flatten_reference():
    checked = 0
    for alg in (build(AlgebraSpec.linear_an(4, 2)), K1223()):
        end = endo_algebra(alg)
        mods = end.modules
        for h in (h for a in end.vertices for b in end.vertices for h in hom_space(mods[a], mods[b])):
            _agree(h)
            _agree(h.scale(3))
        for (a, b), f in end._reps.items():
            for c in end.vertices:
                g, rep = end._reps.get((b, c)), end._reps.get((a, c))
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
        assert is_mono(h)
        assert naturality_violation(h) is None
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
    # Ext^i(M, N) == Ext^{i-1}(syzygy M, N) for i >= 2: two different resolutions
    alg = K1223()
    lams = alg.summands()
    for lam in lams[:7]:
        M = interval_module(alg, lam)
        OM = syzygy_module(M)
        for mu in lams[:7]:
            N = interval_module(alg, mu)
            for i in (2, 3):
                assert ext_dim(M, N, i) == ext_dim(OM, N, i - 1)


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


def test_orbit_inverse_translate_roundtrip():
    s = build(AlgebraSpec.selfinj_atilde(3, 3, 2))
    for lam in s.summands():
        M = interval_module(s, lam)
        if is_projective(M):
            continue
        assert modules_isomorphic(tau_d_inverse(tau_d(M, 2), 2), M) is True
        assert modules_isomorphic(tau_d(tau_d_inverse(M, 2), 2), M) is True


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
