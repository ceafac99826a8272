"""Named verification suites: each closed-form statement becomes an exhaustive check.

Every suite walks its instance space in lexicographic order, compares an
independently computed value (exact linear algebra) with the closed form,
and reports the first counterexample on failure.  Reports are deterministic
and serialize without timing data, so identical invocations are
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .algebras import AlgebraSpec, build, mesh_presentation
from .combinat import (
    IntTuple,
    kupisch_hasse_path,
    loewy_len,
    mesh_coordinates,
    nakayama_permutation,
    nakayama_permutation_inverse,
    translate_tuple,
)
from .reps import (
    MatrixModule,
    default_cap,
    endo_algebra,
    ext_dim_from_resolution,
    find_isomorphic,
    gldim,
    domdim,
    hom_space,
    hom_span_rank,
    injective_module,
    interval_module,
    is_injective,
    is_projective,
    loewy_length_module,
    min_inj_coresolution,
    min_proj_resolution,
    modules_isomorphic,
    projective_cover,
    projective_module,
    tau_d,
)


class Claim:
    """One claim of a report: the instances checked and the first counterexample."""

    def __init__(self, name: str):
        self.name = name
        self.checked = 0
        self.counterexample: dict | None = None

    @property
    def ok(self) -> bool:
        return self.counterexample is None

    def record(self, ok: bool, **payload) -> None:
        self.checked += 1
        if not ok and self.counterexample is None:
            self.counterexample = payload

    def to_json_dict(self) -> dict:
        return {
            "claim": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "counterexample": self.counterexample,
        }


@dataclass
class CheckReport:
    suite: str
    spec: dict
    items: list[Claim] = field(default_factory=list)

    def claim(self, name: str) -> Claim:
        """A new claim, appended to the report."""
        self.items.append(Claim(name))
        return self.items[-1]

    @property
    def passed(self) -> bool:
        return all(item.ok for item in self.items)

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "spec": self.spec,
            "passed": self.passed,
            "checks": [item.to_json_dict() for item in self.items],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [f"suite {self.suite}  spec {json.dumps(self.spec, sort_keys=True)}"]
        for item in self.items:
            status = "PASS" if item.ok else "FAIL"
            line = f"  {status}  {item.name}  [checked {item.checked}]"
            if item.counterexample is not None:
                line += f"  counterexample: {json.dumps(item.counterexample, sort_keys=True)}"
            lines.append(line)
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _iso_ok(M: MatrixModule, N: MatrixModule) -> tuple[bool, str]:
    """The verdict of ``modules_isomorphic`` and the certificate that decided it."""
    verdict = modules_isomorphic(M, N)
    if verdict is True:
        return True, "isomorphic"
    if verdict is None:
        return False, "undetermined"
    if any(M.dim(v) != N.dim(v) for v in M.alg.vertices):
        return False, "dimension vectors differ"
    homs = len(hom_space(M, N))
    if homs == 0 or homs != len(hom_space(N, M)):
        return False, "dim Hom(M, N) is 0 or differs from dim Hom(N, M)"
    return False, "socle or top dimension vectors differ"


def _require_suite(spec: AlgebraSpec, name: str) -> None:
    if name not in spec.row.suites:
        raise ValueError(f"{name} does not apply to {spec.family}")


# --------------------------------------------------------------------- hom / ext formulas


def check_hom_ext_formulas(spec: AlgebraSpec) -> CheckReport:
    """Brute-force Hom and Ext spaces against the interlacing closed forms."""
    alg = build(spec)
    d = alg.d
    lams = alg.summands()
    mods = {l: interval_module(alg, l) for l in lams}
    resolutions = {l: min_proj_resolution(mods[l], d + 1) for l in lams}
    report = CheckReport("hom-ext", spec.describe())

    hom_claim = report.claim("hom.dim_equals_interlacing_count")
    hom_dims: dict[tuple[IntTuple, IntTuple], int] = {}
    for lam in lams:
        for mu in lams:
            got = len(hom_space(mods[lam], mods[mu]))
            hom_dims[(lam, mu)] = got
            want = alg.module_hom_formula(lam, mu)
            hom_claim.record(got == want, lam=lam, mu=mu, got=got, want=want)

    rigidity = report.claim("ext.vanishes_in_middle_degrees")
    for lam in lams:
        for mu in lams:
            for i in range(1, d):
                got = ext_dim_from_resolution(resolutions[lam], mods[mu], i)
                rigidity.record(got == 0, lam=lam, mu=mu, degree=i, got=got, want=0)

    if alg.has_global_dimension_d:
        top = report.claim("ext.top_degree_equals_translate_interlacing")
        for lam in lams:
            for mu in lams:
                got = ext_dim_from_resolution(resolutions[lam], mods[mu], d)
                want = alg.top_ext_formula(lam, mu)
                top.record(got == want, lam=lam, mu=mu, got=got, want=want)

    ar = report.claim("ext.reflects_stable_hom_through_translate")
    taus = {l: tau_d(mods[l], d) for l in lams}
    covers = {l: projective_cover(mods[l])[1] for l in lams}
    for lam in lams:
        for mu in lams:
            stable = hom_dims[(lam, mu)]
            if stable:
                pi = covers[mu]
                stable -= hom_span_rank([g.then(pi) for g in hom_space(mods[lam], pi.src)])
            got = ext_dim_from_resolution(resolutions[mu], taus[lam], d)
            ar.record(got == stable, lam=lam, mu=mu, ext=got, stable_hom=stable)
    return report


# --------------------------------------------------------------------- resolutions


def check_resolutions(spec: AlgebraSpec) -> CheckReport:
    """Projective resolutions, injective coresolutions and d-fold syzygies in closed form."""
    _require_suite(spec, "resolutions")
    alg = build(spec)
    d = alg.d
    first, last = spec.row.entries(spec)
    bound_at = spec.row.bound_at(spec)
    lams = alg.summands()
    report = CheckReport("resolutions", spec.describe())

    if alg.has_global_dimension_d:
        proj_terms = report.claim("resolution.projective_terms_match_closed_form")
        for lam in lams:
            if lam[0] == first:
                continue  # projective
            res = min_proj_resolution(interval_module(alg, lam), d + 1)
            expected = [tuple(lam[1:])]
            for i in range(1, d + 1):
                expected.append(tuple(x - 1 for x in lam[:i]) + tuple(lam[i + 1 :]))
            got = [res.term_vertices(j) for j in range(len(res.terms))]
            want = [(v,) for v in expected]
            ok = res.complete and res.length == d and got == want
            proj_terms.record(ok, lam=lam, got=[list(map(list, t)) for t in got])

        inj_terms = report.claim("coresolution.injective_terms_match_closed_form")
        for lam in lams:
            if lam[-1] == last:
                continue  # injective
            cores = min_inj_coresolution(interval_module(alg, lam), d + 1)
            expected = [tuple(lam[:-1])]
            for i in range(1, d + 1):
                expected.append(tuple(lam[: d - i]) + tuple(x + 1 for x in lam[d - i + 1 :]))
            got = [tuple(term.summands) for term in cores.terms]
            want = [(v,) for v in expected]
            ok = cores.complete and cores.length == d and got == want
            inj_terms.record(ok, lam=lam, got=[list(map(list, t)) for t in got])

    omega = report.claim("syzygy.d_fold_lands_on_translated_interval")
    for lam in lams:
        x = lam[-1] + 1 - bound_at(lam[-1])
        if lam[0] == x:
            continue  # projective
        omega_d = min_proj_resolution(interval_module(alg, lam), d).syzygy(d)
        expected_index = (x,) + tuple(v - 1 for v in lam[:-1])
        ok, why = _iso_ok(omega_d, interval_module(alg, expected_index))
        omega.record(ok, lam=lam, expected=expected_index, reason=why)
    return report


# --------------------------------------------------------------------- projectives / injectives


def _expected_projective_index(alg, v: IntTuple) -> IntTuple:
    spec = alg.spec
    return (v[-1] + 1 - spec.row.bound_at(spec)(v[-1]),) + v


def _expected_injective_index(alg, v: IntTuple) -> IntTuple:
    y = v[-1]
    while alg.is_summand(v + (y + 1,)):
        y += 1
    return v + (y,)


def check_proj_inj(spec: AlgebraSpec) -> CheckReport:
    """Indecomposable projectives and injectives realize their closed-form intervals."""
    alg = build(spec)
    report = CheckReport("proj-inj", spec.describe())
    proj = report.claim("projective.realizes_closed_form_interval")
    inj = report.claim("injective.realizes_closed_form_interval")
    for v in alg.vertices:
        p_index, _ = alg.canonical(_expected_projective_index(alg, v))
        ok, why = _iso_ok(projective_module(alg, v), interval_module(alg, p_index))
        proj.record(ok and alg.is_summand(p_index), vertex=v, expected=p_index, reason=why)
        i_index, _ = alg.canonical(_expected_injective_index(alg, v))
        ok, why = _iso_ok(injective_module(alg, v), interval_module(alg, i_index))
        inj.record(ok and alg.is_summand(i_index), vertex=v, expected=i_index, reason=why)

    flags = report.claim("summand.projectivity_matches_closed_form")
    for lam in alg.summands():
        want = lam == alg.canonical(_expected_projective_index(alg, tuple(lam[1:])))[0]
        got = is_projective(interval_module(alg, lam))
        flags.record(got == want, lam=lam, got=got, want=want)
    return report


def check_kupisch_lengths(spec: AlgebraSpec) -> CheckReport:
    """Loewy length of the projective at each constant vertex equals the series entry."""
    alg = build(spec)
    report = CheckReport("kupisch-lengths", spec.describe())
    claim = report.claim("projective.loewy_length_matches_series")
    first, last = spec.row.entries(spec)
    bound_at = spec.row.bound_at(spec)
    for i in range(first, last + 1):
        v = (i,) * alg.d
        got = loewy_length_module(projective_module(alg, v))
        want = bound_at(i)
        claim.record(got == want, vertex=v, got=got, want=want)
    return report


# --------------------------------------------------------------------- translates


def check_tau_translate(spec: AlgebraSpec) -> CheckReport:
    """The higher translate acts on interval summands by subtracting the unit tuple."""
    alg = build(spec)
    d = alg.d
    report = CheckReport("tau-translate", spec.describe())
    agree = report.claim("translate.matches_shifted_interval")
    loewy = report.claim("translate.preserves_loewy_length")
    proj_zero = report.claim("translate.kills_projectives")
    simples = report.claim("translate.sends_simple_summands_to_simples_or_zero")
    for lam in alg.summands():
        M = interval_module(alg, lam)
        t = tau_d(M, d)
        if is_projective(M):
            proj_zero.record(t.is_zero(), lam=lam, got_dim=t.total_dim)
            if loewy_len(lam) == 1:
                simples.record(t.is_zero(), lam=lam)
            continue
        expected_index, _ = alg.canonical(translate_tuple(lam, 1))
        if not alg.is_summand(expected_index):
            agree.record(False, lam=lam, reason="translated index leaves the summand set")
            continue
        ok, why = _iso_ok(t, interval_module(alg, expected_index))
        agree.record(ok, lam=lam, expected=expected_index, reason=why)
        loewy.record(
            loewy_length_module(t) == loewy_len(lam), lam=lam, got=loewy_length_module(t)
        )
        if loewy_len(lam) == 1:
            simples.record(t.total_dim == 1, lam=lam, got_dim=t.total_dim)
    return report


# --------------------------------------------------------------------- cluster tilting


def check_cluster_tilting(spec: AlgebraSpec) -> CheckReport:
    """Generator-cogenerator, rigidity, syzygy closure and the endomorphism criterion."""
    alg = build(spec)
    d = alg.d
    lams = alg.summands()
    mods = {l: interval_module(alg, l) for l in lams}
    report = CheckReport("cluster-tilting", spec.describe())
    gen = report.claim("ct.projectives_and_injectives_are_summands")
    for v in alg.vertices:
        gen.record(find_isomorphic(projective_module(alg, v), mods.items()) is not None, vertex=v, side="projective")
        gen.record(find_isomorphic(injective_module(alg, v), mods.items()) is not None, vertex=v, side="injective")

    resolutions = {l: min_proj_resolution(mods[l], 2 * d) for l in lams}
    rigid = report.claim("ct.rigid_below_top_degree")
    for lam in lams:
        for mu in lams:
            for i in range(1, d):
                got = ext_dim_from_resolution(resolutions[lam], mods[mu], i)
                rigid.record(got == 0, lam=lam, mu=mu, degree=i, got=got)

    dz = report.claim("ct.ext_concentrated_in_degrees_divisible_by_d")
    if d >= 2:
        for lam in lams:
            for mu in lams:
                for i in range(d + 1, 2 * d):
                    got = ext_dim_from_resolution(resolutions[lam], mods[mu], i)
                    dz.record(got == 0, lam=lam, mu=mu, degree=i, got=got)

    closure = report.claim("ct.closed_under_d_fold_syzygies")
    for lam in lams:
        if is_projective(mods[lam]):
            continue
        omega_d = resolutions[lam].syzygy(d)
        closure.record(
            omega_d.is_zero() or find_isomorphic(omega_d, mods.items()) is not None, lam=lam
        )

    endo = report.claim("ct.endomorphism_algebra_certificate")
    try:
        end = endo_algebra(alg)
        g = gldim(end, d + 2)
        dd, exact = domdim(end, d + 1)
        endo.record(
            g is not None and g <= d + 1 and dd >= d + 1,
            gldim=g,
            domdim_at_least=dd,
            domdim_exact=exact,
        )
    except RuntimeError as exc:
        endo.record(False, reason=str(exc))

    return report


def check_endo_tower(spec: AlgebraSpec) -> CheckReport:
    """The endomorphism algebra of the distinguished module is the next algebra up."""
    _require_suite(spec, "endo-tower")
    alg = build(spec)
    end = endo_algebra(alg)
    target = build(replace(spec, d=spec.d + 1))
    report = CheckReport("endo-tower", spec.describe())

    verts = report.claim("endo.summand_labels_match_next_vertex_set")
    verts.record(end.vertices == target.vertices, got=len(end.vertices), want=len(target.vertices))

    dims = report.claim("endo.hom_matrix_matches_next_algebra")
    for a in end.vertices:
        for b in end.vertices:
            got = end.hom_dim(a, b)
            want = target.hom_dim(a, b)
            dims.record(got == want, src=a, dst=b, got=got, want=want)

    comp = report.claim("endo.composition_table_matches_next_algebra")
    for a in end.vertices:
        for b in end.vertices:
            if not end.hom_dim(a, b):
                continue
            f_end = end.hom_basis(a, b)[0]
            f_tgt = target.hom_basis(a, b)[0]
            for c in end.vertices:
                if not end.hom_dim(b, c):
                    continue
                got = end.compose(f_end, end.hom_basis(b, c)[0]) is not None
                want = target.compose(f_tgt, target.hom_basis(b, c)[0]) is not None
                comp.record(got == want, src=a, mid=b, dst=c, got=got, want=want)
    return report


# --------------------------------------------------------------------- embeddings


def check_homological_embedding(
    inner_spec: AlgebraSpec, outer_spec: AlgebraSpec, degree_bound: int
) -> CheckReport:
    """Extension spaces agree between an idempotent quotient and its ambient algebra."""
    inner = build(inner_spec)
    outer = build(outer_spec)
    report = CheckReport(
        "homological-embedding",
        {"inner": inner_spec.describe(), "outer": outer_spec.describe(), "degrees": degree_bound},
    )
    emb = report.claim("embedding.vertices_form_a_subquotient")
    subset = set(inner.vertices) <= set(outer.vertices)
    emb.record(subset, inner_vertices=len(inner.vertices), outer_vertices=len(outer.vertices))
    if subset:
        for v in inner.vertices:
            for w in inner.vertices:
                emb.record(
                    inner.hom_dim(v, w) <= outer.hom_dim(v, w), src=v, dst=w
                )
    if not subset:
        return report

    lams = inner.summands()
    inner_mods = {l: interval_module(inner, l) for l in lams}
    outer_mods = {l: interval_module(outer, l) for l in lams}
    support = report.claim("embedding.extension_by_zero_preserves_support")
    for l in lams:
        support.record(
            inner_mods[l].total_dim == outer_mods[l].total_dim, lam=l
        )

    res_in = {l: min_proj_resolution(inner_mods[l], degree_bound + 1) for l in lams}
    res_out = {l: min_proj_resolution(outer_mods[l], degree_bound + 1) for l in lams}
    agree = report.claim("embedding.ext_spaces_agree")
    for lam in lams:
        for mu in lams:
            got0 = len(hom_space(inner_mods[lam], inner_mods[mu]))
            want0 = len(hom_space(outer_mods[lam], outer_mods[mu]))
            agree.record(got0 == want0, lam=lam, mu=mu, degree=0, inner=got0, outer=want0)
            for i in range(1, degree_bound + 1):
                got = ext_dim_from_resolution(res_in[lam], inner_mods[mu], i)
                want = ext_dim_from_resolution(res_out[lam], outer_mods[mu], i)
                agree.record(got == want, lam=lam, mu=mu, degree=i, inner=got, outer=want)
    return report


# --------------------------------------------------------------------- selfinjectivity / orbits


def check_selfinjective(spec: AlgebraSpec) -> CheckReport:
    alg = build(spec)
    report = CheckReport("selfinjective", spec.describe())
    claim = report.claim("selfinjective.projectives_equal_injectives")
    for v in alg.vertices:
        claim.record(is_injective(projective_module(alg, v)), vertex=v, side="projective")
        claim.record(is_projective(injective_module(alg, v)), vertex=v, side="injective")
    return report


def check_orbit_periodicity(spec: AlgebraSpec) -> CheckReport:
    """Translate orbits on nonprojective summands close up exactly at the orbit rank."""
    if not spec.is_orbit:
        raise ValueError("orbit periodicity applies to the orbit families")
    alg = build(spec)
    d, n = alg.d, spec.n
    top = 2 * n
    report = CheckReport("orbit-periodicity", spec.describe())
    period = report.claim("orbit.translate_period_equals_rank")
    simple = report.claim("orbit.translates_of_simples_stay_simple")
    for lam in alg.summands():
        M = interval_module(alg, lam)
        if is_projective(M):
            continue
        chain = [M]
        for _ in range(top):
            chain.append(tau_d(chain[-1], d))
        for i in range(top + 1):
            if loewy_len(lam) == 1:
                simple.record(chain[i].total_dim == 1, lam=lam, power=i)
            for j in range(i + 1, top + 1):
                verdict = modules_isomorphic(chain[i], chain[j])
                want = (j - i) % n == 0
                ok = (verdict is True) if want else (verdict is False)
                period.record(ok, lam=lam, i=i, j=j, want_isomorphic=want, verdict=str(verdict))
    return report


# --------------------------------------------------------------------- mesh presentation


def check_mesh_iso(d: int, bound: int | None, window: tuple[int, int]) -> CheckReport:
    """The slope-coordinate presentation defines the same algebra as the standard one."""
    mesh = mesh_presentation(d, bound, window)
    std = build(mesh.standard_spec)
    desc = {"mesh_d": d, "bound": bound, "window": list(window)}
    report = CheckReport("mesh-iso", desc)

    verts = report.claim("mesh.vertex_bijection")
    images = sorted(mesh.to_standard(v) for v in mesh.vertices)
    verts.record(tuple(images) == std.vertices, got=len(images), want=len(std.vertices))

    arrows = report.claim("mesh.arrow_bijection")
    mesh_pairs = sorted(
        (mesh.to_standard(a.src), mesh.to_standard(a.dst)) for a in mesh.quiver.arrows
    )
    std_pairs = sorted((a.src, a.dst) for a in std.arrows())
    arrows.record(mesh_pairs == std_pairs, got=len(mesh_pairs), want=len(std_pairs))

    graded = report.claim("mesh.graded_hom_dimensions_match")
    got = mesh.quiver.graded_hom_dims()
    want: dict[tuple, dict[int, int]] = {}
    for v in std.vertices:
        for w in std.vertices:
            if std.hom_dim(v, w):
                b = std.hom_basis(v, w)[0]
                mv, mw = mesh_coordinates(v), mesh_coordinates(w)
                want[(mv, mw)] = {std.path_length(b): 1}
    graded.record(got == want, got_pairs=len(got), want_pairs=len(want))
    if got != want:
        for key in sorted(set(got) | set(want), key=str):
            if got.get(key) != want.get(key):
                graded.record(
                    False,
                    src=str(key[0]),
                    dst=str(key[1]),
                    got=got.get(key),
                    want=want.get(key),
                )
                break

    if bound is not None:
        serre = report.claim("mesh.serre_permutation_has_fundamental_domain")
        a, b = window
        # one full rotation of a (d+1)-tuple shifts every entry by bound - 1
        span = (d + 1) * ((b - a) // (bound - 1) + 3)
        for lam in std.vertices:
            # the orbit up to span steps each way; a step that leaves the window ends its walk
            orbit = [lam]
            for step in (nakayama_permutation, nakayama_permutation_inverse):
                mu = lam
                for _ in range(span):
                    try:
                        mu = step(mu, bound)
                    except ValueError:
                        break
                    orbit.append(mu)
            hits = sum(1 for mu in orbit if 0 <= mu[0] and mu[-1] <= bound - 2)
            serre.record(hits == 1, lam=lam, hits=hits)
    return report


# --------------------------------------------------------------------- global dimension


def check_gldim(spec: AlgebraSpec) -> CheckReport:
    alg = build(spec)
    d = alg.d
    cap = max(default_cap(alg), 2 * d + 2)
    report = CheckReport("gldim", spec.describe())
    value = gldim(alg, cap)
    if alg.has_global_dimension_d:
        first, last = spec.row.entries(spec)
        n = last - first + 1
        claim = report.claim("gldim.hereditary_type_equals_d")
        claim.record(value == (d if n >= 2 else 0), got=value, want=d if n >= 2 else 0)
    else:
        claim = report.claim("gldim.finite_values_are_multiples_of_d")
        claim.record(value is None or value % d == 0, got=value, cap=cap)
    return report


def check_hasse_tower(spec: AlgebraSpec) -> CheckReport:
    """Cluster-tilting certificates hold along the whole path up to the full series."""
    _require_suite(spec, "hasse-tower")
    report = CheckReport("hasse-tower", spec.describe())
    for series in kupisch_hasse_path(spec.series):
        sub = AlgebraSpec.kupisch_a(series, spec.d)
        result = check_cluster_tilting(sub)
        claim = report.claim(f"hasse.cluster_tilting_at_{'-'.join(map(str, series.lengths))}")
        claim.record(result.passed, series=list(series.lengths))
    return report


# --------------------------------------------------------------------- registry


SUITES = {
    "hom-ext": check_hom_ext_formulas,
    "resolutions": check_resolutions,
    "proj-inj": check_proj_inj,
    "kupisch-lengths": check_kupisch_lengths,
    "tau-translate": check_tau_translate,
    "cluster-tilting": check_cluster_tilting,
    "endo-tower": check_endo_tower,
    "selfinjective": check_selfinjective,
    "orbit-periodicity": check_orbit_periodicity,
    "gldim": check_gldim,
    "hasse-tower": check_hasse_tower,
}


def applicable_suites(spec: AlgebraSpec) -> list[str]:
    # the mesh presentation of a d-family has slope tuples of length d - 1, and
    # the top of a Hasse path has no ambient algebra to embed into
    return [
        name
        for name in spec.row.suites
        if (name != "mesh-iso" or spec.d >= 2)
        and (name != "homological-embedding" or spec.row.embedding(spec) is not None)
    ]


DESK_SCALE = {"n": 5, "d": 3, "bound": 4, "trunc": 6}


def warn_beyond_desk_scale(spec: AlgebraSpec) -> None:
    """Suites stay exact at any size, but larger instances get slow quickly."""
    import warnings

    too_big = []
    if spec.n is not None and spec.n > DESK_SCALE["n"]:
        too_big.append(f"n={spec.n}")
    if spec.d > DESK_SCALE["d"]:
        too_big.append(f"d={spec.d}")
    bound_name = "trunc" if spec.row.truncated else "bound"
    if spec.bound is not None and spec.bound > DESK_SCALE[bound_name]:
        too_big.append(f"{bound_name}={spec.bound}")
    if spec.window is not None and spec.window[1] - spec.window[0] + 1 > 2 * DESK_SCALE["bound"] + 1:
        too_big.append(f"window_span={spec.window[1] - spec.window[0] + 1}")
    if too_big:
        warnings.warn(
            f"spec exceeds the desk-scale defaults ({', '.join(too_big)}); "
            "checks remain exact but may take long",
            RuntimeWarning,
            stacklevel=3,
        )


def run_suite(spec: AlgebraSpec, name: str) -> CheckReport:
    warn_beyond_desk_scale(spec)
    if name == "homological-embedding":
        found = spec.row.embedding(spec)
        if not found:
            raise ValueError("no default ambient algebra for this spec")
        return check_homological_embedding(spec, *found)
    if name == "mesh-iso":
        if name not in applicable_suites(spec):
            raise ValueError("mesh-iso needs a zl-window spec with d >= 2")
        return check_mesh_iso(spec.d - 1, spec.bound, spec.window)
    fn = SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}; known: {sorted(SUITES) + ['homological-embedding', 'mesh-iso']}")
    return fn(spec)


def run_all(spec: AlgebraSpec) -> list[CheckReport]:
    return [run_suite(spec, name) for name in applicable_suites(spec)]
