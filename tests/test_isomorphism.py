"""Isomorphism by one exact certificate.

``modules_isomorphic`` checks one seeded combination of the Hom basis for
invertibility.  ``scan_isomorphic`` below is the search it replaced: each
basis hom, then every combination with coefficients in -2..2 of up to four
basis homs.  Wherever the scan decided, the certificate must give the same
verdict.  Where the combination misses, Hom dimensions decide the negative
direction: between the two modules, or from and to the simples.
"""

import ast
import itertools
import random
from pathlib import Path

import pytest

import hinak
from corpus import GOLDEN_SPECS, conjugate, direct_sum, summands
from hinak.algebras import AlgebraSpec, build
from hinak.checks import _iso_ok
from hinak.reps import (
    direct_sum_modules,
    find_isomorphic,
    hom_space,
    interval_module,
    modules_isomorphic,
    simple_module,
    tau_d,
)


def scan_isomorphic(M, N):
    if any(M.dim(v) != N.dim(v) for v in M.alg.vertices):
        return False
    if M.is_zero():
        return True
    homs = hom_space(M, N)
    if any(h.is_iso() for h in homs):
        return True
    if 2 <= len(homs) <= 4:
        for coeffs in itertools.product(range(-2, 3), repeat=len(homs)):
            combo = homs[0].scale(coeffs[0])
            for c, h in zip(coeffs[1:], homs[1:]):
                combo = combo.add(h.scale(c))
            if combo.is_iso():
                return True
    return None


def test_triple_sum_with_nine_dimensional_hom_is_isomorphic():
    alg = build(AlgebraSpec.linear_an(4, 2))
    M = interval_module(alg, (0, 1, 2))
    MMM = direct_sum_modules([M, M, M])
    assert len(hom_space(MMM, MMM)) == 9
    assert scan_isomorphic(MMM, MMM) is None
    assert modules_isomorphic(MMM, MMM) is True


def test_conjugated_sum_in_another_order_is_isomorphic():
    alg = build(AlgebraSpec.linear_an(4, 2))
    lams = [(0, 1, 2), (0, 1, 2), (1, 2, 3)]
    C = conjugate(random.Random(3), direct_sum(alg, lams))
    T = direct_sum(alg, lams[::-1])
    assert len(hom_space(C, T)) >= 5
    assert scan_isomorphic(C, T) is None
    assert modules_isomorphic(C, T) is True
    assert modules_isomorphic(T, C) is True


def test_find_isomorphic_returns_the_first_certified_label():
    alg = build(AlgebraSpec.linear_an(4, 2))
    lams = alg.summands()
    M = conjugate(random.Random(5), direct_sum(alg, lams[3:5]))
    sums = [(i, direct_sum(alg, lams[i : i + 2])) for i in range(len(lams) - 1)]
    assert find_isomorphic(M, sums) == 3
    assert find_isomorphic(M, sums[:3] + [("copy", M)] + sums[3:]) == "copy"
    assert find_isomorphic(M, sums[:3] + sums[4:]) is None


def combination_certificate(M, N):
    """The verdict before the Hom-dimension certificates: dimension vectors, then the seeded combination."""
    if any(M.dim(v) != N.dim(v) for v in M.alg.vertices):
        return False
    if M.is_zero():
        return True
    homs = hom_space(M, N)
    if not homs:
        return None
    rng = random.Random(0)
    combo = homs[0]
    for h in homs[1:]:
        combo = combo.add(h.scale(rng.randint(1, 1 << 20)))
    return True if combo.is_iso() else None


DIFFERENTIAL_FAMILIES = ("selfinj-atilde", "tube-trunc", "atilde-kupisch", "kupisch-a")
DIFFERENTIAL_SPECS = pytest.mark.parametrize(
    "spec", [s for s in GOLDEN_SPECS if s.family in DIFFERENTIAL_FAMILIES], ids=lambda s: s.family
)


def differential_modules(spec):
    """The summands, their d-translates and the sums of two distinct summands."""
    alg = build(spec)
    mods = summands(alg)
    sums = [direct_sum_modules(pair) for pair in itertools.combinations(mods, 2)]
    return mods + [tau_d(M, alg.d) for M in mods] + sums


@DIFFERENTIAL_SPECS
def test_certificate_agrees_with_the_scan_wherever_the_scan_decides(spec):
    mods = differential_modules(spec)
    seen = set()
    for X in mods:
        for Y in mods:
            old, new = scan_isomorphic(X, Y), modules_isomorphic(X, Y)
            assert old is None or new is old
            seen.add(new)
    assert {True, False} <= seen


def layer_dims(X):
    """dim Hom(S_v, X) and dim Hom(X, S_v) at each vertex v: the socle and the top of X."""
    simples = [simple_module(X.alg, v) for v in X.alg.vertices]
    return [(len(hom_space(S, X)), len(hom_space(X, S))) for S in simples]


@DIFFERENTIAL_SPECS
def test_hom_dimensions_decide_the_pairs_the_combination_misses(spec):
    # X ≅ Y with X non-zero forces dim Hom(X, Y) = dim Hom(Y, X) = dim End(X) > 0,
    # and dim Hom(S, X) = dim Hom(S, Y), dim Hom(X, S) = dim Hom(Y, S) for every simple S
    mods = differential_modules(spec)
    missed = [(X, Y) for X in mods for Y in mods if combination_certificate(X, Y) is None]
    by_layers = 0
    for X, Y in missed:
        hom_xy, hom_yx = len(hom_space(X, Y)), len(hom_space(Y, X))
        assert modules_isomorphic(X, Y) is False
        if hom_xy == 0 or hom_xy != hom_yx:
            assert _iso_ok(X, Y) == (False, "dim Hom(M, N) is 0 or differs from dim Hom(N, M)")
        else:
            assert layer_dims(X) != layer_dims(Y)
            assert _iso_ok(X, Y) == (False, "socle or top dimension vectors differ")
            by_layers += 1
    assert missed and by_layers == (12 if spec.family == "tube-trunc" else 0)


def test_randomness_is_seeded_inside_each_call():
    # reports must be byte-identical, so the package draws only from a generator
    # it seeds with a literal inside the function that uses it
    def seeded_generator(call):
        return (
            isinstance(call, ast.Call)
            and ast.unparse(call.func) == "random.Random"
            and len(call.args) == 1
            and not call.keywords
            and isinstance(call.args[0], ast.Constant)
            and type(call.args[0].value) is int
        )

    outside, inside = [], []
    for path in sorted(Path(hinak.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        seeded = [
            n.func for f in ast.walk(tree)
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            for n in ast.walk(f) if seeded_generator(n)
        ]
        inside += seeded
        for n in ast.walk(tree):
            renamed = (isinstance(n, ast.ImportFrom) and n.module == "random") or (
                isinstance(n, ast.Import) and any(a.name == "random" and a.asname for a in n.names)
            )
            unseeded = isinstance(n, ast.Attribute) and ast.unparse(n.value) == "random" and n not in seeded
            if renamed or unseeded:
                outside.append(f"{path.name}:{n.lineno}")
    assert inside and outside == []
