"""Bound quiver presentations of the supported algebra families.

Every algebra here is a finite category whose Hom spaces are spanned by at
most one basis morphism per (source, target, shift): composition of basis
morphisms is again a basis morphism or zero, never a proper sum.

All seven families are one construction, the d-th higher Nakayama algebra of
a Kupisch series l: the vertices are the weakly increasing d-tuples t in an
entry range whose Loewy length t_d - t_1 + 1 is at most l at t_d.  They
differ only in the series, the entry range and whether tuples are taken
modulo shifting every entry by n.  ``FAMILIES`` holds one row per family:

* ``linear-a``       entries in {0,...,n-1}, l_t = t + 1 (no restriction)
* ``kupisch-a``      entries in {0,...,n-1}, a linear Kupisch series
* ``window``         entries in [a, b], l_t = t - a + 1 (no restriction)
* ``zl-window``      entries in [a, b], additionally a constant Loewy bound
* ``selfinj-atilde`` orbits of the constant-bound category under shifts by n
* ``atilde-kupisch`` orbits of an n-periodic series category under shifts by n
* ``tube-trunc``     orbits of the unbounded category, truncated at Loewy
                     length L so that all morphisms of path length >= L die

Orbit families store canonical representatives (first entry in {0,...,n-1})
and shift-tagged basis morphisms; composition adds the shift tags.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .combinat import (
    CYCLIC_A,
    LINEAR_A,
    IntTuple,
    KupischSeries,
    as_os,
    box_interval,
    canonical_orbit_rep,
    interlaces,
    is_os,
    kupisch_hasse_path,
    mesh_coordinates,
    mesh_from_coordinates,
    translate_tuple,
)
from .linalg import Mat, cokernel_projection


class BasisElt(NamedTuple):
    src: IntTuple
    dst: IntTuple
    shift: int

    def __str__(self) -> str:
        tag = f"%{self.shift:+d}" if self.shift else ""
        return f"{label(self.src)}->{label(self.dst)}{tag}"

    def flipped(self) -> "BasisElt":
        """The same morphism read in the opposite algebra."""
        return BasisElt(self.dst, self.src, -self.shift)


class Arrow(NamedTuple):
    src: IntTuple
    direction: int  # 0-based coordinate being incremented
    dst: IntTuple
    shift: int

    @property
    def elt(self) -> BasisElt:
        return BasisElt(self.src, self.dst, self.shift)

    def name(self) -> str:
        tag = f"%{self.shift:+d}" if self.shift else ""
        return f"a{self.direction + 1}({label(self.src)}){tag}"


def label(t: Sequence[int]) -> str:
    return ",".join(str(x) for x in t)


@dataclass(frozen=True)
class Family:
    """One row of the family table.

    ``bound_at(spec)`` is the Kupisch series as a function t -> l_t of the
    last entry.  ``entries(spec)`` is the entry range [lo, hi]; on orbit
    families it bounds only the first entry, which picks the canonical
    representative.  ``cli_flags`` are the CLI destinations the family
    requires, in the order ``from_flags(d, *values)`` takes them.
    ``embedding(spec)`` gives the default ambient algebra of the
    homological-embedding suite and the top Ext degree it compares.
    """

    name: str
    cli_name: str
    cli_flags: tuple[str, ...]
    from_flags: Callable[..., "AlgebraSpec"]
    entries: Callable[["AlgebraSpec"], tuple[int, int]]
    bound_at: Callable[["AlgebraSpec"], Callable[[int], int]]
    orbit: bool
    suites: tuple[str, ...]
    has_global_dimension_d: bool = False
    embedding: Callable[["AlgebraSpec"], "tuple[AlgebraSpec, int] | None"] | None = None

    @property
    def series_variant(self) -> str:
        return CYCLIC_A if self.orbit else LINEAR_A

    @property
    def truncated(self) -> bool:
        """A truncation of an infinite category, whose values are rechecked one level up."""
        return "trunc" in self.cli_flags


def _first_n(spec: "AlgebraSpec") -> tuple[int, int]:
    return 0, spec.n - 1


def _window(spec: "AlgebraSpec") -> tuple[int, int]:
    return spec.window


def _wider_window(spec: "AlgebraSpec") -> tuple["AlgebraSpec", int]:
    a, b = spec.window
    return AlgebraSpec.window_spec(a - 1, b + 1, spec.d), spec.d + 1


def _next_series(spec: "AlgebraSpec") -> tuple["AlgebraSpec", int] | None:
    path = kupisch_hasse_path(spec.series)
    if len(path) == 1:
        return None
    return AlgebraSpec.kupisch_a(path[1], spec.d), max(1, spec.d - 1)


_COMMON_SUITES = ("hom-ext", "proj-inj", "kupisch-lengths", "tau-translate", "cluster-tilting")

FAMILIES: dict[str, Family] = {
    row.name: row
    for row in (
        Family("linear-a", "an", ("n",), lambda d, n: AlgebraSpec.linear_an(n, d),
               entries=_first_n, bound_at=lambda spec: lambda t: t + 1, orbit=False,
               suites=_COMMON_SUITES + ("resolutions", "endo-tower", "gldim"), has_global_dimension_d=True),
        Family("kupisch-a", "kupisch-a", ("series",), lambda d, series: AlgebraSpec.kupisch_a(series, d),
               entries=_first_n, bound_at=lambda spec: spec.series.length_at, orbit=False,
               suites=_COMMON_SUITES + ("resolutions", "gldim", "hasse-tower", "homological-embedding"),
               embedding=_next_series),
        Family("window", "window", ("a", "b"), lambda d, a, b: AlgebraSpec.window_spec(a, b, d),
               entries=_window, bound_at=lambda spec: lambda t: t - spec.window[0] + 1, orbit=False,
               suites=_COMMON_SUITES + ("resolutions", "gldim", "homological-embedding"),
               has_global_dimension_d=True, embedding=_wider_window),
        Family("zl-window", "zl-window", ("bound", "a", "b"), lambda d, ell, a, b: AlgebraSpec.zl_window(ell, a, b, d),
               entries=_window, bound_at=lambda spec: lambda t: min(t - spec.window[0] + 1, spec.bound), orbit=False,
               suites=_COMMON_SUITES + ("resolutions", "gldim", "mesh-iso")),
        Family("selfinj-atilde", "selfinj-atilde", ("n", "bound"), lambda d, n, ell: AlgebraSpec.selfinj_atilde(n, ell, d),
               entries=_first_n, bound_at=lambda spec: lambda t: spec.bound, orbit=True,
               suites=_COMMON_SUITES + ("selfinjective", "orbit-periodicity")),
        Family("atilde-kupisch", "atilde-kupisch", ("series",), lambda d, series: AlgebraSpec.atilde_kupisch(series, d),
               entries=_first_n, bound_at=lambda spec: spec.series.length_at, orbit=True,
               suites=_COMMON_SUITES),
        Family("tube-trunc", "tube-trunc", ("n", "trunc"), lambda d, n, trunc: AlgebraSpec.tube_trunc(n, d, trunc),
               entries=_first_n, bound_at=lambda spec: lambda t: spec.bound, orbit=True,
               suites=_COMMON_SUITES + ("orbit-periodicity",)),
    )
}

# what a spec needs for each CLI destination its family requires
_NEEDS: dict[str, tuple[str, Callable[["AlgebraSpec"], bool]]] = {
    "n": ("n >= 1", lambda s: s.n is not None and s.n >= 1),
    "series": ("a {variant} Kupisch series", lambda s: s.series is not None and s.series.variant == s.row.series_variant),
    "bound": ("bound >= 2", lambda s: s.bound is not None and s.bound >= 2),
    "trunc": ("truncation >= 1", lambda s: s.bound is not None and s.bound >= 1),
    "a": ("a <= b", lambda s: s.window is not None and s.window[0] <= s.window[1]),
    "b": ("a <= b", lambda s: s.window is not None and s.window[0] <= s.window[1]),
}


@dataclass(frozen=True)
class AlgebraSpec:
    family: str
    d: int
    n: int | None = None
    series: KupischSeries | None = None
    bound: int | None = None
    window: tuple[int, int] | None = None

    @staticmethod
    def linear_an(n: int, d: int) -> "AlgebraSpec":
        return AlgebraSpec("linear-a", d, n=n)

    @staticmethod
    def kupisch_a(lengths, d: int) -> "AlgebraSpec":
        series = lengths if isinstance(lengths, KupischSeries) else KupischSeries.linear_a(lengths)
        return AlgebraSpec("kupisch-a", d, n=series.size, series=series)

    @staticmethod
    def window_spec(a: int, b: int, d: int) -> "AlgebraSpec":
        return AlgebraSpec("window", d, window=(a, b))

    @staticmethod
    def zl_window(ell: int, a: int, b: int, d: int) -> "AlgebraSpec":
        return AlgebraSpec("zl-window", d, bound=ell, window=(a, b))

    @staticmethod
    def selfinj_atilde(n: int, ell: int, d: int) -> "AlgebraSpec":
        return AlgebraSpec("selfinj-atilde", d, n=n, bound=ell)

    @staticmethod
    def atilde_kupisch(lengths, d: int) -> "AlgebraSpec":
        series = lengths if isinstance(lengths, KupischSeries) else KupischSeries.cyclic_a(lengths)
        return AlgebraSpec("atilde-kupisch", d, n=series.size, series=series)

    @staticmethod
    def tube_trunc(n: int, d: int, trunc: int) -> "AlgebraSpec":
        return AlgebraSpec("tube-trunc", d, n=n, bound=trunc)

    @property
    def row(self) -> Family:
        """This spec's row of the family table."""
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        return FAMILIES[self.family]

    def validate(self) -> None:
        row = self.row
        if self.d < 1:
            raise ValueError("d must be >= 1")
        for flag in row.cli_flags:
            what, holds = _NEEDS[flag]
            if not holds(self):
                raise ValueError(f"{self.family} needs {what.format(variant=row.series_variant)}")
        if "series" in row.cli_flags:
            self.series.require_valid()

    @property
    def is_orbit(self) -> bool:
        return self.row.orbit

    @property
    def orbit_modulus(self) -> int | None:
        return self.n if self.is_orbit else None

    def describe(self) -> dict:
        out: dict = {"family": self.family, "d": self.d}
        if self.n is not None:
            out["n"] = self.n
        if self.series is not None:
            out["series"] = list(self.series.lengths)
        if self.bound is not None:
            out["bound"] = self.bound
        if self.window is not None:
            out["window"] = list(self.window)
        return out

    @staticmethod
    def from_describe(obj: dict) -> "AlgebraSpec":
        spec = AlgebraSpec(
            obj["family"],
            obj["d"],
            n=obj.get("n"),
            bound=obj.get("bound"),
            window=tuple(obj["window"]) if "window" in obj else None,
        )
        if "series" in obj:
            spec = replace(spec, series=KupischSeries(spec.row.series_variant, tuple(obj["series"])))
        return spec

    def __str__(self) -> str:
        return json.dumps(self.describe(), sort_keys=True)


class BasisAlgebra:
    """What every algebra the module toolkit runs on shares.

    An algebra is a finite category: vertices, and for each pair of vertices
    a tuple of basis morphisms (``hom_basis``) whose composites are again
    basis morphisms or zero (``compose`` returns None).  Subclasses set
    ``d`` and implement ``hom_basis``, ``compose`` and ``_arrow_list``.
    """

    spec: AlgebraSpec | None = None
    orbit_modulus: int | None = None
    d: int

    def __init__(self, vertices: Iterable[IntTuple]):
        self.vertices: tuple[IntTuple, ...] = tuple(vertices)
        self._vset = frozenset(self.vertices)
        self._arrows: tuple[Arrow, ...] | None = None
        self._arrow_tables: tuple[dict, dict] | None = None
        self._factor_cache: dict[BasisElt, list[BasisElt]] = {}
        self._proj_cache: dict = {}  # vertex -> indecomposable projective module
        self._inj_cache: dict = {}  # vertex -> indecomposable injective module
        self._op: BasisAlgebra | None = None

    def is_vertex(self, v: Sequence[int]) -> bool:
        return tuple(v) in self._vset

    def require_vertex(self, v: Sequence[int]) -> IntTuple:
        t = as_os(v)
        if len(t) != self.d:
            raise ValueError(f"expected a {self.d}-tuple, got {t}")
        if self.orbit_modulus is not None and not 0 <= t[0] < self.orbit_modulus:
            raise ValueError(f"{t} is not a canonical representative (first entry must be in [0,{self.orbit_modulus}))")
        if t not in self._vset:
            raise ValueError(f"{t} is not a vertex")
        return t

    def canonical(self, t: Sequence[int]) -> tuple[IntTuple, int]:
        """The stored representative of t and the number of orbit shifts back to t."""
        if self.orbit_modulus is None:
            return tuple(t), 0
        return canonical_orbit_rep(t, self.orbit_modulus)

    def vertex_label(self, v: Sequence[int]) -> str:
        return label(v)

    def hom_dim(self, v: Sequence[int], w: Sequence[int]) -> int:
        """Dimension of the Hom space; 0 for well-formed tuples outside the vertex set."""
        v, w = tuple(v), tuple(w)
        if v not in self._vset or w not in self._vset:  # vertices are well-formed
            if len(as_os(v)) != self.d or len(as_os(w)) != self.d:
                raise ValueError(f"expected {self.d}-tuples")
        return len(self.hom_basis(v, w))

    def identity(self, v: Sequence[int]) -> BasisElt:
        v = self.require_vertex(v)
        return BasisElt(v, v, 0)

    def all_basis(self) -> list[BasisElt]:
        return [b for v in self.vertices for w in self.vertices for b in self.hom_basis(v, w)]

    def algebra_dimension(self) -> int:
        return len(self.all_basis())

    def arrows(self) -> tuple[Arrow, ...]:
        if self._arrows is None:
            self._arrows = self._arrow_list()
        return self._arrows

    def arrows_from(self, v: Sequence[int]) -> tuple[Arrow, ...]:
        return self._tables()[0][tuple(v)]

    def arrows_into(self, v: Sequence[int]) -> tuple[Arrow, ...]:
        return self._tables()[1][tuple(v)]

    def _tables(self) -> tuple[dict, dict]:
        if self._arrow_tables is None:
            out: dict[IntTuple, list[Arrow]] = {u: [] for u in self.vertices}
            into: dict[IntTuple, list[Arrow]] = {u: [] for u in self.vertices}
            for a in self.arrows():
                out[a.src].append(a)
                into[a.dst].append(a)
            self._arrow_tables = (
                {u: tuple(r) for u, r in out.items()},
                {u: tuple(r) for u, r in into.items()},
            )
        return self._arrow_tables

    def opposite(self) -> "BasisAlgebra":
        if self._op is None:
            self._op = OppositeAlgebra(self)
        return self._op


class PresentedAlgebra(BasisAlgebra):
    """The algebra of a validated spec, with a combinatorial basis predicate."""

    def __init__(self, spec: AlgebraSpec):
        spec.validate()
        self.spec = spec
        self.d = spec.d
        self.orbit_modulus = spec.orbit_modulus
        self._lo, self._hi = spec.row.entries(spec)
        self._bound_at = spec.row.bound_at(spec)
        if self.orbit_modulus is not None:
            # ambient Hom out of a vertex dies beyond this Loewy reach
            self._band = max(self._bound_at(t) for t in range(self.orbit_modulus))
        super().__init__(self._tuples(self.d))

    # ------------------------------------------------------------------ the basis predicate

    def _fits(self, first: int, last: int) -> bool:
        """Whether the covering category holds an interval from first to last.

        Both ends lie in the entry range (orbit families have none), and the
        Loewy length is at most the series bound at the last entry.
        """
        if self.orbit_modulus is None and (first < self._lo or last > self._hi):
            return False
        return last - first + 1 <= self._bound_at(last)

    def _tuples(self, k: int) -> list[IntTuple]:
        """The family's weakly increasing k-tuples in lex order: vertices (k = d), summands (k = d + 1)."""
        out = []
        for first in range(self._lo, self._hi + 1):
            top = self._hi if self.orbit_modulus is None else first + self._band - 1
            for rest in itertools.combinations_with_replacement(range(first, top + 1), k - 1):
                if self._fits(first, rest[-1] if rest else first):
                    out.append((first,) + rest)
        return out

    def _ambient_vertex(self, t: Sequence[int]) -> bool:
        """Membership of an arbitrary integer tuple in the covering vertex set."""
        return is_os(t) and self._fits(t[0], t[-1])

    def _ambient_hom(self, v: Sequence[int], u: Sequence[int]) -> bool:
        """Nonvanishing of the covering-category Hom from the vertex v to the ambient tuple u.

        Reduced box test: v interlaces u and the bound holds at the far corner
        of the interval [v, u].  The worst tuple in the box with last entry t
        starts at v_1, and a valid series has l_t <= l_{t-1} + 1, so the
        slack l_t - (t - v_1 + 1) never grows with t: t = u_d is the worst.
        """
        return interlaces(v, u) and self._fits(v[0], u[-1])

    # ------------------------------------------------------------------ basis

    def shifted(self, t: Sequence[int], k: int) -> IntTuple:
        n = self.orbit_modulus
        return tuple(x + k * n for x in t) if n else tuple(t)

    def hom_basis(self, v: Sequence[int], w: Sequence[int]) -> tuple[BasisElt, ...]:
        v, w = tuple(v), tuple(w)
        if v not in self._vset or w not in self._vset:
            return ()
        n = self.orbit_modulus
        if n is None:
            return (BasisElt(v, w, 0),) if self._ambient_hom(v, w) else ()
        lo = -((w[0] - v[0]) // n)  # ceil((v0 - w0)/n)
        hi = (v[0] + self._band - 1 - w[-1]) // n
        out = []
        for k in range(lo, hi + 1):
            if self._ambient_hom(v, self.shifted(w, k)):
                out.append(BasisElt(v, w, k))
        return tuple(out)

    def compose(self, f: BasisElt, g: BasisElt) -> BasisElt | None:
        """Composite of f: a -> b followed by g: b -> c, or None when zero."""
        if f.dst != g.src:
            raise ValueError(f"non-composable pair {f} , {g}")
        k = f.shift + g.shift
        if self._ambient_hom(f.src, self.shifted(g.dst, k)):
            return BasisElt(f.src, g.dst, k)
        return None

    def path_length(self, b: BasisElt) -> int:
        u = self.shifted(b.dst, b.shift)
        return sum(u_i - v_i for u_i, v_i in zip(u, b.src))

    def _arrow_list(self) -> tuple[Arrow, ...]:
        found = []
        for v in self.vertices:
            for i in range(self.d):
                t = v[:i] + (v[i] + 1,) + v[i + 1 :]
                if self._ambient_vertex(t):
                    rep, s = self.canonical(t)
                    found.append(Arrow(v, i, rep, s))
        return tuple(found)

    # ------------------------------------------------------------------ module-level combinatorics

    def summands(self) -> list[IntTuple]:
        """Index tuples (length d+1) of the distinguished module's summands."""
        return self._tuples(self.d + 1)

    def is_summand(self, lam: Sequence[int]) -> bool:
        t = tuple(lam)
        if len(t) != self.d + 1 or not is_os(t):
            return False
        if self.orbit_modulus is not None and not self._lo <= t[0] <= self._hi:
            return False
        return self._fits(t[0], t[-1])

    def module_hom_formula(self, lam: Sequence[int], mu: Sequence[int]) -> int:
        """Closed-form dim Hom between the interval modules at lam and mu.

        Interlacing count; orbit families sum over the contributing shifts of
        the target.  Both arguments must be summand representatives.
        """
        lam, mu = tuple(lam), tuple(mu)
        for t in (lam, mu):
            if not self.is_summand(t):
                raise ValueError(f"{t} does not index a summand")
        n = self.orbit_modulus
        if n is None:
            return int(interlaces(lam, mu))
        lo = -((mu[0] - lam[0]) // n)
        hi = (lam[1] - mu[0]) // n
        return sum(1 for k in range(lo, hi + 1) if interlaces(lam, tuple(x + k * n for x in mu)))

    @property
    def has_global_dimension_d(self) -> bool:
        """Families whose nonprojective summands have projective dimension exactly d."""
        return self.spec.row.has_global_dimension_d

    def top_ext_formula(self, lam: Sequence[int], mu: Sequence[int]) -> int:
        """Closed-form dim of the degree-d extension space (hereditary-type families only)."""
        if not self.has_global_dimension_d:
            raise ValueError("top-degree formula only applies to the unrestricted families")
        shifted = translate_tuple(lam, 1)
        if not self.is_summand(shifted):
            return 0
        return int(interlaces(tuple(mu), shifted))

    def interval_support(self, lam: Sequence[int]) -> dict[IntTuple, list[int]]:
        """Support of the interval module at lam: vertex -> ambient shift list.

        The support box runs from the first d entries to the last d entries
        of lam.  For orbit families each box tuple is recorded under its
        canonical representative together with its shift.
        """
        lam = tuple(lam)
        if len(lam) != self.d + 1:
            raise ValueError(f"expected a {self.d + 1}-tuple")
        lo, hi = lam[:-1], lam[1:]
        support: dict[IntTuple, list[int]] = {}
        for t in box_interval(lo, hi):
            rep, s = self.canonical(t)
            if rep in self._vset:
                support.setdefault(rep, []).append(s)
        for shifts in support.values():
            shifts.sort()
        return support

    def __repr__(self) -> str:
        return f"PresentedAlgebra({self.spec})"


class OppositeAlgebra(BasisAlgebra):
    """The same vertices with all basis morphisms formally reversed."""

    def __init__(self, base: BasisAlgebra):
        super().__init__(base.vertices)
        self.base = base
        self.spec = base.spec
        self.d = base.d
        self.orbit_modulus = base.orbit_modulus
        self._op = base

    def hom_basis(self, v, w) -> tuple[BasisElt, ...]:
        return tuple(b.flipped() for b in self.base.hom_basis(tuple(w), tuple(v)))

    def compose(self, f: BasisElt, g: BasisElt) -> BasisElt | None:
        if f.dst != g.src:
            raise ValueError(f"non-composable pair {f} , {g}")
        res = self.base.compose(g.flipped(), f.flipped())
        return None if res is None else res.flipped()

    def path_length(self, b: BasisElt) -> int:
        return self.base.path_length(b.flipped())

    def _arrow_list(self) -> tuple[Arrow, ...]:
        return tuple(sorted(Arrow(a.dst, a.direction, a.src, -a.shift) for a in self.base.arrows()))

    def __repr__(self) -> str:
        return f"Opposite({self.base!r})"


def build(spec: AlgebraSpec) -> PresentedAlgebra:
    """Construct the presented algebra of a validated spec."""
    alg = PresentedAlgebra(spec)
    if not alg.vertices:
        raise ValueError(f"spec {spec} produces an empty vertex set")
    return alg


def factor_into_arrows(alg, b: BasisElt) -> list[BasisElt]:
    """Factor a basis morphism into a composable chain of arrow morphisms."""
    cache = alg._factor_cache
    if b in cache:
        return cache[b]
    if b.src == b.dst and b.shift == 0:
        cache[b] = []
        return []
    for a in alg.arrows_from(b.src):
        if a.elt == b:
            cache[b] = [a.elt]
            return [a.elt]
        for g in alg.hom_basis(a.dst, b.dst):
            if g.shift == b.shift - a.shift and alg.compose(a.elt, g) == b:
                chain = [a.elt] + factor_into_arrows(alg, g)
                cache[b] = chain
                return chain
    raise ValueError(f"basis morphism {b} does not factor through any arrow")


# ---------------------------------------------------------------------- relations


def commutation_relations(alg) -> list[dict]:
    """Commutativity relation instances, with missing routes recording zero relations.

    Each record lists the routes (as arrow pairs) that exist in the quiver.
    Two routes mean an honest commutativity relation; a single route means
    the corresponding composite is a zero relation.
    """
    out = []
    for v in alg.vertices:
        from_v = {a.direction: a for a in alg.arrows_from(v)}
        for i in range(alg.d):
            for j in range(i + 1, alg.d):
                routes = []
                ai, aj = from_v.get(i), from_v.get(j)
                if ai is not None:
                    nxt = {a.direction: a for a in alg.arrows_from(ai.dst)}
                    if j in nxt:
                        routes.append((ai, nxt[j]))
                if aj is not None:
                    nxt = {a.direction: a for a in alg.arrows_from(aj.dst)}
                    if i in nxt:
                        routes.append((aj, nxt[i]))
                if routes:
                    out.append({"vertex": v, "i": i, "j": j, "routes": routes})
    return out


def minimal_zero_relations(alg) -> list[list[Arrow]]:
    """Monomial zero relations: arrow chains that vanish but whose proper tails survive.

    Together with the commutativity instances these present the algebra
    (checked against the basis predicate by the graded comparison in the
    test-suite for desk-size instances).
    """
    out = []
    for g in sorted(alg.all_basis()):
        if g.src == g.dst and g.shift == 0:
            continue
        chain = factor_into_arrows(alg, g)
        arrows_by_elt = {a.elt: a for a in alg.arrows()}
        for a in alg.arrows_from(g.dst):
            if alg.compose(g, a.elt) is not None:
                continue
            if len(chain) == 1:
                tail_ok = True
            else:
                tail = alg.hom_basis(chain[0].dst, g.dst)
                tail_elt = next(t for t in tail if alg.compose(chain[0], t) == g)
                tail_ok = alg.compose(tail_elt, a.elt) is not None
            if tail_ok:
                out.append([arrows_by_elt[e] for e in chain] + [a])
    return out


# ---------------------------------------------------------------------- exports


def export_dot(alg) -> str:
    lines = ["digraph quiver {"]
    for v in alg.vertices:
        lines.append(f'  "{label(v)}";')
    for a in alg.arrows():
        attr = f'label="a{a.direction + 1}"'
        if a.shift:
            attr += f', taillabel="{a.shift:+d}"'
        lines.append(f'  "{label(a.src)}" -> "{label(a.dst)}" [{attr}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _qpa_arrow_name(a: Arrow) -> str:
    core = "_".join(str(x).replace("-", "m") for x in a.src)
    name = f"a{a.direction + 1}_{core}"
    if a.shift:
        name += f"_s{str(a.shift).replace('-', 'm')}"
    return name


def export_qpa(alg) -> str:
    """A GAP/QPA script building the quiver and the relation ideal.

    QPA composes paths left to right, so a route (first, second) is emitted
    as ``first * second``.
    """
    idx = {v: i + 1 for i, v in enumerate(alg.vertices)}
    arrows = alg.arrows()
    arrow_specs = ", ".join(f'[{idx[a.src]},{idx[a.dst]},"{_qpa_arrow_name(a)}"]' for a in arrows)
    lines = [
        f"quiver := Quiver({len(alg.vertices)}, [{arrow_specs}]);",
        "kQ := PathAlgebra(Rationals, quiver);",
        "gens := GeneratorsOfAlgebra(kQ);",
    ]
    for k, a in enumerate(arrows):
        lines.append(f"{_qpa_arrow_name(a)} := gens[{len(alg.vertices) + k + 1}];")
    rels = []
    for rec in commutation_relations(alg):
        routes = rec["routes"]
        words = [f"{_qpa_arrow_name(r[0])}*{_qpa_arrow_name(r[1])}" for r in routes]
        rels.append(" - ".join(words) if len(words) == 2 else words[0])
    for chain in minimal_zero_relations(alg):
        if len(chain) == 2 and chain[0].direction != chain[1].direction:
            continue  # mixed length-2 zeros already arise from single-route records
        rels.append("*".join(_qpa_arrow_name(a) for a in chain))
    body = ",\n  ".join(rels) if rels else ""
    lines.append(f"relations := [\n  {body}\n];")
    lines.append("A := kQ/Ideal(kQ, relations);")
    return "\n".join(lines) + "\n"


def export_json(alg) -> str:
    payload = {
        "family": alg.spec.family,
        "params": alg.spec.describe(),
        "orbit_modulus": alg.orbit_modulus,
        "vertices": [list(v) for v in alg.vertices],
        "arrows": [
            {"source": list(a.src), "i": a.direction + 1, "target": list(a.dst), "shift": a.shift}
            for a in alg.arrows()
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def import_json(text: str) -> PresentedAlgebra:
    payload = json.loads(text)
    alg = build(AlgebraSpec.from_describe(payload["params"]))
    got = [list(v) for v in alg.vertices]
    if got != payload["vertices"]:
        raise ValueError("vertex set mismatch on import")
    return alg


# ---------------------------------------------------------------------- quivers with relations


class QArrow(NamedTuple):
    aid: int
    src: object
    dst: object


class QRelation(NamedTuple):
    src: object
    dst: object
    degree: int
    terms: tuple[tuple[Fraction, tuple[int, ...]], ...]  # (coefficient, arrow-id path)


class GradedCapExceeded(RuntimeError):
    pass


class QuiverWithRelations:
    """A quiver with homogeneous path relations, and its graded Hom dimensions.

    ``graded_hom_dims`` computes dim of every graded piece of the quotient of
    the path algebra by the two-sided ideal the relations generate, degree by
    degree: new relations enter only through their last two slots once lower
    degrees are fixed, so each step is a small exact cokernel.
    """

    def __init__(self, vertices: Iterable, arrows: list[QArrow], relations: list[QRelation]):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        self.relations = tuple(relations)
        self._into: dict[object, list[QArrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._into[a.dst].append(a)

    def graded_hom_dims(self, dim_cap: int = 64, deg_cap: int = 256) -> dict[tuple, dict[int, int]]:
        dims: dict[tuple, dict[int, int]] = {}
        for v in self.vertices:
            for (u, m), k in self._graded_from(v, dim_cap, deg_cap).items():
                if k:
                    dims.setdefault((v, u), {})[m] = k
        return dims

    def _graded_from(self, v, dim_cap: int, deg_cap: int) -> dict[tuple, int]:
        basis_dim: dict[object, int] = {u: 0 for u in self.vertices}
        basis_dim[v] = 1
        history: list[dict[object, int]] = [dict(basis_dim)]
        # mult[m][aid]: Mat sending degree-m classes at a.src to degree-(m+1) classes at a.dst
        mult: list[dict[int, Mat]] = []
        out: dict[tuple, int] = {(v, 0): 1}
        m = 0
        while True:
            cur = history[m]
            if all(x == 0 for x in cur.values()):
                break
            if m >= deg_cap:
                raise GradedCapExceeded(f"degree cap {deg_cap} exceeded from source {v}")
            step_mult: dict[int, Mat] = {}
            nxt: dict[object, int] = {u: 0 for u in self.vertices}
            for u in self.vertices:
                inc = [a for a in self._into[u] if cur[a.src] > 0]
                if not inc:
                    continue
                offsets: dict[int, int] = {}
                total = 0
                for a in inc:
                    offsets[a.aid] = total
                    total += cur[a.src]
                rel_cols: list[list[Fraction]] = []
                for rel in self.relations:
                    if rel.dst != u or rel.degree > m + 1:
                        continue
                    src_deg = m + 1 - rel.degree
                    src_dim = history[src_deg].get(rel.src, 0)
                    if src_dim == 0:
                        continue
                    for col in range(src_dim):
                        vecs: dict[object, list[Fraction]] = {}
                        acc = [Fraction(0)] * total
                        ok_any = False
                        for coeff, path in rel.terms:
                            vec = [Fraction(0)] * src_dim
                            vec[col] = Fraction(1)
                            cur_deg = src_deg
                            alive = True
                            for aid in path[:-1]:
                                mat = mult[cur_deg].get(aid)
                                if mat is None or mat.rows == 0:
                                    alive = False
                                    break
                                vec = [
                                    sum(mat.data[r][c] * vec[c] for c in range(mat.cols))
                                    for r in range(mat.rows)
                                ]
                                cur_deg += 1
                            if not alive or all(x == 0 for x in vec):
                                continue
                            last = path[-1]
                            if last not in offsets:
                                continue
                            base = offsets[last]
                            for r, x in enumerate(vec):
                                acc[base + r] += coeff * x
                            ok_any = True
                        if ok_any and any(x != 0 for x in acc):
                            rel_cols.append(acc)
                if rel_cols:
                    smat = Mat([list(row) for row in zip(*rel_cols)], total, len(rel_cols))
                    proj = cokernel_projection(smat)
                else:
                    proj = Mat.identity(total)
                new_dim = proj.rows
                if new_dim > dim_cap:
                    raise GradedCapExceeded(f"dimension cap {dim_cap} exceeded at {(v, u)}")
                nxt[u] = new_dim
                if new_dim:
                    out[(u, m + 1)] = out.get((u, m + 1), 0) + new_dim
                for a in inc:
                    off = offsets[a.aid]
                    block = Mat(
                        [row[off : off + cur[a.src]] for row in proj.data], proj.rows, cur[a.src]
                    )
                    step_mult[a.aid] = block
            mult.append(step_mult)
            history.append(nxt)
            m += 1
        return out


def presentation_quiver(alg) -> QuiverWithRelations:
    """The algebra's quiver together with its emitted relations.

    Matching this quotient's graded dimensions against the basis predicate
    certifies that the exported relation list presents the algebra.
    """
    arrows = []
    aid_of: dict[BasisElt, int] = {}
    for a in alg.arrows():
        qa = QArrow(len(arrows), a.src, a.dst)
        aid_of[a.elt] = qa.aid
        arrows.append(qa)
    relations: list[QRelation] = []
    for rec in commutation_relations(alg):
        terms = []
        sign = Fraction(1)
        for first, second in rec["routes"]:
            terms.append((sign, (aid_of[first.elt], aid_of[second.elt])))
            sign = -sign
        end = rec["routes"][0][1]
        relations.append(QRelation(rec["vertex"], end.dst, 2, tuple(terms)))
    for chain in minimal_zero_relations(alg):
        if len(chain) == 2 and chain[0].direction != chain[1].direction:
            continue  # covered by single-route commutation records
        path = tuple(aid_of[a.elt] for a in chain)
        relations.append(QRelation(chain[0].src, chain[-1].dst, len(chain), ((Fraction(1), path),)))
    return QuiverWithRelations(alg.vertices, arrows, relations)


# ---------------------------------------------------------------------- mesh presentation

MeshVertex = tuple[IntTuple, int]  # (slope tuple of length d, slice)


@dataclass
class MeshPresentation:
    """The slice-and-connecting-arrow presentation on slope coordinates.

    Vertices are pairs (p, s) with p a weakly increasing nonnegative slope
    tuple of length d and s the slice index; they correspond to the
    (d+1)-tuples of the standard presentation via ``mesh_from_coordinates``
    and back via ``mesh_coordinates``.
    Arrows: b_1..b_d move within a slice (p -> p + e_i), the connecting
    arrow b_0 drops all slopes by one and advances the slice, and exists
    exactly when p_1 > 0.  Relations: slice commutators and the mixed
    commutators exchanging b_0 with each b_j, both with the usual zero
    conventions at missing arrows.
    """

    d: int
    bound: int | None
    window: tuple[int, int]
    vertices: tuple[MeshVertex, ...]
    quiver: QuiverWithRelations
    arrow_index: dict[tuple[MeshVertex, int], QArrow]

    def to_standard(self, v: MeshVertex) -> IntTuple:
        return mesh_from_coordinates(v[0], v[1])

    def standard_spec(self) -> AlgebraSpec:
        a, b = self.window
        if self.bound is None:
            return AlgebraSpec.window_spec(a, b, self.d + 1)
        return AlgebraSpec.zl_window(self.bound, a, b, self.d + 1)


def mesh_presentation(d: int, bound: int | None, window: tuple[int, int]) -> MeshPresentation:
    if d < 1:
        raise ValueError("d must be >= 1")
    a, b = window
    if a > b:
        raise ValueError("empty window")
    if bound is not None and bound < 2:
        raise ValueError("bound must be >= 2 when given")
    std_spec = (
        AlgebraSpec.window_spec(a, b, d + 1)
        if bound is None
        else AlgebraSpec.zl_window(bound, a, b, d + 1)
    )
    std = build(std_spec)
    vertices = tuple(sorted(mesh_coordinates(lam) for lam in std.vertices))
    vset = set(vertices)

    arrows: list[QArrow] = []
    arrow_index: dict[tuple[MeshVertex, int], QArrow] = {}

    def add_arrow(src: MeshVertex, direction: int, dst: MeshVertex) -> None:
        qa = QArrow(len(arrows), src, dst)
        arrows.append(qa)
        arrow_index[(src, direction)] = qa

    for p, s in vertices:
        for i in range(1, d + 1):
            q = p[: i - 1] + (p[i - 1] + 1,) + p[i:]
            if is_os(q) and (q, s) in vset:
                add_arrow((p, s), i, (q, s))
        if p[0] > 0:
            q = tuple(x - 1 for x in p)
            if (q, s + 1) in vset:
                add_arrow((p, s), 0, (q, s + 1))

    def route(src: MeshVertex, first: int, second: int) -> tuple[int, ...] | None:
        a1 = arrow_index.get((src, first))
        if a1 is None:
            return None
        a2 = arrow_index.get((a1.dst, second))
        if a2 is None:
            return None
        return (a1.aid, a2.aid)

    relations: list[QRelation] = []

    def add_relation(src: MeshVertex, r1: tuple[int, ...] | None, r2: tuple[int, ...] | None) -> None:
        terms = []
        if r1 is not None:
            terms.append((Fraction(1), r1))
        if r2 is not None:
            terms.append((Fraction(-1), r2))
        if not terms:
            return
        end_arrow = arrows[terms[0][1][-1]]
        relations.append(QRelation(src, end_arrow.dst, 2, tuple(terms)))

    for v in vertices:
        for i in range(1, d + 1):
            for j in range(i + 1, d + 1):
                add_relation(v, route(v, i, j), route(v, j, i))
        for j in range(1, d + 1):
            add_relation(v, route(v, 0, j), route(v, j, 0))

    quiver = QuiverWithRelations(vertices, arrows, relations)
    return MeshPresentation(d, bound, window, vertices, quiver, arrow_index)
