"""Matrix representations over a presented algebra and the homological toolkit.

Right-module convention.  A module assigns to every vertex a rational vector
space and to every arrow a: v -> w a matrix of shape dim(v) x dim(w) acting
from the space at w to the space at v; the action of a longer basis morphism
is the ordered product of its arrow matrices.  All linear algebra is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebras import AlgebraSpec, Arrow, BasisAlgebra, BasisElt, build, factor_into_arrows
from .combinat import IntTuple, box_interval, loewy_len, translate_tuple
from .linalg import Mat, cokernel_projection, column_space_completion, hstack


class CapExceeded(RuntimeError):
    """A resolution or dimension computation exceeded its step cap."""


class MatrixModule:
    def __init__(self, alg, dims: dict[IntTuple, int], mats: dict[BasisElt, Mat]):
        self.alg = alg
        self.dims = {v: dims.get(v, 0) for v in alg.vertices}
        self.mats = mats
        self._act_cache: dict[BasisElt, Mat] = {}

    def dim(self, v) -> int:
        return self.dims.get(tuple(v), 0)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def mat(self, arrow_elt: BasisElt) -> Mat:
        m = self.mats.get(arrow_elt)
        if m is None:
            return Mat.zeros(self.dim(arrow_elt.src), self.dim(arrow_elt.dst))
        return m

    def act(self, b: BasisElt) -> Mat:
        """Matrix of the basis morphism b, acting from the space at b.dst to b.src."""
        cached = self._act_cache.get(b)
        if cached is not None:
            return cached
        if b.src == b.dst and b.shift == 0:
            out = Mat.identity(self.dim(b.src))
        else:
            chain = factor_into_arrows(self.alg, b)
            out = self.mat(chain[0])
            cur = chain[0]
            for nxt in chain[1:]:
                out = out * self.mat(nxt)
                cur = self.alg.compose(cur, nxt)
                if cur is None:  # pragma: no cover - factorization is a real path
                    raise AssertionError("factorization collapsed")
        self._act_cache[b] = out
        return out

    def validate(self) -> None:
        """Check functoriality against every composable pair of basis morphisms."""
        basis = self.alg.all_basis()
        by_src: dict[IntTuple, list[BasisElt]] = {}
        for b in basis:
            by_src.setdefault(b.src, []).append(b)
        for f in basis:
            lf = self.act(f)
            for g in by_src.get(f.dst, ()):
                prod = lf * self.act(g)
                comp = self.alg.compose(f, g)
                expected = self.act(comp) if comp is not None else Mat.zeros(prod.rows, prod.cols)
                if prod != expected:
                    raise ValueError(f"module violates composition at {f} then {g}")

    def to_json(self) -> dict:
        dims = {self.alg.vertex_label(v): k for v, k in self.dims.items() if k}
        arrows = {}
        for a in self.alg.arrows():
            m = self.mat(a.elt)
            if m.rows and m.cols and not m.is_zero():
                arrows[a.name()] = [[str(x) for x in row] for row in m.data]
        return {"dims": dims, "arrows": arrows}

    def __repr__(self) -> str:
        return f"MatrixModule(dim={self.total_dim})"


def zero_module(alg) -> MatrixModule:
    return MatrixModule(alg, {}, {})


def direct_sum_modules(mods: Sequence[MatrixModule]) -> MatrixModule:
    if not mods:
        raise ValueError("empty direct sum needs an algebra")
    alg = mods[0].alg
    from .linalg import block_diag

    dims = {v: sum(m.dim(v) for m in mods) for v in alg.vertices}
    mats = {}
    for a in alg.arrows():
        mats[a.elt] = block_diag([m.mat(a.elt) for m in mods])
    return MatrixModule(alg, dims, mats)


def simple_module(alg, v) -> MatrixModule:
    v = alg.require_vertex(v)
    return MatrixModule(alg, {v: 1}, {})


def interval_module(alg, lam: Sequence[int]) -> MatrixModule:
    """The module supported on the box between the leading and trailing faces of lam.

    All structure maps are identities on the overlap.  For orbit algebras
    this is the pushdown of the covering interval module: the fiber at a
    vertex is spanned by the box points in its orbit, and an arrow with
    shift tag k matches fiber points whose ambient shifts differ by k.
    """
    lam = tuple(lam)
    support = alg.interval_support(lam)
    if not support:
        raise ValueError(f"interval {lam} has empty support in this algebra")
    dims = {v: len(shifts) for v, shifts in support.items()}
    pos = {v: {s: i for i, s in enumerate(shifts)} for v, shifts in support.items()}
    mats: dict[BasisElt, Mat] = {}
    for a in alg.arrows():
        sv, tv = a.src, a.dst
        if sv not in support or tv not in support:
            continue
        m = Mat.zeros(dims[sv], dims[tv])
        for s_shift, row in pos[sv].items():
            col = pos[tv].get(s_shift + a.shift)
            if col is not None:
                m.data[row][col] = Fraction(1)
        mats[a.elt] = m
    return MatrixModule(alg, dims, mats)


def projective_module(alg: BasisAlgebra, v) -> MatrixModule:
    v = alg.require_vertex(v)
    if v not in alg._proj_cache:
        alg._proj_cache[v] = ProjSum(alg, (v,)).module
    return alg._proj_cache[v]


def injective_module(alg: BasisAlgebra, v) -> MatrixModule:
    v = alg.require_vertex(v)
    if v not in alg._inj_cache:
        alg._inj_cache[v] = InjSum(alg, (v,)).module
    return alg._inj_cache[v]


# ---------------------------------------------------------------------- sums of projectives / injectives


@dataclass
class ProjSum:
    """An ordered direct sum of indecomposable projectives with its basis bookkeeping."""

    alg: object
    summands: tuple[IntTuple, ...]

    def __post_init__(self):
        alg = self.alg
        self.basis_index: dict[IntTuple, list[tuple[int, BasisElt]]] = {}
        for w in alg.vertices:
            entries = []
            for s, u in enumerate(self.summands):
                for b in alg.hom_basis(w, u):
                    entries.append((s, b))
            self.basis_index[w] = entries
        dims = {w: len(es) for w, es in self.basis_index.items()}
        mats: dict[BasisElt, Mat] = {}
        for a in alg.arrows():
            m = Mat.zeros(dims[a.src], dims[a.dst])
            rows = {key: i for i, key in enumerate(self.basis_index[a.src])}
            col = 0
            for s, u in enumerate(self.summands):
                for b in alg.hom_basis(a.dst, u):
                    comp = alg.compose(a.elt, b)
                    if comp is not None:
                        m.data[rows[(s, comp)]][col] = Fraction(1)
                    col += 1
            mats[a.elt] = m
        self.module = MatrixModule(alg, dims, mats)

    def generator_position(self, s: int) -> int:
        u = self.summands[s]
        return self.basis_index[u].index((s, self.alg.identity(u)))


@dataclass
class InjSum:
    """An ordered direct sum of indecomposable injectives.

    It is the dual of the projective sum over the opposite algebra; the
    fiber at w has the dual basis of the morphisms c: u -> w, listed in
    ``basis_index[w]`` as (summand, c).
    """

    alg: object
    summands: tuple[IntTuple, ...]

    def __post_init__(self):
        P = ProjSum(self.alg.opposite(), self.summands)
        self.basis_index = {
            w: [(s, b.flipped()) for s, b in entries] for w, entries in P.basis_index.items()
        }
        self.module = dualize(P.module)


# ---------------------------------------------------------------------- module homomorphisms


@dataclass
class ModuleHom:
    src: MatrixModule
    dst: MatrixModule
    mats: dict[IntTuple, Mat]

    def mat(self, v) -> Mat:
        v = tuple(v)
        m = self.mats.get(v)
        if m is None:
            return Mat.zeros(self.dst.dim(v), self.src.dim(v))
        return m

    def then(self, nxt: "ModuleHom") -> "ModuleHom":
        mats = {v: nxt.mat(v) * self.mat(v) for v in self.src.alg.vertices}
        return ModuleHom(self.src, nxt.dst, mats)

    def scale(self, c) -> "ModuleHom":
        return ModuleHom(self.src, self.dst, {v: m.scale(c) for v, m in self.mats.items()})

    def add(self, other: "ModuleHom") -> "ModuleHom":
        mats = {v: self.mat(v) + other.mat(v) for v in self.src.alg.vertices}
        return ModuleHom(self.src, self.dst, mats)

    def is_zero(self) -> bool:
        return all(self.mat(v).is_zero() for v in self.src.alg.vertices)

    def is_mono(self) -> bool:
        return all(self.mat(v).rank() == self.src.dim(v) for v in self.src.alg.vertices)

    def is_epi(self) -> bool:
        return all(self.mat(v).rank() == self.dst.dim(v) for v in self.src.alg.vertices)

    def is_iso(self) -> bool:
        return all(
            self.src.dim(v) == self.dst.dim(v) and self.mat(v).rank() == self.src.dim(v)
            for v in self.src.alg.vertices
        )

    def image_dims(self) -> dict[IntTuple, int]:
        return {v: self.mat(v).rank() for v in self.src.alg.vertices if self.src.dim(v)}

    def flatten(self) -> list[Fraction]:
        out: list[Fraction] = []
        for v in self.src.alg.vertices:
            m = self.mat(v)
            for row in m.data:
                out.extend(row)
        return out

    def naturality_violation(self) -> BasisElt | None:
        for a in self.src.alg.arrows():
            lhs = self.mat(a.src) * self.src.mat(a.elt)
            rhs = self.dst.mat(a.elt) * self.mat(a.dst)
            if lhs != rhs:
                return a.elt
        return None


def hom_space(M: MatrixModule, N: MatrixModule) -> list[ModuleHom]:
    """A canonical basis of the space of module homomorphisms M -> N."""
    alg = M.alg
    offsets: dict[IntTuple, int] = {}
    total = 0
    for v in alg.vertices:
        if M.dim(v) and N.dim(v):
            offsets[v] = total
            total += N.dim(v) * M.dim(v)
    if total == 0:
        return []
    rows: list[list[Fraction]] = []
    for a in alg.arrows():
        v, w = a.src, a.dst
        dMv, dMw = M.dim(v), M.dim(w)
        dNv, dNw = N.dim(v), N.dim(w)
        if dNv == 0 or dMw == 0:
            continue
        Ma, Na = M.mat(a.elt), N.mat(a.elt)
        for i in range(dNv):
            for j in range(dMw):
                row = [Fraction(0)] * total
                if v in offsets:
                    base = offsets[v]
                    for k in range(dMv):
                        if Ma.data[k][j]:
                            row[base + i * dMv + k] += Ma.data[k][j]
                if w in offsets:
                    base = offsets[w]
                    for l in range(dNw):
                        if Na.data[i][l]:
                            row[base + l * dMw + j] -= Na.data[i][l]
                if any(x != 0 for x in row):
                    rows.append(row)
    if rows:
        kernel = Mat.from_rows(rows).kernel_basis()
    else:
        kernel = Mat.identity(total)
    out = []
    for c in range(kernel.cols):
        mats = {}
        for v, base in offsets.items():
            dMv, dNv = M.dim(v), N.dim(v)
            m = Mat.zeros(dNv, dMv)
            for i in range(dNv):
                for k in range(dMv):
                    m.data[i][k] = kernel.data[base + i * dMv + k][c]
            mats[v] = m
        out.append(ModuleHom(M, N, mats))
    return out


def kernel_of_hom(h: ModuleHom) -> tuple[MatrixModule, ModuleHom]:
    alg = h.src.alg
    bases = {v: h.mat(v).kernel_basis() for v in alg.vertices}
    dims = {v: bases[v].cols for v in alg.vertices}
    mats: dict[BasisElt, Mat] = {}
    for a in alg.arrows():
        v, w = a.src, a.dst
        if dims[v] == 0 and dims[w] == 0:
            continue
        rhs = h.src.mat(a.elt) * bases[w]
        sol = bases[v].solve(rhs)
        if sol is None:  # pragma: no cover - kernels are arrow-stable
            raise AssertionError("kernel is not arrow-stable")
        mats[a.elt] = sol
    K = MatrixModule(alg, dims, mats)
    incl = ModuleHom(K, h.src, {v: bases[v] for v in alg.vertices})
    return K, incl


def cokernel_of_hom(h: ModuleHom) -> tuple[MatrixModule, ModuleHom]:
    alg = h.src.alg
    projs = {v: cokernel_projection(h.mat(v)) for v in alg.vertices}
    dims = {v: projs[v].rows for v in alg.vertices}
    mats: dict[BasisElt, Mat] = {}
    for a in alg.arrows():
        v, w = a.src, a.dst
        if dims[v] == 0 and dims[w] == 0:
            continue
        rhs = (projs[v] * h.dst.mat(a.elt)).transpose()
        solT = projs[w].transpose().solve(rhs)
        if solT is None:  # pragma: no cover - images are arrow-stable
            raise AssertionError("image is not arrow-stable")
        mats[a.elt] = solT.transpose()
    C = MatrixModule(alg, dims, mats)
    proj = ModuleHom(h.dst, C, {v: projs[v] for v in alg.vertices})
    return C, proj


# ---------------------------------------------------------------------- radical, top, socle


def radical_spanning_columns(M: MatrixModule, v) -> Mat:
    cols = [M.mat(a.elt) for a in M.alg.arrows_from(v) if M.dim(a.dst)]
    cols = [m for m in cols if m.cols]
    if not cols:
        return Mat.zeros(M.dim(v), 0)
    return hstack(cols)

def _independent_columns(m: Mat) -> Mat:
    _, pivots = m.rref()
    if not pivots:
        return Mat.zeros(m.rows, 0)
    data = [[row[j] for j in pivots] for row in m.data]
    return Mat(data, m.rows, len(pivots))


def radical_module(M: MatrixModule) -> tuple[MatrixModule, ModuleHom]:
    alg = M.alg
    bases = {v: _independent_columns(radical_spanning_columns(M, v)) for v in alg.vertices}
    dims = {v: bases[v].cols for v in alg.vertices}
    mats: dict[BasisElt, Mat] = {}
    for a in alg.arrows():
        v, w = a.src, a.dst
        if dims[v] == 0 and dims[w] == 0:
            continue
        sol = bases[v].solve(M.mat(a.elt) * bases[w])
        if sol is None:  # pragma: no cover
            raise AssertionError("radical is not arrow-stable")
        mats[a.elt] = sol
    R = MatrixModule(alg, dims, mats)
    incl = ModuleHom(R, M, {v: bases[v] for v in alg.vertices})
    return R, incl


def top_dims(M: MatrixModule) -> dict[IntTuple, int]:
    out = {}
    for v in M.alg.vertices:
        dv = M.dim(v)
        if dv:
            out[v] = dv - radical_spanning_columns(M, v).rank()
    return {v: k for v, k in out.items() if k}


def socle_module(M: MatrixModule) -> tuple[MatrixModule, ModuleHom]:
    alg = M.alg
    bases = {}
    for v in alg.vertices:
        stacked = [M.mat(a.elt) for a in alg.arrows_into(v)]
        stacked = [m for m in stacked if m.rows]
        if not stacked:
            bases[v] = Mat.identity(M.dim(v))
        else:
            bases[v] = Mat.from_rows([row for m in stacked for row in m.data]).kernel_basis()
    dims = {v: bases[v].cols for v in alg.vertices}
    # the socle is killed by every arrow, so all induced actions vanish
    S = MatrixModule(alg, dims, {})
    incl = ModuleHom(S, M, {v: bases[v] for v in alg.vertices})
    return S, incl


def socle_dims(M: MatrixModule) -> dict[IntTuple, int]:
    S, _ = socle_module(M)
    return {v: k for v, k in S.dims.items() if k}


def loewy_length_module(M: MatrixModule) -> int:
    length = 0
    X = M
    while not X.is_zero():
        X, _ = radical_module(X)
        length += 1
        if length > M.total_dim:  # pragma: no cover
            raise AssertionError("radical filtration does not terminate")
    return length


# ---------------------------------------------------------------------- covers, envelopes


def projective_cover(M: MatrixModule) -> tuple[ProjSum, ModuleHom]:
    alg = M.alg
    gens: list[tuple[IntTuple, Mat]] = []
    for v in alg.vertices:
        if M.dim(v) == 0:
            continue
        rad = radical_spanning_columns(M, v)
        for j in column_space_completion(rad):
            e = Mat.zeros(M.dim(v), 1)
            e.data[j][0] = Fraction(1)
            gens.append((v, e))
    P = ProjSum(alg, tuple(v for v, _ in gens))
    mats = {}
    for w in alg.vertices:
        cols = []
        for s, (u, g) in enumerate(gens):
            for b in alg.hom_basis(w, u):
                cols.append((M.act(b) * g).column(0))
        m = Mat.zeros(M.dim(w), len(cols))
        for j, colv in enumerate(cols):
            for i, x in enumerate(colv):
                m.data[i][j] = x
        mats[w] = m
    h = ModuleHom(P.module, M, mats)
    return P, h


def is_projective(M: MatrixModule) -> bool:
    if M.is_zero():
        return True
    P, _ = projective_cover(M)
    return P.module.total_dim == M.total_dim


def is_injective(M: MatrixModule) -> bool:
    if M.is_zero():
        return True
    I, _ = injective_envelope(M)
    return I.module.total_dim == M.total_dim


def syzygy_module(M: MatrixModule) -> MatrixModule:
    if M.is_zero():
        return M
    _, h = projective_cover(M)
    K, _ = kernel_of_hom(h)
    return K


def injective_envelope(M: MatrixModule) -> tuple[InjSum, ModuleHom]:
    alg = M.alg
    S, s_incl = socle_module(M)
    picks: list[tuple[IntTuple, Mat]] = []  # (vertex, functional row on the space at v)
    for v in alg.vertices:
        k = S.dim(v)
        if k == 0:
            continue
        basis = s_incl.mat(v)  # dim(v) x k, full column rank
        lift = basis.transpose().solve(Mat.identity(k).transpose())
        if lift is None:  # pragma: no cover
            raise AssertionError("socle basis is not full rank")
        xi = lift.transpose()  # k x dim(v), xi * basis = identity
        for r in range(k):
            picks.append((v, Mat([xi.data[r][:]], 1, M.dim(v))))
    I = InjSum(alg, tuple(v for v, _ in picks))
    mats = {}
    for w in alg.vertices:
        rows_at_w = I.basis_index[w]
        m = Mat.zeros(len(rows_at_w), M.dim(w))
        for r, (s, c) in enumerate(rows_at_w):
            v, xi = picks[s]
            # component of the envelope at the dual basis vector of c: v -> w
            row = xi * M.act(c)
            m.data[r] = row.data[0][:]
        mats[w] = m
    h = ModuleHom(M, I.module, mats)
    return I, h


def cosyzygy_module(M: MatrixModule) -> MatrixModule:
    if M.is_zero():
        return M
    _, h = injective_envelope(M)
    C, _ = cokernel_of_hom(h)
    return C


# ---------------------------------------------------------------------- resolutions


@dataclass
class AlgMat:
    """A matrix over the algebra presenting a map between sums of projectives."""

    src: ProjSum
    dst: ProjSum
    entries: dict[tuple[int, int], list[tuple[Fraction, BasisElt]]]  # (dst summand, src summand)


def hom_to_alg_mat(h: ModuleHom, src: ProjSum, dst: ProjSum) -> AlgMat:
    entries: dict[tuple[int, int], list[tuple[Fraction, BasisElt]]] = {}
    for s, u in enumerate(src.summands):
        gen = src.generator_position(s)
        col = h.mat(u).column(gen)
        for i, coeff in enumerate(col):
            if coeff:
                t, b = dst.basis_index[u][i]
                entries.setdefault((t, s), []).append((coeff, b))
    return AlgMat(src, dst, entries)


def alg_mat_to_hom(am: AlgMat) -> ModuleHom:
    alg = am.src.alg
    mats = {}
    for w in alg.vertices:
        src_cols = am.src.basis_index[w]
        dst_rows = {key: i for i, key in enumerate(am.dst.basis_index[w])}
        m = Mat.zeros(len(dst_rows), len(src_cols))
        for j, (s, b) in enumerate(src_cols):
            for (t, s2), terms in am.entries.items():
                if s2 != s:
                    continue
                for coeff, e in terms:
                    r = alg.compose(b, e)
                    if r is not None:
                        m.data[dst_rows[(t, r)]][j] += coeff
        mats[w] = m
    return ModuleHom(am.src.module, am.dst.module, mats)


@dataclass
class ProjResolution:
    base: MatrixModule
    terms: list[ProjSum]
    augmentation: ModuleHom
    diffs: list[AlgMat]  # diffs[j]: terms[j+1] -> terms[j]
    diff_homs: list[ModuleHom]
    syzygy_incls: list[ModuleHom]  # syzygy_incls[j]: syzygy j+1 -> terms[j].module
    complete: bool

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def syzygy(self, k: int) -> MatrixModule:
        if k == 0:
            return self.base
        if k <= len(self.syzygy_incls):
            return self.syzygy_incls[k - 1].src
        if self.complete:
            return zero_module(self.base.alg)
        raise CapExceeded(f"resolution cap reached before syzygy {k}")

    def term_vertices(self, j: int) -> tuple[IntTuple, ...]:
        return self.terms[j].summands if j < len(self.terms) else ()


def min_proj_resolution(M: MatrixModule, cap: int) -> ProjResolution:
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if M.is_zero():
        empty = ProjSum(M.alg, ())
        return ProjResolution(M, [empty], ModuleHom(empty.module, M, {}), [], [], [], True)
    terms: list[ProjSum] = []
    diffs: list[AlgMat] = []
    diff_homs: list[ModuleHom] = []
    syz_incls: list[ModuleHom] = []
    augmentation = None
    K = M
    incl_prev: ModuleHom | None = None
    for step in range(cap + 1):
        P, h = projective_cover(K)
        terms.append(P)
        if incl_prev is None:
            augmentation = h
        else:
            dh = h.then(incl_prev)
            diff_homs.append(dh)
            diffs.append(hom_to_alg_mat(dh, P, terms[-2]))
        K_next, incl = kernel_of_hom(h)
        syz_incls.append(incl)
        if K_next.is_zero():
            return ProjResolution(M, terms, augmentation, diffs, diff_homs, syz_incls, True)
        K = K_next
        incl_prev = incl
    return ProjResolution(M, terms, augmentation, diffs, diff_homs, syz_incls, False)


@dataclass
class InjCoresolution:
    base: MatrixModule
    terms: list[InjSum]
    cosyzygies: list[MatrixModule]
    complete: bool

    @property
    def length(self) -> int:
        return len(self.terms) - 1


def min_inj_coresolution(M: MatrixModule, cap: int) -> InjCoresolution:
    if M.is_zero():
        return InjCoresolution(M, [InjSum(M.alg, ())], [], True)
    terms: list[InjSum] = []
    cosyz: list[MatrixModule] = []
    X = M
    for step in range(cap + 1):
        I, h = injective_envelope(X)
        terms.append(I)
        C, _ = cokernel_of_hom(h)
        cosyz.append(C)
        if C.is_zero():
            return InjCoresolution(M, terms, cosyz, True)
        X = C
    return InjCoresolution(M, terms, cosyz, False)


def default_cap(alg) -> int:
    import os

    env = os.environ.get("HINAK_CAP")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"HINAK_CAP must be an integer, got {env!r}") from None
    return 2 * (alg.d + 1)


def ext_dim(M: MatrixModule, N: MatrixModule, degree: int, cap: int | None = None) -> int:
    """dim Ext^degree(M, N) via a minimal projective resolution of M."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return len(hom_space(M, N))
    alg = M.alg
    if cap is None:
        cap = max(default_cap(alg), degree + 1)
    res = min_proj_resolution(M, cap)
    if not res.complete and len(res.terms) < degree + 2:
        raise CapExceeded(f"resolution cap {cap} insufficient for Ext^{degree}")
    return ext_dim_from_resolution(res, N, degree)


def ext_dim_from_resolution(res: ProjResolution, N: MatrixModule, degree: int) -> int:
    if not res.complete and len(res.terms) < degree + 2:
        raise CapExceeded(f"resolution too short for Ext^{degree}")

    def hom_complex_dim(j: int) -> int:
        return sum(N.dim(u) for u in res.term_vertices(j))

    def delta(j: int) -> Mat:
        # induced map Hom(P^j, N) -> Hom(P^{j+1}, N)
        rows_dim = hom_complex_dim(j + 1)
        cols_dim = hom_complex_dim(j)
        m = Mat.zeros(rows_dim, cols_dim)
        if j + 1 >= len(res.terms) or j >= len(res.terms):
            return m
        am = res.diffs[j]
        src_off = []
        acc = 0
        for u in res.term_vertices(j + 1):
            src_off.append(acc)
            acc += N.dim(u)
        dst_off = []
        acc = 0
        for u in res.term_vertices(j):
            dst_off.append(acc)
            acc += N.dim(u)
        for (t, s), terms in am.entries.items():
            # am: P^{j+1} -> P^j, summand s of P^{j+1} hits summand t of P^j
            for coeff, b in terms:
                act = N.act(b)  # N at dst(t-summand vertex) -> N at src vertex of b
                for r in range(act.rows):
                    for c in range(act.cols):
                        if act.data[r][c]:
                            m.data[src_off[s] + r][dst_off[t] + c] += coeff * act.data[r][c]
        return m
    d_i = delta(degree)
    d_prev = delta(degree - 1)
    ker = d_i.cols - d_i.rank() if d_i.cols else 0
    im = d_prev.rank()
    return ker - im


def proj_dimension(M: MatrixModule, cap: int) -> int | None:
    """Projective dimension, or None when it exceeds the cap."""
    if M.is_zero():
        return 0
    res = min_proj_resolution(M, cap)
    if res.complete:
        return res.length
    return None


def gldim(alg, cap: int) -> int | None:
    """Global dimension as the max projective dimension of the simples; None beyond cap."""
    worst = 0
    for v in alg.vertices:
        pd = proj_dimension(simple_module(alg, v), cap)
        if pd is None:
            return None
        worst = max(worst, pd)
    return worst


def domdim(alg, cap: int) -> tuple[int, bool]:
    """Dominant dimension of the algebra: leading projective terms of the coresolution of A.

    Returns (k, exact); exact=False means the dominant dimension is at least
    k.  A coresolution that terminates with every term projective forces an
    unbounded dominant dimension, reported as (cap + 1, False).
    """
    P = ProjSum(alg, tuple(alg.vertices))
    cores = min_inj_coresolution(P.module, cap)
    count = 0
    for I in cores.terms:
        if is_projective(I.module):
            count += 1
        else:
            return count, True
    if cores.complete:
        return cap + 1, False
    return count, False


# ---------------------------------------------------------------------- duality, transpose, translates


def dualize(M: MatrixModule) -> MatrixModule:
    """The linear dual as a module over the opposite algebra."""
    op = M.alg.opposite()
    dims = dict(M.dims)
    mats: dict[BasisElt, Mat] = {}
    for a in op.arrows():
        mats[a.elt] = M.mat(a.elt.flipped()).transpose()
    return MatrixModule(op, dims, mats)


def transpose_module(M: MatrixModule) -> MatrixModule:
    """Auslander-Bridger transpose, a module over the opposite algebra."""
    alg = M.alg
    op = alg.opposite()
    if M.is_zero():
        return zero_module(op)
    res = min_proj_resolution(M, 1)
    if len(res.terms) == 1:
        return zero_module(op)
    am = res.diffs[0]  # P^1 -> P^0
    src_op = ProjSum(op, am.dst.summands)  # dual of P^0
    dst_op = ProjSum(op, am.src.summands)  # dual of P^1
    entries: dict[tuple[int, int], list[tuple[Fraction, BasisElt]]] = {}
    for (t, s), terms in am.entries.items():
        entries.setdefault((s, t), []).extend((coeff, b.flipped()) for coeff, b in terms)
    h = alg_mat_to_hom(AlgMat(src_op, dst_op, entries))
    C, _ = cokernel_of_hom(h)
    return C


def ar_translate(M: MatrixModule) -> MatrixModule:
    """Classical translate: dual of the transpose; zero on projectives."""
    return dualize(transpose_module(M))


def tau_d(M: MatrixModule, d: int) -> MatrixModule:
    """Higher translate: classical translate of the (d-1)-fold syzygy."""
    if d < 1:
        raise ValueError("d must be >= 1")
    X = M
    for _ in range(d - 1):
        X = syzygy_module(X)
        if X.is_zero():
            return zero_module(M.alg)
    return ar_translate(X)


def tau_d_inverse(M: MatrixModule, d: int) -> MatrixModule:
    if d < 1:
        raise ValueError("d must be >= 1")
    X = dualize(M)
    for _ in range(d - 1):
        X = syzygy_module(X)
        if X.is_zero():
            return zero_module(M.alg)
    return transpose_module(X)


def nakayama_functor(alg, M: MatrixModule) -> MatrixModule:
    """Send a projective module to the matching injective, additively."""
    if M.is_zero():
        return M
    if not is_projective(M):
        raise ValueError("input to the Nakayama functor must be projective")
    mult = top_dims(M)
    summands = tuple(v for v in sorted(mult) for _ in range(mult[v]))
    return InjSum(alg, summands).module


def nakayama_hom(am: AlgMat) -> ModuleHom:
    """Image of a map between sums of projectives under the Nakayama functor."""
    alg = am.src.alg
    src = InjSum(alg, am.src.summands)
    dst = InjSum(alg, am.dst.summands)
    mats = {}
    for w in alg.vertices:
        cols = src.basis_index[w]
        rows = {key: i for i, key in enumerate(dst.basis_index[w])}
        m = Mat.zeros(len(rows), len(cols))
        for j, (s, c) in enumerate(cols):
            for (t, s2), terms in am.entries.items():
                if s2 != s:
                    continue
                for coeff, b in terms:
                    for f in alg.hom_basis(am.dst.summands[t], w):
                        if alg.compose(b, f) == c:
                            m.data[rows[(t, f)]][j] += coeff
        mats[w] = m
    return ModuleHom(src.module, dst.module, mats)


# ---------------------------------------------------------------------- iso testing and stable Hom


def modules_isomorphic(M: MatrixModule, N: MatrixModule, combo_limit: int = 4) -> bool | None:
    """True / False on a definite answer; None when undetermined.

    Dimension vectors decide the negative direction.  The positive search
    scans single basis homomorphisms, then small integer combinations.
    """
    if any(M.dim(v) != N.dim(v) for v in M.alg.vertices):
        return False
    if M.is_zero():
        return True
    homs = hom_space(M, N)
    for h in homs:
        if h.is_iso():
            return True
    if 2 <= len(homs) <= combo_limit:
        for coeffs in itertools.product(range(-2, 3), repeat=len(homs)):
            if all(c == 0 for c in coeffs):
                continue
            combo = homs[0].scale(coeffs[0])
            for c, h in zip(coeffs[1:], homs[1:]):
                if c:
                    combo = combo.add(h.scale(c))
            if combo.is_iso():
                return True
    return None


def hom_span_rank(maps: Sequence[ModuleHom]) -> int:
    """Dimension of the span of homomorphisms, such as those factoring through a cover or envelope."""
    rows = [v for v in (h.flatten() for h in maps) if any(x != 0 for x in v)]
    return Mat.from_rows(rows).rank() if rows else 0


def stable_hom_dim(M: MatrixModule, N: MatrixModule) -> int:
    """dim Hom(M, N) minus the maps factoring through a projective."""
    homs = hom_space(M, N)
    if not homs:
        return 0
    P, pi = projective_cover(N)
    return len(homs) - hom_span_rank([g.then(pi) for g in hom_space(M, P.module)])


def costable_hom_dim(M: MatrixModule, N: MatrixModule) -> int:
    """dim Hom(M, N) minus the maps factoring through an injective."""
    homs = hom_space(M, N)
    if not homs:
        return 0
    I, iota = injective_envelope(M)
    return len(homs) - hom_span_rank([iota.then(g) for g in hom_space(I.module, N)])


# ---------------------------------------------------------------------- interval-specific helpers


def image_interval(lam: Sequence[int], mu: Sequence[int]) -> tuple[IntTuple, IntTuple]:
    """Support box of the image of the basis map between interval modules."""
    from .combinat import interlaces as _il

    lam, mu = tuple(lam), tuple(mu)
    if not _il(lam, mu):
        raise ValueError(f"{lam} does not interlace {mu}")
    return tuple(mu[:-1]), tuple(lam[1:])


def d_almost_split_summands(alg, lam: Sequence[int]) -> list[IntTuple]:
    """Total summand multiset of the almost split sequence ending at the interval at lam."""
    lam = tuple(lam)
    if not alg.is_summand(lam):
        raise ValueError(f"{lam} does not index a summand")
    if is_projective(interval_module(alg, lam)):
        raise ValueError(f"interval at {lam} is projective")
    lo = translate_tuple(lam, 1)
    out = []
    for t in box_interval(lo, lam):
        rep, _ = alg.canonical(t)
        if alg.is_summand(rep):
            out.append(rep)
    return sorted(out)


def orbit_hom_dim(alg, lam: Sequence[int], mu: Sequence[int]) -> int:
    """Closed-form Hom dimension between pushed-down intervals: the shift count."""
    if alg.orbit_modulus is None:
        raise ValueError("orbit_hom_dim needs an orbit algebra")
    return alg.module_hom_formula(lam, mu)


def orbit_ext_dim(
    spec: AlgebraSpec, lam: Sequence[int], mu: Sequence[int], degree: int, trunc: int | None = None
) -> tuple[int, bool]:
    """Ext between pushed-down intervals; tube truncations are re-checked one level up.

    Returns (dimension, stabilized).  For the finite orbit families the
    computation is direct and always flagged stable.  For truncated tubes the
    value is recomputed at truncation trunc + d + 1 and flagged accordingly.
    """
    spec.validate()
    if not spec.is_orbit:
        raise ValueError("orbit_ext_dim needs an orbit family")
    lam, mu = tuple(lam), tuple(mu)
    if not spec.row.truncated:
        alg = build(spec)
        val = ext_dim(interval_module(alg, lam), interval_module(alg, mu), degree)
        return val, True
    base_trunc = trunc if trunc is not None else spec.bound
    if max(loewy_len(lam), loewy_len(mu)) > base_trunc:
        raise ValueError("modules exceed the truncation level")
    vals = []
    for level in (base_trunc, base_trunc + spec.d + 1):
        alg = build(AlgebraSpec.tube_trunc(spec.n, spec.d, level))
        vals.append(ext_dim(interval_module(alg, lam), interval_module(alg, mu), degree))
    return vals[0], vals[0] == vals[1]


# ---------------------------------------------------------------------- derived endomorphism algebras


class StructureConstantError(RuntimeError):
    """Composition of normalized basis homs produced a coefficient outside {0, 1}."""


class DerivedAlgebra(BasisAlgebra):
    """The endomorphism category of a family of interval modules, built from scratch.

    Hom spaces are computed by exact linear algebra, normalized so that the
    first nonzero matrix entry of each basis hom is 1, and composition is
    tabulated.  The result satisfies the same contract as a presented
    algebra (0/1-dimensional Hom spaces with monomial composition), so the
    whole homological toolkit applies to it.
    """

    def __init__(self, base_alg, lams: Sequence[IntTuple]):
        super().__init__(sorted(tuple(t) for t in lams))
        if len(self._vset) != len(self.vertices):
            raise ValueError("duplicate summand labels")
        self.base_alg = base_alg
        self.d = len(self.vertices[0])
        mods = {t: interval_module(base_alg, t) for t in self.vertices}
        self.modules = mods
        self._reps: dict[tuple[IntTuple, IntTuple], ModuleHom] = {}
        for a in self.vertices:
            for b in self.vertices:
                homs = hom_space(mods[a], mods[b])
                if len(homs) > 1:
                    raise StructureConstantError(f"Hom({a},{b}) has dimension {len(homs)} > 1")
                if homs:
                    self._reps[(a, b)] = _normalize_hom(homs[0])
        self._comp: dict[tuple[IntTuple, IntTuple, IntTuple], BasisElt | None] = {}
        for (a, b), f in self._reps.items():
            for c in self.vertices:
                g = self._reps.get((b, c))
                if g is None:
                    continue
                composite = f.then(g)
                if composite.is_zero():
                    self._comp[(a, b, c)] = None
                    continue
                rep = self._reps.get((a, c))
                if rep is None:
                    raise StructureConstantError(f"nonzero composite outside Hom({a},{c})")
                coeff = _proportionality(composite, rep)
                if coeff != 1:
                    raise StructureConstantError(f"structure constant {coeff} at ({a},{b},{c})")
                self._comp[(a, b, c)] = BasisElt(a, c, 0)

    def hom_basis(self, v, w) -> tuple[BasisElt, ...]:
        v, w = tuple(v), tuple(w)
        if v == w:
            return (BasisElt(v, v, 0),)
        return (BasisElt(v, w, 0),) if (v, w) in self._reps else ()

    def compose(self, f: BasisElt, g: BasisElt) -> BasisElt | None:
        if f.dst != g.src:
            raise ValueError("non-composable pair")
        if f.src == f.dst:
            return g
        if g.src == g.dst:
            return f
        return self._comp.get((f.src, f.dst, g.dst))

    def _arrow_list(self) -> tuple[Arrow, ...]:
        found = []
        for (a, b) in sorted(self._reps):
            if a == b:
                continue
            factors = any(
                (a, u) in self._reps
                and (u, b) in self._reps
                and self._comp.get((a, u, b)) is not None
                for u in self.vertices
                if u != a and u != b
            )
            if not factors:
                found.append(Arrow(a, 0, b, 0))
        return tuple(found)

    def __repr__(self) -> str:
        return f"DerivedAlgebra({len(self.vertices)} summands)"


def _normalize_hom(h: ModuleHom) -> ModuleHom:
    for x in h.flatten():
        if x != 0:
            return h.scale(Fraction(1) / x)
    raise ValueError("zero hom cannot be normalized")


def _proportionality(h: ModuleHom, rep: ModuleHom) -> Fraction:
    flat_h, flat_rep = h.flatten(), rep.flatten()
    coeff = None
    for a, b in zip(flat_h, flat_rep):
        if b == 0:
            if a != 0:
                raise StructureConstantError("composite not proportional to the basis hom")
            continue
        c = a / b
        if coeff is None:
            coeff = c
        elif coeff != c:
            raise StructureConstantError("composite not proportional to the basis hom")
    return coeff if coeff is not None else Fraction(0)


def endo_algebra(alg, lams: Sequence[IntTuple] | None = None) -> DerivedAlgebra:
    """Endomorphism category of the distinguished module, from brute-force Hom spaces."""
    if lams is None:
        lams = alg.summands()
    return DerivedAlgebra(alg, lams)
