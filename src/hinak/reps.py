"""Matrix representations over a presented algebra and the homological toolkit.

Right-module convention.  A module assigns to every vertex a rational vector
space and to every arrow a: v -> w a matrix of shape dim(v) x dim(w) acting
from the space at w to the space at v; the action of a longer basis morphism
is the ordered product of its arrow matrices.  All linear algebra is exact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .algebras import Arrow, BasisAlgebra, BasisElt, CapExceeded, factor_into_arrows
from .combinat import IntTuple
from .linalg import Mat, _div, column_space_completion, hstack


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
                m.data[row][col] = 1
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
        alg._inj_cache[v] = dualize(ProjSum(alg.opposite(), (v,)).module)
    return alg._inj_cache[v]


# ---------------------------------------------------------------------- sums of projectives


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
            if not (dims[a.src] and dims[a.dst]):
                continue
            e = a.elt
            m = Mat.zeros(dims[a.src], dims[a.dst])
            rows = {key: i for i, key in enumerate(self.basis_index[a.src])}
            for col, (s, b) in enumerate(self.basis_index[a.dst]):
                comp = alg.compose(e, b)
                if comp is not None:
                    m.data[rows[(s, comp)]][col] = 1
            mats[e] = m
        self.module = MatrixModule(alg, dims, mats)

    def generator_position(self, s: int) -> int:
        u = self.summands[s]
        return self.basis_index[u].index((s, self.alg.identity(u)))


# ---------------------------------------------------------------------- module homomorphisms


@dataclass
class ModuleHom:
    """A module homomorphism src -> dst: a dst(v) x src(v) matrix at each vertex v.

    ``mats`` holds a block only where both modules are non-zero; a missing
    vertex means the zero block, which ``mat`` builds on demand.
    """

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
        later = nxt.mats
        mats = {v: later[v] * m for v, m in self.mats.items() if v in later}
        return ModuleHom(self.src, nxt.dst, mats)

    def scale(self, c) -> "ModuleHom":
        return ModuleHom(self.src, self.dst, {v: m.scale(c) for v, m in self.mats.items()})

    def add(self, other: "ModuleHom") -> "ModuleHom":
        mats = dict(self.mats)
        for v, m in other.mats.items():
            mats[v] = mats[v] + m if v in mats else m
        return ModuleHom(self.src, self.dst, mats)

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats.values())

    def is_iso(self) -> bool:
        return all(
            self.src.dim(v) == self.dst.dim(v) and self.mat(v).rank() == self.src.dim(v)
            for v in self.src.alg.vertices
        )

    def flatten(self) -> list[int | Fraction]:
        """The blocks in vertex order, row by row, with the zeros of missing blocks written out."""
        out: list[int | Fraction] = []
        src, dst = self.src.dims, self.dst.dims
        for v in self.src.alg.vertices:
            m = self.mats.get(v)
            if m is None:
                out.extend([0] * (dst[v] * src[v]))
            else:
                for row in m.data:
                    out.extend(row)
        return out

    def dual(self) -> "ModuleHom":
        """The transpose map D(dst) -> D(src) over the opposite algebra."""
        mats = {v: m.transpose() for v, m in self.mats.items()}
        return ModuleHom(dualize(self.dst), dualize(self.src), mats)


def _nonempty(blocks: dict[IntTuple, Mat]) -> dict[IntTuple, Mat]:
    """The blocks of a hom that have both a row and a column."""
    return {v: m for v, m in blocks.items() if m.rows and m.cols}


def hom_space(M: MatrixModule, N: MatrixModule) -> list[ModuleHom]:
    """A canonical basis of the space of module homomorphisms M -> N.

    The unknowns are the entries of the blocks at the vertices where both
    modules are non-zero, in vertex order, and the basis is the rref basis
    of the solutions of the naturality equations.  Each basis hom holds a
    block at each of those vertices and nowhere else.
    """
    alg = M.alg
    Md, Nd = M.dims, N.dims
    offsets: dict[IntTuple, int] = {}
    total = 0
    for v in alg.vertices:
        if Md[v] and Nd[v]:
            offsets[v] = total
            total += Nd[v] * Md[v]
    if total == 0:
        return []
    rows: list[list[int | Fraction]] = []
    for a in alg.arrows():
        v, w = a.src, a.dst
        dMv, dMw, dNv, dNw = Md[v], Md[w], Nd[v], Nd[w]
        if dNv == 0 or dMw == 0:
            continue
        Ma, Na = M.mats.get(a.elt), N.mats.get(a.elt)
        vbase = offsets.get(v) if Ma is not None else None
        wbase = offsets.get(w) if Na is not None else None
        if vbase is None and wbase is None:
            continue
        for i in range(dNv):
            for j in range(dMw):
                row = [0] * total
                if vbase is not None:
                    base = vbase + i * dMv
                    for k in range(dMv):
                        x = Ma.data[k][j]
                        if x:
                            row[base + k] += x
                if wbase is not None:
                    Na_i = Na.data[i]
                    for l in range(dNw):
                        if Na_i[l]:
                            row[wbase + l * dMw + j] -= Na_i[l]
                if any(row):
                    rows.append(row)
    if rows:
        kernel = Mat(rows, len(rows), total).kernel_basis()
    else:
        kernel = Mat.identity(total)
    blocks = [(v, base, Nd[v], Md[v]) for v, base in offsets.items()]
    out = []
    for col in zip(*kernel.data):
        mats = {
            v: Mat([list(col[base + i * dMv : base + (i + 1) * dMv]) for i in range(dNv)], dNv, dMv)
            for v, base, dNv, dMv in blocks
        }
        out.append(ModuleHom(M, N, mats))
    return out


def _submodule(M: MatrixModule, bases: dict[IntTuple, Mat]) -> tuple[MatrixModule, ModuleHom]:
    """The submodule spanned at each vertex v by the columns of bases[v], and its inclusion."""
    alg = M.alg
    dims = {v: bases[v].cols for v in alg.vertices}
    mats: dict[BasisElt, Mat] = {}
    for a in alg.arrows():
        v, w = a.src, a.dst
        if dims[v] == 0 and dims[w] == 0:
            continue
        sol = bases[v].solve(M.mat(a.elt) * bases[w])
        if sol is None:  # pragma: no cover - callers pass arrow-stable subspaces
            raise AssertionError("subspaces are not arrow-stable")
        mats[a.elt] = sol
    S = MatrixModule(alg, dims, mats)
    return S, ModuleHom(S, M, _nonempty(bases))


def kernel_of_hom(h: ModuleHom) -> tuple[MatrixModule, ModuleHom]:
    return _submodule(h.src, {v: h.mat(v).kernel_basis() for v in h.src.alg.vertices})


def cokernel_of_hom(h: ModuleHom) -> tuple[MatrixModule, ModuleHom]:
    """The cokernel D(ker Dh) and the projection onto it, the transpose of the kernel's inclusion."""
    K, incl = kernel_of_hom(h.dual())
    C = dualize(K)
    return C, ModuleHom(h.dst, C, {v: m.transpose() for v, m in incl.mats.items()})


# ---------------------------------------------------------------------- radical, socle


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
    return _submodule(M, {v: _independent_columns(radical_spanning_columns(M, v)) for v in M.alg.vertices})


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
    incl = ModuleHom(S, M, _nonempty(bases))
    return S, incl


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


def hom_from_generators(
    P: ProjSum, M: MatrixModule, images: Sequence[list[tuple[int, int | Fraction]]]
) -> ModuleHom:
    """The hom P -> M that sends the generator of summand s of P to images[s] in M at P.summands[s].

    ``images[s]`` lists the (index, coefficient) pairs of that vector.  By
    Yoneda the basis vector (s, b) of P at w goes to M.act(b) applied to images[s].
    """
    mats = {}
    for w, entries in P.basis_index.items():
        if not (entries and M.dims[w]):
            continue
        cols = [[sum(c * row[i] for i, c in images[s] if row[i]) for row in M.act(b).data] for s, b in entries]
        mats[w] = Mat([list(row) for row in zip(*cols)], M.dims[w], len(cols))
    return ModuleHom(P.module, M, mats)


def projective_cover(M: MatrixModule) -> tuple[ProjSum, ModuleHom]:
    """The projective cover P -> M, sending the generators of P to a basis of the top of M."""
    gens: list[tuple[IntTuple, int]] = []  # (vertex, index of the top basis vector there)
    for v in M.alg.vertices:
        if M.dim(v) == 0:
            continue
        rad = radical_spanning_columns(M, v)
        gens.extend((v, j) for j in column_space_completion(rad))
    P = ProjSum(M.alg, tuple(v for v, _ in gens))
    return P, hom_from_generators(P, M, [[(j, 1)] for _, j in gens])


def is_projective(M: MatrixModule) -> bool:
    if M.is_zero():
        return True
    P, _ = projective_cover(M)
    return P.module.total_dim == M.total_dim


def is_injective(M: MatrixModule) -> bool:
    return is_projective(dualize(M))


def syzygy_module(M: MatrixModule) -> MatrixModule:
    if M.is_zero():
        return M
    _, h = projective_cover(M)
    K, _ = kernel_of_hom(h)
    return K


def injective_envelope(M: MatrixModule) -> tuple[ProjSum, ModuleHom]:
    """The injective envelope M -> DP, with P a sum of projectives over the opposite algebra.

    It is the transpose of the map P -> DM that sends the generators of P to
    a basis of the top of DM: the functionals on M dual to a basis of its socle.
    """
    S, s_incl = socle_module(M)
    picks = []  # (vertex, functional on the space at v as (index, coefficient) pairs)
    for v in M.alg.vertices:
        k = S.dim(v)
        if k == 0:
            continue
        basis = s_incl.mat(v)  # dim(v) x k, full column rank
        lift = basis.transpose().solve(Mat.identity(k).transpose())
        if lift is None:  # pragma: no cover
            raise AssertionError("socle basis is not full rank")
        for xi in lift.transpose().data:  # the rows xi with xi * basis = identity
            picks.append((v, [(i, x) for i, x in enumerate(xi) if x]))
    P = ProjSum(M.alg.opposite(), tuple(v for v, _ in picks))
    g = hom_from_generators(P, dualize(M), [xi for _, xi in picks])
    return P, ModuleHom(M, dualize(P.module), {w: m.transpose() for w, m in g.mats.items()})


# ---------------------------------------------------------------------- resolutions


@dataclass
class AlgMat:
    """A matrix over the algebra presenting a map between sums of projectives."""

    src: ProjSum
    dst: ProjSum
    entries: dict[tuple[int, int], list[tuple[int | Fraction, BasisElt]]]  # (dst summand, src summand)


def hom_to_alg_mat(h: ModuleHom, src: ProjSum, dst: ProjSum) -> AlgMat:
    entries: dict[tuple[int, int], list[tuple[int | Fraction, BasisElt]]] = {}
    for s, u in enumerate(src.summands):
        gen = src.generator_position(s)
        col = h.mat(u).column(gen)
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


@dataclass
class ProjResolution:
    base: MatrixModule
    terms: list[ProjSum]
    diffs: list[AlgMat]  # diffs[j]: terms[j+1] -> terms[j]
    syzygies: list[MatrixModule]  # syzygies[j]: syzygy j+1, the kernel of terms[j] -> syzygy j
    complete: bool

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def syzygy(self, k: int) -> MatrixModule:
        if k == 0:
            return self.base
        if k <= len(self.syzygies):
            return self.syzygies[k - 1]
        if self.complete:
            return zero_module(self.base.alg)
        raise CapExceeded(f"resolution cap reached before syzygy {k}")

    def term_vertices(self, j: int) -> tuple[IntTuple, ...]:
        return self.terms[j].summands if 0 <= j < len(self.terms) else ()


def min_proj_resolution(M: MatrixModule, cap: int) -> ProjResolution:
    if cap < 0:
        raise ValueError("cap must be >= 0")
    if M.is_zero():
        return ProjResolution(M, [ProjSum(M.alg, ())], [], [], True)
    terms: list[ProjSum] = []
    diffs: list[AlgMat] = []
    syzygies: list[MatrixModule] = []
    K = M
    incl: ModuleHom | None = None  # syzygy j -> terms[j-1].module
    for step in range(cap + 1):
        P, h = projective_cover(K)
        terms.append(P)
        if incl is not None:
            diffs.append(hom_to_alg_mat(h.then(incl), P, terms[-2]))
        K, incl = kernel_of_hom(h)
        syzygies.append(K)
        if K.is_zero():
            return ProjResolution(M, terms, diffs, syzygies, True)
    return ProjResolution(M, terms, diffs, syzygies, False)


@dataclass
class InjCoresolution:
    base: MatrixModule
    terms: list[ProjSum]  # over the opposite algebra: term j is dualize(terms[j].module)
    complete: bool

    @property
    def length(self) -> int:
        return len(self.terms) - 1


def min_inj_coresolution(M: MatrixModule, cap: int) -> InjCoresolution:
    if M.is_zero():
        return InjCoresolution(M, [ProjSum(M.alg.opposite(), ())], True)
    terms: list[ProjSum] = []
    X = M
    for step in range(cap + 1):
        P, h = injective_envelope(X)
        terms.append(P)
        X, _ = cokernel_of_hom(h)
        if X.is_zero():
            return InjCoresolution(M, terms, True)
    return InjCoresolution(M, terms, False)


def default_cap(alg) -> int:
    """The resolution cap 2(d + 1), or the integer >= 0 that ``HINAK_CAP`` sets."""
    import os

    env = os.environ.get("HINAK_CAP")
    if not env:
        return 2 * (alg.d + 1)
    try:
        if int(env) >= 0:
            return int(env)
    except ValueError:
        pass
    raise ValueError(f"HINAK_CAP must be an integer >= 0, got {env!r}")


def ext_dim(M: MatrixModule, N: MatrixModule, degree: int) -> int:
    """dim Ext^degree(M, N) via a minimal projective resolution of M, resolved up to P^(degree+1)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return len(hom_space(M, N))
    return ext_dim_from_resolution(min_proj_resolution(M, degree + 1), N, degree)


def ext_dim_from_resolution(res: ProjResolution, N: MatrixModule, degree: int) -> int:
    if not res.complete and len(res.terms) < degree + 2:
        raise CapExceeded(f"resolution too short for Ext^{degree}")

    def offsets(j: int) -> list[int]:
        # where each summand of P^j starts in Hom(P^j, N)
        return list(itertools.accumulate((N.dim(u) for u in res.term_vertices(j)), initial=0))

    def delta(j: int) -> Mat:
        # induced map Hom(P^j, N) -> Hom(P^{j+1}, N)
        src_off, dst_off = offsets(j + 1), offsets(j)
        m = Mat.zeros(src_off[-1], dst_off[-1])
        if not 0 <= j < len(res.diffs):
            return m
        am = res.diffs[j]
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
    cores = min_inj_coresolution(ProjSum(alg, tuple(alg.vertices)).module, cap)
    count = 0
    for P in cores.terms:
        if is_projective(dualize(P.module)):
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
        m = M.mats.get(a.elt.flipped())
        if m is not None:
            mats[a.elt] = m.transpose()
    return MatrixModule(op, dims, mats)


def _transpose_alg_mat(am: AlgMat) -> AlgMat:
    """Hom(-, A) of a map between sums of projectives: the flipped matrix over the opposite algebra."""
    op = am.src.alg.opposite()
    entries = {(s, t): [(coeff, b.flipped()) for coeff, b in terms] for (t, s), terms in am.entries.items()}
    return AlgMat(ProjSum(op, am.dst.summands), ProjSum(op, am.src.summands), entries)


def tau_d(M: MatrixModule, d: int) -> MatrixModule:
    """Higher translate: the classical translate of the (d-1)-fold syzygy; zero on projectives.

    The classical translate of X is D Tr X = ker nu(d_1) for a minimal
    presentation d_1 of X, where nu = D Hom(-, A) is the Nakayama functor.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    X = M
    for _ in range(d - 1):
        X = syzygy_module(X)
        if X.is_zero():
            return zero_module(M.alg)
    res = min_proj_resolution(X, 1)
    if not res.diffs:
        return zero_module(M.alg)
    return kernel_of_hom(alg_mat_to_hom(_transpose_alg_mat(res.diffs[0])).dual())[0]


def tau_d_inverse(M: MatrixModule, d: int) -> MatrixModule:
    """Inverse higher translate D tau_d D; zero on injectives."""
    return dualize(tau_d(dualize(M), d))


# ---------------------------------------------------------------------- iso testing and stable Hom


def modules_isomorphic(M: MatrixModule, N: MatrixModule) -> bool | None:
    """True / False on a definite answer; None when undetermined.

    Four negative certificates, each exact: distinct dimension vectors; an
    empty Hom(M, N) with M non-zero, since an isomorphism would be a non-zero
    element of it; dim Hom(M, N) != dim Hom(N, M), since an isomorphism
    makes both spaces isomorphic to End(M); and distinct socle or top
    dimension vectors, dim Hom(S_v, -) and dim Hom(-, S_v) at the simples,
    the top read as the socle of the dual.  The last two are computed only
    when the positive certificate has missed.  The positive certificate is the
    one combination h_1 + c_2 h_2 + ... + c_k h_k of the Hom basis, with c_i
    drawn from 1..2^20 by a generator seeded here, checked for invertibility
    exactly.  The determinant at each vertex is homogeneous in
    (c_1, ..., c_k), so fixing c_1 = 1 loses nothing, and when an
    isomorphism exists the Schwartz-Zippel lemma bounds a miss by
    dim M / 2^20.  A miss that no negative certificate explains is reported
    as None.
    """
    if any(M.dim(v) != N.dim(v) for v in M.alg.vertices):
        return False
    if M.is_zero():
        return True
    homs = hom_space(M, N)
    if not homs:
        return False
    rng = random.Random(0)
    combo = homs[0]
    for h in homs[1:]:
        combo = combo.add(h.scale(rng.randint(1, 1 << 20)))
    if combo.is_iso():
        return True
    if len(hom_space(N, M)) != len(homs):
        return False
    for X, Y in ((M, N), (dualize(M), dualize(N))):
        if socle_module(X)[0].dims != socle_module(Y)[0].dims:
            return False
    return None


def find_isomorphic(M: MatrixModule, candidates: Iterable[tuple[object, MatrixModule]]):
    """The first label of (label, module) candidates whose module is certified isomorphic to M, else None."""
    for label, N in candidates:
        if N.dims == M.dims and modules_isomorphic(M, N) is True:
            return label
    return None


def hom_span_rank(maps: Sequence[ModuleHom]) -> int:
    """Dimension of the span of homomorphisms, such as those factoring through a cover or envelope."""
    rows = [v for v in (h.flatten() for h in maps) if any(x != 0 for x in v)]
    return Mat.from_rows(rows).rank() if rows else 0


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
        self._hom_memo = {(a, b): (BasisElt(a, b, 0),) for (a, b) in self._reps}

    def hom_basis(self, v, w) -> tuple[BasisElt, ...]:
        return self._hom_memo.get((tuple(v), tuple(w)), ())

    def compose(self, f: BasisElt, g: BasisElt) -> BasisElt | None:
        if f.dst != g.src:
            raise ValueError("non-composable pair")
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


def _entry_pairs(h: ModuleHom, rep: ModuleHom):
    """The entries of two parallel homs side by side, in vertex order; a missing block reads as zeros."""
    zeros = itertools.repeat(itertools.repeat(0))
    for v in h.src.alg.vertices:
        a, b = h.mats.get(v), rep.mats.get(v)
        if a is not None or b is not None:
            for row_a, row_b in zip(zeros if a is None else a.data, zeros if b is None else b.data):
                yield from zip(row_a, row_b)


def _normalize_hom(h: ModuleHom) -> ModuleHom:
    for x, _ in _entry_pairs(h, h):
        if x != 0:
            return h.scale(_div(1, x))
    raise ValueError("zero hom cannot be normalized")


def _proportionality(h: ModuleHom, rep: ModuleHom) -> int | Fraction:
    coeff = None
    for a, b in _entry_pairs(h, rep):
        if b == 0:
            if a != 0:
                raise StructureConstantError("composite not proportional to the basis hom")
            continue
        c = _div(a, b)
        if coeff is None:
            coeff = c
        elif coeff != c:
            raise StructureConstantError("composite not proportional to the basis hom")
    return coeff if coeff is not None else 0


def endo_algebra(alg) -> DerivedAlgebra:
    """Endomorphism category of the distinguished module, from brute-force Hom spaces."""
    return DerivedAlgebra(alg, alg.summands())
