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

from .algebras import Arrow, BasisAlgebra, BasisElt, CapExceeded, factor_into_arrows, label
from .combinat import IntTuple
from .linalg import Mat, _div, column_space_completion, hstack


class MatrixModule:
    def __init__(self, alg, dims: dict[IntTuple, int], mats: dict[BasisElt, Mat]):
        self.alg = alg
        # only the non-zero vertices, in vertex order, which is lex order on every algebra: read dims.get(v, 0)
        self.dims = {v: dims[v] for v in sorted(dims) if dims[v]}
        # a list, because short-lived tuples of every length pile up in CPython's tuple free
        # lists and raise the peak memory
        self.support = list(self.dims)
        self.mats = mats
        self._act_cache: dict[BasisElt, Mat] = {}

    def dim(self, v: IntTuple) -> int:
        return self.dims.get(v, 0)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def mat(self, arrow_elt: BasisElt) -> Mat:
        m = self.mats.get(arrow_elt)
        if m is None:
            return Mat.zeros(self.dims.get(arrow_elt.src, 0), self.dims.get(arrow_elt.dst, 0))
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
            for nxt in chain[1:]:
                out = out * self.mat(nxt)
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
        dims = {label(v): k for v, k in self.dims.items()}
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
    """The direct sum, holding a block for each arrow between two non-zero vertices."""
    if not mods:
        raise ValueError("empty direct sum needs an algebra")
    alg = mods[0].alg
    dims: dict[IntTuple, int] = {}
    starts = []  # starts[i][v]: the first row of mods[i] at v
    for M in mods:
        starts.append({v: dims.get(v, 0) for v in M.support})
        for v, k in M.dims.items():
            dims[v] = dims.get(v, 0) + k
    arrows = [a for w in alg.vertices if w in dims for a in alg.arrows_into(w) if a.src in dims]
    mats = {a.elt: Mat.zeros(dims[a.src], dims[a.dst]) for a in arrows}
    for M, start in zip(mods, starts):
        for e, m in M.mats.items():
            for i, row in enumerate(m.data if m.cols else (), start[e.src]):
                mats[e].data[i][start[e.dst] : start[e.dst] + m.cols] = row
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
    for a in [a for w in support for a in alg.arrows_into(w) if a.src in support]:
        sv, tv = a.src, a.dst
        m = Mat.zeros(dims[sv], dims[tv])
        for s_shift, row in pos[sv].items():
            col = pos[tv].get(s_shift + a.shift)
            if col is not None:
                m.data[row][col] = 1
        mats[a.elt] = m
    return MatrixModule(alg, dims, mats)


def projective_module(alg: BasisAlgebra, v) -> MatrixModule:
    return MatrixModule(alg, *_indecomposable(alg, alg.require_vertex(v))[1:])


def injective_module(alg: BasisAlgebra, v) -> MatrixModule:
    v = alg.require_vertex(v)
    if v not in alg._inj_cache:
        D = dualize(projective_module(alg.opposite(), v))
        alg._inj_cache[v] = D.dims, D.mats
    return MatrixModule(alg, *alg._inj_cache[v])


# ---------------------------------------------------------------------- sums of projectives


@dataclass
class ProjSum:
    """An ordered direct sum of indecomposable projectives with its basis bookkeeping."""

    alg: object
    summands: tuple[IntTuple, ...]

    def __post_init__(self):
        """P_u on the cached blocks of one summand, or the direct sum of those of several.

        ``basis_index[w]`` lists the basis of the sum at w as pairs (summand, basis morphism w -> u),
        only where the sum is non-zero.
        """
        parts = [_indecomposable(self.alg, u) for u in self.summands]
        mods = [MatrixModule(self.alg, dims, mats) for _, dims, mats in parts]
        if len(parts) == 1:
            self.basis_index, self.module = parts[0][0], mods[0]
            return
        self.basis_index: dict[IntTuple, list[tuple[int, BasisElt]]] = {}
        for s, (index, _, _) in enumerate(parts):
            for w, entries in index.items():
                self.basis_index.setdefault(w, []).extend([(s, b) for _, b in entries])
        self.module = direct_sum_modules(mods) if parts else zero_module(self.alg)

    def generator_position(self, s: int) -> int:
        u = self.summands[s]
        return self.basis_index[u].index((s, self.alg.identity(u)))


def _indecomposable(alg, u: IntTuple) -> tuple[dict[IntTuple, list[tuple[int, BasisElt]]], dict, dict]:
    """The basis index of P_u as a one-summand sum, its dims, and the 0/1 matrix of each arrow between
    two vertices of its support; built once per algebra, and no module, whose .alg would point back."""
    if u not in alg._proj_cache:
        index = {x: [(0, b) for b in basis] for x, basis in _walk_back(alg, u)}
        row_of = {x: {b: i for i, (_, b) in enumerate(entries)} for x, entries in index.items()}
        mats: dict[BasisElt, Mat] = {}
        for a in [a for w in index for a in alg.arrows_into(w) if a.src in index]:
            rows, cols = row_of[a.src], index[a.dst]
            data = [[0] * len(cols) for _ in rows]
            for col, (_, b) in enumerate(cols):
                comp = alg.compose(a.elt, b)
                if comp is not None:
                    data[rows[comp]][col] = 1
            key = tuple(map(tuple, data))
            if key not in alg._proj_blocks:
                alg._proj_blocks[key] = Mat(data, len(rows), len(cols))
            mats[a.elt] = alg._proj_blocks[key]
        alg._proj_cache[u] = index, {x: len(entries) for x, entries in index.items()}, mats
    return alg._proj_cache[u]


def _walk_back(alg, u: IntTuple):
    """(x, Hom(x, u)) for each x with Hom(x, u) != 0, walked back from u through the arrows into x:
    exact, since a non-identity basis morphism factors through an arrow out of its source."""
    seen, stack = {u}, [(u, alg.hom_basis(u, u))]
    while stack:
        x, basis = stack.pop()
        yield x, basis
        new = {a.src for a in alg.arrows_into(x)} - seen
        seen |= new
        stack += [(y, b) for y in new if (b := alg.hom_basis(y, u))]


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

    def mat(self, v: IntTuple) -> Mat:
        m = self.mats.get(v)
        if m is None:
            return Mat.zeros(self.dst.dims.get(v, 0), self.src.dims.get(v, 0))
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
        for v in self.src.alg.vertices:
            m = self.mats.get(v)
            if m is None:
                out.extend([0] * (self.dst.dim(v) * self.src.dim(v)))
            else:
                for row in m.data:
                    out.extend(row)
        return out


def _nonempty(blocks: dict[IntTuple, Mat]) -> dict[IntTuple, Mat]:
    """The blocks of a hom that have both a row and a column."""
    return {v: m for v, m in blocks.items() if m.rows and m.cols}


def hom_space(M: MatrixModule, N: MatrixModule) -> list[ModuleHom]:
    """A canonical basis of the space of module homomorphisms M -> N.

    The unknowns are the entries of the blocks at the vertices where both
    modules are non-zero, in vertex order, and the basis is the rref basis
    of the solutions of the naturality equations, one per arrow v -> w with
    N(v) and M(w) non-zero.  Each basis hom holds a block at each of those
    vertices and nowhere else.
    """
    alg = M.alg
    Md, Nd = M.dims, N.dims
    offsets: dict[IntTuple, int] = {}
    total = 0
    for v in M.support:
        if v in Nd:
            offsets[v] = total
            total += Nd[v] * Md[v]
    if total == 0:
        return []
    rows: list[list[int | Fraction]] = []
    for a in [a for w in M.support for a in alg.arrows_into(w) if a.src in Nd]:
        v, w = a.src, a.dst
        dMv, dMw, dNv = Md.get(v, 0), Md[w], Nd[v]
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
                            row[base + k] = x
                if wbase is not None:
                    # the Ma entries can share this row's indices only on a loop v == w
                    for l, y in enumerate(Na.data[i]):
                        if y:
                            c = wbase + l * dMw + j
                            row[c] = row[c] - y if row[c] else -y
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
    """The submodule spanned at each vertex v by the columns of bases[v], and its inclusion.

    It lies in M's support, and it acts by the arrows with a non-zero end:
    those out of its support, then those into it from outside.
    """
    alg = M.alg
    dims = {v: bases[v].cols for v in M.support}
    support = [v for v in M.support if dims[v]]
    arrows = [a for v in support for a in alg.arrows_from(v)]
    arrows += [a for w in support for a in alg.arrows_into(w) if not dims.get(a.src)]
    mats: dict[BasisElt, Mat] = {}
    for a in arrows:
        sol = bases[a.src].solve(M.mat(a.elt) * bases[a.dst])
        if sol is None:  # pragma: no cover - callers pass arrow-stable subspaces
            raise AssertionError("subspaces are not arrow-stable")
        mats[a.elt] = sol
    S = MatrixModule(alg, dims, mats)
    return S, ModuleHom(S, M, _nonempty(bases))


def kernel_of_hom(h: ModuleHom) -> tuple[MatrixModule, ModuleHom]:
    return _submodule(h.src, {v: h.mat(v).kernel_basis() for v in h.src.alg.vertices})


def _kernel_of_dual(h: ModuleHom, dual_dst: MatrixModule | None = None) -> tuple[MatrixModule, ModuleHom]:
    """ker Dh in D(h.dst), over the opposite algebra, or in dual_dst if the caller holds D(h.dst)."""
    DN = dualize(h.dst) if dual_dst is None else dual_dst
    return _submodule(DN, {v: h.mat(v).transpose().kernel_basis() for v in h.src.alg.vertices})


def cokernel_of_hom(h: ModuleHom, dual_dst: MatrixModule | None = None) -> tuple[MatrixModule, ModuleHom]:
    """The cokernel D(ker Dh) and its projection; an injective envelope (P, h) passes P.module as D(h.dst)."""
    K, incl = _kernel_of_dual(h, dual_dst)
    C = dualize(K)
    return C, ModuleHom(h.dst, C, {v: m.transpose() for v, m in incl.mats.items()})


# ---------------------------------------------------------------------- radical, socle


def radical_spanning_columns(M: MatrixModule, v) -> Mat:
    cols = [M.mat(a.elt) for a in M.alg.arrows_from(v) if M.dim(a.dst)]
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

    ``images[s]`` lists the (index, coefficient) pairs of that vector.  By Yoneda the
    basis vector (s, b) of P goes to b applied to images[s]: if factor_into_arrows(b) is
    [a, *rest], to M.mat(a) times the column of (s, rest), which this call computes once.
    """
    cols = {(s, ()): [0] * M.dim(u) for s, u in enumerate(P.summands)}
    for s, image in enumerate(images):
        for i, c in image:
            cols[s, ()][i] = c
    mats = {}
    for w, entries in P.basis_index.items():
        if w in M.dims:
            out = [_chain_column(cols, M, s, tuple(factor_into_arrows(M.alg, b))) for s, b in entries]
            mats[w] = Mat([list(row) for row in zip(*out)], M.dims[w], len(out))
    return ModuleHom(P.module, M, mats)


def _chain_column(cols: dict, M: MatrixModule, s: int, chain: tuple[BasisElt, ...]) -> list[int | Fraction]:
    """cols[s, chain]: M.mat(chain[0]) times the column of (s, chain[1:]), memoised in cols.

    A module-level function, not a closure over cols: a closure that calls itself is a reference
    cycle, and every call would leave its columns to the cyclic garbage collector."""
    if (s, chain) not in cols:
        nonzero = [(k, y) for k, y in enumerate(_chain_column(cols, M, s, chain[1:])) if y]
        cols[s, chain] = [sum([row[k] * y for k, y in nonzero if row[k]]) for row in M.mat(chain[0]).data]
    return cols[s, chain]


def _top_generators(M: MatrixModule) -> list[tuple[IntTuple, int]]:
    """(vertex, index of a basis vector there) for a basis of the top of M, in vertex order."""
    return [(v, j) for v in M.support for j in column_space_completion(radical_spanning_columns(M, v))]


def projective_cover(M: MatrixModule) -> tuple[ProjSum, ModuleHom]:
    """The projective cover P -> M, sending the generators of P to a basis of the top of M."""
    gens = _top_generators(M)
    P = ProjSum(M.alg, tuple(v for v, _ in gens))
    return P, hom_from_generators(P, M, [[(j, 1)] for _, j in gens])


def is_projective(M: MatrixModule) -> bool:
    """Whether the projective cover has the dimension of M, counted from the top of M; no cover is built."""
    gens = _top_generators(M)
    return sum(sum(_indecomposable(M.alg, v)[1].values()) for v, _ in gens) == M.total_dim


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
class ProjResolution:
    base: MatrixModule
    terms: list[ProjSum]
    # diffs[j]: terms[j+1] -> terms[j] as the generator images hom_from_generators takes
    diffs: list[list[list[tuple[int, int | Fraction]]]]
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
    diffs: list[list[list[tuple[int, int | Fraction]]]] = []
    syzygies: list[MatrixModule] = []
    K = M
    incl: ModuleHom | None = None  # syzygy j -> terms[j-1].module
    for step in range(cap + 1):
        P, h = projective_cover(K)
        terms.append(P)
        if incl is not None:
            diff = h.then(incl)
            cols = [diff.mat(u).column(P.generator_position(s)) for s, u in enumerate(P.summands)]
            diffs.append([[(i, c) for i, c in enumerate(col) if c] for col in cols])
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
        X, _ = cokernel_of_hom(h, P.module)
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
    """dim Ext^degree(M, N) = dim Hom(K, N) - dim Hom(P, N) + dim Hom(X, N), X = Omega^(degree-1) M with cover P -> X,
    K its kernel: 0 -> Hom(X, N) -> Hom(P, N) -> Hom(K, N) -> Ext^1(X, N) -> 0 is exact, and Hom(P_u, N) = N(u)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return len(hom_space(M, N))
    for _ in range(degree - 1):
        M = syzygy_module(M)
    if M.is_zero():
        return 0
    P, h = projective_cover(M)
    return len(hom_space(kernel_of_hom(h)[0], N)) - sum(N.dim(u) for u in P.summands) + len(hom_space(M, N))


def ext_dim_from_resolution(res: ProjResolution, N: MatrixModule, degree: int) -> int:
    if not res.complete and len(res.terms) < degree + 2:
        raise CapExceeded(f"resolution too short for Ext^{degree}")

    Nd = N.dims
    # N's dimension at each generator of P^(degree - 1), P^degree and P^(degree + 1)
    low, mid, high = ([Nd.get(u, 0) for u in res.term_vertices(j)] for j in (degree - 1, degree, degree + 1))

    def delta(j: int, cols: list[int], rows: list[int]) -> Mat:
        # induced map Hom(P^j, N) -> Hom(P^{j+1}, N); the block of generators (s, t) is empty
        # unless N is non-zero at both of their vertices
        m = Mat.zeros(sum(rows), sum(cols))
        if not (m.rows and m.cols):
            return m
        # both terms exist, so diffs[j] does: generator s of P^{j+1} goes to (t, b) in P^j
        P, col_off = res.terms[j], list(itertools.accumulate(cols, initial=0))
        starts = itertools.accumulate(rows, initial=0)
        for u, r0, k, image in zip(res.terms[j + 1].summands, starts, rows, res.diffs[j]):
            for i, coeff in image if k else ():
                t, b = P.basis_index[u][i]
                if cols[t]:
                    for r, act_row in enumerate(N.act(b).data, r0):  # N at P.summands[t] -> N at u
                        row = m.data[r]
                        for c, x in enumerate(act_row, col_off[t]):
                            if x:
                                row[c] += coeff * x
        return m

    d_i = delta(degree, mid, high)
    d_prev = delta(degree - 1, low, mid)
    ker = d_i.cols - d_i.rank() if d_i.cols else 0
    im = d_prev.rank()
    return ker - im


def gldim(alg, cap: int) -> int | None:
    """Global dimension as the max projective dimension of the simples; None beyond cap."""
    worst = 0
    for v in alg.vertices:
        res = min_proj_resolution(simple_module(alg, v), cap)
        if not res.complete:
            return None
        worst = max(worst, res.length)
    return worst


def domdim(alg, cap: int) -> tuple[int, bool]:
    """Dominant dimension of the algebra: leading projective terms of the coresolution of A.

    Returns (k, exact); exact=False means the dominant dimension is at least
    k.  A coresolution that terminates with every term projective forces an
    unbounded dominant dimension, reported as (cap + 1, False).
    """
    X = ProjSum(alg, tuple(alg.vertices)).module
    for k in range(cap + 1):
        P, h = injective_envelope(X)
        X, injective = cokernel_of_hom(h, P.module)[0], h.dst
        del P, h  # the envelope and the previous cokernel are not read again
        if not is_projective(injective):
            return k, True
        if X.is_zero():
            break
    return cap + 1, False


# ---------------------------------------------------------------------- duality, transpose, translates


def dualize(M: MatrixModule) -> MatrixModule:
    """The linear dual as a module over the opposite algebra.

    Every key of ``M.mats`` must be an arrow: its block, transposed, is the
    action of the flipped arrow.
    """
    return MatrixModule(M.alg.opposite(), M.dims, {e.flipped(): m.transpose() for e, m in M.mats.items()})


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
    # Hom(d_1, A): generator t of Hom(P_0, A) goes to the flipped entries of d_1 in summand t
    P0, P1 = res.terms
    op = M.alg.opposite()
    src, dst = ProjSum(op, P0.summands), ProjSum(op, P1.summands)
    images = [[] for _ in P0.summands]
    for s, image in enumerate(res.diffs[0]):
        for i, coeff in image:
            t, b = P0.basis_index[P1.summands[s]][i]
            images[t].append((dst.basis_index[P0.summands[t]].index((s, b.flipped())), coeff))
    return _kernel_of_dual(hom_from_generators(src, dst.module, images))[0]


def tau_d_inverse(M: MatrixModule, d: int) -> MatrixModule:
    """Inverse higher translate D tau_d D; zero on injectives."""
    return dualize(tau_d(dualize(M), d))


# ---------------------------------------------------------------------- iso testing and stable Hom


def modules_isomorphic(M: MatrixModule, N: MatrixModule) -> bool | None:
    """True / False on a definite answer; None when undetermined; see ``iso_certificate``."""
    return {"isomorphic": True, "undetermined": None}.get(iso_certificate(M, N), False)


def iso_certificate(M: MatrixModule, N: MatrixModule) -> str:
    """The first exact certificate that decides whether M and N are isomorphic, or "undetermined".

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
    as "undetermined".
    """
    if M.dims != N.dims:
        return "dimension vectors differ"
    if M.is_zero():
        return "isomorphic"
    homs = hom_space(M, N)
    if not homs:
        return "dim Hom(M, N) is 0 or differs from dim Hom(N, M)"
    rng = random.Random(0)
    combo = homs[0]
    for h in homs[1:]:
        combo = combo.add(h.scale(rng.randint(1, 1 << 20)))
    if combo.is_iso():
        return "isomorphic"
    if len(hom_space(N, M)) != len(homs):
        return "dim Hom(M, N) is 0 or differs from dim Hom(N, M)"
    for X, Y in ((M, N), (dualize(M), dualize(N))):
        if socle_module(X)[0].dims != socle_module(Y)[0].dims:
            return "socle or top dimension vectors differ"
    return "undetermined"


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
    tabulated; only the tables are kept, not the modules or homs.  The
    result satisfies the same contract as a presented algebra
    (0/1-dimensional Hom spaces with monomial composition), so the whole
    homological toolkit applies to it.
    """

    def __init__(self, base_alg, lams: Sequence[IntTuple]):
        super().__init__(sorted(tuple(t) for t in lams))
        if len(self._vset) != len(self.vertices):
            raise ValueError("duplicate summand labels")
        self.d = len(self.vertices[0])
        mods = {t: interval_module(base_alg, t) for t in self.vertices}
        reps: dict[tuple[IntTuple, IntTuple], ModuleHom] = {}
        for a in self.vertices:
            for b in self.vertices:
                homs = hom_space(mods[a], mods[b])
                if len(homs) > 1:
                    raise StructureConstantError(f"Hom({a},{b}) has dimension {len(homs)} > 1")
                if homs:
                    reps[(a, b)] = _normalize_hom(homs[0])
        self._hom_memo = {(a, b): (BasisElt(a, b, 0),) for (a, b) in reps}
        self._comp: dict[tuple[IntTuple, IntTuple, IntTuple], BasisElt | None] = {}
        for (a, b), f in reps.items():
            for c in self.vertices:
                g = reps.get((b, c))
                if g is None:
                    continue
                composite = f.then(g)
                if composite.is_zero():
                    self._comp[(a, b, c)] = None
                    continue
                rep = reps.get((a, c))
                if rep is None:
                    raise StructureConstantError(f"nonzero composite outside Hom({a},{c})")
                coeff = _proportionality(composite, rep)
                if coeff != 1:
                    raise StructureConstantError(f"structure constant {coeff} at ({a},{b},{c})")
                self._comp[(a, b, c)] = self._hom_memo[(a, c)][0]

    def hom_basis(self, v, w) -> tuple[BasisElt, ...]:
        return self._hom_memo.get((tuple(v), tuple(w)), ())

    def compose(self, f: BasisElt, g: BasisElt) -> BasisElt | None:
        if f.dst != g.src:
            raise ValueError("non-composable pair")
        return self._comp.get((f.src, f.dst, g.dst))

    def _arrow_list(self) -> tuple[Arrow, ...]:
        found = []
        for (a, b) in sorted(self._hom_memo):
            if a == b:
                continue
            factors = any(
                (a, u) in self._hom_memo
                and (u, b) in self._hom_memo
                and self._comp.get((a, u, b)) is not None
                for u in self.vertices
                if u != a and u != b
            )
            if not factors:
                found.append(Arrow.of(a, 0, b, 0))
        return tuple(found)

    def __repr__(self) -> str:
        return f"DerivedAlgebra({len(self.vertices)} summands)"


def _entry_pairs(h: ModuleHom, rep: ModuleHom):
    """The entries of two parallel homs side by side, in vertex order; a missing block reads as zeros."""
    zeros = itertools.repeat(itertools.repeat(0))
    for v in h.src.support:
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
