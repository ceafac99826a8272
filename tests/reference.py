"""A naive, dense reference engine for the differential tests.

Each function computes what a package routine computes, the slow way: over
every vertex and every arrow of the algebra, with dense blocks, and without
calling the routine it is compared with.  Maps out of a sum of projectives
are built by composing basis morphisms or by ``M.act``, one product of arrow
matrices per basis morphism; Ext is read off the Hom complex of a
resolution; the translates go through the Auslander-Bridger transpose.

When a change replaces a loop in ``src/hinak``, the old loop moves here and
the new one is compared with it entry for entry.
"""

import itertools
from fractions import Fraction

from hinak.algebras import CapExceeded
from hinak.linalg import Mat, cokernel_projection, column_space_completion
from hinak.reps import (
    MatrixModule,
    ModuleHom,
    ProjResolution,
    ProjSum,
    StructureConstantError,
    _normalize_hom,
    hom_space as package_hom_space,
    interval_module,
    min_inj_coresolution,
    radical_spanning_columns,
    socle_module,
    zero_module,
)

# ------------------------------------------------------------------ equality


def same_blocks(M, N):
    """The same algebra, dimensions and stored arrow blocks, empty ones included."""
    return M.alg is N.alg and M.dims == N.dims and M.mats == N.mats


def same_hom(f, g):
    return all(f.mat(v) == g.mat(v) for v in f.src.alg.vertices)


# ------------------------------------------------------------------ module homomorphisms


def hom_space(M, N):
    """The rref basis of the naturality equations, one per arrow and entry, over every vertex and arrow."""
    alg = M.alg
    offsets, total = {}, 0
    for v in alg.vertices:
        if M.dim(v) and N.dim(v):
            offsets[v] = total
            total += N.dim(v) * M.dim(v)
    if total == 0:
        return []
    rows = []
    for a in alg.arrows():
        v, w = a.src, a.dst
        Ma, Na = M.mat(a.elt), N.mat(a.elt)
        for i in range(N.dim(v)):
            for j in range(M.dim(w)):
                row = [0] * total
                if v in offsets:
                    for k in range(M.dim(v)):
                        row[offsets[v] + i * M.dim(v) + k] += Ma.data[k][j]
                if w in offsets:
                    for l in range(N.dim(w)):
                        row[offsets[w] + l * M.dim(w) + j] -= Na.data[i][l]
                rows.append(row)
    kernel = Mat(rows, len(rows), total).kernel_basis() if rows else Mat.identity(total)
    out = []
    for col in zip(*kernel.data):
        mats = {}
        for v, base in offsets.items():
            dN, dM = N.dim(v), M.dim(v)
            mats[v] = Mat([list(col[base + i * dM : base + (i + 1) * dM]) for i in range(dN)], dN, dM)
        out.append(ModuleHom(M, N, mats))
    return out


def then(f, g):
    return ModuleHom(f.src, g.dst, {v: g.mat(v) * f.mat(v) for v in f.src.alg.vertices})


def add(f, g):
    return ModuleHom(f.src, f.dst, {v: f.mat(v) + g.mat(v) for v in f.src.alg.vertices})


def is_zero(f):
    return all(f.mat(v).is_zero() for v in f.src.alg.vertices)


def flatten(f):
    return [x for v in f.src.alg.vertices for row in f.mat(v).data for x in row]


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


def normalize_hom(h):
    """h scaled so that the first non-zero entry of its flattened blocks is 1."""
    for x in h.flatten():
        if x != 0:
            return h.scale(1 / Fraction(x))
    raise ValueError("zero hom cannot be normalized")


def proportionality(h, rep):
    """The c with h = c * rep, read entry by entry off the flattened blocks; 0 for a zero h."""
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


def normalized_reps(alg, summands):
    """The normalized basis homs between the interval modules, built as ``endo_algebra`` builds (and drops) them."""
    mods = {t: interval_module(alg, t) for t in summands}
    pairs = ((a, b, package_hom_space(mods[a], mods[b])) for a in summands for b in summands)
    return {(a, b): _normalize_hom(homs[0]) for a, b, homs in pairs if homs}


# ------------------------------------------------------------------ subquotients and duals


def block_diag(mats):
    """The block-diagonal matrix of the blocks, placed one by one."""
    out = [[0] * sum(m.cols for m in mats) for _ in range(sum(m.rows for m in mats))]
    r0 = c0 = 0
    for m in mats:
        for i, row in enumerate(m.data):
            out[r0 + i][c0 : c0 + m.cols] = row
        r0, c0 = r0 + m.rows, c0 + m.cols
    return Mat(out, len(out), c0)


def submodule(M, bases):
    """The submodule spanned by the columns of bases[v], acting by every arrow with a non-zero end."""
    alg = M.alg
    dims = {v: bases[v].cols for v in alg.vertices}
    mats = {}
    for a in alg.arrows():
        if dims[a.src] or dims[a.dst]:
            mats[a.elt] = bases[a.src].solve(M.mat(a.elt) * bases[a.dst])
    return MatrixModule(alg, dims, mats)


def kernel(h):
    bases = {v: h.mat(v).kernel_basis() for v in h.src.alg.vertices}
    K = submodule(h.src, bases)
    return K, ModuleHom(K, h.src, bases)


def cokernel(h):
    """The quotient by the image at each vertex, acting by every arrow with a non-zero end."""
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


def dualize(M):
    """The transposed blocks at the arrows of the opposite algebra."""
    op = M.alg.opposite()
    mats = {a.elt: M.mats[a.elt.flipped()].transpose() for a in op.arrows() if a.elt.flipped() in M.mats}
    return MatrixModule(op, M.dims, mats)


# ------------------------------------------------------------------ sums of projectives and maps out of them


def proj_sum(alg, summands):
    """The basis index, at the vertices where it is non-empty, and the arrow matrices of a sum of
    projectives, over every vertex and arrow."""
    index = {w: [(s, b) for s, u in enumerate(summands) for b in alg.hom_basis(w, u)] for w in alg.vertices}
    mats = {}
    for a in alg.arrows():
        rows = {key: i for i, key in enumerate(index[a.src])}
        if not (rows and index[a.dst]):
            continue
        m = Mat.zeros(len(rows), len(index[a.dst]))
        for col, (s, b) in enumerate(index[a.dst]):
            comp = alg.compose(a.elt, b)
            if comp is not None:
                m.data[rows[(s, comp)]][col] = 1
        mats[a.elt] = m
    return {w: es for w, es in index.items() if es}, mats


def injective_sum(alg, summands):
    """D ProjSum(Aᵒᵖ, summands) and its basis at each w: (s, c) for the dual basis vector of c: u_s -> w."""
    P = ProjSum(alg.opposite(), summands)
    index = {w: [(s, b.flipped()) for s, b in P.basis_index.get(w, [])] for w in alg.vertices}
    return dualize(P.module), index


def hom_from_generators(P, M, images):
    """The hom P -> M of generator images, with one product of arrow matrices, M.act(b), per basis morphism b."""
    mats = {}
    for w, entries in P.basis_index.items():
        if not (entries and M.dim(w)):
            continue
        cols = [[sum(c * row[i] for i, c in images[s] if row[i]) for row in M.act(b).data] for s, b in entries]
        mats[w] = Mat([list(row) for row in zip(*cols)], M.dim(w), len(cols))
    return ModuleHom(P.module, M, mats)


def proj_hom(src, dst, terms):
    """The hom src -> dst of sums of projectives sending generator s to the sum of coeff * (t, e) over
    the terms (s, t, e, coeff): each basis vector (s, b) of src is composed with every term of s."""
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


def top_generators(M):
    """(v, j) for each unit vector j at v that completes the radical: a basis of the top of M."""
    return [(v, j) for v in M.alg.vertices if M.dim(v) for j in column_space_completion(radical_spanning_columns(M, v))]


def cover(M):
    """The projective cover, one generator per top basis vector, with its blocks read from M.act."""
    gens = top_generators(M)
    P = ProjSum(M.alg, tuple(v for v, _ in gens))
    return P, hom_from_generators(P, M, [[(j, 1)] for _, j in gens])


def is_projective(M):
    """Whether the sum of projectives with one summand per top basis vector has the dimension of M."""
    return ProjSum(M.alg, tuple(v for v, _ in top_generators(M))).module.total_dim == M.total_dim


def syzygy(M, k):
    """The k-th syzygy of M, each step the kernel of a cover."""
    for _ in range(k):
        M = kernel(cover(M)[1])[0]
    return M


def envelope(M):
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


def is_injective(M):
    return M.is_zero() or envelope(M)[1].dst.total_dim == M.total_dim


# ------------------------------------------------------------------ resolutions, Ext and translates


def resolution(M, cap):
    """The minimal resolution from covers and kernels, its differentials read off the composite maps,
    and those maps."""
    if M.is_zero():
        return ProjResolution(M, [ProjSum(M.alg, ())], [], [], True), []
    terms, diffs, homs, syzygies = [], [], [], []
    K, incl = M, None
    for _ in range(cap + 1):
        P, h = cover(K)
        terms.append(P)
        if incl is not None:
            homs.append(then(h, incl))
            cols = [homs[-1].mat(u).column(P.generator_position(s)) for s, u in enumerate(P.summands)]
            diffs.append([[(i, c) for i, c in enumerate(col) if c] for col in cols])
        K, incl = kernel(h)
        syzygies.append(K)
        if K.is_zero():
            return ProjResolution(M, terms, diffs, syzygies, True), homs
    return ProjResolution(M, terms, diffs, syzygies, False), homs


def differential_terms(res, j):
    """(s, t, b, coeff) for each term coeff * (t, b) of the image of generator s under differential j."""
    P, Q = res.terms[j + 1], res.terms[j]
    return [(s, *Q.basis_index[P.summands[s]][i], coeff) for s, image in enumerate(res.diffs[j]) for i, coeff in image]


def differential(res, j):
    """The map terms[j+1] -> terms[j] of a resolution, composed out of its generator images."""
    return proj_hom(res.terms[j + 1], res.terms[j], differential_terms(res, j))


def ext_dim(res, N, degree):
    """dim Ext^degree from the Hom complex of res into N, one block N.act(b) per term of a differential."""
    if not res.complete and len(res.terms) < degree + 2:
        raise CapExceeded(f"resolution too short for Ext^{degree}")

    def offsets(j):
        return list(itertools.accumulate((N.dim(u) for u in res.term_vertices(j)), initial=0))

    def delta(j):
        src_off, dst_off = offsets(j + 1), offsets(j)
        m = Mat.zeros(src_off[-1], dst_off[-1])
        if 0 <= j < len(res.diffs):
            for s, t, b, coeff in differential_terms(res, j):
                act = N.act(b)
                for r in range(act.rows):
                    for c in range(act.cols):
                        m.data[src_off[s] + r][dst_off[t] + c] += coeff * act.data[r][c]
        return m

    d_i, d_prev = delta(degree), delta(degree - 1)
    return (d_i.cols - d_i.rank() if d_i.cols else 0) - d_prev.rank()


def hom_to_algebra(res, j):
    """Hom(d, A) of differential j: generator t of Hom(P^j, A) goes to the flipped terms in summand t."""
    op = res.base.alg.opposite()
    src, dst = ProjSum(op, res.terms[j].summands), ProjSum(op, res.terms[j + 1].summands)
    return proj_hom(src, dst, [(t, s, b.flipped(), coeff) for s, t, b, coeff in differential_terms(res, j)])


def nakayama_hom(res, j):
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


def transpose(X):
    """The Auslander-Bridger transpose coker Hom(d_1, A), a module over the opposite algebra."""
    res, _ = resolution(X, 1)
    if not res.diffs:
        return zero_module(X.alg.opposite())
    return cokernel(hom_to_algebra(res, 0))[0]


def tau_d(M, d):
    """D Tr of the (d-1)-fold syzygy."""
    return dualize(transpose(syzygy(M, d - 1)))


def tau_d_inverse(M, d):
    """Tr of the (d-1)-fold syzygy of DM, without the round trip through tau_d."""
    return transpose(syzygy(dualize(M), d - 1))


def domdim(alg, cap):
    """The whole coresolution of A is kept, then its leading projective terms counted."""
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
