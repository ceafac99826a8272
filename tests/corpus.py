"""The modules the differential tests compare on.

One spec per golden family, the command-line flags of the same specs, the
fixed direct sums over an(4,2), one dense rational change of basis, and the
extra algebras the tests reach for: an(4,2), tube-trunc 3 2 5 and the loop
algebra selfinj-atilde 1 3 1.  Every random draw takes a generator the test
seeds, and every module is built over the algebra the test passes in, so
each test sees the same modules on every run.  Test modules import shared fixtures from here,
never from each other.
"""

from fractions import Fraction

from hinak.algebras import AlgebraSpec
from hinak.combinat import KupischSeries
from hinak.linalg import Mat
from hinak.reps import MatrixModule, direct_sum_modules, interval_module

# one spec per golden family, in the order of tests/golden
GOLDEN_SPECS = [
    AlgebraSpec.linear_an(4, 2),
    AlgebraSpec.kupisch_a((1, 2, 2, 3), 2),
    AlgebraSpec.window_spec(0, 3, 2),
    AlgebraSpec.zl_window(3, 0, 4, 2),
    AlgebraSpec.selfinj_atilde(3, 3, 2),
    AlgebraSpec.atilde_kupisch((3, 3, 2), 2),
    AlgebraSpec.tube_trunc(2, 2, 4),
]

# the same specs as command-line flags, keyed by the name of their golden files
GOLDEN_FLAGS = {
    "an-4-2": ["--family", "an", "--n", "4", "--d", "2"],
    "kupisch-a-1223-2": ["--family", "kupisch-a", "--series", "1,2,2,3", "--d", "2"],
    "window-0-3-2": ["--family", "window", "--a", "0", "--b", "3", "--d", "2"],
    "zl-window-3-0-4-2": ["--family", "zl-window", "--l", "3", "--a", "0", "--b", "4", "--d", "2"],
    "selfinj-atilde-3-3-2": ["--family", "selfinj-atilde", "--n", "3", "--l", "3", "--d", "2"],
    "atilde-kupisch-332-2": ["--family", "atilde-kupisch", "--series", "3,3,2", "--d", "2"],
    "tube-trunc-2-2-4": ["--family", "tube-trunc", "--n", "2", "--d", "2", "--trunc", "4"],
}

AN42 = AlgebraSpec.linear_an(4, 2)
TUBE_325 = AlgebraSpec.tube_trunc(3, 2, 5)
# a loop at its one vertex: both terms of a naturality equation land in one block
LOOP = AlgebraSpec.selfinj_atilde(1, 3, 1)


def iter_linear_kupisch(n):
    """All valid linear Kupisch series on n vertices, lexicographically: 1, then steps up by at most one."""
    series = [(1,)]
    for _ in range(n - 1):
        series = [s + (v,) for s in series for v in range(2, s[-1] + 2)]
    return [KupischSeries.linear_a(s) for s in series]


def summands(alg):
    """The interval module of each summand of the distinguished module."""
    return [interval_module(alg, lam) for lam in alg.summands()]


def direct_sum(alg, lams):
    return direct_sum_modules([interval_module(alg, lam) for lam in lams])


def fixed_sums(alg, rng):
    """Over an(4,2): a repeated summand, three distinct summands, and three summands drawn by rng."""
    lams = [[(0, 1, 2), (0, 1, 2)], [(0, 1, 2), (1, 2, 3), (0, 1, 3)], rng.sample(alg.summands(), 3)]
    return [direct_sum(alg, ls) for ls in lams]


def random_invertible(rng, k):
    while True:
        m = Mat([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(k)] for _ in range(k)])
        inv = m.inverse()
        if inv is not None:
            return m, inv


def conjugate(rng, M):
    """M under a dense rational change of basis at every non-zero vertex."""
    g = {v: random_invertible(rng, k) for v, k in M.dims.items() if k}
    mats = {e: g[e.src][1] * m * g[e.dst][0] for e, m in M.mats.items() if m.rows and m.cols}
    return MatrixModule(M.alg, M.dims, mats)


def conjugated_sums(rng, alg):
    """The fixed sums over alg = an(4,2), each under a dense rational change of basis."""
    return [conjugate(rng, S) for S in fixed_sums(alg, rng)]


def has_fractions(mods):
    """Whether some arrow of some module acts with a non-integer entry."""
    return any(x.denominator != 1 for M in mods for m in M.mats.values() for row in m.data for x in row)
