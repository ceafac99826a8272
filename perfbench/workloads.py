"""The three benchmark workloads.

A workload is built from the live ``hinak`` modules and a seed.  ``ops(i)``
returns the operations of pass ``i`` of its ``cycle`` of distinct passes; the
same seed and pass number always give the same operations.  A run goes
round the cycle, so every query is timed about as often as every other.  An
operation is ``(label, run, check, query)``: ``run`` is the timed call into
the program and returns its result, ``check`` is the benchmark's own verdict
on that result and returns one of ``RIGHT``, ``WRONG`` or ``UNDECIDED`` (the
program answered that it cannot certify a result: exit code 3, or
``modules_isomorphic`` returning None, both documented outcomes), and
``query`` groups consecutive operations into the one request a user waits
for (None: the operation is a request of its own).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import oracles

RIGHT, WRONG, UNDECIDED = "right", "wrong", "undecided"
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def spec_key(spec) -> str:
    return json.dumps(spec.describe(), sort_keys=True)


def report_digest(report_json: str) -> str:
    return hashlib.sha256(report_json.encode()).hexdigest()


# ---------------------------------------------------------------- an-tower


class AnTower:
    """``run_all`` on linear-a n=6 d=3; one operation is one (spec, suite) JSON report.

    A report is right when every claim passes and its SHA-256 matches the
    digest recorded at the seed commit in ``golden.json``.  A spec's reports
    together make one query, the latency of ``hinak check --suite all``.  The
    work is fixed, so the seed does not change it.
    """

    name = "an-tower"
    kind = "suite"
    cycle = 1

    def __init__(self, hk, seed: int):
        self.hk = hk
        golden = json.loads(GOLDEN.read_text())
        self.pairs = []
        for spec in self.specs(hk.algebras.AlgebraSpec):
            hk.algebras.build(spec)
            for suite in hk.checks.applicable_suites(spec):
                self.pairs.append((spec, suite, golden[f"{spec_key(spec)}|{suite}"]))

    @staticmethod
    def specs(AlgebraSpec) -> list:
        return [AlgebraSpec.linear_an(6, 3)]

    def ops(self, i: int) -> list:
        return [self._op(*p) for p in self.pairs]

    def _op(self, spec, suite, digest):
        checks = self.hk.checks

        def run():
            report = checks.run_suite(spec, suite)
            return report.passed, report.to_json()

        def check(result):
            passed, text = result
            return RIGHT if passed and report_digest(text) == digest else WRONG

        return f"{spec_key(spec)} {suite}", run, check, spec_key(spec)


# ---------------------------------------------------------------- CLI queries


CLI_FAMILIES = (
    (["--family", "an", "--n", "5", "--d", "3"], {"family": "linear-a", "n": 5, "d": 3}),
    (
        ["--family", "kupisch-a", "--series", "1,2,3,3,3", "--d", "2"],
        {"family": "kupisch-a", "series": (1, 2, 3, 3, 3), "d": 2},
    ),
    (
        ["--family", "selfinj-atilde", "--n", "4", "--l", "4", "--d", "2"],
        {"family": "selfinj-atilde", "n": 4, "bound": 4, "d": 2},
    ),
    (
        ["--family", "tube-trunc", "--n", "3", "--d", "2", "--trunc", "5"],
        {"family": "tube-trunc", "n": 3, "bound": 5, "d": 2},
    ),
)
CLI_PER_STRATUM = 10  # queries per (family, verb) in one pass


class CliQueries:
    """``hinak hom|ext|tau`` through ``hinak.cli.main`` in process, one client, closed loop.

    Every pass draws the same number of queries for each (family, verb), so
    seeds differ only in which summands and degrees are asked about.  The
    cycle's 1200 queries leave twelve beyond the 99th percentile.
    """

    name = "cli-queries"
    kind = "query"
    cycle = 10

    def __init__(self, hk, seed: int):
        self.hk = hk
        self.seed = seed
        self.families = [(flags, fam, oracles.summands(fam)) for flags, fam in CLI_FAMILIES]

    def ops(self, i: int) -> list:
        rng = random.Random(f"{self.seed}:{i}")
        out = []
        for flags, fam, lams in self.families:
            for _ in range(CLI_PER_STRATUM):
                lam, mu = rng.choice(lams), rng.choice(lams)
                out.append(self._op(["hom", *flags, "--from", oracles.fmt(lam), "--to", oracles.fmt(mu)],
                                    str(oracles.hom_dim(fam, lam, mu))))
            for _ in range(CLI_PER_STRATUM):
                lam, mu = rng.choice(lams), rng.choice(lams)
                degree = rng.randint(1, fam["d"])
                want = oracles.ext_dim(fam, lam, mu, degree)
                argv = ["ext", *flags, "--from", oracles.fmt(lam), "--to", oracles.fmt(mu),
                        "--degree", str(degree)]
                out.append(self._op(argv, None if want is None else str(want)))
            for _ in range(CLI_PER_STRATUM):
                lam = rng.choice(lams)
                image = oracles.tau(fam, lam)
                out.append(self._op(["tau", *flags, "--module", oracles.fmt(lam)],
                                    "0" if image is None else oracles.fmt(image)))
        rng.shuffle(out)
        return out

    def _op(self, argv: list[str], want: str | None):
        cli = self.hk.cli

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue().strip()

        def check(result):
            code, text = result
            if code == 3:
                return UNDECIDED
            if code != 0:
                return WRONG
            return RIGHT if want is None or text == want else WRONG

        return " ".join(argv), run, check, None


# ---------------------------------------------------------------- rational base change


RATIONAL_ALGEBRAS = (
    {"family": "linear-a", "n": 5, "d": 2},
    {"family": "linear-a", "n": 4, "d": 3},
    {"family": "tube-trunc", "n": 3, "bound": 5, "d": 2},
)
RATIONAL_PER_STRATUM = 5  # direct sums per (algebra, number of summands) in one pass


class RationalBaseChange:
    """Direct sums of 2-3 distinct summands under a dense rational change of basis.

    Each sum C = g M g^-1 (g invertible at every vertex, entries p/q with
    |p| <= 3, 1 <= q <= 3) is asked ``hom_space(C, M)``, ``ext_dim(C, M, d)``
    on linear-a and ``modules_isomorphic(C, M)``.  The seed draws the base
    changes g.  Which summands pass ``i`` sums does not depend on the seed:
    query cost is heavy-tailed in the summands (a few tube-trunc sums take
    50-180 ms against a median of 3 ms), so seeded summands would make the
    figures measure the draw rather than the program.  The cycle's 1280
    queries leave twelve beyond the 99th percentile.  The modules are rebuilt
    from their matrices inside each timed query, as a user loading them
    would.  The algebras are built once, with their projective and injective
    modules, during set-up and shared by every pass, so query latency is not
    dominated by filling the algebras' caches.
    """

    name = "rational-basechange"
    kind = "query"
    cycle = 16

    def __init__(self, hk, seed: int):
        self.hk = hk
        self.seed = seed
        self.algebras = []
        for fam in RATIONAL_ALGEBRAS:
            spec = self._spec(fam)
            alg = hk.algebras.build(spec)
            for v in alg.vertices:
                hk.reps.projective_module(alg, v)
                hk.reps.injective_module(alg, v)
            arrows = [(tuple(a.elt), a.src, a.dst) for a in alg.arrows()]
            pieces = {}
            for lam in oracles.summands(fam):
                M = hk.reps.interval_module(alg, lam)
                pieces[lam] = (dict(M.dims), {e: [row[:] for row in M.mat(hk.algebras.BasisElt(*e)).data]
                                              for e, _, _ in arrows})
            self.algebras.append((fam, alg, arrows, pieces))

    def _spec(self, fam: dict):
        AlgebraSpec = self.hk.algebras.AlgebraSpec
        if fam["family"] == "linear-a":
            return AlgebraSpec.linear_an(fam["n"], fam["d"])
        return AlgebraSpec.tube_trunc(fam["n"], fam["d"], fam["bound"])

    def ops(self, i: int) -> list:
        rng = random.Random(f"{self.seed}:{i}")
        designs = random.Random(f"sums:{i}")
        out = []
        for fam, alg, arrows, pieces in self.algebras:
            lams_all = sorted(pieces)
            for k in (2, 3):
                for _ in range(RATIONAL_PER_STRATUM):
                    lams = designs.sample(lams_all, k)
                    orig = self._direct_sum(arrows, [pieces[l] for l in lams])
                    conj = self._conjugate(rng, arrows, orig)
                    label = f"{fam['family']}{fam['n']},{fam['d']} " + "+".join(map(oracles.fmt, lams))
                    hom = sum(oracles.hom_dim(fam, a, b) for a in lams for b in lams)
                    out.append(self._op("hom " + label, alg, conj, orig, "hom", hom))
                    if fam["family"] == "linear-a":
                        ext = sum(oracles.ext_dim(fam, a, b, fam["d"]) for a in lams for b in lams)
                        out.append(self._op("ext " + label, alg, conj, orig, "ext", ext))
                    out.append(self._op("iso " + label, alg, conj, orig, "iso", True))
        rng.shuffle(out)
        return out

    @staticmethod
    def _direct_sum(arrows, parts):
        dims = {}
        for pdims, _ in parts:
            for v, k in pdims.items():
                dims[v] = dims.get(v, 0) + k
        mats = {}
        for e, src, dst in arrows:
            if not dims.get(src) or not dims.get(dst):
                continue
            shapes = [(p[0].get(src, 0), p[0].get(dst, 0)) for p in parts]
            mats[e] = oracles.block_diag([p[1][e] for p in parts], shapes)
        return dims, mats

    @staticmethod
    def _conjugate(rng, arrows, module):
        dims, mats = module
        g = {v: oracles.random_invertible(rng, k) for v, k in sorted(dims.items()) if k}
        out = {}
        for e, src, dst in arrows:
            if e in mats:
                out[e] = oracles.matmul(oracles.matmul(g[src][0], mats[e]), g[dst][1])
        return dims, out

    def _op(self, label, alg, conj, orig, kind, want):
        reps, Mat, BasisElt = self.hk.reps, self.hk.linalg.Mat, self.hk.algebras.BasisElt

        def module(raw):
            dims, mats = raw
            return reps.MatrixModule(alg, dims, {BasisElt(*e): Mat([r[:] for r in rows]) for e, rows in mats.items()})

        def run():
            C, M = module(conj), module(orig)
            if kind == "hom":
                return len(reps.hom_space(C, M))
            if kind == "ext":
                return reps.ext_dim(C, M, alg.d)
            return reps.modules_isomorphic(C, M)

        def check(result):
            if kind == "iso" and result is None:
                return UNDECIDED
            return RIGHT if result == want else WRONG

        return label, run, check, None


WORKLOADS = {w.name: w for w in (AnTower, CliQueries, RationalBaseChange)}
