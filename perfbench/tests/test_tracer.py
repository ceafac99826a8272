"""The tracer's counts against cProfile, and their repeatability.

    python3 -m pytest perfbench/tests -q
"""

import cProfile
import pstats
import sys

import pytest

from run import import_hinak, run_pass
from tracer import Tracer
from workloads import CliQueries, RationalBaseChange


def _traced_run_all(n: int, d: int) -> Tracer:
    hk = import_hinak()
    tracer = Tracer()
    tracer.install()
    try:
        hk.checks.run_all(hk.algebras.AlgebraSpec.linear_an(n, d))
    finally:
        tracer.uninstall()
    return tracer


def test_every_wrapped_function_matches_cprofile():
    hk = import_hinak()
    profile = cProfile.Profile()
    profile.enable()
    hk.checks.run_all(hk.algebras.AlgebraSpec.linear_an(4, 2))
    profile.disable()
    ncalls = {key: stat[1] for key, stat in pstats.Stats(profile).stats.items()}

    tracer = _traced_run_all(4, 2)
    mismatched = {}
    for qual, fn, got in zip(tracer.names, tracer.originals, tracer.calls):
        code = fn.__code__
        want = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        if got != want:
            mismatched[qual] = (got, want)
    assert not mismatched
    assert {
        "reps.interval_module": 190,
        "reps.min_proj_resolution": 110,
        "reps.hom_space": 1354,
        "reps.tau_d": 40,
        "reps.modules_isomorphic": 70,
        "reps.ModuleHom.then": 896,
        "linalg.Mat.rref": 11346,
    } == {q: tracer.count(q) for q in (
        "reps.interval_module", "reps.min_proj_resolution", "reps.hom_space", "reps.tau_d",
        "reps.modules_isomorphic", "reps.ModuleHom.then", "linalg.Mat.rref")}


def test_an53_matches_roadmap_counts():
    tracer = _traced_run_all(5, 3)
    assert (
        tracer.count("reps.interval_module"),
        tracer.count("reps.min_proj_resolution"),
        tracer.count("reps.hom_space"),
        tracer.count("reps.tau_d"),
    ) == (665, 385, 15440, 140)


def test_uninstall_restores_every_binding():
    hk = import_hinak()

    def bindings():
        return (hk.reps.hom_space, hk.checks.hom_space, hk.cli.hom_space, sys.modules["hinak"].hom_space,
                vars(hk.linalg.Mat)["zeros"], dict(hk.checks.SUITES))

    before = bindings()
    tracer = Tracer()
    tracer.install()
    assert hk.checks.hom_space is not before[1] and hk.cli.hom_space is hk.reps.hom_space
    assert hk.checks.SUITES["hom-ext"] is not before[5]["hom-ext"]
    tracer.uninstall()
    assert bindings() == before


def _count_metrics(workload, seed: int) -> dict:
    hk = import_hinak()
    ops = workload(hk, seed).ops(0)
    tracer = Tracer()
    outcome = {"attempted": 0, "failed": 0, "undecided": 0}
    tracer.install()
    try:
        run_pass(ops, outcome, tracer)
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    counts.update({k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"})
    return counts


@pytest.mark.parametrize("workload", [CliQueries, RationalBaseChange])
def test_two_traced_runs_give_identical_counts(workload):
    assert _count_metrics(workload, 3) == _count_metrics(workload, 3)


def test_two_traced_run_alls_give_identical_counts():
    assert _traced_run_all(4, 2).counts() == _traced_run_all(4, 2).counts()
