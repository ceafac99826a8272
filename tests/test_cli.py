import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from corpus import GOLDEN_FLAGS, GOLDEN_SPECS
from hinak.algebras import AlgebraSpec, build, label
from hinak import cli
from hinak.cli import main, make_parser
from hinak.reps import ext_dim, find_isomorphic, interval_module, tau_d, tau_d_inverse


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_tau_example():
    code, out, _ = run_cli(
        "tau", "--family", "an", "--n", "4", "--d", "2", "--module", "1,2,3", "--power", "1"
    )
    assert code == 0 and out == "0,1,2\n"


def test_tau_negative_power():
    code, out, _ = run_cli(
        "tau", "--family", "an", "--n", "4", "--d", "2", "--module", "0,1,2", "--power", "-1"
    )
    assert code == 0 and out == "1,2,3\n"


def test_tau_projective_gives_zero():
    code, out, _ = run_cli(
        "tau", "--family", "an", "--n", "4", "--d", "2", "--module", "0,1,2", "--power", "1"
    )
    assert code == 0 and out == "0\n"


@pytest.mark.parametrize("name", ["an-4-2", "selfinj-atilde-3-3-2", "tube-trunc-2-2-4"])
def test_tau_names_the_first_certified_summand_of_a_full_scan(name):
    # the CLI builds only the summands with the translate's dimension vector; the answer must be the
    # one a scan over every summand's module gives, or exit 3 with nothing on stdout
    alg = build(dict(zip(GOLDEN_FLAGS, GOLDEN_SPECS))[name])
    mods = [(lam, interval_module(alg, lam)) for lam in alg.summands()]
    for lam, M in mods:
        for power, step in ((1, tau_d), (-1, tau_d_inverse)):
            T = step(M, alg.d)
            if T.is_zero():
                want = (0, "0\n")
            else:
                found = find_isomorphic(T, mods)
                want = (3, "") if found is None else (0, label(found) + "\n")
            argv = ("tau", *GOLDEN_FLAGS[name], "--module", label(lam), "--power", str(power))
            assert run_cli(*argv)[:2] == want, argv


def test_quiver_dot_counts():
    code, out, _ = run_cli("quiver", "--family", "an", "--n", "4", "--d", "2", "--format", "dot")
    assert code == 0
    assert out.count("->") == 12
    assert out.count('";') == 10


def test_quiver_json_matches_build():
    code, out, _ = run_cli(
        "quiver", "--family", "kupisch-a", "--series", "1,2,2,3", "--d", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 8
    for name, flags in GOLDEN_FLAGS.items():
        built = run_cli("build", *flags)
        assert built == run_cli("quiver", *flags, "--format", "json"), name
        assert built[0] == 0 and built[1], name


def test_hom_and_ext():
    code, out, _ = run_cli(
        "hom", "--family", "an", "--n", "4", "--d", "2", "--from", "0,1,2", "--to", "1,2,3"
    )
    assert code == 0 and out == "1\n"
    code, out, _ = run_cli(
        "ext",
        "--family", "an", "--n", "4", "--d", "2",
        "--from", "1,2,3", "--to", "0,1,2", "--degree", "2",
    )
    assert code == 0 and out == "1\n"


def test_ct_module_listing():
    code, out, _ = run_cli("ct-module", "--family", "selfinj-atilde", "--n", "3", "--l", "3", "--d", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 18
    # over a selfinjective algebra the maximal-length summands are projective-injective
    for line in lines:
        lam, loewy, flags = line.split("\t")
        assert (flags == "PI") == (loewy == "3")


def test_resolve_and_cap_exit_code():
    code, out, _ = run_cli(
        "resolve", "--family", "an", "--n", "4", "--d", "2", "--module", "1,2,3"
    )
    assert code == 0
    assert out.splitlines() == ["P^-0\t2,3", "P^-1\t0,3", "P^-2\t0,1"]
    code, _, err = run_cli(
        "resolve",
        "--family", "selfinj-atilde", "--n", "2", "--l", "2", "--d", "1",
        "--module", "0,0", "--cap", "2",
    )
    assert code == 3 and "cap" in err


def test_graded_cap_in_mesh_iso_exits_3(monkeypatch):
    import hinak.algebras

    monkeypatch.setattr(hinak.algebras, "GRADED_DEG_CAP", 2)
    code, out, err = run_cli(
        "check", "--family", "zl-window", "--l", "3", "--a", "0", "--b", "4", "--d", "2",
        "--suite", "mesh-iso",
    )
    assert code == 3 and out == ""
    assert "cap exceeded" in err and "degree cap 2" in err


def test_check_exit_codes_and_reports():
    code, out, _ = run_cli(
        "check",
        "--family", "kupisch-a", "--series", "1,2,2,3", "--d", "2",
        "--suite", "kupisch-lengths", "--report", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["passed"] is True
    code, out, _ = run_cli(
        "check",
        "--family", "an", "--n", "3", "--d", "1",
        "--suite", "gldim", "--report", "text",
    )
    assert code == 0 and "PASS" in out


def test_orbit_canonicalize():
    code, out, _ = run_cli("orbit", "--canonicalize", "4,5,7", "--n", "3")
    assert code == 0 and out == "1,2,4 1\n"


def test_usage_errors():
    code, _, _ = run_cli("tau", "--family", "an", "--n", "4", "--d", "2")  # missing --module
    assert code == 2
    code, _, err = run_cli("check", "--family", "an", "--d", "2", "--suite", "all")  # missing --n
    assert code == 2 and err == "error: family 'an' requires --n\n"
    code, out, err = run_cli(
        "check", "--family", "atilde-kupisch", "--series", "3,3,2", "--d", "2",
        "--suite", "orbit-periodicity",
    )
    assert (code, out) == (2, "") and "does not apply" in err
    for argv in (
        ("--family", "an", "--n", "3", "--d", "2", "--suite", "selfinjective"),
        ("--family", "tube-trunc", "--n", "2", "--d", "2", "--trunc", "3", "--suite", "gldim"),
    ):
        code, out, err = run_cli("check", *argv)
        assert (code, out) == (2, "") and "does not apply" in err, argv
    code, _, _ = run_cli("quiver", "--family", "an", "--n", "4", "--d", "2", "--bogus")
    assert code == 2
    an42 = ("--family", "an", "--n", "4", "--d", "2")
    for argv in (
        ("resolve", *an42, "--module", "0,2,9"),
        ("hom", *an42, "--from", "0,2,9", "--to", "0,1,2"),
        ("hom", *an42, "--from", "0,1,2", "--to", "0,2,9"),
        ("ext", *an42, "--from", "0,2,9", "--to", "0,1,2", "--degree", "1"),
        ("tau", *an42, "--module", "0,2,9"),
    ):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "") and "0,2,9 does not index a summand" in err, argv
    # orbit families take any tuple of a summand's orbit
    code, out, _ = run_cli(
        "tau", "--family", "tube-trunc", "--n", "2", "--d", "2", "--trunc", "4", "--module", "5,6,7"
    )
    assert code == 0 and out == "0,1,2\n"


def test_byte_identical_output():
    args = ("quiver", "--family", "an", "--n", "4", "--d", "3", "--format", "qpa")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second


def test_build_verb():
    code, out, _ = run_cli("build", "--family", "tube-trunc", "--n", "3", "--d", "2", "--trunc", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["orbit_modulus"] == 3


def test_check_all_suites_small_spec():
    code, out, _ = run_cli(
        "check", "--family", "an", "--n", "2", "--d", "1", "--suite", "all"
    )
    assert code == 0
    assert out.count("=> PASS") >= 5


def test_check_all_at_the_top_of_a_hasse_path():
    # (1,2,3) has no ambient algebra, so --suite all runs every suite but the embedding
    args = ("check", "--family", "kupisch-a", "--series", "1,2,3", "--d", "2")
    code, out, _ = run_cli(*args, "--suite", "all", "--report", "json")
    assert code == 0
    assert [r["suite"] for r in json.loads(out)] == [
        "hom-ext", "proj-inj", "kupisch-lengths", "tau-translate", "cluster-tilting",
        "resolutions", "gldim", "hasse-tower",
    ]
    code, _, err = run_cli(*args, "--suite", "homological-embedding")
    assert code == 2 and "no default ambient algebra for this spec" in err


def test_orbit_bad_tuple_is_usage_error():
    code, _, _ = run_cli("orbit", "--canonicalize", "1,x,3", "--n", "3")
    assert code == 2


def test_orbit_unordered_tuple_is_usage_error():
    code, out, err = run_cli("orbit", "--canonicalize", "2,1", "--n", "3")
    assert code == 2 and out == "" and "not weakly increasing" in err


def test_ext_on_tube_with_stabilization():
    code, out, _ = run_cli(
        "ext",
        "--family", "tube-trunc", "--n", "3", "--d", "2", "--trunc", "4",
        "--from", "0,1,2", "--to", "0,1,1", "--degree", "2",
    )
    assert code == 0
    assert out.strip().isdigit()


def test_ext_exit_codes_on_orbit_families():
    code, out, err = run_cli(
        "ext",
        "--family", "tube-trunc", "--n", "2", "--d", "2", "--trunc", "4",
        "--from", "0,0,0", "--to", "0,3,3", "--degree", "2",
    )
    assert (code, out) == (3, "") and "did not stabilize" in err
    code, out, err = run_cli(
        "ext",
        "--family", "selfinj-atilde", "--n", "3", "--l", "3", "--d", "2",
        "--from", "0,1,1", "--to", "0,1,1", "--degree", "2",
    )
    assert code == 0 and out.strip().isdigit() and err == ""


def two_level_ext(spec, lam, mu, degree):
    """Ext on a fresh build at the truncation level and at d + 1 levels up, and whether they agree."""
    vals = []
    for level in (spec.bound, spec.bound + spec.d + 1):
        alg = build(AlgebraSpec.tube_trunc(spec.n, spec.d, level))
        vals.append(ext_dim(interval_module(alg, lam), interval_module(alg, mu), degree))
    return vals[0], vals[0] == vals[1]


def test_tube_ext_matches_the_two_level_reference():
    spec = AlgebraSpec.tube_trunc(2, 2, 4)
    lams = build(spec).summands()
    flags = ["ext", "--family", "tube-trunc", "--n", "2", "--d", "2", "--trunc", "4", "--degree", "2"]
    stabilized = set()
    for lam in lams[:5]:
        for mu in lams:
            val, stable = two_level_ext(spec, lam, mu, 2)
            code, out, _ = run_cli(*flags, "--from", ",".join(map(str, lam)), "--to", ",".join(map(str, mu)))
            assert (code, out) == ((0, f"{val}\n") if stable else (3, ""))
            stabilized.add(stable)
    assert stabilized == {True, False}
    # at trunc 5 the value 0 changes further up: the exit is 3 and no answer is written
    spec = AlgebraSpec.tube_trunc(2, 2, 5)
    assert two_level_ext(spec, (0, 0, 3), (0, 3, 3), 2) == (0, False)
    flags[flags.index("--trunc") + 1] = "5"
    code, out, err = run_cli(*flags, "--from", "0,0,3", "--to", "0,3,3")
    assert (code, out) == (3, "") and "did not stabilize" in err


def test_hom_on_orbit_family():
    code, out, _ = run_cli(
        "hom",
        "--family", "selfinj-atilde", "--n", "3", "--l", "3", "--d", "2",
        "--from", "0,1,2", "--to", "0,1,2",
    )
    assert code == 0 and out == "1\n"


def test_shared_parser_keeps_no_state_between_calls(monkeypatch):
    """main reuses one parser; each answer equals the one a freshly built parser gives."""
    assert make_parser() is make_parser()
    an42 = ("--family", "an", "--n", "4", "--d", "2")
    an31 = ("--family", "an", "--n", "3", "--d", "1", "--suite", "gldim")
    sequence = [
        ("hom", "--family", "an", "--n", "4", "--from", "0,1,2", "--to", "1,2,3"),
        ("hom", *an42, "--from", "0,2,9", "--to", "0,1,2"),
        ("tau", *an42, "--module", "0,1,2", "--power", "-1"),
        ("tau", *an42, "--module", "1,2,3"),
        ("quiver", *an42, "--format", "qpa"),
        ("quiver", *an42),
        ("check", *an31, "--report", "json"),
        ("check", *an31),
    ]
    shared = [run_cli(*argv) for argv in sequence]
    monkeypatch.setattr(cli, "make_parser", make_parser.__wrapped__)
    fresh = [run_cli(*argv) for argv in sequence]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 2, 0, 0, 0, 0, 0, 0]
    assert "--d" in shared[0][2] and "does not index a summand" in shared[1][2]
    assert shared[2][1] == "1,2,3\n" and shared[3][1] == "0,1,2\n"
    assert shared[4][1] != shared[5][1] and shared[5][1].startswith("digraph")
    assert json.loads(shared[6][1]) and "PASS" in shared[7][1]
    assert not shared[7][1].lstrip().startswith("[")
