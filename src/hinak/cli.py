"""Command line front end.

Machine output goes to stdout, diagnostics to stderr.  Exit codes:
0 success / all checks pass, 1 check failures, 2 usage errors,
3 a computation cap was exceeded or a result could not be certified.
Tuple flags are comma-joined entries, e.g. ``--module 1,2,3``.
"""

from __future__ import annotations

import argparse
import sys

from .algebras import FAMILIES, AlgebraSpec, build, export_dot, export_json, export_qpa
from .checks import run_all, run_suite
from .combinat import as_os, canonical_orbit_rep, loewy_len
from .reps import (
    CapExceeded,
    default_cap,
    ext_dim,
    interval_module,
    is_injective,
    is_projective,
    min_proj_resolution,
    modules_isomorphic,
    hom_space,
    orbit_ext_dim,
    tau_d,
    tau_d_inverse,
)

USAGE_ERROR = 2
CAP_ERROR = 3

_BY_CLI_NAME = {row.cli_name: row for row in FAMILIES.values()}


def _tuple_flag(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tuple {text!r}") from exc


def _add_family_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", required=True, choices=list(_BY_CLI_NAME))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--series", type=_tuple_flag)
    p.add_argument("--l", type=int, dest="bound")
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--trunc", type=int, dest="trunc", help="tube truncation level")


def _spec_from_args(args) -> AlgebraSpec:
    row = _BY_CLI_NAME[args.family]
    return row.from_flags(args.d, *[_need(args, flag) for flag in row.cli_flags])


class UsageError(RuntimeError):
    pass


def _need(args, name: str):
    if getattr(args, name) is None:
        flag = {"bound": "--l", "trunc": "--trunc"}.get(name, f"--{name}")
        raise UsageError(f"family {args.family!r} requires {flag}")
    return getattr(args, name)


def _identify_interval(alg, M) -> str:
    if M.is_zero():
        return "0"
    for lam in alg.summands():
        if modules_isomorphic(M, interval_module(alg, lam)) is True:
            return ",".join(map(str, lam))
    raise CapExceeded("module is not isomorphic to a distinguished summand")


def cmd_build(args) -> int:
    sys.stdout.write(export_json(build(_spec_from_args(args))))
    return 0


def cmd_quiver(args) -> int:
    alg = build(_spec_from_args(args))
    if args.format == "dot":
        sys.stdout.write(export_dot(alg))
    elif args.format == "qpa":
        sys.stdout.write(export_qpa(alg))
    else:
        sys.stdout.write(export_json(alg))
    return 0


def cmd_ct_module(args) -> int:
    alg = build(_spec_from_args(args))
    for lam in alg.summands():
        M = interval_module(alg, lam)
        flags = ("P" if is_projective(M) else "-") + ("I" if is_injective(M) else "-")
        sys.stdout.write(f"{','.join(map(str, lam))}\t{loewy_len(lam)}\t{flags}\n")
    return 0


def cmd_resolve(args) -> int:
    alg = build(_spec_from_args(args))
    cap = args.cap if args.cap is not None else default_cap(alg)
    res = min_proj_resolution(interval_module(alg, as_os(args.module)), cap)
    for j, term in enumerate(res.terms):
        names = ";".join(",".join(map(str, u)) for u in term.summands) or "0"
        sys.stdout.write(f"P^-{j}\t{names}\n")
    if not res.complete:
        sys.stderr.write(f"resolution cap {cap} reached before termination\n")
        return CAP_ERROR
    return 0


def cmd_ext(args) -> int:
    spec = _spec_from_args(args)
    lam, mu = as_os(args.src), as_os(args.dst)
    if spec.row.truncated:
        val, stable = orbit_ext_dim(spec, lam, mu, args.degree)
        sys.stdout.write(f"{val}\n")
        if not stable:
            sys.stderr.write("extension dimension did not stabilize across truncations\n")
            return CAP_ERROR
        return 0
    alg = build(spec)
    val = ext_dim(interval_module(alg, lam), interval_module(alg, mu), args.degree)
    sys.stdout.write(f"{val}\n")
    return 0


def cmd_hom(args) -> int:
    alg = build(_spec_from_args(args))
    lam, mu = as_os(args.src), as_os(args.dst)
    val = len(hom_space(interval_module(alg, lam), interval_module(alg, mu)))
    sys.stdout.write(f"{val}\n")
    return 0


def cmd_tau(args) -> int:
    alg = build(_spec_from_args(args))
    M = interval_module(alg, as_os(args.module))
    power = args.power
    step = tau_d if power >= 0 else tau_d_inverse
    for _ in range(abs(power)):
        if M.is_zero():
            break
        M = step(M, alg.d)
    sys.stdout.write(_identify_interval(alg, M) + "\n")
    return 0


def cmd_check(args) -> int:
    spec = _spec_from_args(args)
    if args.suite == "all":
        reports = run_all(spec)
    else:
        reports = [run_suite(spec, args.suite)]
    if args.report == "json":
        import json

        sys.stdout.write(
            json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True) + "\n"
        )
    else:
        for r in reports:
            sys.stdout.write(r.to_text() + "\n")
    return 0 if all(r.passed for r in reports) else 1


def cmd_orbit(args) -> int:
    rep, shift = canonical_orbit_rep(args.canonicalize, args.n)
    sys.stdout.write(f"{','.join(map(str, rep))} {shift}\n")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hinak", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="emit the algebra as JSON")
    _add_family_flags(p)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("quiver", help="export the bound quiver")
    _add_family_flags(p)
    p.add_argument("--format", choices=["dot", "qpa", "json"], default="dot")
    p.set_defaults(fn=cmd_quiver)

    p = sub.add_parser("ct-module", help="list the distinguished summands")
    _add_family_flags(p)
    p.set_defaults(fn=cmd_ct_module)

    p = sub.add_parser("resolve", help="minimal projective resolution of a summand")
    _add_family_flags(p)
    p.add_argument("--module", type=_tuple_flag, required=True)
    p.add_argument("--cap", type=int)
    p.set_defaults(fn=cmd_resolve)

    p = sub.add_parser("ext", help="extension space dimension between summands")
    _add_family_flags(p)
    p.add_argument("--from", dest="src", type=_tuple_flag, required=True)
    p.add_argument("--to", dest="dst", type=_tuple_flag, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(fn=cmd_ext)

    p = sub.add_parser("hom", help="hom space dimension between summands")
    _add_family_flags(p)
    p.add_argument("--from", dest="src", type=_tuple_flag, required=True)
    p.add_argument("--to", dest="dst", type=_tuple_flag, required=True)
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("tau", help="apply the higher translate to a summand")
    _add_family_flags(p)
    p.add_argument("--module", type=_tuple_flag, required=True)
    p.add_argument("--power", type=int, default=1)
    p.set_defaults(fn=cmd_tau)

    p = sub.add_parser("check", help="run verification suites")
    _add_family_flags(p)
    p.add_argument("--suite", default="all")
    p.add_argument("--report", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("orbit", help="canonicalize a tuple modulo the orbit shift")
    p.add_argument("--canonicalize", type=_tuple_flag, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_orbit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return CAP_ERROR
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
