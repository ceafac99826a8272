"""Command line front end.

Machine output goes to stdout, diagnostics to stderr.  Exit codes:
0 success / all checks pass, 1 check failures, 2 usage errors,
3 a computation cap was exceeded or a result could not be certified.
Tuple flags are comma-joined entries, e.g. ``--module 1,2,3``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .algebras import FAMILIES, AlgebraSpec, build, export_dot, export_json, export_qpa
from .checks import run_all, run_suite
from .combinat import as_os, canonical_orbit_rep, loewy_len
from .reps import (
    CapExceeded,
    default_cap,
    ext_dim,
    find_isomorphic,
    interval_module,
    is_injective,
    is_projective,
    min_proj_resolution,
    hom_space,
    tau_d,
    tau_d_inverse,
)

USAGE_ERROR = 2
CAP_ERROR = 3

_BY_CLI_NAME = {row.cli_name: row for row in FAMILIES.values()}
EXPORTS = {"dot": export_dot, "qpa": export_qpa, "json": export_json}


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


def _need(args, name: str):
    if getattr(args, name) is None:
        flag = {"bound": "--l", "trunc": "--trunc"}.get(name, f"--{name}")
        raise ValueError(f"family {args.family!r} requires {flag}")
    return getattr(args, name)


def _summand(alg, t: tuple[int, ...]) -> tuple[int, ...]:
    """t, checked to index a summand; orbit families accept any tuple in its orbit."""
    t = as_os(t)
    if not alg.is_summand(alg.canonical(t)[0]):
        raise ValueError(f"{','.join(map(str, t))} does not index a summand")
    return t


def _identify_interval(alg, M) -> str:
    """The first summand, in summand order, whose interval module has M's dimension vector and is
    certified isomorphic to M.  Only those summands are built: the support of an interval module
    holds both corners of its box, so a summand with a corner outside M's support is skipped unread."""
    if M.is_zero():
        return "0"
    same = [lam for lam in alg.summands()
            if alg.canonical(lam[:-1])[0] in M.dims and alg.canonical(lam[1:])[0] in M.dims
            and {v: len(s) for v, s in alg.interval_support(lam).items()} == M.dims]
    found = find_isomorphic(M, ((lam, interval_module(alg, lam)) for lam in same))
    if found is not None:
        return ",".join(map(str, found))
    raise CapExceeded("module is not isomorphic to a distinguished summand")


def cmd_quiver(args) -> int:
    sys.stdout.write(EXPORTS[args.format](build(_spec_from_args(args))))
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
    res = min_proj_resolution(interval_module(alg, _summand(alg, args.module)), cap)
    for j, term in enumerate(res.terms):
        names = ";".join(",".join(map(str, u)) for u in term.summands) or "0"
        sys.stdout.write(f"P^-{j}\t{names}\n")
    if not res.complete:
        sys.stderr.write(f"resolution cap {cap} reached before termination\n")
        return CAP_ERROR
    return 0


def cmd_ext(args) -> int:
    spec = _spec_from_args(args)
    alg = build(spec)
    lam, mu = _summand(alg, args.src), _summand(alg, args.dst)
    val = ext_dim(interval_module(alg, lam), interval_module(alg, mu), args.degree)
    if spec.row.truncated:
        # a truncated value is written only if it survives d + 1 more Loewy layers
        up = build(replace(spec, bound=spec.bound + spec.d + 1))
        if ext_dim(interval_module(up, lam), interval_module(up, mu), args.degree) != val:
            sys.stderr.write("extension dimension did not stabilize across truncations\n")
            return CAP_ERROR
    sys.stdout.write(f"{val}\n")
    return 0


def cmd_hom(args) -> int:
    alg = build(_spec_from_args(args))
    lam, mu = _summand(alg, args.src), _summand(alg, args.dst)
    val = len(hom_space(interval_module(alg, lam), interval_module(alg, mu)))
    sys.stdout.write(f"{val}\n")
    return 0


def cmd_tau(args) -> int:
    alg = build(_spec_from_args(args))
    M = interval_module(alg, _summand(alg, args.module))
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
    rep, shift = canonical_orbit_rep(as_os(args.canonicalize), args.n)
    sys.stdout.write(f"{','.join(map(str, rep))} {shift}\n")
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hinak", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("build", help="emit the algebra as JSON")
    _add_family_flags(p)
    p.set_defaults(fn=cmd_quiver, format="json")

    p = sub.add_parser("quiver", help="export the bound quiver")
    _add_family_flags(p)
    p.add_argument("--format", choices=list(EXPORTS), default="dot")
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
    except CapExceeded as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return CAP_ERROR
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
