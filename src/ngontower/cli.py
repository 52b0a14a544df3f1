"""Command-line front end.

Subcommands: build, verify, tables, compile, render, constructible.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

import argparse
import sys

from .invariant_sets import InvalidFactor, build_invariant_sets
from .residues import KNOWN_FERMAT_PRIMES, FermatParams, InvalidN

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _params_or_exit(args) -> FermatParams:
    try:
        return FermatParams.from_n(args.n, assume_prime=args.assume_fermat_prime)
    except InvalidN as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _check_precision_or_exit(args) -> None:
    if args.precision is not None and args.precision < 1:
        print(
            f"error: --precision must be a positive number of bits, got {args.precision}",
            file=sys.stderr,
        )
        raise SystemExit(USAGE_ERROR)


def _tower_or_exit(path: str):
    from .towerfile import load_tower

    try:
        return load_tower(path)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _signed_tower_or_exit(path: str):
    """A loaded tower that records every node's sign, which picks its roots."""
    tower = _tower_or_exit(path)
    if any(node.left_is_larger is None for node in tower.nodes):
        print(f"error: {path}: tower has unresolved signs; rebuild it", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)
    return tower


def cmd_build(args) -> int:
    from .report import render_report
    from .tower import SignAmbiguous, VerificationFailure, build_tower
    from .towerfile import dump_tower
    from .verify import OracleMismatch, oracle_check_tower

    _params_or_exit(args)
    _check_precision_or_exit(args)
    try:
        tower = build_tower(
            args.n,
            kind=args.schedule,
            precision=args.precision,
            factor=args.factor,
            assume_prime=args.assume_fermat_prime,
        )
        if not args.no_oracle and tower.nodes:
            oracle_check_tower(tower)
    except (VerificationFailure, SignAmbiguous, OracleMismatch) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except InvalidFactor as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.out:
        dump_tower(tower, args.out)
        print(f"tower written to {args.out}")
    print(render_report(tower))
    return 0


def cmd_verify(args) -> int:
    from .verify import verify_tower

    _check_precision_or_exit(args)
    tower = _tower_or_exit(args.tower)
    failures = verify_tower(tower, precision=args.precision, oracle=not args.no_oracle)
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return VERIFY_ERROR
    print(
        f"tower for n={tower.params.n} verified: {len(tower.nodes)} nodes, "
        f"oracle-checked {tower.report.oracle_checked if tower.report else 0} product expressions"
    )
    return 0


def _emit_combination(comb) -> str:
    terms = [f"{c}*G{k}" for k, c in comb.terms()]
    return " + ".join([str(comb.constant)] + terms)


def cmd_tables(args) -> int:
    params = _params_or_exit(args)
    _check_precision_or_exit(args)
    try:
        return _print_table(args, params, build_invariant_sets(params, factor=args.factor))
    except ValueError as exc:  # a factor, set index or level out of range for this n
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _print_table(args, params, table) -> int:
    from .report import f_sign_sets
    from .period_algebra import set_product, set_square
    from .splitting import mu_groups, mu_table
    from .tower import CosineCache

    kind = args.kind
    if kind == "sets":
        for row in table.sets:
            print(" ".join(str(p) for p in row))
    elif kind == "product":
        if args.i is None or args.j is None:
            print("error: --kind product needs --i and --j", file=sys.stderr)
            return USAGE_ERROR
        print(_emit_combination(set_product(args.i, args.j, table)))
    elif kind == "square":
        if args.i is None:
            print("error: --kind square needs --i", file=sys.stderr)
            return USAGE_ERROR
        print(_emit_combination(set_square(args.i, table)))
    elif kind == "mu":
        if args.m is None:
            print("error: --kind mu needs --m", file=sys.stderr)
            return USAGE_ERROR
        for k, v in enumerate(mu_table(args.m, table), start=1):
            print(f"{k} {v}")
    elif kind == "ksets":
        if args.m is None:
            print("error: --kind ksets needs --m", file=sys.stderr)
            return USAGE_ERROR
        for mult, ks in mu_groups(args.m, table).items():
            print(f"K({mult},{1 << args.m}) = {' '.join(str(k) for k in ks)}")
    elif kind == "signs":
        cache = CosineCache(params, table, args.precision or 128)
        for step, greater in f_sign_sets(table, cache).items():
            if args.m is not None and step != args.m:
                continue
            print(f"step {step}: {' '.join(str(j) for j in sorted(greater))}")
    else:
        print(f"error: unknown table kind {kind!r}", file=sys.stderr)
        return USAGE_ERROR
    return 0


def cmd_compile(args) -> int:
    import mpmath as mp

    from .construction import (
        NegativeRadicand,
        arith_values,
        compile_to_arith,
        dump_arith,
        dump_geom,
        lower_to_geom,
    )

    tower = _signed_tower_or_exit(args.tower)
    precision = tower.precision or 128
    prog = compile_to_arith(tower)
    try:
        values = arith_values(prog, precision)
    except NegativeRadicand as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    # The stored signs choose the roots, so a wrong one yields a wrong program.
    cos = values[prog.outputs["cos"]]
    with mp.workprec(precision):
        err = abs(cos - mp.cos(2 * mp.pi / tower.params.n))
        if err > mp.mpf(2) ** (-(precision // 2)):
            print(
                f"verification failure: program gives cos(2pi/n) = {mp.nstr(cos, 20)}, "
                f"off by {mp.nstr(err, 5)}",
                file=sys.stderr,
            )
            return VERIFY_ERROR
    if args.target == "arith":
        dump_arith(prog, args.out)
    else:
        dump_geom(lower_to_geom(prog, precision, values), args.out)
    print(f"{args.target} program written to {args.out} ({prog.sqrt_count()} square roots)")
    return 0


def cmd_render(args) -> int:
    from .construction import emit_svg
    from .tower import VerificationFailure, evaluate_tower

    tower = _signed_tower_or_exit(args.tower)
    if tower.nodes and tower.nodes[-1].value_left is None:
        print("error: tower has no stored values; rebuild it", file=sys.stderr)
        return USAGE_ERROR
    if tower.report is None or tower.report.p1 is None:
        try:
            evaluate_tower(tower, tower.precision)
        except VerificationFailure as exc:
            print(f"verification failure: {exc}", file=sys.stderr)
            return VERIFY_ERROR
    svg = emit_svg(tower, max_vertices=args.max_vertices)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"svg written to {args.out}")
    return 0


def cmd_constructible(args) -> int:
    n = args.n
    if n < 3:
        print(f"error: need n >= 3, got {n}", file=sys.stderr)
        return USAGE_ERROR
    rest = n
    twos = 0
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    used = []
    for p in KNOWN_FERMAT_PRIMES:
        if rest % p == 0:
            used.append(p)
            rest //= p
    factorization = " * ".join(([f"2^{twos}"] if twos else []) + [str(p) for p in used])
    if rest == 1:
        print(f"yes: {n} = {factorization or '1'} (distinct known Fermat primes)")
    else:
        print(f"no: {n} leaves factor {rest} after 2^{twos} * {used or 1}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ngontower",
        description="Quadratic towers and straightedge/compass programs for regular "
        "n-gons with Fermat-prime n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="derive, verify and store a tower")
    p_build.add_argument("--n", type=int, required=True)
    p_build.add_argument("--schedule", choices=("full", "pruned"), default="pruned")
    p_build.add_argument("--precision", type=int, default=None, help="mantissa bits")
    p_build.add_argument("--factor", type=int, default=3)
    p_build.add_argument("--assume-fermat-prime", action="store_true")
    p_build.add_argument("--no-oracle", action="store_true", help="skip exact product checks")
    p_build.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="re-check a stored tower")
    p_verify.add_argument("--tower", required=True)
    p_verify.add_argument("--precision", type=int, default=None)
    p_verify.add_argument("--no-oracle", action="store_true")

    p_tables = sub.add_parser("tables", help="print derivation tables")
    p_tables.add_argument("--n", type=int, required=True)
    p_tables.add_argument(
        "--kind", required=True, choices=("sets", "product", "square", "mu", "ksets", "signs")
    )
    p_tables.add_argument("--i", type=int, default=None)
    p_tables.add_argument("--j", type=int, default=None)
    p_tables.add_argument("--m", type=int, default=None)
    p_tables.add_argument("--factor", type=int, default=3)
    p_tables.add_argument("--precision", type=int, default=None)
    p_tables.add_argument("--assume-fermat-prime", action="store_true")

    p_compile = sub.add_parser("compile", help="lower a tower to a program")
    p_compile.add_argument("--tower", required=True)
    p_compile.add_argument("--target", choices=("arith", "geom"), required=True)
    p_compile.add_argument("--out", required=True)

    p_render = sub.add_parser("render", help="emit an SVG drawing")
    p_render.add_argument("--tower", required=True)
    p_render.add_argument("--out", required=True)
    p_render.add_argument("--max-vertices", type=int, default=0)

    p_constr = sub.add_parser("constructible", help="Gauss-Wantzel check for any n")
    p_constr.add_argument("n", type=int)

    args = parser.parse_args(argv)
    commands = {
        "build": cmd_build,
        "verify": cmd_verify,
        "tables": cmd_tables,
        "compile": cmd_compile,
        "render": cmd_render,
        "constructible": cmd_constructible,
    }
    return commands[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
