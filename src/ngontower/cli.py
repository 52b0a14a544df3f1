"""Command-line front end.

Subcommands: build, verify, tables, compile, render, constructible.
Exit codes: 0 success, 1 verification failure, 2 usage error.  The commands
raise `VerificationError` for a failed check and `UsageError` for bad input;
`main` alone maps those, and an `OSError` from a path it could not read or
write, to the exit code and its one stderr line.
"""

import argparse
import sys

from .errors import UsageError, VerificationError
from .invariant_sets import build_invariant_sets
from .residues import KNOWN_FERMAT_PRIMES, FermatParams

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _check_precision(args, n: int | None = None) -> int | None:
    """--precision, checked; when it is not given, the default for n (None
    when a tower header decides)."""
    from .tower import MAX_PRECISION, default_precision

    if args.precision is None:
        return None if n is None else default_precision(n)
    if args.precision < 1:
        raise UsageError(f"--precision must be a positive number of bits, got {args.precision}")
    if args.precision > MAX_PRECISION:
        raise UsageError(f"--precision {args.precision} exceeds the limit of {MAX_PRECISION} bits")
    return args.precision


def cmd_build(args) -> int:
    from .report import render_report
    from .tower import build_schedule
    from .towerfile import dump_tower
    from .verify import verify_tower

    params = FermatParams.from_n(args.n)  # a bad n is reported before a bad precision
    precision = _check_precision(args, params.n)
    table = build_invariant_sets(params, factor=args.factor)
    tower = build_schedule(params, table, args.schedule)
    verify_tower(tower, precision, oracle=not args.no_oracle)
    if args.out:
        dump_tower(tower, args.out)
        print(f"tower written to {args.out}")
    print(render_report(tower))
    return 0


def cmd_verify(args) -> int:
    from .towerfile import load_tower
    from .verify import verify_tower

    _check_precision(args)
    tower = load_tower(args.tower)
    verify_tower(tower, args.precision, oracle=not args.no_oracle)
    print(
        f"tower for n={tower.params.n} verified: {len(tower.nodes)} nodes, "
        f"oracle-checked {tower.report.oracle_checked} product expressions"
    )
    return 0


def _emit_combination(comb) -> str:
    terms = [f"{c}*G{k}" for k, c in comb.terms()]
    return " + ".join([str(comb.constant)] + terms)


def cmd_tables(args) -> int:
    from .report import f_sign_sets
    from .period_algebra import set_product, set_square
    from .splitting import mu_groups, mu_table
    from .tower import CosineCache

    params = FermatParams.from_n(args.n)
    precision = _check_precision(args, params.n)
    table = build_invariant_sets(params, factor=args.factor)
    kind = args.kind
    if kind == "sets":
        for row in table.sets:
            print(" ".join(str(p) for p in row))
    elif kind == "product":
        if args.i is None or args.j is None:
            raise UsageError("--kind product needs --i and --j")
        print(_emit_combination(set_product(args.i, args.j, table)))
    elif kind == "square":
        if args.i is None:
            raise UsageError("--kind square needs --i")
        print(_emit_combination(set_square(args.i, table)))
    elif kind == "mu":
        if args.m is None:
            raise UsageError("--kind mu needs --m")
        for k, v in enumerate(mu_table(args.m, table), start=1):
            print(f"{k} {v}")
    elif kind == "ksets":
        if args.m is None:
            raise UsageError("--kind ksets needs --m")
        for mult, ks in mu_groups(args.m, table).items():
            print(f"K({mult},{1 << args.m}) = {' '.join(str(k) for k in ks)}")
    elif kind == "signs":
        steps = params.ng.bit_length() - 1
        if args.m is not None and not 1 <= args.m <= steps:
            raise UsageError(f"no sign step {args.m} for n={params.n}, which has {steps}")
        cache = CosineCache(params, table, precision)
        for step, greater in f_sign_sets(table, cache).items():
            if args.m is not None and step != args.m:
                continue
            print(f"step {step}: {' '.join(str(j) for j in sorted(greater))}")
    return 0


def cmd_compile(args) -> int:
    from .construction import dump_arith, dump_geom, lower_to_geom
    from .towerfile import load_tower
    from .verify import verify_tower

    tower = load_tower(args.tower)
    prog, signs = verify_tower(tower, oracle=False)
    precision = tower.precision
    del tower  # lowering needs neither the nodes nor the cosine sums
    if args.target == "arith":
        dump_arith(prog, args.out)
    else:
        dump_geom(lower_to_geom(prog, precision, signs), args.out)
    print(f"{args.target} program written to {args.out} ({prog.sqrt_count()} square roots)")
    return 0


def cmd_render(args) -> int:
    from .construction import emit_svg
    from .towerfile import load_tower
    from .verify import verify_tower

    if args.max_vertices < 0:
        raise UsageError(
            f"--max-vertices must be 0 (all) or a positive count, got {args.max_vertices}"
        )
    tower = load_tower(args.tower)
    verify_tower(tower, oracle=False)
    svg = emit_svg(tower, max_vertices=args.max_vertices)
    with open(args.out, "w") as fh:
        fh.write(svg)
    print(f"svg written to {args.out}")
    return 0


def cmd_constructible(args) -> int:
    n = args.n
    if n < 3:
        raise UsageError(f"need n >= 3, got {n}")
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
    try:
        return commands[args.command](args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
