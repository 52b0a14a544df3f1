"""Command-line front end.

Subcommands: build, verify, tables, compile, render, constructible.
Exit codes: 0 success, 1 verification failure, 2 usage error.  The commands
raise `VerificationError` for a failed check and `UsageError` for bad input;
`main` alone maps those, and an `OSError` from a path it could not read or
write, to the exit code and its one stderr line.

The arguments are parsed from one table, `_OPTIONS`, which also writes the
help.  A bad argument is a `UsageError` like any other.  argparse is not
used: building its parsers imported `gettext` and `locale` in every command,
which cost more than the work for a small n, and its errors took several
lines.
"""

import sys
from types import SimpleNamespace

from .errors import UsageError, VerificationError
from .invariant_sets import build_invariant_sets
from .residues import KNOWN_FERMAT_PRIMES, FermatParams

USAGE_ERROR = 2
VERIFY_ERROR = 1


def _check_precision(args, n: int) -> int:
    """build's --precision, checked; when it is not given, the default for n."""
    from .tower import MAX_PRECISION, default_precision

    if args.precision is None:
        return default_precision(n)
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
    tower.precision = precision
    verify_tower(tower, oracle=not args.no_oracle)
    if args.out:
        dump_tower(tower, args.out)
        print(f"tower written to {args.out}")
    print(render_report(tower))
    return 0


def cmd_verify(args) -> int:
    from .towerfile import load_tower
    from .verify import verify_tower

    tower = load_tower(args.tower)
    verify_tower(tower, oracle=not args.no_oracle)
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
    from .tower import CosineCache, default_precision

    params = FermatParams.from_n(args.n)
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
        cache = CosineCache(params, table, default_precision(params.n))
        for step, greater in f_sign_sets(table, cache).items():
            if args.m is not None and step != args.m:
                continue
            print(f"step {step}: {' '.join(str(j) for j in sorted(greater))}")
    return 0


def cmd_compile(args) -> int:
    from .towerfile import load_tower
    from .verify import verify_tower

    tower = load_tower(args.tower)
    prog, signs = verify_tower(tower, oracle=False)
    precision = tower.precision
    del tower  # lowering needs neither the nodes nor the cosine sums
    if args.target == "arith":
        from .arith import dump_arith
        dump_arith(prog, args.out)
    else:
        from .construction import dump_geom, lower_to_geom
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


# Each command: its function, what it does, and its options in the order
# that help lists them.  An option is (kind, default, help): kind is int,
# str (a path), None (a flag, which takes no value) or a tuple of choices;
# default is _REQUIRED when the option must be given.  A name without
# dashes is positional.
_REQUIRED = "required"
_OPTIONS = {
    "build": (cmd_build, "derive, verify and store a tower", {
        "--n": (int, _REQUIRED, "the Fermat prime: 3, 5, 17, 257 or 65537"),
        "--schedule": (("full", "pruned"), "pruned", "every split, or those p1 needs"),
        "--precision": (int, None, "mantissa bits; none: 128 up to n = 257, 512 above"),
        "--factor": (int, 3, "the factor that orders the invariant sets"),
        "--no-oracle": (None, False, "skip exact product checks"),
        "--out": (str, None, "where to write the tower"),
    }),
    "verify": (cmd_verify, "re-check a stored tower", {
        "--tower": (str, _REQUIRED, "the tower file"),
        "--no-oracle": (None, False, "skip exact product checks"),
    }),
    "tables": (cmd_tables, "print derivation tables", {
        "--n": (int, _REQUIRED, "the Fermat prime"),
        "--kind": (("sets", "product", "square", "mu", "ksets", "signs"), _REQUIRED, "which table"),
        "--i": (int, None, "the set of a square, the first of a product"),
        "--j": (int, None, "the second set of a product"),
        "--m": (int, None, "the level of mu and ksets, the one step of signs"),
        "--factor": (int, 3, "the factor that orders the invariant sets"),
    }),
    "compile": (cmd_compile, "lower a tower to a program", {
        "--tower": (str, _REQUIRED, "the tower file"),
        "--target": (("arith", "geom"), _REQUIRED, "arithmetic or straightedge/compass program"),
        "--out": (str, _REQUIRED, "where to write the program"),
    }),
    "render": (cmd_render, "emit an SVG drawing", {
        "--tower": (str, _REQUIRED, "the tower file"),
        "--out": (str, _REQUIRED, "where to write the SVG"),
        "--max-vertices": (int, 0, "vertices drawn, 0 for all"),
    }),
    "constructible": (cmd_constructible, "Gauss-Wantzel check for any n", {
        "n": (int, _REQUIRED, "any integer n >= 3"),
    }),
}
_HELP = ("-h", "--help")
_METAVAR = {int: " INT", str: " PATH", None: ""}


def _usage(commands) -> str:
    """Help for `commands`, from `_OPTIONS`."""
    lines = [
        "usage: ngontower COMMAND [--name VALUE | --name=VALUE ...]",
        "       ngontower [COMMAND] -h | --help",
        "Quadratic towers and straightedge/compass programs for regular n-gons",
        "with Fermat-prime n.",
        "Exit codes: 0 success, 1 verification failure, 2 usage error.",
    ]
    for command in commands:
        _, what, options = _OPTIONS[command]
        lines += ["", f"{command}: {what}"]
        for name, (kind, default, text) in options.items():
            value = f" {'|'.join(kind)}" if isinstance(kind, tuple) else _METAVAR[kind]
            if default is _REQUIRED:
                shown = _REQUIRED
            elif kind is None:
                shown = "default: off"
            else:
                shown = f"default: {'none' if default is None else default}"
            lines.append(f"  {name + value:<29} {text} ({shown})")
    return "\n".join(lines)


def _parse(argv: list[str]):
    """(command, args) from argv by `_OPTIONS`.  args is None when help was
    asked for, and then command is None for help on every command.  Raises
    UsageError for anything `_OPTIONS` does not allow."""
    if not argv:
        raise UsageError(f"no command; choose one of {', '.join(_OPTIONS)}")
    command, rest = argv[0], argv[1:]
    if command in _HELP:
        return None, None
    if command not in _OPTIONS:
        raise UsageError(f"unknown command {command!r}; choose one of {', '.join(_OPTIONS)}")
    if any(token in _HELP for token in rest):
        return command, None
    options = _OPTIONS[command][2]
    positional = [name for name in options if not name.startswith("-")]
    given = {}
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("--"):
            if not positional:
                raise UsageError(f"{command}: unexpected argument {token!r}")
            name, value = positional.pop(0), token
        else:
            name, eq, value = token.partition("=")
            if name not in options:
                raise UsageError(f"{command}: unknown option {name}")
            if options[name][0] is None:
                if eq:
                    raise UsageError(f"{command}: {name} takes no value")
                value = True
            elif not eq:
                value = next(tokens, None)
                if value is None or value.startswith("--"):
                    raise UsageError(f"{command}: {name} needs a value")
        kind = options[name][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{command}: {name} needs an integer, got {value!r}") from None
        elif isinstance(kind, tuple) and value not in kind:
            raise UsageError(f"{command}: {name} must be one of {', '.join(kind)}, got {value!r}")
        given[name] = value
    args = SimpleNamespace()
    for name, (_, default, _) in options.items():
        if name not in given and default is _REQUIRED:
            raise UsageError(f"{command}: {name} is required")
        setattr(args, name.lstrip("-").replace("-", "_"), given.get(name, default))
    return command, args


def main(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            print(_usage([command] if command else _OPTIONS))
            return 0
        return _OPTIONS[command][0](args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
