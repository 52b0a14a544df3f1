"""Test helper: the arithmetic IR interpreter on mpf objects, as
`construction.arith_values` was written before it worked on raw mpf tuples.
The raw interpreter must give each instruction this one's `_mpf_`, bit for
bit, and stop at the same SQRT."""

import mpmath as mp

from ngontower.construction import ArithProgram, NegativeRadicand


def mpf_arith_values(prog: ArithProgram, precision: int) -> list:
    """Value of every instruction, in order: the definition of the IR ops."""
    with mp.workprec(precision):
        vals: list[object] = []
        for op, args, value in prog.instrs:
            if op == "ADD":
                v = vals[args[0]] + vals[args[1]]
            elif op == "SUB":
                v = vals[args[0]] - vals[args[1]]
            elif op == "MUL":
                v = vals[args[0]] * vals[args[1]]
            elif op == "HALF":
                v = vals[args[0]] / 2
            elif op == "CONST":
                v = mp.mpf(value.numerator) / value.denominator
            elif op == "SQRT":
                radicand = vals[args[0]]
                if radicand < 0:
                    raise NegativeRadicand(radicand, vals)
                v = mp.sqrt(radicand)
            else:
                raise ValueError(f"unknown op {op}")
            vals.append(v)
    return vals
