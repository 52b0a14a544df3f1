"""Test helper: the arithmetic IR on mpf objects, each op the mpf operation
rounded to nearest.  Run at 64 bits more than the program's precision, it
is the reference that every value `arith._run` gives must lie within
its radius of."""

import mpmath as mp

from ngontower.arith import ArithProgram


def mpf_arith_values(prog: ArithProgram, precision: int) -> list:
    """Value of every instruction, in order, up to the first SQRT of a
    negative value: a list shorter than the program stopped there."""
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
                if vals[args[0]] < 0:
                    break
                v = mp.sqrt(vals[args[0]])
            else:
                raise ValueError(f"unknown op {op}")
            vals.append(v)
    return vals
