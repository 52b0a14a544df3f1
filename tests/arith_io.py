"""Test helper: read back an arithmetic program that `dump_arith` wrote."""

import json
from fractions import Fraction

from ngontower.arith import ArithProgram


def load_arith(path: str) -> ArithProgram:
    prog = ArithProgram()
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("format") != "ngontower-arith":
            raise ValueError(f"{path} is not an arithmetic program")
        prog.outputs = {k: int(v) for k, v in header["outputs"].items()}
        for line in fh:
            d = json.loads(line)
            value = Fraction(*d["value"]) if "value" in d else None
            prog.emit(d["op"], *d["args"], value=value)
    return prog
