"""Compile a tower to an arithmetic program, run it, and write it.

`compile_to_arith` is the one definition of how a node is solved, and `_run`
the one interpreter of the arithmetic IR: each value is an int at scale
2^F, F = precision + 32, with an int radius that bounds its distance from
the exact value (running error analysis, Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., 3.3, in the midpoint-radius form of van der
Hoeven, "Ball arithmetic", 2009), and a sign is read only where the radius
proves it.  `evaluate_tower` runs the finished program one node at a
time, checks each node when its roots land and keeps alive only the values
a later instruction reads, plus one sign byte per instruction.

A node's product expression is scaled by one doubling chain shared by all
its coefficients, with no MUL by a constant, and each partial sum that
`sharing.Lines` finds shared by the nodes of a step is emitted once
(`_ArithBuilder.combo`): at n = 65537 (factor 3) the sharing cuts the ADD
and SUB instructions by 30%, 37,350 to 26,064.

The program is held as flat columns (`ArithProgram`): at n = 65537 pruned
they hold 0.36 MB, where an object per instruction took 4.8 MB.
`dump_arith` writes it as JSON lines (docs/program-format.md).  The checker
loads this module alone; `construction` draws the program.
"""

import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import VerificationError
from .invariant_sets import LinearCombo, PartRef
from .rawfloat import round_raw, to_text
from .sharing import Lines
from .tower import Tower, _root_part

RUN_GUARD_BITS = 32  # a program runs at scale 2^-(precision + RUN_GUARD_BITS)


class NegativeRadicand(VerificationError):
    """A SQRT operand, the exact raw float `radicand` (`rawfloat`), was not
    proven positive when the arithmetic program was evaluated."""

    def __init__(self, radicand: tuple):
        super().__init__(f"sqrt of {to_text(radicand)}")
        self.radicand = radicand


class ArithInstr(NamedTuple):
    op: str  # CONST ADD SUB MUL SQRT HALF
    args: tuple[int, ...] = ()
    value: Fraction | None = None  # CONST only


_ARITH_OPS = ("ADD", "SUB", "MUL", "HALF", "CONST", "SQRT")  # op code -> op
_ADD, _SUB, _MUL, _HALF, _CONST, _SQRT = range(6)  # in `_ARITH_OPS` order
_ARITH_CODE = {op: code for code, op in enumerate(_ARITH_OPS)}


class _Instrs(Sequence):
    """A program's instructions as a read-only sequence, each built from the
    program's columns (`prog.instr(i)`) when it is read."""

    def __init__(self, prog):
        self._prog = prog

    def __len__(self) -> int:
        return len(self._prog.ops)

    def __getitem__(self, i):
        k = range(len(self._prog.ops))[i]
        return [self._prog.instr(j) for j in k] if isinstance(i, slice) else self._prog.instr(k)

    def __iter__(self):
        return map(self._prog.instr, range(len(self._prog.ops)))

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class ArithProgram:
    """Instruction i is op code `ops[i]` (an index into `_ARITH_OPS`) on the
    instructions `a[i]` and `b[i]` (-1 where it has fewer operands), with
    value `consts[i]` if it is a CONST.  `instrs` reads them as `ArithInstr`s."""

    ops: bytearray = field(default_factory=bytearray)
    a: array = field(default_factory=lambda: array("i"))
    b: array = field(default_factory=lambda: array("i"))
    consts: dict[int, Fraction] = field(default_factory=dict)
    outputs: dict[str, int] = field(default_factory=dict)
    # (product, SQRT, left, right) instruction of each tower node, in node
    # order; set by `compile_to_arith` and not dumped.
    nodes: list[tuple[int, int, int, int]] = field(default_factory=list)

    def emit(self, op: str, x: int = -1, y: int = -1, value: Fraction | None = None) -> int:
        i = len(self.ops)
        self.ops.append(_ARITH_CODE[op])
        self.a.append(x)
        self.b.append(y)
        if value is not None:
            self.consts[i] = value
        return i

    def instr(self, i: int) -> ArithInstr:
        x, y = self.a[i], self.b[i]
        args = (x, y) if y >= 0 else (x,) if x >= 0 else ()
        return ArithInstr(_ARITH_OPS[self.ops[i]], args, self.consts.get(i))

    @property
    def instrs(self) -> _Instrs:
        return _Instrs(self)

    def sqrt_count(self) -> int:
        return self.ops.count(_SQRT)


def _run(prog: ArithProgram, first: int, end: int, vals: list, rads: list, scale: int) -> None:
    """Append to `vals` and `rads` the value of each instruction from `first`
    to `end` - 1 and its radius, a bound on its distance from the exact
    value, both ints in units of 2^-scale; they hold those of every earlier
    instruction (None for one that no later one reads).  The definition of
    the IR ops: ADD, SUB and a dyadic CONST are exact; HALF, MUL and SQRT
    round down and add their operands' radii, carried through, and a unit
    when they round; a SQRT of an operand not proven positive raises
    NegativeRadicand."""
    consts, below = prog.consts, (1 << scale) - 1
    for i, op, x, y in zip(range(first, end), prog.ops[first:end], prog.a[first:end], prog.b[first:end]):
        if op < _MUL:
            v = vals[x] + vals[y] if op == _ADD else vals[x] - vals[y]
            r = rads[x] + rads[y]
        elif op == _MUL:  # |x| r(y) + |y| r(x) + r(x) r(y) + the bits shifted out, rounded up
            vx, vy, rx, ry = vals[x], vals[y], rads[x], rads[y]
            v = vx * vy
            r = -(-(abs(vx) * ry + abs(vy) * rx + rx * ry + (v & below)) >> scale)
            v >>= scale
        elif op == _HALF:
            v, r = vals[x] >> 1, (rads[x] + 1 >> 1) + (vals[x] & 1)
        elif op == _CONST:
            v, rest = divmod(consts[i].numerator << scale, consts[i].denominator)
            r = int(rest > 0)
        else:  # SQRT: r(x) / (2 sqrt(x - r(x))), rounded up, + 1 if it rounds
            vx, rx = vals[x], rads[x]
            if vx <= rx:
                raise NegativeRadicand(round_raw(vx, scale))
            v = isqrt(vx << scale)
            r = (v * v != vx << scale) - (-(rx << scale) // (2 * isqrt(vx - rx << scale)))
        vals.append(v)
        rads.append(r)


def arith_values(prog: ArithProgram, precision: int) -> tuple[list[int], list[int]]:
    """The value and the radius of every instruction, in order, by `_run` at
    scale 2^-(precision + RUN_GUARD_BITS)."""
    vals, rads = [], []
    _run(prog, 0, len(prog.ops), vals, rads, precision + RUN_GUARD_BITS)
    return vals, rads


def proven_signs(vals: list, rads: list, first: int = 0) -> list[int]:
    """The sign (-1, 0 or 1) of each value from `first` on; a sign is proven
    when |v| > r or v = r = 0, and one that is not raises VerificationError."""
    signs = [(v > r) - (-v > r) for v, r in zip(vals[first:], rads[first:])]
    if 0 in signs:
        for i, s in enumerate(signs, first):
            if not s and (vals[i] or rads[i]):
                raise VerificationError(f"the sign of instruction {i} is not proven")
    return signs


class _ArithBuilder:
    """Emits instructions, one CONST per distinct constant and one ADD or SUB
    per distinct shared sum (a derived line's term, see `sharing`)."""

    def __init__(self):
        self.prog = ArithProgram()
        self.emit = self.prog.emit
        self._const_cache: dict[int, int] = {}
        self.lines = Lines()
        self._sums: dict[tuple[int, int], int] = {}  # (derived line, offset) -> instruction

    def const(self, halves: int) -> int:
        """The CONST instruction for halves / 2."""
        idx = self._const_cache.get(halves)
        if idx is None:
            idx = self._const_cache[halves] = self.emit("CONST", value=Fraction(halves, 2))
        return idx

    def _term(self, line: int, offset: int, refs: dict) -> int:
        """The instruction of a line's term at `offset` (mod the stride, in
        1..stride); a derived sum is emitted at its first use."""
        key = self.lines.keys[line]
        offset = (offset - 1) % key[-1] + 1
        if len(key) == 3:
            return refs[PartRef(key[0], offset, key[2], key[1])]
        idx = self._sums.get((line, offset))
        if idx is None:
            first, second, d, opposite, _ = key
            a, b = self._term(first, offset, refs), self._term(second, offset + d, refs)
            idx = self._sums[line, offset] = self.emit("SUB" if opposite else "ADD", a, b)
        return idx

    def combo(self, expr: LinearCombo, refs: dict, origin: int) -> int:
        """The expression with shared sums and one doubling chain: the terms
        (linear, then squares) are grouped by |halves| c in order of first
        appearance, a group's linear terms share sums by `Lines.plan`
        (offsets taken relative to `origin`, the offset of the node's split),
        the square of a CONST part (the root part) is a CONST, and each
        group is summed (`_total`).  The whole part, the sum of
        floor(c/2) times each group, is built by Horner over the bits of
        floor(c/2): one doubling per bit below the top, each followed by the
        groups with that bit set.  The odd groups are summed and halved
        once, that half is added, and the constant is added last; when the
        groups at the top bit are all negative, the rest is built negated
        and subtracted from the constant, which is then CONST 0 where the
        expression has none."""
        linear, pattern = expr.linear, []
        for h, p in linear:  # flat: a tuple per term would linger on the tuple free list
            pattern += (h, p.kind, p.set_index, p.stride, (p.offset - origin) % p.stride)
        groups: dict[int, list[tuple[bool, int]]] = {}
        for c, terms in self.lines.plan(tuple(pattern)):
            groups[c] = [
                (neg, refs[linear[src][1]] if src >= 0 else self._term(line, origin + r, refs))
                for neg, src, line, r in terms
            ]
        for halves, part in expr.squares:
            base = refs[part]
            value = self.prog.consts.get(base)
            square = self.emit("MUL", base, base) if value is None else self.const(2 * value * value)
            groups.setdefault(abs(halves), []).append((halves < 0, square))
        totals = [(c, *self._total(terms)) for c, terms in groups.items()]
        flip, acc = False, None  # acc is the sum so far, negated if flip
        for bit in reversed(range(max((c >> 1 for c, _, _ in totals), default=0).bit_length())):
            if acc is None:
                flip, acc = self._total([(neg, t) for c, neg, t in totals if c >> 1 >> bit & 1])
                continue
            acc = self.emit("ADD", acc, acc)
            for c, neg, t in totals:
                if c >> 1 >> bit & 1:
                    acc = self.emit("SUB" if neg != flip else "ADD", acc, t)
        odd = [(neg != flip, t) for c, neg, t in totals if c & 1]
        if odd:
            negative, total = self._total(odd)
            half = self.emit("HALF", total)
            if acc is None:
                flip, acc = negative, half
            else:
                acc = self.emit("SUB" if negative else "ADD", acc, half)
        if acc is None:
            return self.const(expr.constant)
        if flip or expr.constant:
            acc = self.emit("SUB" if flip else "ADD", self.const(expr.constant), acc)
        return acc

    def _total(self, terms: list[tuple[bool, int]]) -> tuple[bool, int]:
        """(negative, instruction) for the sum of the (negative, instruction)
        terms, positive ones first: the instruction's value is the sum,
        negated when every term is negative."""
        terms.sort(key=lambda t: t[0])  # stable: positive terms first
        negative, total = terms[0]
        for neg, term in terms[1:]:
            total = self.emit("SUB" if neg != negative else "ADD", total, term)
        return negative, total


def compile_to_arith(tower: Tower) -> ArithProgram:
    """The tower's one solver: one SQRT per node plus one for sin(theta).

    A node with sum s and product q gets half = s/2, root = sqrt(half^2 - q)
    and the roots half + root and half - root, assigned to its halves by its
    sign, which must be resolved; constants come from the product
    expressions.  `prog.nodes` records each node's instructions; those
    emitted for a node follow the node before it and end with its second
    root.
    """
    b = _ArithBuilder()
    refs = {_root_part(tower.params): b.const(-2)}
    for node in tower.nodes:
        if node.left_is_larger is None:
            raise ValueError("tower signs must be resolved before compiling")
        sum_idx = refs[node.splits]
        prod_idx = b.combo(node.product_expr, refs, node.splits.offset)
        half = b.emit("HALF", sum_idx)
        disc = b.emit("SUB", b.emit("MUL", half, half), prod_idx)
        root_idx = b.emit("SQRT", disc)
        bigger = b.emit("ADD", half, root_idx)
        smaller = b.emit("SUB", half, root_idx)
        left, right = (bigger, smaller) if node.left_is_larger else (smaller, bigger)
        refs[node.left], refs[node.right] = left, right
        b.prog.nodes.append((prod_idx, root_idx, left, right))
    p1 = refs[tower.p1_part()]  # at n = 3, S = -1 itself
    cos_idx = b.emit("HALF", p1)
    sin_sq = b.emit("SUB", b.const(2), b.emit("MUL", cos_idx, cos_idx))
    sin_idx = b.emit("SQRT", sin_sq)
    b.prog.outputs = {"p1": p1, "cos": cos_idx, "sin": sin_idx}
    return b.prog


# Program persistence (docs/program-format.md): each line is written from the
# columns, and is what `json.dumps` gives for the instruction's dict form.


def dump_arith(prog: ArithProgram, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": "ngontower-arith", "version": 1, "outputs": prog.outputs}) + "\n")
        consts = prog.consts
        for i, op, x, y in zip(range(len(prog.ops)), prog.ops, prog.a, prog.b):
            args = f"{x}, {y}" if y >= 0 else f"{x}" if x >= 0 else ""
            line = f'{{"op": "{_ARITH_OPS[op]}", "args": [{args}]'
            if i in consts:
                line += f', "value": [{consts[i].numerator}, {consts[i].denominator}]'
            fh.write(line + "}\n")
