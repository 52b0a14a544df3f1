"""Compile a tower to an arithmetic program and lower that to a
straightedge/compass instruction stream.

`compile_to_arith` is the one definition of how a node is solved, and `_run`
the one interpreter of the arithmetic IR: each value is an int at scale
2^F, F = precision + 32, with an int radius that bounds its distance from
the exact value (running error analysis, Higham, *Accuracy and Stability of
Numerical Algorithms*, 2nd ed., 3.3, in the midpoint-radius form of van der
Hoeven, "Ball arithmetic", 2009), and a sign is read only where the radius
proves it.  `evaluate_tower` runs the finished program one node at a
time, checks each node when its roots land and keeps alive only the values
a later instruction reads, plus one sign byte per instruction.

A node's product expression is scaled once per distinct |coefficient|, and
each partial sum that `sharing.Lines` finds shared by the nodes of a step is
emitted once (`_ArithBuilder.combo`): at n = 65537 (factor 3) this cuts the
ADD and SUB instructions by a third, 35,146 to 23,860.

The value v lives at the axis point (v, 0).  Each tower node, as
`ArithProgram.nodes` marks it, is lowered to a Carlyle circle: the circle on
the diameter from (0, 1) to (s, q) meets the axis at the two roots of
x^2 - s x + q, in 9 steps against 17 for drawing the node's HALF, half^2,
discriminant, SQRT and two roots one by one; those four are not drawn.
Every other square root uses the semicircle rule (perpendicular height over
a diameter split into D and 1), products of two general lengths the
intercept construction, and integer scalings up to 64 binary doubling chains
of compass transfers.  At n = 65537 (pruned, factor 3) the program has
32,459 steps.  Every intersection branch is recorded at lowering time from
the signs of the instruction values, so geometric execution never
re-decides a choice.

Both programs are held as flat columns (`ArithProgram`, `GeomProgram`): at
n = 65537 pruned they hold 0.37 and 0.59 MB, where an object per instruction
took 4.8 and 6.8 MB.  The program files are JSON lines
(docs/program-format.md).
"""

import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt, pi
from typing import NamedTuple

from .errors import VerificationError
from .invariant_sets import LinearCombo, PartRef
from .rawfloat import round_raw, to_text
from .sharing import Lines
from .tower import Tower, _root_part, _rotations

_INTERCEPT_THRESHOLD = 64
RUN_GUARD_BITS = 32  # a program runs at scale 2^-(precision + RUN_GUARD_BITS)


class NegativeRadicand(VerificationError):
    """A SQRT operand, the exact raw float `radicand` (`rawfloat`), was not
    proven positive when the arithmetic program was evaluated."""

    def __init__(self, radicand: tuple):
        super().__init__(f"sqrt of {to_text(radicand)}")
        self.radicand = radicand


# ---------------------------------------------------------------------------
# Arithmetic IR


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
        """The expression with shared sums and one scaling per distinct
        |coefficient|: the terms (linear, then squares) are grouped by
        |halves| in order of first appearance, a group's linear terms share
        sums by `Lines.plan` (offsets taken relative to `origin`, the offset
        of the node's split), each group is summed with its positive terms
        first and scaled once, and the groups are added to the constant, or
        to the first group when the constant is 0."""
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
            groups.setdefault(abs(halves), []).append((halves < 0, self.emit("MUL", base, base)))
        acc = self.const(expr.constant) if expr.constant else None
        for c, terms in groups.items():
            terms.sort(key=lambda t: t[0])  # stable: positive terms first
            negative = terms[0][0]  # every term is negative
            total = terms[0][1]
            for neg, term in terms[1:]:
                total = self.emit("SUB" if neg != negative else "ADD", total, term)
            total = self._scale(c, total)
            if acc is None and negative:
                acc = self.const(0)
            acc = total if acc is None else self.emit("SUB" if negative else "ADD", acc, total)
        return self.const(0) if acc is None else acc

    def _scale(self, c: int, term: int) -> int:
        """(c / 2) * term for c > 0 halves: HALF for an odd count, else MUL by
        the whole multiple (none for 1)."""
        if c % 2:
            term = self.emit("HALF", term)
        else:
            c //= 2
        if c != 1:
            term = self.emit("MUL", self.const(2 * c), term)
        return term


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


# ---------------------------------------------------------------------------
# Geometric programs


class GeomInstr(NamedTuple):
    op: str
    args: tuple[int, ...] = ()
    branch: int | None = None
    name: str | None = None


# op -> (the kinds of the objects it takes, the kinds of those it yields): P
# point, L line, C circle.
_GEOM_KINDS = {
    "GIVEN_UNIT": ("", "PPLC"),
    "LINE": ("PP", "L"),
    "CIRCLE": ("PP", "C"),
    "MIDPOINT": ("PP", "P"),
    "PERPENDICULAR_AT": ("LP", "L"),
    "TRANSFER_LENGTH": ("PPP", "P"),
    "INTERSECT_LL": ("LL", "P"),
    "INTERSECT_LC": ("LC", "P"),
    "POINT_ON_AXIS": ("P", "P"),
}
_GEOM_OPS = tuple(_GEOM_KINDS)
_GEOM_CODE = {op: code for code, op in enumerate(_GEOM_OPS)}


@dataclass
class GeomProgram:
    """Instruction stream over points/lines/circles.  Each instruction yields
    the objects `_GEOM_KINDS` gives it: one, except GIVEN_UNIT, which yields
    four: the circle center, the unit point (1,0), the axis through them, and
    the unit circle.

    Instruction i is op code `ops[i]` (an index into `_GEOM_OPS`) on the
    objects `args[starts[i]:starts[i + 1]]`, with intersection branch
    `branch[i]` (-1 for none) and name `names[i]` where it has one.  A named
    step makes an output: `outputs` maps its name to the object it yields.
    `instrs` reads the steps as `GeomInstr`s."""

    ops: bytearray = field(default_factory=bytearray)
    args: array = field(default_factory=lambda: array("i"))
    starts: array = field(default_factory=lambda: array("i", [0]))
    branch: array = field(default_factory=lambda: array("b"))
    names: dict[int, str] = field(default_factory=dict)
    outputs: dict[str, int] = field(default_factory=dict)
    next_obj: int = 0

    def emit(self, op, *args, branch=None, name=None) -> int:
        first = self.next_obj
        if name is not None:
            self.names[len(self.ops)] = name
            self.outputs[name] = first
        self.ops.append(_GEOM_CODE[op])
        self.args.extend(args)
        self.starts.append(len(self.args))
        self.branch.append(-1 if branch is None else branch)
        self.next_obj += len(_GEOM_KINDS[op][1])
        return first

    def instr(self, i: int) -> GeomInstr:
        branch = self.branch[i]
        return GeomInstr(
            _GEOM_OPS[self.ops[i]], tuple(self.args[self.starts[i]:self.starts[i + 1]]),
            None if branch < 0 else branch, self.names.get(i),
        )

    @property
    def instrs(self) -> _Instrs:
        return _Instrs(self)


def _line_point_dir(p1, p2):
    return p1, (p2[0] - p1[0], p2[1] - p1[1])


def _intersect_ll(l1, l2):
    (x1, y1), (dx1, dy1) = _line_point_dir(*l1)
    (x2, y2), (dx2, dy2) = _line_point_dir(*l2)
    det = dx1 * dy2 - dy1 * dx2
    if det == 0:
        raise VerificationError("parallel lines")
    t = ((x2 - x1) * dy2 - (y2 - y1) * dx2) / det
    return (x1 + t * dx1, y1 + t * dy1)


def _intersect_lc(line, circle, branch, tol):
    (px, py), (dx, dy) = _line_point_dir(*line)
    (cx, cy), r2 = circle
    fx, fy = px - cx, py - cy
    a = dx * dx + dy * dy
    b = 2 * (fx * dx + fy * dy)
    c = fx * fx + fy * fy - r2
    disc = b * b - 4 * a * c
    if disc <= tol * a:
        raise VerificationError("line misses or is tangent to circle")
    import mpmath as mp

    s = mp.sqrt(disc)
    ts = sorted([(-b - s) / (2 * a), (-b + s) / (2 * a)])
    t = ts[branch]
    return (px + t * dx, py + t * dy)


def execute_geom(prog: GeomProgram, precision: int) -> dict:
    """Analytic interpreter in mpmath, which no command runs; returns the
    named outputs, each an axis point's x coordinate as an mpf."""
    import mpmath as mp

    with mp.workprec(precision):
        tol = mp.mpf(2) ** (-precision + 8)
        objs: list = []
        outputs: dict = {}
        for instr in prog.instrs:
            a = [objs[i] for i in instr.args]
            op = instr.op
            if op == "GIVEN_UNIT":
                o, x = (mp.mpf(0), mp.mpf(0)), (mp.mpf(1), mp.mpf(0))
                objs += [o, x, (o, x), (o, mp.mpf(1))]  # center, unit point, axis, unit circle
                continue
            if op == "LINE":
                v = (a[0], a[1])
            elif op == "CIRCLE":
                cx, cy = a[0]
                px, py = a[1]
                v = (a[0], (px - cx) ** 2 + (py - cy) ** 2)
            elif op == "MIDPOINT":
                v = ((a[0][0] + a[1][0]) / 2, (a[0][1] + a[1][1]) / 2)
            elif op == "PERPENDICULAR_AT":
                (_, d) = _line_point_dir(*a[0])
                p = a[1]
                v = (p, (p[0] - d[1], p[1] + d[0]))
            elif op == "TRANSFER_LENGTH":
                base, frm, to = a
                v = (base[0] + to[0] - frm[0], base[1] + to[1] - frm[1])
            elif op == "INTERSECT_LL":
                v = _intersect_ll(a[0], a[1])
            elif op == "INTERSECT_LC":
                v = _intersect_lc(a[0], a[1], instr.branch, tol)
            else:  # POINT_ON_AXIS
                v = a[0]
                outputs[instr.name] = v[0]
            objs.append(v)
        return outputs


# ---------------------------------------------------------------------------
# Lowering


class _GeomBuilder:
    O = 0  # noqa: E741 - circle center
    X = 1  # unit point (1, 0)
    AXIS = 2
    CIRCLE = 3

    def __init__(self):
        self.prog = GeomProgram()
        self.prog.emit("GIVEN_UNIT")
        self._int_cache: dict[int, int] = {1: self.X}
        self._yaxis = None
        self._unit_y = None

    def yaxis(self) -> int:
        if self._yaxis is None:
            self._yaxis = self.prog.emit("PERPENDICULAR_AT", self.AXIS, self.O)
        return self._yaxis

    def add(self, p: int, q: int) -> int:
        return self.prog.emit("TRANSFER_LENGTH", p, self.O, q)

    def sub(self, p: int, q: int) -> int:
        return self.prog.emit("TRANSFER_LENGTH", p, q, self.O)

    def half(self, p: int) -> int:
        return self.prog.emit("MIDPOINT", self.O, p)

    def int_const(self, k: int) -> int:
        if k in self._int_cache:
            return self._int_cache[k]
        if k == 0:
            idx = self.O
        elif k < 0:
            idx = self.sub(self.O, self.int_const(-k))
        else:
            idx = self.int_const(k // 2)
            idx = self.add(idx, idx)
            if k % 2:
                idx = self.add(idx, self.X)
        self._int_cache[k] = idx
        return idx

    def scale_int(self, p: int, k: int) -> int:
        """k*p by a binary doubling chain of compass transfers."""
        if k == 0:
            return self.O
        if k < 0:
            return self.sub(self.O, self.scale_int(p, -k))
        if k == 1:
            return p
        acc = self.scale_int(p, k // 2)
        acc = self.add(acc, acc)
        return self.add(acc, p) if k % 2 else acc

    def _turn_onto(self, p: int, sign: int, line: int | None = None) -> int:
        """The point at p's distance from the center on `line`, a line
        through the center, on its positive side for a positive sign.  None
        is the y axis, drawn after the circle where it is first needed."""
        circ = self.prog.emit("CIRCLE", self.O, p)
        line = self.yaxis() if line is None else line
        return self.prog.emit("INTERSECT_LC", line, circ, branch=int(sign > 0))

    def _parallel_through(self, line: int, p: int) -> int:
        perp = self.prog.emit("PERPENDICULAR_AT", line, p)
        return self.prog.emit("PERPENDICULAR_AT", perp, p)

    def mul(self, p: int, q: int, pv: int, qv: int) -> int:
        """Intercept: line (1,0)-(0,q); its parallel through (p,0) meets the
        y axis at (0, p*q).  pv and qv are the signs of p and q."""
        if pv == 0 or qv == 0:
            return self.O
        yq = self._turn_onto(q, qv)
        base = self.prog.emit("LINE", self.X, yq)
        par = self._parallel_through(base, p)
        prod_y = self.prog.emit("INTERSECT_LL", par, self.yaxis())
        return self._turn_onto(prod_y, pv * qv, self.AXIS)

    def sqrt(self, p: int, sign: int) -> int:
        """Semicircle over the diameter from (-1,0) to (p,0), p >= 0 of this
        sign; the perpendicular height at the origin is sqrt(p)."""
        minus_one = self.int_const(-1)
        mid = self.prog.emit("MIDPOINT", minus_one, p)
        circ = self.prog.emit("CIRCLE", mid, p)
        height = self.prog.emit("INTERSECT_LC", self.yaxis(), circ, branch=1)
        return self._turn_onto(height, sign, self.AXIS)

    def carlyle(self, s: int, q: int, qv: int) -> tuple[int, int]:
        """The larger and the smaller root of x^2 - s x + q, qv the sign of q:
        the circle on the diameter from (0,1) to (s,q) meets the axis at both."""
        if self._unit_y is None:
            self._unit_y = self.prog.emit("INTERSECT_LC", self.yaxis(), self.CIRCLE, branch=1)
        if qv == 0:
            corner = s
        else:
            # (s, q): the perpendicular at s meets the parallel to the axis
            # through (0, q).
            level = self.prog.emit("PERPENDICULAR_AT", self.yaxis(), self._turn_onto(q, qv))
            above = self.prog.emit("PERPENDICULAR_AT", self.AXIS, s)
            corner = self.prog.emit("INTERSECT_LL", level, above)
        mid = self.prog.emit("MIDPOINT", self._unit_y, corner)
        circ = self.prog.emit("CIRCLE", mid, self._unit_y)
        larger = self.prog.emit("INTERSECT_LC", self.AXIS, circ, branch=1)
        return larger, self.prog.emit("INTERSECT_LC", self.AXIS, circ, branch=0)


def _node_interior(prog: ArithProgram, node: tuple) -> tuple[int, tuple[int, ...]]:
    """The sum instruction of a node as `compile_to_arith` emits it, and the
    four instructions that lead from it to the roots: HALF(sum),
    MUL(half, half), SUB(square, product) and SQRT."""
    operand, root = prog.a, node[1]
    disc = operand[root]
    square = operand[disc]
    half = operand[square]
    return operand[half], (half, square, disc, root)


def lower_to_geom(prog: ArithProgram, precision: int, signs=None) -> GeomProgram:
    """Semantically equivalent straightedge/compass program; axis points carry
    the arithmetic values.

    Each node of `prog.nodes` gets its two roots from one Carlyle circle,
    placed at its first root instruction; its HALF, half^2, discriminant and
    SQRT are not drawn, and no other instruction may use them.  Every other
    instruction is lowered on its own.

    Every branch is recorded from `signs`, the proven sign (-1, 0 or 1) of
    each instruction's value at `precision` bits, as `evaluate_tower` returns
    them; they are derived from `arith_values` when not given.
    """
    if signs is None:
        signs = proven_signs(*arith_values(prog, precision))
    sign = signs.__getitem__
    b = _GeomBuilder()
    ops, consts = prog.ops, prog.consts
    loc: list[int | None] = [None] * len(ops)
    skipped: set[int] = set()
    circles: dict[int, tuple[int, int, int, int]] = {}  # first root -> (sum, product, left, right)
    for node in prog.nodes:
        sum_idx, interior = _node_interior(prog, node)
        skipped.update(interior)
        prod, _, left, right = node
        circles[min(left, right)] = (sum_idx, prod, left, right)
    for i, op, x, y in zip(range(len(ops)), ops, prog.a, prog.b):
        if i in skipped or loc[i] is not None:  # a node's interior or second root
            continue
        if i in circles:
            sum_idx, prod, left, right = circles[i]
            larger, smaller = b.carlyle(loc[sum_idx], loc[prod], sign(prod))
            loc[left], loc[right] = (larger, smaller) if ops[left] == _ADD else (smaller, larger)
        elif op == _CONST:
            value = consts[i]
            p = b.int_const(value.numerator)
            den = value.denominator
            while den % 2 == 0:
                p = b.half(p)
                den //= 2
            if den != 1:
                raise ValueError(f"constant {value} is not a dyadic fraction")
            loc[i] = p
        elif loc[x] is None or (y >= 0 and loc[y] is None):
            raise ValueError(f"instruction {i} uses a node's interior, which is not drawn")
        elif op == _ADD:
            loc[i] = b.add(loc[x], loc[y])
        elif op == _SUB:
            loc[i] = b.sub(loc[x], loc[y])
        elif op == _HALF:
            loc[i] = b.half(loc[x])
        elif op == _MUL:
            k = consts.get(x)
            if k is not None and k.denominator == 1 and abs(k) <= _INTERCEPT_THRESHOLD:
                loc[i] = b.scale_int(loc[y], int(k))
            else:
                loc[i] = b.mul(loc[x], loc[y], sign(x), sign(y))
        else:  # SQRT
            loc[i] = b.sqrt(loc[x], sign(x))
    for name, idx in prog.outputs.items():
        if loc[idx] is None:
            raise ValueError(f"output {name} is a node's interior, which is not drawn")
        b.prog.emit("POINT_ON_AXIS", loc[idx], name=name)
    return b.prog


# ---------------------------------------------------------------------------
# Program persistence (same JSON-lines container as tower documents; see
# docs/program-format.md).  Each line is written from the columns, and is
# what `json.dumps` gives for the instruction's dict form.


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


def dump_geom(prog: GeomProgram, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"format": "ngontower-geom", "version": 1, "outputs": prog.outputs}) + "\n")
        # Each op's line up to its args, with one %d per object it takes.
        lines = [
            f'{{"op": "{op}", "args": [{", ".join(["%d"] * len(takes))}]'
            for op, (takes, _) in _GEOM_KINDS.items()
        ]
        args, starts, names = prog.args, prog.starts, prog.names
        for i, (op, branch) in enumerate(zip(prog.ops, prog.branch)):
            line = lines[op] % tuple(args[starts[i]:starts[i + 1]])
            if branch >= 0:
                line += f', "branch": {branch}'
            if i in names:
                line += f', "name": {json.dumps(names[i])}'
            fh.write(line + "}\n")


def _json_object(line: str, where: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: {obj!r:.40} is not a JSON object")
    return obj


def load_geom(path: str) -> GeomProgram:
    """The program in the file.  A step `execute_geom` could not run is a
    ValueError that names its line: args that are not earlier objects of the
    kinds `_GEOM_KINDS` gives, a branch other than 0 or 1 on INTERSECT_LC, a
    name that is not a string on POINT_ON_AXIS, or a branch or name on any
    other step.  So is a line that is not a JSON object, and a header whose
    `outputs` are not the named steps' objects."""
    prog = GeomProgram()
    kinds: list[str] = []  # the kind of each object so far
    with open(path) as fh:
        header = _json_object(fh.readline(), f"{path} line 1")
        if header.get("format") != "ngontower-geom":
            raise ValueError(f"{path} is not a geometric program")
        for lineno, line in enumerate(fh, 2):
            where = f"{path} line {lineno}"
            step = _json_object(line, where)
            op, args, branch, name = map(step.get, ("op", "args", "branch", "name"))
            if op not in _GEOM_KINDS:
                raise ValueError(f"{where}: unknown geometric op {op!r}")
            takes = _GEOM_KINDS[op][0]
            if not isinstance(args, list) or len(args) != len(takes) or not all(
                type(a) is int and 0 <= a < len(kinds) and kinds[a] == k for a, k in zip(args, takes)
            ):
                raise ValueError(f"{where}: {op} args {args} are not earlier {takes} objects")
            if op == "INTERSECT_LC" and (type(branch) is not int or branch not in (0, 1)):
                raise ValueError(f"{where}: branch {branch!r} is not 0 or 1")
            if op == "POINT_ON_AXIS" and not isinstance(name, str):
                raise ValueError(f"{where}: name {name!r} is not a string")
            for key, only in (("branch", "INTERSECT_LC"), ("name", "POINT_ON_AXIS")):
                if key in step and op != only:
                    raise ValueError(f"{where}: {op} takes no {key}")
            prog.emit(op, *args, branch=branch, name=name)
            kinds += _GEOM_KINDS[op][1]
        if header.get("outputs") != prog.outputs:
            outputs = header.get("outputs")
            raise ValueError(f"{path} line 1: outputs {outputs} do not match the named steps")
    return prog


# ---------------------------------------------------------------------------
# SVG output


_VIEWPORT = 800  # an SVG's width and height, in pixels


# Bits of the ints the vertices are rotated in: the seed is within 1/2 unit of
# 2^-128 and a step adds under 2.2 (`tower.CosineCache`), so 65537 steps stay
# within 2^-110, far below a float's 2^-53, at every precision.
_VERTEX_BITS = 128


def polygon_vertices(tower: Tower, count: int) -> list[tuple[float, float]]:
    """First `count` vertices of the n-gon, in ints at scale 2^_VERTEX_BITS:
    (cos, sin)(2 pi / n), row 1 of the checked tower's cosine table rounded
    to nearest, whatever the tower's precision, then each vertex the one
    before rotated by it."""
    one, shift = 1 << _VERTEX_BITS, tower.cosines.wide_bits - _VERTEX_BITS - 1
    c1, s1 = ((x >> shift) + 1 >> 1 for x in tower.cosines.low[1])
    return [(c / one, s / one) for c, s in _rotations(c1, s1, count, _VERTEX_BITS)]


def emit_svg(tower: Tower, max_vertices: int = 0) -> str:
    """Deterministic SVG 1.1 document: the full polygon for small n, a zoomed
    arc sector showing the first max_vertices vertices for huge n."""
    n = tower.params.n
    count = n if not max_vertices else min(n, max_vertices)
    full = count == n
    verts = polygon_vertices(tower, count)
    half = _VIEWPORT / 2

    def fmt(x: float) -> str:
        return f"{x:.6f}"

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{_VIEWPORT}" '
        f'height="{_VIEWPORT}" viewBox="0 0 {_VIEWPORT} {_VIEWPORT}">',
        f'<!-- regular {n}-gon; {count} vertices drawn -->',
    ]
    if full:
        scale = half * 0.9
        cx = cy = half
    else:
        # Zoom onto the arc covered by the drawn vertices, around (1, 0).
        span = max(2 * pi * count / n, 1e-6)
        scale = half * 0.9 * (0.6 / span)
        cx, cy = half - scale + half * 0.45, half
    pts = " ".join(f"{fmt(cx + scale * x)},{fmt(cy - scale * y)}" for x, y in verts)
    lines += [
        f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" r="{fmt(scale)}" fill="none" '
        'stroke="#bbbbbb" stroke-width="1"/>',
        f'<{"polygon" if full else "polyline"} points="{pts}" fill="none" stroke="#003366" '
        'stroke-width="1"/>',
    ]
    if full:
        lines.append(f'<circle cx="{fmt(cx + scale)}" cy="{fmt(cy)}" r="3" fill="#cc0000"/>')
    else:
        lines += [f'<circle cx="{fmt(cx + scale * x)}" cy="{fmt(cy - scale * y)}" r="2" '
                  'fill="#cc0000"/>' for x, y in verts]
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
