"""Lower an arithmetic program (`arith`) to a straightedge/compass
instruction stream, run that stream, and draw the polygon as SVG.

The value v lives at the axis point (v, 0).  Each tower node, as
`ArithProgram.nodes` marks it, is lowered to a Carlyle circle: the circle on
the diameter from (0, 1) to (s, q) meets the axis at the two roots of
x^2 - s x + q, in 7 steps (4 when q = 0) against 14 for drawing the node's
HALF, half^2, discriminant, SQRT and two roots one by one; those four are
not drawn, and neither is a root that no instruction or output reads.  The
corner (s, q) and each product take one translation off the axis
(`TRANSFER_LENGTH`, docs/program-format.md): a product is the line through
(0, q) and (p, q - 1), which meets the axis at (pq, 0), in 5 steps.  Every
other square root uses the semicircle rule (perpendicular height over a
diameter split into D and 1), and each sum, difference and halving one
compass transfer or midpoint, so the doubling chain that scales a product
(`arith._ArithBuilder.combo`) is drawn one transfer per step.  At n = 65537
(pruned, factor 3) the program has 28,907 steps.  Every intersection branch
is recorded at lowering time from the signs of the instruction values, so
geometric execution never re-decides a choice.

The program is held as flat columns (`GeomProgram`): at n = 65537 pruned
they hold 0.56 MB, where an object per instruction took 6.8 MB.  The
program files are JSON lines (docs/program-format.md).
"""

import json
from array import array
from dataclasses import dataclass, field
from math import pi
from typing import NamedTuple

from .arith import _ADD, _CONST, _HALF, _MUL, _SUB, ArithProgram, _Instrs, arith_values, proven_signs
# perfbench imports `compile_to_arith` and `dump_arith` from here, and wraps them here.
from .arith import compile_to_arith, dump_arith  # noqa: F401
from .errors import VerificationError
from .tower import Tower, _rotations


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

    def unit_y(self) -> int:
        """The point (0, 1), drawn where it is first needed."""
        if self._unit_y is None:
            self._unit_y = self.prog.emit("INTERSECT_LC", self.yaxis(), self.CIRCLE, branch=1)
        return self._unit_y

    def _turn_onto(self, p: int, sign: int, line: int | None = None) -> int:
        """The point at p's distance from the center on `line`, a line
        through the center, on its positive side for a positive sign.  None
        is the y axis, drawn after the circle where it is first needed."""
        circ = self.prog.emit("CIRCLE", self.O, p)
        line = self.yaxis() if line is None else line
        return self.prog.emit("INTERSECT_LC", line, circ, branch=int(sign > 0))

    def mul(self, p: int, q: int, pv: int, qv: int) -> int:
        """The line through (0, q) and (p, q - 1), the points (pt, q - t),
        meets the axis at t = q, in (p*q, 0): 5 steps, whatever the signs.
        pv and qv are the signs of p and q."""
        if pv == 0 or qv == 0:
            return self.O
        yq = self._turn_onto(q, qv)
        other = self.prog.emit("TRANSFER_LENGTH", yq, self.unit_y(), p)
        line = self.prog.emit("LINE", yq, other)
        return self.prog.emit("INTERSECT_LL", line, self.AXIS)

    def sqrt(self, p: int, sign: int) -> int:
        """Semicircle over the diameter from (-1,0) to (p,0), p >= 0 of this
        sign; the perpendicular height at the origin is sqrt(p)."""
        minus_one = self.int_const(-1)
        mid = self.prog.emit("MIDPOINT", minus_one, p)
        circ = self.prog.emit("CIRCLE", mid, p)
        height = self.prog.emit("INTERSECT_LC", self.yaxis(), circ, branch=1)
        return self._turn_onto(height, sign, self.AXIS)

    def carlyle(self, s: int, q: int, qv: int, wanted: tuple) -> tuple[int | None, int | None]:
        """The larger and the smaller root of x^2 - s x + q, qv the sign of q:
        the circle on the diameter from (0,1) to (s,q) meets the axis at both,
        in 7 steps (4 when q = 0).  The corner (s, q) is (0, q) moved by s.
        `wanted` says which of the two to draw; one not drawn is None."""
        unit_y = self.unit_y()
        corner = s if qv == 0 else self.prog.emit("TRANSFER_LENGTH", self._turn_onto(q, qv), self.O, s)
        mid = self.prog.emit("MIDPOINT", unit_y, corner)
        circ = self.prog.emit("CIRCLE", mid, unit_y)
        return tuple(
            self.prog.emit("INTERSECT_LC", self.AXIS, circ, branch=branch) if want else None
            for branch, want in zip((1, 0), wanted)
        )


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
    SQRT are not drawn, and no other instruction may use them.  A root that
    no instruction or output reads is not drawn either, though its circle
    is.  Every other instruction is lowered on its own.

    Every branch is recorded from `signs`, the proven sign (-1, 0 or 1) of
    each instruction's value at `precision` bits, as `evaluate_tower` returns
    them; they are derived from `arith_values` when not given.
    """
    if signs is None:
        signs = proven_signs(*arith_values(prog, precision))
    sign = signs.__getitem__
    b = _GeomBuilder()
    ops, consts = prog.ops, prog.consts
    # read[i]: an instruction or an output reads i.  The spare last byte
    # takes the -1 of a missing operand.
    read = bytearray(len(ops) + 1)
    for column in (prog.a, prog.b, prog.outputs.values()):
        for j in column:
            read[j] = 1
    loc: list[int | None] = [None] * len(ops)
    skipped: set[int] = set()
    circles: dict[int, tuple[int, int, int, int]] = {}  # first root -> (sum, product, larger, smaller)
    for node in prog.nodes:
        sum_idx, interior = _node_interior(prog, node)
        prod, _, left, right = node
        skipped.update(interior)
        skipped.add(max(left, right))
        larger, smaller = (left, right) if ops[left] == _ADD else (right, left)
        circles[min(left, right)] = (sum_idx, prod, larger, smaller)
    for i, op, x, y in zip(range(len(ops)), ops, prog.a, prog.b):
        if i in skipped:  # a node's interior or second root
            continue
        if i in circles:
            sum_idx, prod, larger, smaller = circles[i]
            loc[larger], loc[smaller] = b.carlyle(
                loc[sum_idx], loc[prod], sign(prod), (read[larger], read[smaller])
            )
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
    to nearest (`CosineCache.row1`), whatever the tower's precision, then
    each vertex the one before rotated by it."""
    one = 1 << _VERTEX_BITS
    rows = _rotations(*tower.cosines.row1(_VERTEX_BITS), count, _VERTEX_BITS)
    return [(c / one, s / one) for c, s in rows]


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
