"""Output checks made apart from the program, outside the timed region.

Tower files and arithmetic programs are parsed and evaluated here, with the
benchmark's own reading of docs/tower-format.md and of the eight IR ops.  The
geometric check runs the program's `execute_geom` and compares the point it
places with the benchmark's own cos(2 pi / n).  Reference values come from
mpmath.
"""

import hashlib
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from workloads import pairs_per_set

FERMAT_PRIMES = (3, 5, 17, 257, 65537)
# SVG coordinates are printed with 6 decimals: a vertex, the circle centre
# and the radius each carry up to 5e-7 of rounding.
SVG_TOL = 4e-6


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class TowerInfo:
    n: int
    precision: int
    nodes: int


def _fail(path, message):
    raise CheckFailed(f"{path}: {message}")


def _part_key(d) -> tuple:
    return (d["kind"], d.get("set", 0), d["offset"], d["stride"])


def _stored_value(d, precision) -> tuple[Fraction, Fraction]:
    """The exact binary value of a stored number, and one unit in its last
    place at the tower's precision."""
    sign, man_hex, exp, bits = d["mpf"]
    man = int(man_hex, 16)
    value = Fraction(man) * Fraction(2) ** exp
    return (-value if sign else value), Fraction(2) ** (exp + bits - precision)


def _reference(n: int, precision: int):
    """2cos(2 pi/n), cos(2 pi/n), sin(2 pi/n) and the tolerance 2^(-precision/2)."""
    with mp.workprec(precision + 64):
        angle = 2 * mp.pi / n
        cos = mp.cos(angle)
        return 2 * cos, cos, mp.sin(angle), mp.mpf(2) ** (-(precision // 2))


def _off_by(value, ref, tol, precision) -> bool:
    with mp.workprec(precision + 64):
        return not abs(value - ref) < tol


def check_tower(path, n: int) -> TowerInfo:
    """Header, the value sums of every node, and p1 against 2cos(2 pi/n).

    Evaluation sets the halves of a part to h + r and h - r, rounded, where h
    is half the part's value; so their exact sum differs from that value by
    at most half an ulp of each half.  One ulp of each is allowed.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        _fail(path, "empty tower file")
    header = json.loads(lines[0])
    if header.get("format") != "ngontower-tower" or header.get("version") != 1:
        _fail(path, f"bad header {header}")
    if header.get("n") != n or n not in FERMAT_PRIMES:
        _fail(path, f"header n={header.get('n')}, expected {n}")
    precision = header["precision"]
    nodes = [json.loads(line) for line in lines[1:]]
    values: dict[tuple, tuple[Fraction, Fraction]] = {}
    for i, node in enumerate(nodes):
        if node["id"] != i:
            _fail(path, f"node {i} has id {node['id']}")
        if node["sum_source"] is None:
            if i != 0:
                _fail(path, f"node {i} claims to split the root")
            parent, parent_ulp = Fraction(-1), Fraction(0)
        else:
            key = _part_key(node["splits"])
            if key not in values:
                _fail(path, f"node {i} splits a part no earlier node produced")
            parent, parent_ulp = values[key]
        if node["value_left"] is None or node["value_right"] is None:
            _fail(path, f"node {i} has no stored values")
        left, left_ulp = _stored_value(node["value_left"], precision)
        right, right_ulp = _stored_value(node["value_right"], precision)
        if abs(left + right - parent) > left_ulp + right_ulp + parent_ulp:
            _fail(path, f"node {i}: stored values do not sum to the part they split")
        values[_part_key(node["left"])] = (left, left_ulp)
        values[_part_key(node["right"])] = (right, right_ulp)

    p1_ref, _, _, tol = _reference(n, precision)
    if n == 3:
        if nodes:
            _fail(path, "n = 3 needs no splits")
        p1 = Fraction(-1)
    else:
        p1_key = ("G", 1, 1, pairs_per_set(n))
        if p1_key not in values:
            _fail(path, "no node produces p1")
        p1 = values[p1_key][0]
    with mp.workprec(precision + 64):
        p1_value = mp.mpf(p1.numerator) / p1.denominator
    if _off_by(p1_value, p1_ref, tol, precision):
        _fail(path, f"p1 = {mp.nstr(p1_value, 20)} is not 2cos(2pi/{n})")
    return TowerInfo(n=n, precision=precision, nodes=len(nodes))


_ARITY = {"CONST": 0, "NEG": 1, "HALF": 1, "SQRT": 1, "ADD": 2, "SUB": 2, "MUL": 2, "DIV": 2}


def check_arith(path, n: int, precision: int, nodes: int) -> int:
    """Run the arithmetic program; cos and sin must come out right, with one
    SQRT per tower node plus one.  Returns the instruction count."""
    lines = Path(path).read_text().splitlines()
    header = json.loads(lines[0])
    if header.get("format") != "ngontower-arith":
        _fail(path, f"bad header {header}")
    vals = []
    sqrts = 0
    with mp.workprec(precision):
        for line in lines[1:]:
            d = json.loads(line)
            op, args = d["op"], d["args"]
            if _ARITY.get(op) != len(args) or any(not 0 <= i < len(vals) for i in args):
                _fail(path, f"malformed instruction {d}")
            a = [vals[i] for i in args]
            if op == "CONST":
                num, den = d["value"]
                v = mp.mpf(num) / den
            elif op == "NEG":
                v = -a[0]
            elif op == "HALF":
                v = a[0] / 2
            elif op == "ADD":
                v = a[0] + a[1]
            elif op == "SUB":
                v = a[0] - a[1]
            elif op == "MUL":
                v = a[0] * a[1]
            elif op == "DIV":
                v = a[0] / a[1]
            else:
                if a[0] < 0:
                    _fail(path, f"SQRT of negative {mp.nstr(a[0], 10)} at instruction {len(vals)}")
                v = mp.sqrt(a[0])
                sqrts += 1
            vals.append(v)
    if sqrts != nodes + 1:
        _fail(path, f"{sqrts} square roots for {nodes} tower nodes")
    _, cos_ref, sin_ref, tol = _reference(n, precision)
    for name, ref in (("cos", cos_ref), ("sin", sin_ref)):
        if _off_by(vals[header["outputs"][name]], ref, tol, precision):
            _fail(path, f"output {name} is not {name}(2pi/{n})")
    return len(vals)


def check_geom(path, n: int, precision: int) -> int:
    """execute_geom must place the cos point on cos(2 pi/n).  Returns the
    number of straightedge-and-compass instructions."""
    from ngontower.construction import execute_geom, load_geom

    prog = load_geom(str(path))
    outputs = execute_geom(prog, precision)
    _, cos_ref, _, tol = _reference(n, precision)
    if "cos" not in outputs or _off_by(outputs["cos"], cos_ref, tol, precision):
        _fail(path, f"the cos point is not at cos(2pi/{n})")
    return len(prog.instrs)


_CIRCLE = re.compile(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="([-\d.]+)"')
_POINTS = re.compile(r'<(polygon|polyline) points="([^"]*)"')


def check_svg(path, n: int, vertices: int) -> int:
    """Vertices on the drawn circle, with equal chords 2r sin(pi/n); a full
    polygon is closed and has n vertices.  Returns the vertex count."""
    text = Path(path).read_text()
    circle, points = _CIRCLE.search(text), _POINTS.search(text)
    if circle is None or points is None:
        _fail(path, "no circle or vertex list")
    cx, cy, r = map(float, circle.groups())
    verts = [tuple(map(float, p.split(","))) for p in points.group(2).split()]
    closed = points.group(1) == "polygon"
    if len(verts) != vertices or closed != (vertices == n):
        _fail(path, f"{len(verts)} vertices ({points.group(1)}), expected {vertices} of {n}")
    for i, (x, y) in enumerate(verts):
        if abs(math.hypot(x - cx, y - cy) - r) > SVG_TOL:
            _fail(path, f"vertex {i} is off the circle")
    chord = 2 * r * math.sin(math.pi / n)
    ends = verts[1:] + (verts[:1] if closed else [])
    for i, (p, q) in enumerate(zip(verts, ends)):
        if abs(math.dist(p, q) - chord) > SVG_TOL:
            _fail(path, f"chord {i} differs from 2r sin(pi/{n})")
    return len(verts)


_BUILD_ORACLE = re.compile(r"^oracle-verified product expressions = (\d+)$", re.M)
_VERIFY_LINE = re.compile(r"verified: (\d+) nodes, oracle-checked (\d+) product expressions")


def check_build_log(path, info: TowerInfo, oracle: bool) -> None:
    """`build` reports one oracle-verified expression per node."""
    found = _BUILD_ORACLE.search(Path(path).read_text())
    checked = int(found.group(1)) if found else 0
    if checked != (info.nodes if oracle else 0):
        _fail(path, f"oracle verified {checked} expressions for {info.nodes} nodes")


def check_verify_log(path, info: TowerInfo, oracle: bool) -> None:
    found = _VERIFY_LINE.search(Path(path).read_text())
    if found is None:
        _fail(path, "no verification line")
    nodes, checked = int(found.group(1)), int(found.group(2))
    if nodes != info.nodes or checked != (info.nodes if oracle else 0):
        _fail(path, f"verified {nodes} nodes, oracle-checked {checked}; tower has {info.nodes}")


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Checker:
    """Checks the outputs of commands.  Operations repeat the same commands,
    so each distinct output file is checked once, keyed by its content."""

    def __init__(self):
        self._done: dict = {}

    def _once(self, check, path, *args):
        key = (check.__name__, _digest(path), args)
        if key not in self._done:
            try:
                self._done[key] = check(path, *args)
            except (ValueError, KeyError, IndexError, TypeError, ArithmeticError, RuntimeError) as exc:
                # Malformed output: JSON errors, missing fields, a program
                # that divides by zero or meets a degenerate intersection.
                raise CheckFailed(f"{path}: unreadable or inconsistent: {exc!r}") from exc
        return self._done[key]

    def command(self, cmd) -> int:
        """Check one command's outputs; returns the geometric steps it wrote."""
        info = self._once(check_tower, cmd.tower, cmd.n)
        if cmd.kind == "build":
            check_build_log(cmd.log, info, cmd.oracle)
        elif cmd.kind == "verify":
            check_verify_log(cmd.log, info, cmd.oracle)
        elif cmd.kind == "arith":
            self._once(check_arith, cmd.out, cmd.n, info.precision, info.nodes)
        elif cmd.kind == "geom":
            return self._once(check_geom, cmd.out, cmd.n, info.precision)
        elif cmd.kind == "render":
            self._once(check_svg, cmd.out, cmd.n, cmd.vertices)
        return 0
