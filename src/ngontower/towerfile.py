"""Tower persistence: one JSON object per line, bit-exact value round trips.

The one place where product coefficients change form: in memory they are
ints counting halves; on disk they are `[numerator, denominator]` pairs,
written in lowest terms and read with a denominator of 1 or 2.  See
docs/tower-format.md for the format description.  `dump_tower` encodes
each distinct part and term once and writes each line directly, values
and all, as `json.dumps` would.
"""

import json
import re

from .errors import UsageError
from .invariant_sets import LinearCombo, PartRef, build_invariant_sets, check_part
from .rawfloat import to_text
from .residues import FermatParams
from .tower import (
    MAX_PRECISION,
    QuadraticNode,
    Tower,
    _place,
    _root_part,
    default_precision,
    schedule_closure,
)

FORMAT_NAME = "ngontower-tower"
FORMAT_VERSION = 1


def _coeff_text(halves: int) -> str:
    return f"{halves}, 2" if halves % 2 else f"{halves // 2}, 1"


# Real towers reach 32,768 = npairs halves.  The exact oracle expands over
# Z and is exact at any size: this bound only refuses input no real tower
# comes near.
_MAX_HALVES = 1 << 31


def _coeff_from_json(num, den) -> int:
    if not type(num) is type(den) is int:  # type, not isinstance: a bool is refused
        raise TypeError(f"coefficient [{num!r}, {den!r}] is not a pair of integers")
    if den not in (1, 2):
        raise ValueError(f"coefficient [{num}, {den}] has a denominator other than 1 or 2")
    halves = num * (2 // den)
    if abs(halves) >= _MAX_HALVES:
        raise ValueError(f"coefficient [{num}, {den}] is 2^30 or more in size")
    return halves


def _value_text(x: tuple | None) -> str:
    """The JSON text of a value field: null, or the raw float's 30-digit
    decimal preview (`rawfloat.to_text`) and its fields."""
    if x is None:
        return "null"
    sign, man, exp, bc = x
    return f'{{"dec": "{to_text(x, 30)}", "mpf": [{sign}, "{man:#x}", {exp}, {bc}]}}'


_HEX = re.compile("0x[0-9a-f]+")


def _value_from_json(d) -> tuple | None:
    """The raw float a value field holds, refused unless it is the normal
    form that mpmath writes (and `rawfloat` too): a sign of 0 or 1, a hex
    mantissa that is odd (or zero with sign and exponent 0), an int exponent
    and the mantissa's bit length."""
    if d is None:
        return None
    sign, man_hex, exp, bc = d["mpf"]
    if not _HEX.fullmatch(man_hex):
        raise ValueError(f"mantissa {man_hex!r} is not a lowercase hex string")
    man = int(man_hex, 16)
    if not (
        type(sign) is type(exp) is type(bc) is int
        and sign in (0, 1)
        and bc == man.bit_length()
        and (man % 2 == 1 or (sign, man, exp) == (0, 0, 0))
    ):
        raise ValueError(f"mpf {d['mpf']} is not in mpmath's normal form")
    return (sign, man, exp, bc)


_SIGN_TEXT = {True: "true", False: "false", None: "null"}


class _Texts(dict):
    """The JSON text of each part and each (halves, part) term, made on
    first use."""

    def __missing__(self, key) -> str:
        if isinstance(key, PartRef):
            d = {"kind": key.kind, "offset": key.offset, "stride": key.stride}
            text = json.dumps(d | {"set": key.set_index} if key.kind == "G" else d)
        else:
            text = f"[{_coeff_text(key[0])}, {self[key[1]]}]"
        self[key] = text
        return text


def dump_tower(tower: Tower, path: str) -> None:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n": tower.params.n,
        "schedule": tower.kind,
        "precision": tower.precision,
        "factor": tower.table.factor,
    }
    texts = _Texts()
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for node in tower.nodes:
            combo = node.product_expr
            linear = ", ".join(map(texts.__getitem__, combo.linear))
            squares = ", ".join(map(texts.__getitem__, combo.squares))
            fh.write(
                f'{{"id": {node.id}, "step": {node.step}, "splits": {texts[node.splits]}, '
                f'"left": {texts[node.left]}, "right": {texts[node.right]}, '
                f'"sum_source": {"null" if node.sum_source is None else node.sum_source}, '
                f'"product": {{"constant": [{_coeff_text(combo.constant)}], '
                f'"linear": [{linear}], "squares": [{squares}]}}, '
                f'"left_is_larger": {_SIGN_TEXT[node.left_is_larger]}, '
                f'"sign_margin": {_value_text(node.sign_margin)}, '
                f'"value_left": {_value_text(node.value_left)}, '
                f'"value_right": {_value_text(node.value_right)}}}\n'
            )


class _Reader:
    """Reads the nodes of one tower file, with one `PartRef` per distinct
    part, checked against the table once, and one (halves, part) tuple per
    distinct term.  A product term is looked up by its raw fields (num, den,
    kind, offset, stride, set), and only a term not met before has its
    coefficient read and its part checked.  Every lookup is keyed on fields
    whose type was checked first, on each occurrence, so a value that merely
    equals an int (1.0, true) is refused wherever it appears."""

    def __init__(self, params: FermatParams):
        self.params = params
        self.parts: dict[tuple, PartRef] = {}
        self.terms: dict[tuple[int, PartRef], tuple[int, PartRef]] = {}
        self.raw_terms: dict[tuple, tuple[int, PartRef]] = {}  # raw fields -> term

    def part(self, d) -> PartRef:
        """The part a JSON object names; raises ValueError for a part
        outside the table."""
        key = (d["kind"], d["offset"], d["stride"], d.get("set", 0))
        if not type(key[1]) is type(key[2]) is type(key[3]) is int:
            raise TypeError(f"part {d} has an offset, stride or set that is not an integer")
        part = self.parts.get(key)
        if part is None:
            part = PartRef(*key)
            check_part(part, self.params)
            self.parts[key] = part
        return part

    def combo(self, d) -> LinearCombo:
        """The product expression a JSON object holds; raises ValueError for
        a part named twice among its linear terms or twice among its
        squares, which no schedule writes."""
        constant, memo, groups = _coeff_from_json(*d["constant"]), self.raw_terms, []
        for kind in ("linear", "squares"):
            out = []
            for num, den, p in d[kind]:
                key = (num, den, p["kind"], p["offset"], p["stride"], p.get("set", 0))
                ints = type(num) is type(den) is type(key[3]) is type(key[4]) is type(key[5]) is int
                term = memo.get(key) if ints else None
                if term is None:  # a new term, or a field that is not an int: refused here
                    term = (_coeff_from_json(num, den), self.part(p))
                    term = memo[key] = self.terms.setdefault(term, term)
                out.append(term)
            if len({part for _, part in out}) < len(out):
                named = set()
                for _, part in out:
                    if part in named:
                        raise ValueError(f"{part.label()} is named twice among the {kind} terms")
                    named.add(part)
            groups.append(tuple(out))
        return LinearCombo(constant, *groups)

    def node(self, d, node_id: int, table, by_child: dict) -> QuadraticNode:
        """The node a line holds, placed once as node `node_id` by
        `tower._place` (`by_child` maps the root to None and each half of the
        earlier nodes to its node id, and gains this node's).  Raises
        ValueError for a part outside the table, a sign that is not a bool or
        null, a sign without its margin, one value without the other, and a
        node other than the one the schedule would place here: the next id,
        the split's step and halves (`split_children`), its sum taken from
        the earlier node that produced the split (null only for the root),
        and a product over the root and halves of earlier nodes.  Whether
        the nodes are the header's schedule is checked after the last line
        (`_check_schedule`).  The id, step and sum_source must be ints: true
        and 1.0 equal 1 but are refused."""
        splits, left, right = (self.part(d[key]) for key in ("splits", "left", "right"))
        expr = self.combo(d["product"])
        larger, margin = d["left_is_larger"], _value_from_json(d["sign_margin"])
        value_left, value_right = _value_from_json(d["value_left"]), _value_from_json(d["value_right"])
        if type(larger) not in (bool, type(None)):
            raise ValueError(f"left_is_larger {larger!r} is neither a bool nor null")
        if larger is not None and margin is None:
            raise ValueError("left_is_larger is set but sign_margin is null")
        if (value_left is None) != (value_right is None):
            raise ValueError("one of value_left and value_right is null")
        if type(d["id"]) is not int or d["id"] != node_id:
            raise ValueError(f"node id {d['id']!r}, expected {node_id}")
        node = _place(splits, expr, node_id, table, by_child)
        if type(d["step"]) is not int or d["step"] != node.step:
            raise ValueError(f"step {d['step']!r}, expected {node.step}")
        if (left, right) != (node.left, node.right):
            raise ValueError(f"left and right are not the halves of {splits.label()}")
        if type(d["sum_source"]) not in (int, type(None)) or d["sum_source"] != node.sum_source:
            raise ValueError(f"sum_source {d['sum_source']!r}, expected {node.sum_source}")
        node.left, node.right = left, right  # the reader's one object per part
        node.left_is_larger, node.sign_margin = larger, margin
        node.value_left, node.value_right = value_left, value_right
        return node


def _check_schedule(tower: Tower) -> None:
    """Raise ValueError unless the nodes are exactly the splits of the
    header's schedule, as `tower.schedule_closure` walks it over the nodes'
    own products."""
    stored = {node.splits: node.product_expr for node in tower.nodes}

    def product(split):
        if split not in stored:
            raise ValueError(f"no node splits {split.label()}, which the {tower.kind} schedule needs")
        return stored[split]

    reached = schedule_closure(tower.params, tower.kind, product)
    if len(reached) < len(tower.nodes):
        node = next(node for node in tower.nodes if node.splits not in reached)
        raise ValueError(f"node {node.id} ({node.splits.label()}) is not in the {tower.kind} schedule")


def _check_header(header) -> None:
    """Raise ValueError unless the header names this format and version, and
    its n and factor are ints, its schedule full or pruned, and its precision
    null or a number of bits in 1..MAX_PRECISION."""
    if header.get("format") != FORMAT_NAME:
        raise ValueError("not a tower document")
    if header.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported tower format version {header.get('version')}")
    for key in ("n", "factor"):
        if type(header[key]) is not int:
            raise ValueError(f"{key} {header[key]!r} is not an integer")
    if header["schedule"] not in ("full", "pruned"):
        raise ValueError(f"schedule {header['schedule']!r} is neither full nor pruned")
    precision = header["precision"]
    if precision is not None and not (type(precision) is int and 1 <= precision <= MAX_PRECISION):
        raise ValueError(f"precision {precision!r} is not null or in 1..{MAX_PRECISION}")


def load_tower(path: str) -> Tower:
    """Read a tower document.

    Any malformed line raises UsageError naming the file and the line: one
    that is not JSON or is nested too deeply to parse, a header out of range
    (`_check_header`; an n that is not a Fermat prime up to 65537 is refused
    before any table is built), a node that names a part outside the table
    for that n (any of its split, halves or product terms), a product
    expression that names a part twice among its linear terms or twice among
    its squares, a coefficient that is not an integer or half-integer
    (denominator 1 or 2) below 2^30, a part field, coefficient, id, step or
    sum_source that is not a JSON integer (a bool is refused), a malformed
    sign or value field, a node out of place in the schedule's DAG (both
    `_Reader.node`), and, reported on the last line, nodes that are not
    exactly the header's schedule (`_check_schedule`).  A null header
    precision reads as `default_precision(n)`.  An unreadable path raises
    OSError.  Each distinct part and term is one object, and each distinct
    term is read and checked once, though the type of its fields is checked
    wherever it appears (`_Reader`).
    """
    with open(path) as fh:
        lineno = 1
        try:
            header = json.loads(fh.readline())
            _check_header(header)
            params = FermatParams.from_n(header["n"])
            table = build_invariant_sets(params, factor=header["factor"])
            by_child = {_root_part(params): None}
            nodes, reader = [], _Reader(params)
            for lineno, line in enumerate(fh, start=2):
                nodes.append(reader.node(json.loads(line), len(nodes), table, by_child))
            precision = header["precision"]
            if precision is None:
                precision = default_precision(params.n)
            tower = Tower(params, table, header["schedule"], nodes, precision)
            _check_schedule(tower)
        except (KeyError, TypeError, ValueError, ZeroDivisionError, AttributeError,
                RecursionError) as exc:
            raise UsageError(f"{path} line {lineno}: {type(exc).__name__}: {exc}") from exc
    return tower
