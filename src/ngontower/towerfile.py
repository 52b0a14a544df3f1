"""Tower persistence: one JSON object per line, bit-exact value round trips.

The one place where product coefficients change form: in memory they are
ints counting halves; on disk they are `[numerator, denominator]` pairs,
written in lowest terms and read with a denominator of 1 or 2.  See
docs/tower-format.md for the format description.
"""

import json
from operator import index

import mpmath as mp

from .invariant_sets import build_invariant_sets
from .residues import FermatParams
from .splitting import LinearCombo, PartRef, check_part
from .tower import QuadraticNode, Tower, VerificationReport, _halves, _per_step, _root_part, _step

FORMAT_NAME = "ngontower-tower"
FORMAT_VERSION = 1


def _part_to_json(p: PartRef):
    d = {"kind": p.kind, "offset": p.offset, "stride": p.stride}
    if p.kind == "G":
        d["set"] = p.set_index
    return d


def _part_from_json(d) -> PartRef:
    # index() refuses a non-integral offset, stride or set with TypeError.
    return PartRef(
        kind=d["kind"],
        offset=index(d["offset"]),
        stride=index(d["stride"]),
        set_index=index(d.get("set", 0)),
    )


def _coeff_to_json(halves: int) -> list[int]:
    return [halves, 2] if halves % 2 else [halves // 2, 1]


def _coeff_from_json(num, den) -> int:
    num, den = index(num), index(den)
    if den not in (1, 2):
        raise ValueError(f"coefficient [{num}, {den}] has a denominator other than 1 or 2")
    return num * (2 // den)


def _combo_to_json(combo: LinearCombo):
    return {
        "constant": _coeff_to_json(combo.constant),
        "linear": [[*_coeff_to_json(c), _part_to_json(p)] for c, p in combo.linear],
        "squares": [[*_coeff_to_json(c), _part_to_json(p)] for c, p in combo.squares],
    }


def _terms_from_json(terms):
    return tuple((_coeff_from_json(num, den), _part_from_json(p)) for num, den, p in terms)


def _combo_from_json(d) -> LinearCombo:
    return LinearCombo(
        constant=_coeff_from_json(*d["constant"]),
        linear=_terms_from_json(d["linear"]),
        squares=_terms_from_json(d["squares"]),
    )


def _value_to_json(x):
    if x is None:
        return None
    sign, man, exp, bc = x._mpf_
    return {"dec": mp.nstr(x, 30), "mpf": [sign, hex(man), exp, bc]}


def _value_from_json(d):
    if d is None:
        return None
    sign, man_hex, exp, bc = d["mpf"]
    return mp.mp.make_mpf((sign, int(man_hex, 16), exp, bc))


def dump_tower(tower: Tower, path: str) -> None:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n": tower.params.n,
        "schedule": tower.kind,
        "precision": tower.precision,
        "factor": tower.table.factor,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for node in tower.nodes:
            fh.write(
                json.dumps(
                    {
                        "id": node.id,
                        "step": node.step,
                        "splits": _part_to_json(node.splits),
                        "left": _part_to_json(node.left),
                        "right": _part_to_json(node.right),
                        "sum_source": node.sum_source,
                        "product": _combo_to_json(node.product_expr),
                        "left_is_larger": node.left_is_larger,
                        "sign_margin": _value_to_json(node.sign_margin),
                        "value_left": _value_to_json(node.value_left),
                        "value_right": _value_to_json(node.value_right),
                    }
                )
                + "\n"
            )


def _node_from_json(d, params: FermatParams) -> QuadraticNode:
    node = QuadraticNode(
        id=d["id"],
        step=d["step"],
        splits=_part_from_json(d["splits"]),
        left=_part_from_json(d["left"]),
        right=_part_from_json(d["right"]),
        sum_source=d["sum_source"],
        product_expr=_combo_from_json(d["product"]),
        left_is_larger=d["left_is_larger"],
        sign_margin=_value_from_json(d["sign_margin"]),
        value_left=_value_from_json(d["value_left"]),
        value_right=_value_from_json(d["value_right"]),
    )
    for part in (node.splits, node.left, node.right, *node.product_expr.referenced_parts()):
        check_part(part, params)
    return node


def _check_structure(node: QuadraticNode, expected_id: int, table, root, by_child: dict) -> None:
    """Raise ValueError unless the node is the one the schedule would place
    here: the next id, the split's step and canonical halves, its sum taken
    from the earlier node that produced the split (null only for the root),
    and a product over the root and halves of earlier nodes.  `by_child`
    maps each half of the earlier nodes to its node id."""
    split = node.splits
    if node.id != expected_id:
        raise ValueError(f"node id {node.id}, expected {expected_id}")
    if node.step != _step(split, table.params):
        raise ValueError(f"step {node.step}, expected {_step(split, table.params)}")
    if (node.left, node.right) != _halves(split, table):
        raise ValueError(f"left and right are not the halves of {split.label()}")
    if split != root and split not in by_child:
        raise ValueError(f"no earlier node produces {split.label()}")
    if node.sum_source != by_child.get(split):
        raise ValueError(f"sum_source {node.sum_source}, expected {by_child.get(split)}")
    for part in node.product_expr.referenced_parts():
        if part != root and part not in by_child:
            raise ValueError(f"product names {part.label()}, which no earlier node produces")
    by_child[node.left] = by_child[node.right] = node.id


def load_tower(path: str) -> Tower:
    """Read a tower document.

    Any malformed line raises ValueError naming the file and the line: a
    header whose n is not a Fermat prime up to 65537 (checked before any
    table is built), a node that names a part outside the table for that n
    (any of its split, halves or product terms), a coefficient that is not an
    integer or half-integer (denominator 1 or 2), and a node out of place in
    the schedule's DAG (see `_check_structure`).
    """
    with open(path) as fh:
        lineno = 1
        try:
            header = json.loads(fh.readline())
            if header.get("format") != FORMAT_NAME:
                raise ValueError("not a tower document")
            if header.get("version") != FORMAT_VERSION:
                raise ValueError(f"unsupported tower format version {header.get('version')}")
            params = FermatParams.from_n(header["n"])
            table = build_invariant_sets(params, factor=header["factor"])
            kind, precision = header["schedule"], header["precision"]
            root, by_child = _root_part(params), {}
            nodes = []
            for lineno, line in enumerate(fh, start=2):
                node = _node_from_json(json.loads(line), params)
                _check_structure(node, len(nodes), table, root, by_child)
                nodes.append(node)
        except (KeyError, TypeError, ValueError, ZeroDivisionError, AttributeError) as exc:
            raise ValueError(f"{path} line {lineno}: {type(exc).__name__}: {exc}") from exc
    tower = Tower(params=params, table=table, kind=kind, nodes=nodes, precision=precision)
    if nodes and nodes[-1].value_left is not None:
        tower.report = VerificationReport(
            node_count=len(nodes), per_step=_per_step(nodes)
        )
    return tower
