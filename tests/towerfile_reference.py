"""The tower file as `json.dumps` writes it: each node built as a dict and
encoded whole.  `towerfile.dump_tower`, which encodes each distinct part
once and writes its lines directly, must match it byte for byte."""

import json

import mpmath as mp

from ngontower.towerfile import FORMAT_NAME, FORMAT_VERSION


def value_json(x):
    """A value field as a JSON object: its 30-digit decimal preview, by
    mpmath, and its raw fields, or None.  `x` is a raw float or an mpf."""
    if x is None:
        return None
    x = x if isinstance(x, mp.mpf) else mp.mp.make_mpf(x)
    sign, man, exp, bc = x._mpf_
    return {"dec": mp.nstr(x, 30), "mpf": [sign, hex(man), exp, bc]}


def part_json(p) -> dict:
    d = {"kind": p.kind, "offset": p.offset, "stride": p.stride}
    if p.kind == "G":
        d["set"] = p.set_index
    return d


def coeff_json(halves: int) -> list[int]:
    return [halves, 2] if halves % 2 else [halves // 2, 1]


def combo_json(combo) -> dict:
    return {
        "constant": coeff_json(combo.constant),
        "linear": [[*coeff_json(c), part_json(p)] for c, p in combo.linear],
        "squares": [[*coeff_json(c), part_json(p)] for c, p in combo.squares],
    }


def reference_dump(tower) -> str:
    """The text of the tower's file."""
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "n": tower.params.n,
        "schedule": tower.kind,
        "precision": tower.precision,
        "factor": tower.table.factor,
    }
    lines = [json.dumps(header)]
    for node in tower.nodes:
        lines.append(
            json.dumps(
                {
                    "id": node.id,
                    "step": node.step,
                    "splits": part_json(node.splits),
                    "left": part_json(node.left),
                    "right": part_json(node.right),
                    "sum_source": node.sum_source,
                    "product": combo_json(node.product_expr),
                    "left_is_larger": node.left_is_larger,
                    "sign_margin": value_json(node.sign_margin),
                    "value_left": value_json(node.value_left),
                    "value_right": value_json(node.value_right),
                }
            )
        )
    return "".join(line + "\n" for line in lines)
