"""The schedule's node list: pinned bytes, pruned as a closure of full, and a
build that derives only what the pruned closure needs."""

import dataclasses
import hashlib
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from ngontower import splitting
from ngontower.invariant_sets import build_invariant_sets, g_part
from ngontower.residues import FermatParams
from ngontower.tower import _root_part, build_schedule

from towerfile_reference import combo_json, part_json

GOLDEN = Path(__file__).parent / "golden"


def _schedule(n, kind):
    params = FermatParams.from_n(n)
    return build_schedule(params, build_invariant_sets(params), kind)


def _structure(node) -> str:
    """The node's structural fields as the tower file encodes them."""
    return json.dumps(
        {
            "id": node.id,
            "step": node.step,
            "splits": part_json(node.splits),
            "left": part_json(node.left),
            "right": part_json(node.right),
            "sum_source": node.sum_source,
            "product": combo_json(node.product_expr),
        }
    )


@pytest.mark.parametrize("n, kind", [(65537, "pruned"), (257, "full")])
def test_schedule_bytes_match_golden(n, kind):
    expected = (GOLDEN / f"schedule_{n}_{kind}.sha256").read_text().split()
    nodes = _schedule(n, kind).nodes
    got = [hashlib.sha256(_structure(node).encode()).hexdigest() for node in nodes]
    assert len(got) == len(expected)
    differing = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert not differing, f"nodes {differing[:10]} differ from the golden schedule"


def _closure_of_p1(full_nodes, params):
    """Backward dependency closure of the node producing p1, walked over the
    full schedule: the nodes a pruned schedule must keep."""
    if not full_nodes:
        return set()
    by_split = {node.splits: node for node in full_nodes}
    by_child = {}
    for node in full_nodes:
        by_child[node.left] = by_child[node.right] = node.id
    root = _root_part(params)
    keep = set()
    stack = [by_split[g_part(1, 1, 1 << (params.nu - 1))].id]
    while stack:
        nid = stack.pop()
        if nid in keep:
            continue
        keep.add(nid)
        node = full_nodes[nid]
        for part in (node.splits, *node.product_expr.referenced_parts()):
            if part != root:
                stack.append(by_child[part])
    return keep


@pytest.mark.parametrize("n", [3, 5, 17, 257])
def test_pruned_is_renumbered_subsequence_of_full(n):
    full, pruned = _schedule(n, "full"), _schedule(n, "pruned")
    keep = _closure_of_p1(full.nodes, full.params)
    kept = [node for node in full.nodes if node.id in keep]
    new_id = {node.id: i for i, node in enumerate(kept)}
    expected = [
        dataclasses.replace(
            node,
            id=new_id[node.id],
            sum_source=None if node.sum_source is None else new_id[node.sum_source],
        )
        for node in kept
    ]
    assert [_structure(node) for node in pruned.nodes] == [_structure(node) for node in expected]
    if n == 3:
        assert full.nodes == pruned.nodes == []


def _count_calls(monkeypatch, module, name, counts, key):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[key(args)] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_pruned_65537_derives_only_what_it_keeps(monkeypatch, params65537, table65537):
    products, levels = Counter(), Counter()
    for name in ("f_split_product", "g_split_product"):
        _count_calls(monkeypatch, splitting, name, products, lambda args, name=name: name)
    for name in ("mu_table", "pr_terms"):
        # Both take the level m first.
        _count_calls(monkeypatch, splitting, name, levels, lambda args, name=name: (name, args[0]))
    _count_calls(monkeypatch, splitting, "wrap_twist", levels, lambda args: ("wrap_twist", None))

    tower = build_schedule(params65537, table65537, "pruned")

    assert len(tower.nodes) == 712
    assert sum(products.values()) == 712
    assert levels and max(levels.values()) == 1
    assert {m for name, m in levels if name == "mu_table"} == set(range(11))
    assert {m for name, m in levels if name == "pr_terms"} == set(range(4))


def test_pruned_65537_folds_mu_rows_without_set_products(monkeypatch, params65537, table65537):
    # Above the bottom level mu is tallied from the classified pair products;
    # only the bottom level's one product is a whole set product.
    calls = Counter()
    _count_calls(monkeypatch, splitting, "set_product", calls, lambda args: args[:2])

    build_schedule(params65537, table65537, "pruned")

    assert sum(calls.values()) <= 1
    assert set(calls) <= {(1, 1 + 1024)}


def _terms(nodes):
    return [t for node in nodes for t in (*node.product_expr.linear, *node.product_expr.squares)]


@pytest.mark.parametrize("n, kind", [(65537, "pruned"), (257, "full")])
def test_equal_terms_are_one_object(n, kind):
    # As in a tower read back from its file: the pruned 65537 schedule's
    # 33,581 terms are 3,837 distinct (halves, part) tuples.
    terms = _terms(_schedule(n, kind).nodes)
    assert len({id(t) for t in terms}) == len(set(terms)) < len(terms)


def test_pruned_65537_schedule_holds_each_term_once(params65537, table65537):
    # One tuple per term, 33,581 of them, held 2.67 MB with the nodes.
    build_schedule(params65537, table65537, "pruned")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tower = build_schedule(params65537, table65537, "pruned")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tower.nodes) == 712
    assert held < 1_600_000, held
