"""The greedy of `sharing.Lines` against `sharing_reference.ReferenceLines`,
which sorts every shape in each round: both must give the same plans and
number the same lines, on every pattern a tower's program plans and on
generated ones."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ngontower.construction import compile_to_arith
from ngontower.invariant_sets import build_invariant_sets
from ngontower.residues import FermatParams
from ngontower.sharing import _MAX_SHARED, Lines
from ngontower.tower import build_schedule, build_tower, resolve_signs

from sharing_reference import ReferenceLines


def _same_plans(patterns) -> None:
    lines, reference = Lines(), ReferenceLines()
    for pattern in patterns:
        assert lines.plan(pattern) == reference.plan(pattern), pattern
    assert lines.keys == reference.keys


def _patterns(tower, monkeypatch) -> list[tuple]:
    """Every pattern that compiling the tower plans, in order."""
    seen = []
    plan = Lines.plan

    def recording(self, pattern):
        seen.append(pattern)
        return plan(self, pattern)

    monkeypatch.setattr(Lines, "plan", recording)
    compile_to_arith(tower)
    monkeypatch.undo()
    return list(dict.fromkeys(seen))


@pytest.mark.parametrize("n, kind, factor", [
    (17, "full", 3), (257, "full", 3), (65537, "pruned", 3), (65537, "pruned", 5),
])
def test_plans_match_the_reference_on_tower_patterns(n, kind, factor, request, monkeypatch):
    if (n, kind, factor) == (257, "full", 3):
        tower = request.getfixturevalue("tower257_full")
    elif (n, kind, factor) == (65537, "pruned", 3):
        tower = request.getfixturevalue("tower65537")
    elif n == 17:
        tower = build_tower(n, kind)
    else:
        params = FermatParams.from_n(n)
        tower = build_schedule(params, build_invariant_sets(params, factor), kind)
        tower.precision = 512
        resolve_signs(tower)
    patterns = _patterns(tower, monkeypatch)
    assert patterns
    _same_plans(patterns)


def _term(stride: int):
    return st.tuples(
        st.sampled_from([1, -1, 2, -2, 3]),
        st.sampled_from(["F", "G"]),
        st.integers(0, 3),
        st.just(stride),
        st.integers(0, stride - 1),
    )


@st.composite
def _pattern(draw) -> tuple:
    """A product's flat terms: most of one stride (at most two), of up to
    24 terms or of a group of exactly `_MAX_SHARED` or one more."""
    size = draw(st.one_of(st.integers(1, 24), st.sampled_from([_MAX_SHARED, _MAX_SHARED + 1])))
    strides = draw(st.sampled_from([(8,), (16,), (8, 16)]))
    if size > 24:  # one coefficient, so the whole pattern is one group
        terms = [(2, kind, k, s, r) for _, kind, k, s, r in draw(
            st.lists(st.one_of(*map(_term, strides)), min_size=size, max_size=size)
        )]
    else:
        terms = draw(st.lists(st.one_of(*map(_term, strides)), min_size=size, max_size=size))
    return tuple(x for term in terms for x in term)


@settings(max_examples=60, deadline=None)
@given(st.lists(_pattern(), min_size=1, max_size=3))
@example([tuple(x for r in range(_MAX_SHARED) for x in (2, "F", 0, 8 << (r % 2), r % 8))])
@example([tuple(x for r in range(_MAX_SHARED) for x in (2, "G", r % 4, 16, r % 16))])
@example([tuple(x for r in range(_MAX_SHARED + 1) for x in (2, "G", r % 4, 16, r % 16))])
def test_plans_match_the_reference_on_generated_patterns(patterns):
    _same_plans(patterns)
