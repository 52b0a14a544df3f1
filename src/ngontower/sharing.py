"""Shared partial sums for the arithmetic program: Paar's greedy per pattern.

The product expressions of one tower step repeat from node to node, shifted
by the offset of the split: `splitting.f_split_product` gives every node of
an F level the multiplicities mu(k, 2^m) at offsets k - 1 from its own.  So
the same two-term sums recur at shifted offsets, and one instruction can
serve every node that needs a given sum.  `Lines.plan` finds the sums on each
distinct pattern once, by the greedy of C. Paar ("Optimized arithmetic for
Reed-Solomon encoders", ISIT 1997): while some two-term shape occurs at
least twice, disjointly, the shape with the most occurrences turns each of
them into one derived term.

A line is a family of terms indexed by an offset mod its stride: a base line
(kind, set, stride) holds the parts of that kind, set and stride, a derived
line (line, line, d, opposite, stride) the sums (differences if opposite) of
the terms at offsets p and p + d of two lines.  Line ids count up in order of
first use and ties go to the smallest shape, so a plan does not depend on the
hash order of strings.
"""

_MAX_SHARED = 128  # terms in the largest group the greedy runs on


class Lines:
    """The lines of one program and the plan of each pattern seen."""

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.keys: list[tuple] = []  # line key by id
        self._plans: dict[tuple, list] = {}

    def line(self, key: tuple) -> int:
        if key not in self.ids:
            self.ids[key] = len(self.keys)
            self.keys.append(key)
        return self.ids[key]

    def plan(self, pattern: tuple) -> list[tuple[int, list]]:
        """A product's linear terms, given flat as halves, kind, set, stride
        and offset - origin for each term, grouped by |halves| in order of
        first appearance; each group lists its (negative, source, line,
        offset) terms after sharing, source being the index of a term left
        as it was and -1 for a derived one."""
        if pattern not in self._plans:
            groups: dict[int, list] = {}
            for src in range(len(pattern) // 5):
                halves, kind, set_index, stride, r = pattern[5 * src : 5 * src + 5]
                line = self.line((kind, set_index, stride))
                groups.setdefault(abs(halves), []).append((halves < 0, src, line, r))
            self._plans[pattern] = [(c, self._share(terms)) for c, terms in groups.items()]
        return self._plans[pattern]

    def _share(self, terms: list) -> list:
        """The greedy on one group: the shape (line, line, offset difference,
        opposite signs, stride) with the most disjoint occurrences, at least
        two, makes each of them one term of its derived line, placed where
        the earlier of its two terms was, until no shape repeats.  A group
        whose parts have several strides is left as it is: an offset
        difference means one shift only within one stride, and every product
        the schedule derives has one stride (a tower file could give more).
        So is a group of more than `_MAX_SHARED` terms: the greedy is cubic
        in the group's size (each round lists every pair and merges one
        shape; T distinct parts of one stride take about T/2 rounds), and a
        tower file may give a group of thousands, where the largest group of
        any derived tower has 51 terms (n = 65537)."""
        if len(terms) > _MAX_SHARED or len({self.keys[line][-1] for _, _, line, _ in terms}) > 1:
            return terms
        while True:
            shapes: dict[tuple, list[tuple[int, int]]] = {}
            for i, (n1, _, l1, r1) in enumerate(terms):
                stride = self.keys[l1][-1]
                for k in range(i + 1, len(terms)):
                    n2, _, l2, r2 = terms[k]
                    d = (r2 - r1) % stride
                    if l1 < l2 or (l1 == l2 and 2 * d <= stride):  # one orientation per pair
                        shapes.setdefault((l1, l2, d, n1 != n2, stride), []).append((i, k))
                    else:
                        shapes.setdefault((l2, l1, -d % stride, n1 != n2, stride), []).append((k, i))
            best, chosen = None, []
            # A shape of one pair ends the loop before it could be chosen.
            repeated = [shape for shape, pairs in shapes.items() if len(pairs) > 1]
            for shape in sorted(repeated, key=lambda s: (-len(shapes[s]), s)):
                pairs = shapes[shape]
                if len(pairs) < max(2, len(chosen)):
                    break
                picked = _disjoint(pairs) if shape[0] == shape[1] else pairs
                if len(picked) > len(chosen) or (len(picked) == len(chosen) and shape < best):
                    best, chosen = shape, picked
            if len(chosen) < 2:
                return terms
            line, dropped = self.line(best), set()
            for i, k in chosen:
                terms[min(i, k)] = (terms[i][0], -1, line, terms[i][3])
                dropped.add(max(i, k))
            terms = [t for j, t in enumerate(terms) if j not in dropped]


def _disjoint(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """A largest set of disjoint (first, second) pairs of a shape within one
    line: the pairs chain along the offset difference, and each chain is
    taken every other pair from its head (a cycle from its earliest pair)."""
    after = dict(pairs)
    seconds = set(after.values())
    picked, seen = [], set()
    for i in [i for i, _ in pairs if i not in seconds] + [i for i, _ in pairs]:
        while i in after and i not in seen and after[i] not in seen:
            seen.update((i, after[i]))
            picked.append((i, after[i]))
            i = after.get(after[i])
    return picked
