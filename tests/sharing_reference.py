"""Paar's greedy as `sharing.Lines._share` first ran it: every shape, a
single pair included, sorted in each round.  A shape of one pair ends the
loop before it can be chosen, so the program's greedy, which sorts only the
shapes of two pairs or more, must give the same plans."""

from ngontower.sharing import _MAX_SHARED, Lines, _disjoint


class ReferenceLines(Lines):
    """`Lines` with the greedy that sorts every shape."""

    def _share(self, terms: list) -> list:
        if len(terms) > _MAX_SHARED or len({self.keys[line][-1] for _, _, line, _ in terms}) > 1:
            return terms
        while True:
            shapes: dict[tuple, list[tuple[int, int]]] = {}
            for i, (n1, _, l1, r1) in enumerate(terms):
                stride = self.keys[l1][-1]
                for k in range(i + 1, len(terms)):
                    n2, _, l2, r2 = terms[k]
                    d = (r2 - r1) % stride
                    if l1 < l2 or (l1 == l2 and 2 * d <= stride):
                        shapes.setdefault((l1, l2, d, n1 != n2, stride), []).append((i, k))
                    else:
                        shapes.setdefault((l2, l1, -d % stride, n1 != n2, stride), []).append((k, i))
            best, chosen = None, []
            for shape in sorted(shapes, key=lambda s: (-len(shapes[s]), s)):
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
