"""Comparison of computed results against the published reference tables,
plus the human-readable build report.

Sign lists are recomputed from direct cosine sums for every level, whether or
not the schedule kept the corresponding splits, so the comparisons do not
depend on pruning decisions; each sign is proven by `tower.left_is_larger`,
the rule that `resolve_signs` applies to every node.
"""

from . import reference_tables as ref
from .invariant_sets import InvariantSetTable, f_part, g_part, split_children
from .period_algebra import set_product, set_square
from .rawfloat import to_text
from .splitting import mu_groups, mu_table
from .tower import CosineCache, Tower, left_is_larger


def f_sign_sets(table: InvariantSetTable, cache: CosineCache) -> dict[int, frozenset]:
    """Step m + 1 -> the offsets j whose F(j, 2^m) split has the larger left
    half, for every F level 2^(m+1) <= ng."""
    return {
        m + 1: frozenset(
            j for j in range(1, (1 << m) + 1)
            if left_is_larger(*split_children(f_part(j, 1 << m), table), cache)
        )
        for m in range(table.params.ng.bit_length() - 1)
    }


def _compare_combo(computed, published) -> str | None:
    const, coeffs = published
    mine = {k: c for k, c in computed.terms()}
    if computed.constant == const and mine == coeffs:
        return None
    return f"computed {computed.constant} + {mine} vs published {const} + {coeffs}"


def decomposition_diffs(table: InvariantSetTable) -> list[str]:
    n = table.params.n
    out = []
    checks = []
    if n == 257:
        checks = [
            ("G1*G5", set_product(1, 5, table), ref.G1_G5_257),
            ("G1*G9", set_product(1, 9, table), ref.G1_G9_257),
            ("G1^2", set_square(1, table), ref.G1_SQ_257),
        ]
    elif n == 65537:
        checks = [
            ("G1^2", set_square(1, table), ref.G1_SQ_65537),
            ("G1*G1025", set_product(1, 1025, table), ref.G1_G1025_65537),
        ]
    for name, computed, published in checks:
        msg = _compare_combo(computed, published)
        if msg:
            out.append(f"{name}: {msg}")
    return out


def mu_diffs(table: InvariantSetTable) -> list[str]:
    n = table.params.n
    out = []
    for (pn, m), published in ref.MU.items():
        if pn != n:
            continue
        mine = mu_table(m, table)
        if mine != published:
            out.append(f"mu(., 2^{m}): computed {mine} vs published {published}")
    if n == 65537:
        for m, published in ref.K_65537.items():
            mine = mu_groups(m, table)
            if mine != published:
                out.append(f"K(., 2^{m}): computed {mine} vs published {published}")
    return out


def sign_diffs(table: InvariantSetTable, cache: CosineCache) -> list[str]:
    n = table.params.n
    out = []
    computed = f_sign_sets(table, cache)
    if n == 257:
        for step, published in ref.SIGNS_F_257.items():
            if computed[step] != published:
                out.append(
                    f"step {step} sign list: computed {sorted(computed[step])} "
                    f"vs published {sorted(published)}"
                )
        # The published step-4 list is anomalous (seven relations, G_8 where the
        # split shape implies G_9); always reported, never asserted.
        mine4 = sorted(computed[4])
        published4 = [j for j, _, greater in ref.SIGNS_257_STEP4_PUBLISHED if greater]
        out.append(
            f"step 4 sign list: computed G_j>G_(8+j) for j in {mine4}; published "
            f"relations read {ref.SIGNS_257_STEP4_PUBLISHED} [{ref.ERRATA['257-step4-signs']}]"
        )
    elif n == 65537:
        for step, published in ref.SIGNS_F_65537.items():
            if computed[step] != published:
                extra = sorted(computed[step] - published)
                missing = sorted(published - computed[step])
                known = ref.SIGN_ERRATA_65537.get(step)
                note = ""
                if known and computed[step] == (published | known[0]) - known[1]:
                    note = f" [{ref.ERRATA[f'65537-step{step}-signs']}]"
                out.append(
                    f"step {step} sign list: computed adds {extra}, drops {missing}{note}"
                )
        for step, offsets, published in (
            (10, ref.LIST181_65537, ref.SIGNS_65537_STEP10),
            (11, ref.LIST18_65537, ref.SIGNS_65537_STEP11),
        ):
            mine = computed[step] & set(offsets)
            if mine != set(published):
                out.append(
                    f"step {step} sign list (over the published offsets): computed "
                    f"{sorted(mine)} vs published {sorted(published)}"
                )
    for step, k, s, stride, expected in {257: ref.SIGNS_G_257, 65537: ref.SIGNS_G_65537}.get(n, ()):
        mine = left_is_larger(*split_children(g_part(k, s, stride), table), cache)
        if mine != expected:
            out.append(
                f"step {step}: split of G{k}({s},{stride}) computed "
                f"left_is_larger={mine} vs published {expected}"
            )
    return out


def closure_lists(tower: Tower) -> dict[str, tuple[int, ...]]:
    """The computed analogues of the published pruning lists (n=65537)."""
    params = tower.params
    if params.n != 65537 or tower.kind != "pruned":
        return {}
    step11 = sorted(n.splits.offset for n in tower.nodes if n.step == 11)
    required_1024 = set()
    for node in tower.nodes:
        if node.step == 11:
            required_1024.add(node.splits.offset)
            for part in node.product_expr.referenced_parts():
                assert part.kind == "F" and part.stride == 1024
                required_1024.add(part.offset)
    step10 = sorted(n.splits.offset for n in tower.nodes if n.step == 10)
    both = sorted(j for j in range(1, 513) if j in required_1024 and j + 512 in required_1024)
    return {
        "split_1024": tuple(step11),
        "required_1024": tuple(sorted(required_1024)),
        "split_512": tuple(step10),
        "both_halves": tuple(both),
    }


def closure_diffs(tower: Tower) -> list[str]:
    lists = closure_lists(tower)
    if not lists:
        return []
    out = []
    comparisons = (
        ("F(j,1024) splits", lists["split_1024"], ref.LIST18_65537, "65537-list18"),
        ("required F(j,1024) values", lists["required_1024"], ref.LIST213_65537, "65537-list213-dup"),
        ("F(j,512) splits", lists["split_512"], ref.LIST181_65537, None),
        ("both-halves offsets", lists["both_halves"], ref.LIST32_65537, None),
    )
    for name, mine, published, erratum in comparisons:
        mine_set, published_set = set(mine), set(published)
        if mine_set != published_set:
            extra = sorted(published_set - mine_set)
            missing = sorted(mine_set - published_set)
            note = f" [{ref.ERRATA[erratum]}]" if erratum else ""
            out.append(
                f"{name}: computed {len(mine_set)} offsets vs published "
                f"{len(published_set)} (published-only: {extra}; computed-only: {missing}){note}"
            )
    return out


def reference_diffs(tower: Tower) -> list[str]:
    """Every divergence from the published tables, by the tower's cosine sums."""
    cache = tower.cosines
    out = []
    out += [f"[sets] {d}" for d in ref.diff_sets_table(tower.table)]
    out += [f"[product] {d}" for d in decomposition_diffs(tower.table)]
    out += [f"[mu] {d}" for d in mu_diffs(tower.table)]
    out += [f"[signs] {d}" for d in sign_diffs(tower.table, cache)]
    out += [f"[pruning] {d}" for d in closure_diffs(tower)]
    return out


def render_report(tower: Tower) -> str:
    """The build report of a tower that `verify.verify_tower` passed."""
    rep = tower.report
    params = tower.params
    lines = [
        f"n = {params.n} (nu={params.nu}, ng={params.ng}, pairs={params.npairs})",
        f"schedule = {tower.kind}, precision = {tower.precision} bits",
        f"nodes = {rep.node_count}" + (f", per step {rep.per_step}" if rep.per_step else ""),
    ]
    if tower.nodes:
        lines.append(f"min sign margin = {to_text(rep.min_sign_margin, 8)}")
        lines.append(f"max |value - cosine sum| = {to_text(rep.max_value_err, 8)}")
        lines.append(f"max Vieta residual = {to_text(rep.max_vieta_err, 8)}")
        lines.append(f"max value radius = {to_text(rep.max_value_radius, 8)}")
    if rep.oracle_checked:
        lines.append(f"oracle-verified product expressions = {rep.oracle_checked}")
    lines.append(f"p1 = {to_text(rep.p1, 40)}")
    lines.append(f"|p1 - 2cos(2pi/n)| = {to_text(rep.p1_err, 8)}")
    diffs = reference_diffs(tower)
    if diffs:
        lines.append("")
        lines.append(f"reference diff ({len(diffs)} entries):")
        lines += [f"  - {d}" for d in diffs]
    else:
        lines.append("reference diff: none")
    lines.append("p1 verified")
    return "\n".join(lines)
