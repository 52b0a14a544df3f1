"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not configurable.
"""

import time
from pathlib import Path

import mpmath as mp
import pytest

from ngontower import reference_tables as ref
from ngontower.invariant_sets import LinearCombo, f_part, g_part, split_children
from ngontower.oracle import Oracle, OracleMismatch
from ngontower.period_algebra import set_product, set_square
from ngontower.residues import FermatParams, rho
from ngontower.splitting import mu_groups, mu_table
from ngontower.tower import QuadraticNode, build_tower, evaluate_tower
from ngontower.verify import oracle_check_tower

from oracle_helpers import decompose_into_sets
from pair_reference import pv_mul, pv_of_part
from paper_checks import coeff_sum, doubling_orbit, mu_via_linear_system, shift_combination
from tower_values import mpf, part_values

GOLDEN = Path(__file__).parent / "golden"


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {num:2d} [{name}]: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_exact_oracle_identities(table17, table257, table65537):
    t0 = time.monotonic()
    ok = True
    # 2 * F(1,2) * F(2,2) = (n-1)/2 * S and 2 * F(1,4) * F(3,4) = (n-1)/8 * S,
    # checked by the exact oracle; a multiplier off by one half is refused.
    identities = [(table, 2, 1, 2, 2) for table in (table17, table257, table65537)]
    identities += [(table, 4, 1, 3, 8) for table in (table257, table65537)]
    for table, stride, j, k, div in identities:
        oracle = Oracle(table)
        for delta in (0, 1):
            expr = LinearCombo(0, (((table.params.n - 1) // div + delta, f_part(1, 1)),), ())
            node = QuadraticNode(0, 0, f_part(1, 1), f_part(j, stride), f_part(k, stride), None, expr)
            try:
                oracle.check(node)
                ok &= delta == 0
            except OracleMismatch:
                ok &= delta == 1
    elapsed = time.monotonic() - t0
    _report(1, "exact product identities", ok and elapsed <= 60, f"{elapsed:.1f}s")


def test_criterion_02_golden_decompositions(table257, table65537):
    checks = [
        (set_product(1, 5, table257), ref.G1_G5_257),
        (set_product(1, 9, table257), ref.G1_G9_257),
        (set_square(1, table257), ref.G1_SQ_257),
        (set_square(1, table65537), ref.G1_SQ_65537),
        (set_product(1, 1025, table65537), ref.G1_G1025_65537),
    ]
    ok = True
    for computed, (const, coeffs) in checks:
        ok &= computed.constant == const and dict(computed.terms()) == coeffs
    # The oracle agrees with the symbolic route on the n=257 entries.
    for i, j in ((1, 5), (1, 9), (1, 1)):
        direct = decompose_into_sets(
            pv_mul(pv_of_part(g_part(i, 1, 1), table257), pv_of_part(g_part(j, 1, 1), table257)),
            table257,
        )
        ok &= direct == set_product(i, j, table257)
    _report(2, "published decompositions, zero tolerance", ok)


def test_criterion_03_mu_tables(table17, table257, table65537):
    ok = mu_table(2, table257) == (2, 5, 4, 5)
    ok &= mu_table(2, table65537) == (992, 1040, 1024, 1040)
    ok &= mu_table(3, table65537) == (284, 237, 272, 237, 256, 269, 256, 237)
    ok &= mu_table(4, table65537) == (
        80, 62, 60, 64, 57, 60, 61, 60, 68, 64, 64, 58, 65, 70, 61, 70,
    )
    for table, levels in ((table17, 1), (table257, 4), (table65537, 11)):
        n = table.params.n
        for m in range(levels):
            ok &= sum(mu_table(m, table)) == (n - 1) >> (m + 2)
    _report(3, "multiplicity tables and conservation", ok)


def test_criterion_04_k_set_tables(table65537):
    ok = True
    # Step 6 grouping, reconstructed from the published full mu(.,32) list.
    published_32: dict[int, list[int]] = {}
    for k, v in enumerate(ref.MU[(65537, 5)], start=1):
        published_32.setdefault(v, []).append(k)
    mine = mu_groups(5, table65537)
    ok &= mine == {m: tuple(ks) for m, ks in sorted(published_32.items())}
    # Steps 7-10.
    for m, published in ref.K_65537.items():
        ok &= mu_groups(m, table65537) == published
    ok &= mu_groups(6, table65537)[10] == (26,)
    ok &= mu_groups(8, table65537)[3] == (83,)
    ok &= mu_groups(9, table65537)[2] == (68, 86, 88, 135, 175, 451)
    _report(4, "K-set tables steps 6-10", ok)


def test_criterion_05_sign_reproduction(tower65537, tower257_full):
    from ngontower.report import f_sign_sets, left_is_larger, reference_diffs

    ok = True
    # n=257, steps 1-3 and 5-7 strict; the step-4 anomaly goes to the diff.
    cache257 = tower257_full.cosines
    signs257 = f_sign_sets(tower257_full.table, cache257)
    for step, published in ref.SIGNS_F_257.items():
        ok &= signs257[step] == published
    for step, k, s, stride, expected in ref.SIGNS_G_257:
        halves = split_children(g_part(k, s, stride), tower257_full.table)
        ok &= left_is_larger(*halves, cache257) == expected
    diffs257 = reference_diffs(tower257_full)
    ok &= any("step 4 sign list" in d for d in diffs257)

    # n=65537, steps 3-10 strict modulo the two documented list misprints,
    # which must surface in the diff report with their erratum notes.
    cache65 = tower65537.cosines
    signs65 = f_sign_sets(tower65537.table, cache65)
    for step in range(3, 10):
        expected = ref.SIGNS_F_65537[step]
        add, drop = ref.SIGN_ERRATA_65537.get(step, (frozenset(), frozenset()))
        ok &= signs65[step] == (expected | add) - drop
    step10 = {
        j
        for j in ref.LIST181_65537
        if mpf(cache65.part_value(f_part(j, 1024))) > mpf(cache65.part_value(f_part(j + 512, 1024)))
    }
    ok &= step10 == set(ref.SIGNS_65537_STEP10)
    diffs65 = reference_diffs(tower65537)
    for key in ("65537-step6-signs", "65537-step9-signs"):
        ok &= any(ref.ERRATA[key] in d for d in diffs65)
    _report(5, "sign lists (anomalies reported)", ok)


def test_criterion_06_numeric_approximations(tower65537):
    cache = tower65537.cosines
    ok = True
    with mp.workprec(128):
        for name, part in (
            ("F(1,2)", f_part(1, 2)),
            ("F(2,2)", f_part(2, 2)),
            ("F(1,4)", f_part(1, 4)),
            ("F(3,4)", f_part(3, 4)),
        ):
            printed = ref.APPROX_65537[name]
            decimals = len(printed.split(".")[1])
            ok &= abs(mpf(cache.part_value(part)) - mp.mpf(printed)) <= mp.mpf(10) ** (-decimals) / 2
        diff = mpf(cache.part_value(f_part(1, 2))) - mpf(cache.part_value(f_part(2, 2)))
        ok &= abs(diff - mp.mpf("256.002")) <= mp.mpf("0.0005")
        # The product is exactly -4096 (proved via the oracle in criterion 1);
        # the published approximation -4095.9999987 is a digit transposition of
        # the product of its own printed factors, -4095.999987.
        product = mpf(cache.part_value(f_part(1, 4))) * mpf(cache.part_value(f_part(3, 4)))
        ok &= abs(product + 4096) < mp.mpf(2) ** -200
        printed_product = mp.mpf(ref.APPROX_65537["F(1,4)*F(3,4)"])
        factors_product = mp.mpf("-26.58292") * mp.mpf("154.0839")
        ok &= abs(factors_product - printed_product) < mp.mpf("2e-5")
        ok &= "65537-approx-product" in ref.ERRATA
    _report(6, "printed numeric approximations (product erratum documented)", ok)


def test_criterion_07_end_to_end_towers():
    ok = True
    details = []
    for n in (5, 17, 257):
        t0 = time.monotonic()
        tower = build_tower(n, precision=128)
        oracle_check_tower(tower)
        elapsed = time.monotonic() - t0
        ok &= mpf(tower.report.p1_err) < mp.mpf(2) ** -64 and elapsed < 5
        details.append(f"n={n}: {elapsed:.2f}s")
    t0 = time.monotonic()
    tower = build_tower(65537, precision=512)
    oracle_check_tower(tower)  # exact checks on the whole pruned path
    elapsed = time.monotonic() - t0
    ok &= mpf(tower.report.p1_err) < mp.mpf(2) ** -256 and elapsed < 600
    details.append(f"n=65537: {elapsed:.1f}s incl. {len(tower.nodes)} oracle checks")
    _report(7, "tower evaluation with oracle checks", ok, "; ".join(details))


def test_criterion_08_17gon_closed_forms():
    tower = build_tower(17, precision=128)
    tol = mp.mpf(2) ** -64
    with mp.workprec(128):
        values = part_values(tower)
        g1 = values[g_part(1, 1, 1)]
        p_one = values[g_part(1, 1, 2)]
        p_two = values[g_part(1, 2, 2)]
        pair1 = values[g_part(1, 1, 4)]
        ok = abs(g1 - (-1 + mp.sqrt(17)) / 2) < tol
        ok &= abs(g1 * g1 + g1 - 4) < tol  # root of x^2 + x - 4
        ok &= abs(p_one * p_two + 1) < tol
        ok &= abs(pair1 - (p_one + mp.sqrt(2 * p_two - p_one * p_one + 8)) / 2) < tol
        ok &= abs(pair1 - 2 * mp.cos(2 * mp.pi / 17)) < tol
    _report(8, "17-gon closed forms", ok)


def test_criterion_09_property_suites(table17, table257, table65537):
    import random

    ok = True
    # Orbit length and inverse pairing: exhaustive for 17, all starts for 257,
    # sampled for 65537.
    for n, starts in (
        (17, range(1, 17)),
        (257, range(1, 257)),
        (65537, random.Random(9).sample(range(1, 65537), 20)),
    ):
        params = FermatParams.from_n(n)
        half = params.orbit_len // 2
        for start in starts:
            orbit = doubling_orbit(start, n)
            ok &= len(orbit) == params.orbit_len == len(set(orbit))
            ok &= all((orbit[m] + orbit[half + m]) % n == 0 for m in range(half))
    # Distinct sets partitioning all pairs.
    for table in (table17, table257, table65537):
        seen = [p for row in table.sets for p in row]
        ok &= len(seen) == len(set(seen)) == table.params.npairs
        ok &= len(table.sets) == table.params.ng
    # Product decomposability with constant 0 and mass 2^(nu+1).
    def check_product(table, i, j):
        combo = set_product(i, j, table)
        good = combo.constant == 0 and coeff_sum(combo) == table.params.orbit_len
        direct = decompose_into_sets(
            pv_mul(pv_of_part(g_part(i, 1, 1), table), pv_of_part(g_part(j, 1, 1), table)),
            table,
        )
        return good and direct == combo

    ok &= check_product(table17, 1, 2)
    for i in range(1, 17):
        for j in range(i + 1, 17):
            ok &= check_product(table257, i, j)
    rng = random.Random(4)
    for _ in range(20):
        i = rng.randint(1, 2047)
        j = rng.randint(i + 1, 2048)
        ok &= check_product(table65537, i, j)
    # Shift equivariance.
    for s in (1, 2, 3):
        ok &= shift_combination(set_product(1, 2, table17), s, table17) == set_product(
            rho(1 + s, 2), rho(2 + s, 2), table17
        )
    for _ in range(200):
        i, j, s = rng.randint(1, 16), rng.randint(1, 16), rng.randint(1, 48)
        ok &= shift_combination(set_product(i, j, table257), s, table257) == set_product(
            rho(i + s, 16), rho(j + s, 16), table257
        )
    for _ in range(20):
        i, j, s = rng.randint(1, 2048), rng.randint(1, 2048), rng.randint(1, 2048)
        ok &= shift_combination(set_product(i, j, table65537), s, table65537) == set_product(
            rho(i + s, 2048), rho(j + s, 2048), table65537
        )
    _report(9, "property suites", ok)


def test_criterion_10_construction_pipeline(tower65537):
    from ngontower.construction import emit_svg, execute_geom, lower_to_geom

    ok = True
    tower17 = build_tower(17, precision=128)
    prog, signs = evaluate_tower(tower17)
    res = execute_geom(lower_to_geom(prog, 128, signs), 128)
    with mp.workprec(128):
        tol = mp.mpf(2) ** -64
        ok &= abs(res["cos"] - mp.cos(2 * mp.pi / 17)) < tol
        ok &= abs(res["sin"] - mp.sin(2 * mp.pi / 17)) < tol
        # The point the program constructs closes the polygon: z^17 = 1.
        ok &= abs(mp.mpc(res["cos"], res["sin"]) ** 17 - 1) < mp.mpf(2) ** -32

    tower257 = build_tower(257, precision=128)
    prog, signs = evaluate_tower(tower257)
    res = execute_geom(lower_to_geom(prog, 128, signs), 128)
    with mp.workprec(128):
        ok &= abs(mp.mpc(res["cos"], res["sin"]) ** 257 - 1) < mp.mpf(2) ** -32

    ok &= emit_svg(tower17) == (GOLDEN / "polygon_17.svg").read_text()
    ok &= emit_svg(tower257) == (GOLDEN / "polygon_257.svg").read_text()
    ok &= emit_svg(tower65537, max_vertices=64) == (GOLDEN / "sector_65537.svg").read_text()
    _report(10, "construction pipeline and SVG goldens", ok)


def test_criterion_11_mu_recovery(tower257_full, tower65537, table257, table65537):
    def level_data(tower, m):
        values = part_values(tower)
        stride = 1 << m
        by_split = {n.splits: n for n in tower.nodes}
        level = [values[f_part(j, stride)] for j in range(1, stride + 1)]
        products = [
            mpf(by_split[f_part(j, stride)].value_left) * mpf(by_split[f_part(j, stride)].value_right)
            for j in range(1, stride + 1)
        ]
        return level, products

    ok = True
    for m in (2, 3):
        level, products = level_data(tower257_full, m)
        ok &= mu_via_linear_system(level, products) == mu_table(m, table257)
    for m in (2, 3, 4):
        level, products = level_data(tower65537, m)
        ok &= mu_via_linear_system(level, products) == mu_table(m, table65537)
    _report(11, "multiplicity recovery from numeric values", ok)
