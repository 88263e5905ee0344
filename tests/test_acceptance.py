"""Acceptance suite: one timed criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print.  Every expected value here is exact; the time limits are generous
budgets, asserted after the work is done.
"""

import itertools
import random
import time
from contextlib import contextmanager

from detmod import (Box, ExtendedView, NEG_INF, NotDeterminedError,
                    build_presentation, check_encoding,
                    critical_grid, convex_projection, default_oracle_window,
                    diagram_births_deaths, diagrams_isomorphic,
                    encode, ext_box, is_S_determined, is_S_determined_oracle,
                    join_below, join_closure, pointed_closure, restrict_view,
                    verify_presentation, window_module)
from detmod import QQ
from helpers import (F2, F5, canonical_map_check, canonical_set, corner_module,
                     diagram_limit, halfplane_table, presentation_check_at_points,
                     random_module, random_point_set, stabilization_window, unzip_module,
                     zip_module)

BOTTOM = (NEG_INF, NEG_INF)
UNIT_SET = frozenset(ext_box(Box((1, 1), (1, 1))).points())


@contextmanager
def criterion(number, limit_seconds, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number}: FAIL ({elapsed:.2f}s) {label}")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < limit_seconds else "FAIL (over time budget)"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s < {limit_seconds}s) {label}")
    assert elapsed < limit_seconds, f"criterion {number} exceeded {limit_seconds}s"


def test_criterion_1_worked_example_presentation():
    with criterion(1, 1.0, "worked example: presentation and verification, both fields"):
        for field in (F2, QQ):
            view = ExtendedView(corner_module(field))
            pres = build_presentation(view, UNIT_SET)
            assert pres.generators == ((BOTTOM, 1),)
            assert pres.relations == (((NEG_INF, 1), 1), ((1, NEG_INF), 1))
            for rel_point in ((NEG_INF, 1), (1, NEG_INF)):
                block = pres.block(rel_point, BOTTOM)
                assert block.shape == (1, 1) and not block.is_zero()
            points = set(UNIT_SET) | set(Box((-2, -2), (2, 2)).integer_points())
            assert verify_presentation(view, pres)
            assert presentation_check_at_points(view, pres, points)


def test_criterion_2_worked_example_determinacy():
    with criterion(2, 1.0, "worked example: unit-box set determines, both methods"):
        view = ExtendedView(corner_module(F2))
        fast = is_S_determined(view, UNIT_SET)
        slow = is_S_determined_oracle(view, UNIT_SET,
                                      default_oracle_window(view.box, UNIT_SET))
        assert fast.determined and slow.determined
        assert fast.holds == slow.holds and fast.support_ok == slow.support_ok


def test_criterion_3_halfplane_death_counts():
    with criterion(3, 5.0, "halfplane window: 2N-1 interior antidiagonal deaths"):
        for n in (2, 3, 4):
            diagram = window_module(F2, Box((-n, -n), (n, n)), halfplane_table)
            report = diagram_births_deaths(diagram)
            interior = {p for p in report.deaths
                        if all(c != NEG_INF and -n < c < n for c in p)}
            expected = {(k, -k) for k in range(-(n - 1), n)}
            assert interior == expected, (n, sorted(interior))
            assert len(interior) == 2 * n - 1


def test_criterion_4_equivalence_of_the_three_conditions():
    with criterion(4, 60.0, "three determinacy conditions agree on 200 random instances"):
        rng = random.Random(20230119)
        for trial in range(200):
            view = ExtendedView(random_module(F5, rng))
            if trial % 4 == 0:
                s = canonical_set(view.module)
            else:
                s = random_point_set(rng, 2, 5)
            condition_1 = is_S_determined(view, s).holds
            condition_2 = canonical_map_check(view, s).holds
            try:
                condition_3 = check_encoding(view, s, encode(view, s))
            except NotDeterminedError:
                condition_3 = False
            assert condition_1 == condition_2 == condition_3, \
                (trial, view.box, sorted(s))


def test_criterion_5_projection_factorization():
    with criterion(5, 5.0, "clamp equals join-below then meet-above, exhaustively"):
        from detmod import meet_above

        axis_pairs = [(a, b) for a in range(-2, 3) for b in range(a, 3)]
        cs = [(x, y) for x in range(-5, 6) for y in range(-5, 6)]
        checked = 0
        for (a1, b1) in axis_pairs:
            for (a2, b2) in axis_pairs:
                box = Box((a1, a2), (b1, b2))
                extended = ext_box(box)
                for c in cs:
                    via_morphisms = meet_above(box, extended.join_below(c))
                    assert via_morphisms == convex_projection(box, c)
                    checked += 1
        assert checked == 15 * 15 * 121


def test_criterion_6_closure_laws():
    with criterion(6, 30.0, "closure idempotence and collapse invariance, exhaustively"):
        universe = list(itertools.product((NEG_INF, -1, 0, 1), repeat=2))
        window = list(itertools.product((NEG_INF, -2, -1, 0, 1, 2), repeat=2))
        count = 0
        for size in range(0, 5):
            for subset in itertools.combinations(universe, size):
                s = frozenset(subset)
                closed = join_closure(s)
                assert join_closure(closed) == closed
                pointed = pointed_closure(s, dim=2)
                for c in window:
                    expected = join_below(s, c)
                    assert join_below(closed, c) == expected
                    assert join_below(pointed, c) == expected
                count += 1
        assert count == 2517


def test_criterion_7_continuity_limit_oracle():
    with criterion(7, 30.0, "extension values match the stabilized limit, 500 pairs"):
        rng = random.Random(331)
        pairs = 0
        while pairs < 500:
            view = ExtendedView(random_module(F5, rng))
            for _ in range(5):
                c = tuple(NEG_INF if rng.random() < 0.35 else rng.randint(-4, 4)
                          for _ in range(view.box.dim))
                window = stabilization_window(view, c)
                dim, _ = diagram_limit(restrict_view(view, window.cartesian()))
                assert dim == view.eval_space(c), (c, view.box)
                pairs += 1
        assert pairs >= 500


def test_criterion_8_admissibility_equivalence():
    with criterion(8, 60.0, "unzip-zip comparison equals determinacy on 100 lattices"):
        rng = random.Random(487)
        for trial in range(100):
            module = random_module(F5, rng)
            view = ExtendedView(module)
            if trial % 3 == 0:
                lattice = sorted(canonical_set(module))
            else:
                pts = join_closure({(rng.randint(-2, 3), rng.randint(-2, 3))
                                    for _ in range(rng.randint(1, 3))})
                lattice = sorted(pts)
            reconstructed = unzip_module(lattice, zip_module(view, lattice))
            grid = critical_grid(module.box, lattice)
            via_unzip = diagrams_isomorphic(reconstructed.restrict(grid),
                                            restrict_view(view, grid))
            via_determinacy = is_S_determined(view, lattice).determined
            assert via_unzip == via_determinacy, (trial, module.box, lattice)


def test_criterion_9_presentation_roundtrip():
    with criterion(9, 120.0, "build then verify presentations of 100 random modules"):
        rng = random.Random(911)
        counts = {F2: 34, F5: 33, QQ: 33}
        for field, count in counts.items():
            for _ in range(count):
                module = random_module(field, rng)
                view = ExtendedView(module)
                s = canonical_set(module)
                pres = build_presentation(view, s)
                points = set(s)
                lo = tuple(a - 2 for a in view.box.a)
                hi = tuple(b + 2 for b in view.box.b)
                points.update(Box(lo, hi).integer_points())
                assert verify_presentation(view, pres), (field, view.box)
                assert presentation_check_at_points(view, pres, points), (field, view.box)
