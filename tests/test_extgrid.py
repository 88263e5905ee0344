"""Order theory of the extended grid, checked against brute-force oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmod import (Box, CartesianSet, InputError, NEG_INF, convex_projection,
                    critical_grid, ext_box, extended_projection,
                    join_below, join_closure, leq, meet_above, mub,
                    point_sort_key, pointed_closure, poset_covers, sort_points)
from detmod.determinacy import canonical_grid, default_oracle_window
from detmod.extgrid import as_product, downset_of, order_masks
from detmod.grid_module import window_module
from detmod.presentation import _product_poset
from helpers import (F2, coordinatewise_join_below, join_closure_by_subsets,
                     maximal_lower_bounds_bruteforce, minimal_upper_bounds_bruteforce,
                     random_module, random_point_set, window_ext_points)

ext_coords = st.one_of(st.just(NEG_INF), st.integers(-3, 3))


def ext_points(n):
    return st.tuples(*([ext_coords] * n))


def point_sets(n, min_size=1, max_size=4):
    return st.frozensets(ext_points(n), min_size=min_size, max_size=max_size)


def product_sets(n, max_factor=3):
    """Products of random coordinate sets (each point set a product of chains)."""
    factor = st.frozensets(ext_coords, min_size=1, max_size=max_factor)
    return st.tuples(*([factor] * n)).map(lambda fs: CartesianSet(fs).points())


class TestBounds:
    def test_mub_coordinatewise_max(self):
        assert mub([(1, 2), (3, 0)]) == (3, 2)

    def test_mub_singleton(self):
        assert mub([(5, NEG_INF)]) == (5, NEG_INF)

    def test_mub_with_bottom_coordinates(self):
        points = [(NEG_INF, 1), (2, NEG_INF), (0, 0)]
        assert mub(points) == (2, 1)
        window = window_ext_points(-4, 4, 2)
        assert minimal_upper_bounds_bruteforce(points, window) == {(2, 1)}

    def test_mub_empty_needs_dimension(self):
        assert mub([], dim=3) == (NEG_INF, NEG_INF, NEG_INF)
        with pytest.raises(InputError):
            mub([])

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            mub([(1, 2), (3,)])

    @given(point_sets(2))
    def test_mub_is_unique_minimal_upper_bound(self, points):
        window = window_ext_points(-4, 4, 2)
        assert minimal_upper_bounds_bruteforce(points, window) == {mub(points)}


class TestClosures:
    def test_two_incomparable_points(self):
        assert join_closure([(1, 0), (0, 1)]) == {(1, 0), (0, 1), (1, 1)}

    def test_singleton(self):
        assert join_closure([(2, 2)]) == {(2, 2)}

    @given(point_sets(2, min_size=0))
    def test_matches_subset_enumeration(self, points):
        assert join_closure(points) == join_closure_by_subsets(points)

    @given(product_sets(2))
    def test_products_match_subset_enumeration(self, points):
        assert join_closure(points) == join_closure_by_subsets(points) == points

    def test_product_returns_without_joining(self, monkeypatch):
        import detmod.extgrid as extgrid

        pts = CartesianSet(((NEG_INF, 0, 2), (1, 5), (-1, 0, 3))).points()
        monkeypatch.setattr(extgrid, "join", None)
        assert join_closure(pts) == pts
        assert pointed_closure(pts) == pts | {(NEG_INF, NEG_INF, NEG_INF)}

    def test_closures_that_are_not_products_match_subset_enumeration(self):
        """Joined with the input points only, the frontier still reaches every
        join of a subset, also where the closure is not a product."""
        rng = random.Random(31)
        checked = 0
        for nparams in (1, 2, 3):
            for _ in range(40):
                points = random_point_set(rng, nparams, max_size=7)
                closed = join_closure(points)
                assert closed == join_closure_by_subsets(points)
                checked += as_product(closed) is None
        assert checked > 60

    @given(point_sets(3, min_size=0, max_size=6))
    def test_matches_subset_enumeration_in_three_parameters(self, points):
        assert join_closure(points) == join_closure_by_subsets(points)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: point_sets(n, min_size=0, max_size=8)))
    def test_matches_subset_enumeration_up_to_eight_points(self, points):
        assert join_closure(points) == join_closure_by_subsets(points)

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(ext_points(n), max_size=10,
                                                          unique=True)))
    def test_order_masks_match_the_order(self, points):
        above, below = order_masks(points), order_masks(points, above=False)
        for i, p in enumerate(points):
            assert [j for j in range(len(points)) if above[i] >> j & 1] == \
                [j for j, q in enumerate(points) if leq(p, q)]
            assert [j for j in range(len(points)) if below[i] >> j & 1] == \
                [j for j, q in enumerate(points) if leq(q, p)]

    def test_first_round_joins_each_incomparable_pair_once(self, monkeypatch):
        """A closed lattice that is not a product, the canonical set of an
        8 x 8 box and one point above it, takes one join per pair of points
        that are not comparable, and no further round."""
        import detmod.extgrid as extgrid

        axis = (NEG_INF, *range(1, 8))
        lattice = set(itertools.product(axis, axis)) | {(8, 8)}
        pairs = [(p, q) for p, q in itertools.combinations(lattice, 2)
                 if not leq(p, q) and not leq(q, p)]
        calls = []
        join = extgrid.join
        monkeypatch.setattr(extgrid, "join", lambda p, q: calls.append((p, q)) or join(p, q))
        assert join_closure(lattice) == lattice
        assert len(calls) == len(pairs) == len({frozenset(c) for c in calls})
        assert all(not leq(p, q) and not leq(q, p) for p, q in calls)

    @given(point_sets(2, min_size=0, max_size=5))
    def test_idempotent_and_extensive(self, points):
        closed = join_closure(points)
        assert points <= closed
        assert join_closure(closed) == closed

    @given(st.lists(ext_points(3), max_size=12))
    def test_sort_points_is_the_order_of_point_sort_key(self, points):
        assert sort_points(points) == sorted(set(points), key=point_sort_key)

    def test_closure_bound(self):
        """The k unit points have 2^k - 1 joins: 4,095 are accepted at k = 12,
        and k = 13 is refused; a product is closed at any size."""
        from detmod.extgrid import MAX_CLOSURE_POINTS

        def units(k):
            return [tuple(int(i == j) for j in range(k)) for i in range(k)]
        assert len(join_closure(units(12))) == 4095 <= MAX_CLOSURE_POINTS
        assert len(pointed_closure(units(12))) == 4096
        with pytest.raises(InputError) as err:
            join_closure(units(13))
        assert str(err.value).endswith(f"points, above the bound {MAX_CLOSURE_POINTS}")
        grid = CartesianSet((tuple(range(70)), tuple(range(70)))).points()
        assert join_closure(grid) == grid

    def test_pointed_closure_singleton(self):
        assert pointed_closure([(1, 1)]) == {(1, 1), (NEG_INF, NEG_INF)}

    def test_pointed_closure_antichain(self):
        got = pointed_closure([(1, NEG_INF), (NEG_INF, 1)])
        assert got == {(1, NEG_INF), (NEG_INF, 1), (1, 1), (NEG_INF, NEG_INF)}

    def test_extended_box_is_a_fixed_point(self):
        pts = ext_box(Box((1, 1), (1, 1))).points()
        assert pointed_closure(pts) == pts


class TestAsProduct:
    @given(product_sets(3))
    def test_products_are_recognised(self, points):
        product = as_product(points)
        assert product is not None and product.points() == points
        assert as_product(list(points)) == product

    @given(point_sets(2, min_size=0, max_size=6))
    def test_matches_definition(self, points):
        factors = [{p[i] for p in points} for i in range(2)]
        is_product = bool(points) and set(itertools.product(*factors)) == points
        assert (as_product(points) is not None) == is_product

    def test_cartesian_set_passes_through(self):
        cart = ext_box(Box((0, 0), (1, 2)))
        assert as_product(cart) is cart

    def test_sparse_set_does_not_build_its_product(self, monkeypatch):
        monkeypatch.setattr(CartesianSet, "points", None)
        assert as_product([(i, i) for i in range(40)]) is None

    def test_mixed_dimensions_are_not_a_product(self):
        assert as_product([(0,), (1, 2)]) is None


class TestJoinBelow:
    def test_box_formula(self):
        s = ext_box(Box((0, 0), (1, 1))).points()
        assert join_below(s, (-3, 5)) == (NEG_INF, 1)

    def test_empty_intersection_gives_bottom(self):
        s = {(5, 5)}
        assert join_below(s, (0, 0)) == (NEG_INF, NEG_INF)

    @given(point_sets(2, min_size=0), ext_points(2))
    def test_invariant_under_closure(self, s, c):
        assert join_below(s, c) == join_below(join_closure(s), c)
        assert join_below(s, c) == join_below(pointed_closure(s, dim=2), c)

    @given(point_sets(2), ext_points(2), ext_points(2))
    def test_monotone(self, s, c, d):
        lo = tuple(min(a, b) for a, b in zip(c, d))
        assert leq(join_below(s, lo), join_below(s, c))

    @given(point_sets(2), ext_points(2))
    def test_below_argument(self, s, c):
        assert leq(join_below(s, c), c)

    @given(point_sets(2), ext_points(2))
    def test_downset_stability(self, s, c):
        closed = join_closure(s)
        a = join_below(s, c)
        assert downset_of(closed, a) == downset_of(closed, c)

    def test_cartesian_coordinatewise_agrees(self):
        cart = ext_box(Box((0, 0), (2, 1)))
        pts = cart.points()
        for c in window_ext_points(-2, 4, 2):
            assert coordinatewise_join_below(cart, c) == join_below(pts, c)


class TestMeetAbove:
    def test_box_formula(self):
        assert meet_above(Box((0, 0), (1, 1)), (NEG_INF, 1)) == (0, 1)

    def test_fixed_on_the_set(self):
        box = Box((0, 0), (1, 1))
        for c in box.integer_points():
            assert meet_above(box, c) == c

    def test_rejects_points_outside_extended_set(self):
        with pytest.raises(InputError):
            meet_above(Box((0, 0), (1, 1)), (2, 0))

    def test_bruteforce_on_random_cartesian(self):
        cart = CartesianSet(((0, 2, 5), (-1, 1)))
        window = window_ext_points(-3, 6, 2)
        for c in ext_box(cart).points():
            above = [p for p in cart.points() if leq(c, p)]
            expected = maximal_lower_bounds_bruteforce(above, window)
            assert expected == {meet_above(cart, c)}

    @given(st.frozensets(st.integers(-2, 2), min_size=1, max_size=3),
           st.frozensets(st.integers(-2, 2), min_size=1, max_size=3))
    def test_meet_is_the_unique_maximal_lower_bound(self, f1, f2):
        cart = CartesianSet((tuple(f1), tuple(f2)))
        window = window_ext_points(-3, 3, 2)
        for c in ext_box(cart).points():
            above = [p for p in cart.points() if leq(c, p)]
            got = meet_above(cart, c)
            assert maximal_lower_bounds_bruteforce(above, window) == {got}


class TestExtBox:
    def test_unit_box_listing(self):
        got = ext_box(Box((1, 1), (1, 1))).points()
        assert got == {(NEG_INF, NEG_INF), (1, NEG_INF), (NEG_INF, 1), (1, 1)}

    def test_origin_box_listing(self):
        got = ext_box(Box((0, 0), (0, 0))).points()
        assert got == {(NEG_INF, NEG_INF), (0, NEG_INF), (NEG_INF, 0), (0, 0)}

    @given(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
           st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_cardinality(self, a, extent):
        b = tuple(x + e for x, e in zip(a, extent))
        assert len(ext_box(Box(a, b)).points()) == (extent[0] + 2) * (extent[1] + 2)


class TestProjections:
    def test_clamp(self):
        assert convex_projection(Box((0, 0), (1, 1)), (-3, 5)) == (0, 1)

    def test_identity_inside(self):
        box = Box((0, 0), (1, 1))
        for c in box.integer_points():
            assert convex_projection(box, c) == c

    def test_rejects_bottom_coordinates(self):
        with pytest.raises(InputError):
            convex_projection(Box((0, 0), (1, 1)), (NEG_INF, 0))

    def test_factorization_through_join_and_meet(self):
        box = Box((0, 0), (2, 1))
        extended = ext_box(box).points()
        for c in itertools.product(range(-4, 5), repeat=2):
            composed = meet_above(box, join_below(extended, c))
            assert composed == convex_projection(box, c)
            assert composed == extended_projection(box, c)

    def test_extended_projection_on_bottom_points(self):
        box = Box((0, 0), (2, 1))
        extended = ext_box(box).points()
        for c in window_ext_points(-2, 3, 2):
            assert extended_projection(box, c) == meet_above(box, join_below(extended, c))


class TestCriticalGrid:
    def test_axis_values(self):
        grid = critical_grid(Box((0, 0), (1, 1)), [(1, 1)])
        assert grid.factors == ((NEG_INF, -1, 0, 1, 2), (NEG_INF, -1, 0, 1, 2))

    def test_empty_set_is_box_driven(self):
        grid = critical_grid(Box((0, 0), (1, 1)), [])
        assert grid.factors == ((NEG_INF, -1, 0, 1, 2), (NEG_INF, -1, 0, 1, 2))

    def test_contains_set_and_extended_box(self):
        box = Box((0, 0), (1, 1))
        s = {(3, NEG_INF), (-4, 2)}
        grid = critical_grid(box, s).points()
        assert s <= grid
        assert ext_box(box).points() <= grid


@st.composite
def layouts(draw):
    """A product of 1 to 4 axes of 1 to 5 coordinates, each with or without a
    leading -inf, and a box of its dimension."""
    n = draw(st.integers(1, 4))
    factors = []
    for _ in range(n):
        coords = sorted(draw(st.sets(st.integers(-4, 4), min_size=1, max_size=5)))
        if draw(st.booleans()) and len(coords) < 5:
            coords.insert(0, NEG_INF)
        factors.append(tuple(coords))
    a = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    return CartesianSet(tuple(factors)), Box(a, tuple(u + draw(st.integers(0, 3)) for u in a))


class TestLayout:
    """The layout of a product of chains against the definitions."""

    @settings(max_examples=200, deadline=None)
    @given(layouts())
    def test_layout_matches_the_definitions(self, drawn):
        grid, box = drawn
        pts = grid.sorted_points()
        assert pts == sorted(itertools.product(*grid.factors))
        assert [grid.point(x) for x in range(len(pts))] == pts
        place = {p: x for x, p in enumerate(pts)}
        lower = {(pts[y], pts[x]) for x, below in enumerate(grid.lower) for y in below}
        upper = {(pts[x], pts[x + grid.strides[axis]])
                 for x, axes in enumerate(grid.upper_axes) for axis in axes}
        assert lower == upper == set(poset_covers(pts)) == set(grid.covers())
        # the first axis first: lower covers by increasing place, upper axes increasing
        assert all(below == sorted(below) for below in grid.lower)
        assert all(list(axes) == sorted(axes) for axes in grid.upper_axes)
        for c, d in lower:
            axis, = (i for i in range(grid.dim) if c[i] != d[i])
            assert grid.cover_axis[place[d] - place[c]] == axis
            assert place[d] - place[c] == grid.strides[axis]
            key = grid.step_keys[axis][place[c]]
            assert grid.steps_of([key]) == [(place[c], axis)]
        keys = [grid.step_keys[axis][x] for x in range(len(pts)) for axis in range(grid.dim)]
        assert len(set(keys)) == len(keys)
        box_place = {p: x for x, p in enumerate(box.integer_points())}
        clamped = box.cartesian().places(grid.clamps(box))
        assert clamped == [box_place[extended_projection(box, p)] for p in pts]

    @settings(max_examples=150, deadline=None)
    @given(layouts(), st.integers(0, 2 ** 32 - 1))
    def test_unchecked_products_equal_checked_ones(self, drawn, seed):
        """Every product and box the package derives from checked data is made
        unchecked; each equals the one the checked constructor makes from its
        definition, and so do its layout lists."""
        grid, box = drawn
        rng = random.Random(seed)
        module = random_module(F2, rng, box=box, max_summands=2)
        s = frozenset(p for p in grid if rng.random() < 0.3)
        cut = tuple(v + 1 for v in box.a)
        lo = cut if all(u <= v for u, v in zip(cut, box.b)) else box.a
        made = {
            "cartesian": (box.cartesian(),
                          CartesianSet([range(u, v + 1) for u, v in zip(box.a, box.b)])),
            "extended": (grid.extended(), CartesianSet([{NEG_INF, *f} for f in grid.factors])),
            "canonical grid": (canonical_grid(module),
                               CartesianSet([{NEG_INF, *range(u, v + 1)}
                                             for u, v in zip(lo, box.b)])),
            "critical grid": (critical_grid(box, s),
                              CartesianSet([set(f) for f in critical_grid(box, s).factors])),
            "window": (window_module(F2, box, lambda p: 0).product,
                       CartesianSet([{NEG_INF, *range(u, v + 1)}
                                     for u, v in zip(box.a, box.b)])),
        }
        for name, (unchecked, checked) in made.items():
            assert_same_layout(unchecked, checked)
        window = default_oracle_window(box, s)
        assert window == Box(window.a, window.b)
        assert window.a == tuple(min([u, *[p[i] for p in s if p[i] != NEG_INF]])
                                 for i, u in enumerate(box.a))
        # the grid the presentation walk keeps: a product of the coordinates it lists
        pts, _, lower, *_ = _product_poset(module, critical_grid(box, s), s)
        kept = CartesianSet([{p[i] for p in pts} for i in range(box.dim)])
        assert kept.sorted_points() == pts and kept.lower == lower


def assert_same_layout(made: CartesianSet, checked: CartesianSet) -> None:
    assert made == checked
    for name in ("factors", "strides", "step_keys", "upper_axes", "lower", "cover_axis"):
        assert getattr(made, name) == getattr(checked, name), name
    assert made.sorted_points() == checked.sorted_points()
