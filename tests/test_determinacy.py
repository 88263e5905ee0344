"""Determinacy deciders: fast method, oracle, canonical map, encodings."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmod import (QQ, Box, ExtendedView, GridModule, InputError, Matrix, NEG_INF,
                    NotDeterminedError, PosetDiagram, check_encoding, critical_grid,
                    default_oracle_window, encode, ext_box, is_S_determined,
                    is_S_determined_oracle, is_invertible, leq, pointed_closure,
                    poset_covers, sort_points)
from detmod.determinacy import _condition_on_grid
from detmod.extgrid import downset_of
from helpers import F2, F5, canonical_map_check, canonical_set, condition_by_downsets, \
    corner_module, every_step, oracle_grid, random_ext_point, random_module, \
    random_point_set

BOTTOM = (NEG_INF, NEG_INF)
UNIT_SET = frozenset(ext_box(Box((1, 1), (1, 1))).points())


def corner_view():
    return ExtendedView(corner_module(F2))


class TestIsDetermined:
    def test_worked_example_is_determined(self):
        report = is_S_determined(corner_view(), UNIT_SET)
        assert report.holds and report.support_ok and report.determined
        assert report.witness is None
        assert report.method == "critical-grid"

    def test_bottom_alone_fails_on_nonconstant_module(self):
        view = corner_view()
        report = is_S_determined(view, {BOTTOM})
        assert not report.holds
        c, d = report.witness
        assert leq(c, d)
        assert downset_of({BOTTOM}, c) == downset_of({BOTTOM}, d)
        assert not is_invertible(view.eval_map(c, d))

    def test_constant_module_determined_by_bottom(self):
        box = Box((0, 0), (1, 1))
        dims = {p: 2 for p in box.integer_points()}
        steps = {}
        for p in box.integer_points():
            for axis in range(2):
                if p[axis] + 1 <= box.b[axis]:
                    steps[(p, axis)] = Matrix.identity(F2, 2)
        from detmod import GridModule
        view = ExtendedView(GridModule(F2, box, dims, steps))
        assert is_S_determined(view, {BOTTOM}).determined

    def test_support_detects_escape(self):
        # the corner module lives below the origin, so its extension is
        # non-zero at the bottom corner, outside the upset of {(0, 0)};
        # a constant module satisfies the covering condition for that set
        # but still fails on support
        box = Box((0, 0), (1, 1))
        dims = {p: 1 for p in box.integer_points()}
        steps = {}
        for p in box.integer_points():
            for axis in range(2):
                if p[axis] + 1 <= box.b[axis]:
                    steps[(p, axis)] = Matrix.identity(F2, 1)
        from detmod import GridModule
        view = ExtendedView(GridModule(F2, box, dims, steps))
        report = is_S_determined(view, {(0, 0)})
        assert report.holds
        assert report.support_ok is False
        assert not report.determined
        # and for the corner module both conditions fail
        report2 = is_S_determined(corner_view(), {(0, 0)})
        assert not report2.holds and report2.support_ok is False

    def test_support_skipped_when_bottom_in_set(self):
        report = is_S_determined(corner_view(), {BOTTOM, (5, 5)})
        assert report.support_ok is True

    def test_agrees_with_oracle_on_random_instances(self):
        rng = random.Random(77)
        for _ in range(200):
            view = ExtendedView(random_module(F5, rng))
            s = random_point_set(rng, 2, 4)
            fast = is_S_determined(view, s)
            slow = is_S_determined_oracle(view, s, default_oracle_window(view.box, s))
            assert fast.holds == slow.holds, (view.box, sorted(s))
            assert fast.support_ok == slow.support_ok
            if not fast.holds:
                c, d = fast.witness
                assert downset_of(s, c) == downset_of(s, d)
                assert not is_invertible(view.eval_map(c, d))


def random_box(rng, nparams):
    width = 2 if nparams < 3 else 1
    a = tuple(rng.randint(-1, 1) for _ in range(nparams))
    return Box(a, tuple(x + rng.randint(0, width) for x in a))


def assert_matches_downset_oracle(view, s):
    """The corner rule against the walk of every cover of the critical grid
    and against the definition on that grid, and the oracle against the
    definition on its window; the whole report is compared, so the witness
    must be the same cover.  The definition on the window widened by two
    and by three reaches the same verdicts: widening by one is enough."""
    pts = frozenset(s)
    grid = critical_grid(view.box, pts)
    report = is_S_determined(view, pts)
    assert report == _condition_on_grid(view, pts, grid, "critical-grid")
    assert report == condition_by_downsets(view, pts, grid, "critical-grid")
    window = default_oracle_window(view.box, pts)
    assert is_S_determined_oracle(view, pts, window) == \
        condition_by_downsets(view, pts, oracle_grid(window), "oracle")
    for widen in (2, 3):
        wide = condition_by_downsets(view, pts, oracle_grid(window, widen), "oracle")
        assert (wide.holds, wide.support_ok) == (report.holds, report.support_ok), widen
    return report


class TestStoredStepsMatchDownsetOracle:
    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    @pytest.mark.parametrize("nparams", [1, 2, 3])
    def test_seeded_modules_and_sets(self, field, nparams):
        rng = random.Random(1000 * nparams + (field.p if field.kind == "prime" else 0))
        verdicts = {"holds": 0, "fails": 0, "support_fails": 0}
        for trial in range(30):
            view = ExtendedView(random_module(field, rng, box=random_box(rng, nparams)))
            if trial % 3 == 0:
                s = canonical_set(view.module)
            else:
                s = random_point_set(rng, nparams, 4, lo=-2, hi=2)
                if trial % 3 == 2:
                    s = pointed_closure(s, dim=nparams)
            report = assert_matches_downset_oracle(view, s)
            verdicts["holds" if report.holds else "fails"] += 1
            verdicts["support_fails"] += report.support_ok is False
        assert all(verdicts.values()), verdicts

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           field=st.sampled_from([F2, F5, QQ]),
           nparams=st.integers(1, 3),
           data=st.data())
    def test_hypothesis_sets(self, seed, field, nparams, data):
        rng = random.Random(seed)
        view = ExtendedView(random_module(field, rng, box=random_box(rng, nparams)))
        coord = st.one_of(st.just(NEG_INF), st.integers(-2, 3))
        s = data.draw(st.frozensets(st.tuples(*[coord] * nparams), max_size=4))
        assert_matches_downset_oracle(view, s)


def axis_point(nparams, axis, v):
    return tuple(v if i == axis else NEG_INF for i in range(nparams))


class TestSettledSlabs:
    """A slab of covers is settled before the walk when its clamps agree or
    when the set holds its axis point; only the live slabs are walked."""

    @pytest.mark.parametrize("nparams", [1, 2, 3])
    def test_canonical_set_makes_no_rank(self, nparams, monkeypatch):
        """Every slab is settled, so no cover is walked: no rank is taken and
        no downset is compared."""
        calls = []
        monkeypatch.setattr("detmod.determinacy.is_invertible",
                            lambda m: calls.append(m.shape) or is_invertible(m))
        monkeypatch.setattr("detmod.determinacy.leq",
                            lambda p, d: calls.append((p, d)) or leq(p, d))
        rng = random.Random(300 + nparams)
        for trial in range(12):
            field = (F2, F5, QQ)[trial % 3]
            a = tuple(rng.randint(-2, 1) for _ in range(nparams))
            box = Box(a, tuple(x + rng.randint(0, 5 - nparams) for x in a))
            view = ExtendedView(random_module(field, rng, box=box, max_summands=4))
            s = canonical_set(view.module)
            assert is_S_determined(view, s).determined
            window = default_oracle_window(view.box, s)
            assert is_S_determined_oracle(view, s, window).determined
            assert frozenset(encode(view, s).points) == pointed_closure(s)
        assert calls == []

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    @pytest.mark.parametrize("nparams", [1, 2, 3])
    def test_live_slabs_match_downset_oracle(self, field, nparams, monkeypatch):
        """The canonical set with one or two axis points left out: the slabs
        of the left-out points are walked, and the whole reports, witnesses
        included, are those of the definition."""
        calls = []
        monkeypatch.setattr("detmod.determinacy.is_invertible",
                            lambda m: calls.append(m.shape) or is_invertible(m))
        rng = random.Random(500 * nparams + (field.p if field.kind == "prime" else 0))
        verdicts = {"holds": 0, "fails": 0}
        for trial in range(12):
            a = tuple(rng.randint(-1, 1) for _ in range(nparams))
            box = Box(a, tuple(x + rng.randint(1, 4 - nparams) for x in a))
            view = ExtendedView(random_module(field, rng, box=box, max_summands=3))
            droppable = [axis_point(nparams, axis, v) for axis in range(nparams)
                         for v in range(box.a[axis] + 1, box.b[axis] + 1)]
            dropped = rng.sample(droppable, min(len(droppable), 1 + trial % 2))
            s = canonical_set(view.module) - frozenset(dropped)
            report = assert_matches_downset_oracle(view, s)
            verdicts["holds" if report.holds else "fails"] += 1
        assert all(verdicts.values()), verdicts
        assert calls


class TestCornerRule:
    """``is_S_determined`` reads the verdict off the stored steps: each step
    is decided at its corner cover, and the support at the corners of the
    box points.  Its whole report is that of the walk of every cover."""

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    @pytest.mark.parametrize("nparams", [1, 2, 3])
    def test_sets_far_outside_the_box(self, field, nparams):
        rng = random.Random(900 * nparams + (field.p if field.kind == "prime" else 0))
        verdicts = {"holds": 0, "fails": 0, "support_fails": 0}
        for trial in range(30 if nparams < 3 else 16):
            view = ExtendedView(random_module(field, rng, box=random_box(rng, nparams),
                                              max_summands=4))
            span = 5 if nparams < 3 else 3
            s = {random_ext_point(rng, nparams, lo=-span, hi=span + 1, bottom_prob=0.4)
                 for _ in range(rng.randint(0, 6))}
            if trial % 4 == 1:
                s |= canonical_set(view.module)
            if trial % 2:  # less one or two points
                s = set(rng.sample(sorted(s, key=str), max(0, len(s) - rng.randint(1, 2))))
            report = assert_matches_downset_oracle(view, s)
            verdicts["holds" if report.holds else "fails"] += 1
            verdicts["support_fails"] += report.support_ok is False
        assert all(verdicts.values()), verdicts

    @pytest.mark.parametrize("nparams", [1, 2, 3])
    def test_canonical_set_minus_any_points(self, nparams):
        rng = random.Random(950 + nparams)
        for trial in range(20):
            field = (F2, F5, QQ)[trial % 3]
            view = ExtendedView(random_module(field, rng, box=random_box(rng, nparams),
                                              max_summands=3))
            canonical = sorted(canonical_set(view.module), key=str)
            dropped = rng.sample(canonical, min(len(canonical), 1 + trial % 2))
            assert_matches_downset_oracle(view, frozenset(canonical) - frozenset(dropped))

    def test_builds_no_grid_and_tests_each_step_once(self, monkeypatch):
        """Every step is its own matrix here (no shared zeros), so the
        matrices tested tell the steps apart."""
        import detmod.determinacy as determinacy
        import detmod.extgrid as extgrid

        def no_grid(*args, **kwargs):
            raise AssertionError("is_S_determined built a grid")
        tested = []
        for module in (determinacy, extgrid):
            monkeypatch.setattr(module, "CartesianSet", no_grid)
        monkeypatch.setattr(determinacy, "is_invertible",
                            lambda m: tested.append(id(m)) or is_invertible(m))
        rng = random.Random(29)
        verdicts = set()
        for trial in range(60):
            nparams = 1 + trial % 3
            field = (F2, F5, QQ)[trial % 3]
            module = random_module(field, rng, box=random_box(rng, nparams), max_summands=4)
            steps = {k: Matrix(field, m.rows, ncols=m.ncols)
                     for k, m in every_step(module).items()}
            view = ExtendedView(GridModule(field, module.box, dict(module.dims), steps))
            s = random_point_set(rng, nparams, 5, lo=-3, hi=4)
            tested.clear()
            report = is_S_determined(view, s)
            verdicts.add(report.holds)
            assert len(tested) == len(set(tested))
            assert set(tested) <= {id(m) for m in view.module.steps.values()}
        assert verdicts == {True, False}


def all_small_modules():
    """Exhaustive catalogs of tiny commutative modules over F2.

    Every module on a two-point box with dimensions up to 2, and every module
    on a 2x2 box with dimensions up to 1 (the square filtered for
    commutativity).  Small enough to sweep, rich enough to hit every shape of
    degeneracy.
    """
    import itertools
    from detmod import GridModule, validate_module

    def matrices(nrows, ncols):
        if nrows == 0 or ncols == 0:
            return [Matrix.zeros(F2, nrows, ncols)]
        out = []
        for bits in itertools.product((0, 1), repeat=nrows * ncols):
            rows = [bits[i * ncols:(i + 1) * ncols] for i in range(nrows)]
            out.append(Matrix(F2, rows, ncols=ncols))
        return out

    box1 = Box((0, 0), (1, 0))
    for d0 in range(3):
        for d1 in range(3):
            for step in matrices(d1, d0):
                yield GridModule(F2, box1, {(0, 0): d0, (1, 0): d1},
                                 {((0, 0), 0): step})
    box2 = Box((0, 0), (1, 1))
    pts = list(box2.integer_points())
    for dims_bits in itertools.product((0, 1), repeat=4):
        dims = dict(zip(pts, dims_bits))
        edges = [((0, 0), 0), ((0, 0), 1), ((0, 1), 0), ((1, 0), 1)]
        choices = [matrices(dims[(p[0] + (axis == 0), p[1] + (axis == 1))], dims[p])
                   for p, axis in edges]
        for combo in itertools.product(*choices):
            m = GridModule(F2, box2, dims, dict(zip(edges, combo)))
            if validate_module(m).ok:
                yield m


class TestExhaustiveOracleEquivalence:
    def test_fast_equals_oracle_on_all_tiny_modules(self):
        catalogs = [
            frozenset(),
            frozenset({BOTTOM}),
            frozenset({(0, 0)}),
            frozenset({(1, 1)}),
            frozenset({(0, 0), (1, 1)}),
            frozenset({(NEG_INF, 0), (1, NEG_INF)}),
            frozenset(ext_box(Box((1, 1), (1, 1))).points()),
        ]
        count = 0
        for module in all_small_modules():
            view = ExtendedView(module)
            for s in catalogs:
                fast = is_S_determined(view, s)
                slow = is_S_determined_oracle(view, s,
                                              default_oracle_window(view.box, s))
                assert fast.holds == slow.holds, (module.box, module.dims, sorted(s))
                assert fast.support_ok == slow.support_ok
                count += 1
        assert count > 400


class TestHalfplaneDiagramHasNoSmallDeterminingSet:
    def test_sampled_small_sets_all_fail(self):
        from detmod import window_module
        from helpers import halfplane_table

        diagram = window_module(F2, Box((-2, -2), (2, 2)), halfplane_table)
        rng = random.Random(17)
        pts = list(diagram.points)
        for _ in range(40):
            s = frozenset(pts[rng.randrange(len(pts))]
                          for _ in range(rng.randint(0, 3)))
            consistent = True
            for c, d in diagram.covers():
                if downset_of(s, c) == downset_of(s, d) and \
                        not is_invertible(diagram.maps[(c, d)]):
                    consistent = False
                    break
            assert not consistent, sorted(s)


class TestThreeParameterAgreement:
    def test_fast_equals_oracle_in_three_parameters(self):
        from helpers import interval_module, twist_module

        rng = random.Random(97)
        for _ in range(25):
            a = tuple(rng.randint(-1, 0) for _ in range(3))
            b = tuple(x + rng.randint(0, 1) for x in a)
            box = Box(a, b)
            starts, ends = [], []
            for _ in range(rng.randint(0, 2)):
                g = tuple(rng.randint(box.a[i] - 1, box.b[i]) for i in range(3))
                d = tuple(rng.randint(g[i], box.b[i] + 1) for i in range(3))
                starts.append(g)
                ends.append(d)
            module = twist_module(interval_module(F5, box, starts, ends), rng)
            view = ExtendedView(module)
            s = frozenset(tuple(NEG_INF if rng.random() < 0.3 else rng.randint(-2, 2)
                                for _ in range(3))
                          for _ in range(rng.randint(0, 3)))
            fast = is_S_determined(view, s)
            slow = is_S_determined_oracle(view, s, default_oracle_window(view.box, s))
            assert fast.holds == slow.holds, (box, sorted(s))
            assert fast.support_ok == slow.support_ok


class TestOracle:
    def test_matches_fast_method_on_worked_example(self):
        view = corner_view()
        fast = is_S_determined(view, UNIT_SET)
        slow = is_S_determined_oracle(view, UNIT_SET,
                                      default_oracle_window(view.box, UNIT_SET))
        assert slow.method == "oracle"
        assert fast.determined == slow.determined is True

    def test_window_must_contain_box(self):
        with pytest.raises(InputError):
            is_S_determined_oracle(corner_view(), UNIT_SET, Box((0, 0), (0, 0)))

    def test_window_must_contain_set_points(self):
        with pytest.raises(InputError):
            is_S_determined_oracle(corner_view(), {(7, 0)}, Box((0, 0), (1, 1)))


class TestCanonicalMap:
    def test_equivalent_to_condition_on_random_instances(self):
        rng = random.Random(31)
        for _ in range(60):
            view = ExtendedView(random_module(F5, rng))
            s = random_point_set(rng, 2, 4)
            assert canonical_map_check(view, s).holds == \
                is_S_determined(view, s).holds

    def test_worked_example(self):
        assert canonical_map_check(corner_view(), UNIT_SET).holds

    def test_trivial_when_collapse_is_identity(self):
        view = corner_view()
        # every critical point of the full extended box collapses to itself
        # only on the set itself; use the constant module instead
        report = canonical_map_check(view, UNIT_SET)
        assert report.support_ok is None


class TestEncode:
    def test_worked_example_four_point_diagram(self):
        diagram = encode(corner_view(), UNIT_SET)
        assert diagram.points == (BOTTOM, (NEG_INF, 1), (1, NEG_INF), (1, 1))
        assert [diagram.dims[p] for p in diagram.points] == [1, 0, 0, 0]

    def test_constant_module_bottom_encoding(self):
        from detmod import GridModule
        box = Box((0, 0), (0, 0))
        view = ExtendedView(GridModule(F2, box, {(0, 0): 1}, {}))
        diagram = encode(view, {BOTTOM})
        assert diagram.points == (BOTTOM,)
        assert diagram.dims[BOTTOM] == 1

    def test_refuses_with_witness(self):
        with pytest.raises(NotDeterminedError) as err:
            encode(corner_view(), {BOTTOM})
        c, d = err.value.witness
        assert leq(c, d) and c != d

    def test_encoding_points_are_pointed_closure(self):
        rng = random.Random(41)
        view = ExtendedView(random_module(F5, rng))
        s = canonical_set(view.module)
        diagram = encode(view, s)
        assert frozenset(diagram.points) == pointed_closure(s)

    def test_product_closure_skips_generic_covers(self, monkeypatch):
        import detmod.grid_module as grid_module

        rng = random.Random(61)
        for field in (F2, F5, QQ):
            view = ExtendedView(random_module(field, rng))
            s = canonical_set(view.module)
            closure = sort_points(pointed_closure(s))
            with monkeypatch.context() as m:
                m.setattr(grid_module, "poset_covers", None)
                diagram = encode(view, s)
            assert list(diagram.points) == closure
            assert diagram.dims == {p: view.eval_space(p) for p in closure}
            assert sorted(diagram.covers()) == sorted(poset_covers(closure))
            assert all(diagram.maps[e] == view.eval_map(*e) for e in diagram.covers())
            assert diagram._validated is True

    def test_non_product_closure_uses_generic_covers(self, monkeypatch):
        import detmod.grid_module as grid_module

        view = ExtendedView(corner_module(F5))
        s = UNIT_SET | {(0, 0)}
        closure = pointed_closure(s)
        assert len(closure) == 7  # (0, -inf) and (-inf, 0) are missing
        calls = []
        with monkeypatch.context() as m:
            m.setattr(grid_module, "poset_covers",
                      lambda pts: calls.append(pts) or poset_covers(pts))
            diagram = encode(view, s)
        assert calls == [sort_points(closure)]
        assert sorted(diagram.covers()) == sorted(poset_covers(sort_points(closure)))


class TestCheckEncoding:
    def test_roundtrip_passes(self):
        view = corner_view()
        assert check_encoding(view, UNIT_SET, encode(view, UNIT_SET))

    def test_roundtrip_on_random_determined_modules(self):
        rng = random.Random(43)
        for _ in range(20):
            view = ExtendedView(random_module(F5, rng))
            s = canonical_set(view.module)
            assert check_encoding(view, s, encode(view, s))

    def test_perturbed_map_fails(self):
        view = ExtendedView(corner_module(F5))
        s = frozenset(UNIT_SET)
        diagram = encode(view, s)
        maps = dict(diagram.maps)
        # redirect the only possible non-trivial entry: give the bottom a
        # fake surviving direction by bumping a dimension instead
        dims = dict(diagram.dims)
        dims[(1, 1)] = 1
        bad = PosetDiagram(F5, diagram.points, dims, {}, covers=diagram.covers())
        assert not check_encoding(view, s, bad)

    def test_conjugated_encoding_still_passes(self):
        from helpers import random_invertible
        from detmod import solve

        rng = random.Random(47)
        view = ExtendedView(random_module(F5, rng))
        s = canonical_set(view.module)
        diagram = encode(view, s)
        twist = {p: random_invertible(F5, diagram.dims[p], rng) for p in diagram.points}
        inv = {p: solve(twist[p], Matrix.identity(F5, diagram.dims[p]))
               for p in diagram.points}
        maps = {(c, d): twist[d] @ diagram.maps[(c, d)] @ inv[c]
                for c, d in diagram.covers()}
        conjugated = PosetDiagram(F5, diagram.points, dict(diagram.dims), maps,
                                  covers=diagram.covers())
        assert check_encoding(view, s, conjugated)

    def test_requires_diagram_on_pointed_closure(self):
        view = corner_view()
        wrong = PosetDiagram(F2, [BOTTOM], {BOTTOM: 1}, {})
        with pytest.raises(InputError):
            check_encoding(view, UNIT_SET, wrong)

    def test_non_commuting_diagram_rejected_even_when_set_does_not_determine(self):
        view = corner_view()
        s = {(0, NEG_INF), (NEG_INF, 0)}
        assert not is_S_determined(view, s).holds
        top = (0, 0)
        points = sorted(pointed_closure(s))
        maps = {(BOTTOM, (0, NEG_INF)): Matrix.identity(F2, 1),
                (BOTTOM, (NEG_INF, 0)): Matrix.identity(F2, 1),
                ((0, NEG_INF), top): Matrix.identity(F2, 1),
                ((NEG_INF, 0), top): Matrix.zeros(F2, 1, 1)}
        square = PosetDiagram(F2, points, {p: 1 for p in points}, maps)
        with pytest.raises(InputError):
            check_encoding(view, s, square)


class TestEquivalenceOfConditions:
    def test_three_conditions_agree(self):
        rng = random.Random(53)
        for trial in range(60):
            view = ExtendedView(random_module(F5, rng))
            if trial % 4 == 0:
                s = canonical_set(view.module)
            else:
                s = random_point_set(rng, 2, 4)
            cond1 = is_S_determined(view, s).holds
            cond2 = canonical_map_check(view, s).holds
            try:
                cond3 = check_encoding(view, s, encode(view, s))
            except NotDeterminedError:
                cond3 = False
            assert cond1 == cond2 == cond3, (view.box, sorted(s))

    def test_monotone_under_closure(self):
        rng = random.Random(59)
        hits = 0
        for trial in range(40):
            view = ExtendedView(random_module(F5, rng))
            s = canonical_set(view.module) if trial % 2 else random_point_set(rng, 2, 3)
            if is_S_determined(view, s).holds:
                hits += 1
                closed = pointed_closure(s, dim=2)
                assert is_S_determined(view, closed).holds
        assert hits > 0


def determined_by_box(module, a, b) -> bool:
    """Is the module determined by the extended box [a + 1, b]?"""
    s = ext_box(Box(tuple(x + 1 for x in a), b)).points()
    return is_S_determined(ExtendedView(module), s).determined


class TestFinitelyDetermined:
    def test_worked_example(self):
        assert determined_by_box(corner_module(F2), (0, 0), (1, 1))

    def test_constant_module_any_candidate(self):
        from detmod import GridModule
        box = Box((0, 0), (2, 2))
        dims = {p: 1 for p in box.integer_points()}
        steps = {}
        for p in box.integer_points():
            for axis in range(2):
                if p[axis] + 1 <= 2:
                    steps[(p, axis)] = Matrix.identity(F2, 1)
        m = GridModule(F2, box, dims, steps)
        assert determined_by_box(m, (0, 0), (2, 2))
        assert determined_by_box(m, (1, 1), (2, 2))

    def test_smaller_candidate_can_fail(self):
        # data changes along the box edge, so shrinking the candidate breaks it
        m = corner_module(F2, top=(1, 1), box=Box((0, 0), (2, 2)))
        assert determined_by_box(m, (0, 0), (2, 2))
        assert not determined_by_box(m, (0, 0), (1, 2))
