"""Births, deaths, presentations, and the zip/unzip correspondence."""

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detmod import (Box, CartesianSet, ExtendedView, GridModule, InputError,
                    Matrix, NEG_INF, NotDeterminedError, PosetDiagram, PrimeField,
                    Presentation, births_deaths, build_presentation, check_encoding,
                    diagram_births_deaths, encode, ext_box, hstack,
                    in_upset, is_admissible, is_invertible, leq,
                    rank, restrict_view, solve, verify_presentation, window_module)
from detmod.io import module_from_json, module_to_json
from detmod.linalg import diagram_colimit
from detmod.presentation import predecessor_colimit_map
from helpers import (F2, F5, admissible_by_reconstruction, births_deaths_by_cone,
                     canonical_set, cokernel_lifts, colimit_map_by_cone,
                     corner_module, module_diagram, diagram_presentation_by_full_scan, given_steps,
                     halfplane_table, interval_module, presentation_by_full_scan,
                     presentation_check_at_points, random_ext_point, random_module, random_point_set, twist_module, unzip_module, widened_box_points, zip_module)
from detmod import QQ, critical_grid, join_closure, lt, min_point, pointed_closure
from detmod.extgrid import as_product
from detmod import canonical_grid, linalg
from detmod import presentation as presentation_module
from detmod.presentation import (_cokernel_module, _generator_lifts, _hom_basis,
                                 _present_diagram, _require_join_closed, present_diagram)

BOTTOM = (NEG_INF, NEG_INF)
UNIT_SET = frozenset(ext_box(Box((1, 1), (1, 1))).points())


def corner_view(field=F2):
    return ExtendedView(corner_module(field))


def corner_encoding(field=F2):
    return restrict_view(corner_view(field), UNIT_SET)


class TestPredecessorColimitMap:
    def test_minimal_point_is_a_birth(self):
        diagram = corner_encoding()
        lam = predecessor_colimit_map(diagram, BOTTOM)
        assert lam.shape == (1, 0)

    def test_death_at_axis_point(self):
        diagram = corner_encoding()
        lam = predecessor_colimit_map(diagram, (1, NEG_INF))
        assert lam.shape == (0, 1)  # one-dimensional colimit dies into zero

    def test_iso_at_top_of_iso_chain(self):
        pts = [(i,) for i in range(4)]
        maps = {((i,), (i + 1,)): Matrix.identity(F5, 1) for i in range(3)}
        chain = PosetDiagram(F5, pts, {p: 1 for p in pts}, maps)
        lam = predecessor_colimit_map(chain, (3,))
        assert lam.shape == (1, 1) and is_invertible(lam)

    def test_rejects_foreign_point(self):
        with pytest.raises(InputError):
            predecessor_colimit_map(corner_encoding(), (9, 9))


class TestBirthsDeaths:
    def test_worked_example(self):
        report = births_deaths(corner_view(), UNIT_SET)
        assert report.births == {BOTTOM: 1}
        assert report.deaths == {(1, NEG_INF): 1, (NEG_INF, 1): 1}

    def test_zero_module(self):
        box = Box((0, 0), (1, 1))
        view = ExtendedView(GridModule(F2, box,
                                       {p: 0 for p in box.integer_points()}, {}))
        report = births_deaths(view, UNIT_SET)
        assert report.births == {} and report.deaths == {}

    def test_refuses_undetermined(self):
        with pytest.raises(NotDeterminedError):
            births_deaths(corner_view(), {BOTTOM})

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_halfplane_window_deaths_on_antidiagonal(self, n):
        diagram = window_module(F2, Box((-n, -n), (n, n)), halfplane_table)
        report = diagram_births_deaths(diagram)
        interior = {p: m for p, m in report.deaths.items()
                    if all(c != NEG_INF and -n < c < n for c in p)}
        assert interior == {(k, -k): 1 for k in range(-(n - 1), n)}
        assert report.births == {BOTTOM: 1}

    def test_restricted_diagrams_test_no_generator_for_chains(self, monkeypatch):
        """On a lattice that is not a product the scan presents the encoding,
        which derives its covers, and tests no generator against a point."""
        view = ExtendedView(random_module(F5, random.Random(65), max_summands=4))
        lattice = join_closure(canonical_set(view.module) | {tuple(v + 1 for v in view.box.b)})
        assert as_product(lattice) is None
        calls, leq_of = [], presentation_module.leq

        def counted(*args):
            calls.append(args)
            return leq_of(*args)
        monkeypatch.setattr("detmod.presentation.leq", counted)
        report = births_deaths(view, lattice)
        assert calls == []
        assert (report.births, report.deaths) == births_deaths_by_cone(encode(view, lattice))

    def test_no_downset_colimit_on_any_route(self, monkeypatch):
        import detmod
        import detmod.linalg
        import detmod.presentation

        def no_colimit(*args):
            raise AssertionError("downset colimit called")
        for module in (detmod, detmod.linalg, detmod.presentation):
            for name in ("predecessor_colimit_map", "diagram_colimit"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, no_colimit)
        view = ExtendedView(random_module(F5, random.Random(62), max_summands=4))
        s = canonical_set(view.module)
        report = births_deaths(view, s)
        assert report == diagram_births_deaths(encode(view, s))
        assert dict(build_presentation(view, s).generators) == report.births


class TestBuildPresentation:
    def test_worked_example_f2(self):
        pres = build_presentation(corner_view(F2), UNIT_SET)
        assert pres.generators == ((BOTTOM, 1),)
        assert pres.relations == (((NEG_INF, 1), 1), ((1, NEG_INF), 1))
        assert pres.block((NEG_INF, 1), BOTTOM).rows == ((1,),)
        assert pres.block((1, NEG_INF), BOTTOM).rows == ((1,),)

    def test_worked_example_rationals(self):
        pres = build_presentation(corner_view(QQ), UNIT_SET)
        assert pres.generators == ((BOTTOM, 1),)
        assert len(pres.relations) == 2

    def test_zero_module_empty_presentation(self):
        box = Box((0, 0), (1, 1))
        view = ExtendedView(GridModule(F2, box,
                                       {p: 0 for p in box.integer_points()}, {}))
        pres = build_presentation(view, UNIT_SET)
        assert pres.generators == () and pres.relations == ()

    def test_refuses_undetermined(self):
        with pytest.raises(NotDeterminedError):
            build_presentation(corner_view(), {(5, 5)})

    def test_generator_count_matches_births(self):
        rng = random.Random(61)
        for _ in range(10):
            view = ExtendedView(random_module(F5, rng))
            s = canonical_set(view.module)
            pres = build_presentation(view, s)
            bd = births_deaths(view, s)
            assert dict(pres.generators) == bd.births


class TestLowerCoverRoutesMatchOracles:
    """The lower-cover computations against the whole-downset definitions."""

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    @pytest.mark.parametrize("nparams", [1, 2, 3])
    def test_random_modules(self, field, nparams):
        rng = random.Random(1000 * nparams + (field.p if field.kind == "prime" else 0))
        for k in range(10):
            a = tuple(rng.randint(-1, 1) for _ in range(nparams))
            b = tuple(x + 4 - nparams for x in a)
            view = ExtendedView(random_module(field, rng, box=Box(a, b), max_summands=4))
            s = canonical_set(view.module)
            enc = encode(view, s)
            for c in enc.points:
                assert predecessor_colimit_map(enc, c) == colimit_map_by_cone(enc, c)
            report = births_deaths(view, s)
            assert (report.births, report.deaths) == births_deaths_by_cone(enc)
            assert build_presentation(view, s) == presentation_by_full_scan(view, s)
            if k >= 3:  # the oracles are slow on the larger set
                continue
            # another determining product: the canonical factors with one
            # coordinate below the box and one above it on every axis, where
            # the scan of the product carries images across identity steps
            wide = set(itertools.product(*({p[i] for p in s} | {a[i] - 1, b[i] + 1}
                                           for i in range(nparams))))
            assert as_product(pointed_closure(wide)) is not None
            report = births_deaths(view, wide)
            assert (report.births, report.deaths) == births_deaths_by_cone(encode(view, wide))
            assert build_presentation(view, wide) == presentation_by_full_scan(view, wide)

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_product_that_skips_box_coordinates(self, field):
        """Steps between clamps two apart, composed from the stored steps."""
        box = Box((0, 0), (4, 4))
        module = interval_module(field, box, [(0, 0), (2, 1)], [(5, 5), (5, 5)])
        view = ExtendedView(twist_module(module, random.Random(field.p if field.kind == "prime"
                                                                else 0)))
        s = set(itertools.product((NEG_INF, 2, 4), (NEG_INF, 1, 3)))
        report = births_deaths(view, s)
        assert (report.births, report.deaths) == births_deaths_by_cone(encode(view, s))
        assert build_presentation(view, s) == presentation_by_full_scan(view, s)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_halfplane_windows(self, n):
        diagram = window_module(F5, Box((-n, -n), (n, n)), halfplane_table)
        for c in diagram.points:
            assert predecessor_colimit_map(diagram, c) == colimit_map_by_cone(diagram, c)
        report = diagram_births_deaths(diagram)
        assert (report.births, report.deaths) == births_deaths_by_cone(diagram)
        assert _present_diagram(diagram) == diagram_presentation_by_full_scan(diagram)

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_join_closures_that_are_not_products(self, field):
        """Whole presentations on sparse encodings, images from ``path_map``.

        Runs until ten of the diagrams have relations.  Counts the generators
        b < c that lie below a later lower cover of c but not below its first
        one, so that their images at c are carried up another cover.
        """
        rng = random.Random(71 + (field.p if field.kind == "prime" else 0))
        with_relations = off_first_cover = 0
        while with_relations < 10:
            nparams = rng.choice([2, 2, 3])
            a = tuple(rng.randint(-1, 1) for _ in range(nparams))
            box = Box(a, tuple(x + 4 - nparams for x in a))
            view = ExtendedView(random_module(field, rng, box=box, max_summands=5))
            pts = pointed_closure(random_point_set(rng, nparams, 6), dim=nparams)
            if as_product(pts) is not None:
                continue
            diagram = restrict_view(view, pts)
            got = _present_diagram(diagram)
            assert got == diagram_presentation_by_full_scan(diagram)
            lower = {c: [p for p, d in diagram.covers() if d == c] for c in diagram.points}
            off_first_cover += sum(1 for c in diagram.points for b, _ in got[0]
                                   if lt(b, c) and not leq(b, lower[c][0]))
            with_relations += bool(got[1])
        assert off_first_cover > 0


@st.composite
def convex_tables(draw):
    """A window of 1 to 3 axes and a table of one dimension on the points
    between two corners, which may be -inf, and 0 elsewhere: convex, so the
    identities between equal dimensions commute."""
    nparams = draw(st.integers(1, 3))
    side = 3 if nparams < 3 else 2
    coords = st.sampled_from([NEG_INF, *range(side)])
    lo = tuple(draw(coords) for _ in range(nparams))
    hi = tuple(draw(coords) for _ in range(nparams))
    k = draw(st.integers(1, 2))
    return Box((0,) * nparams, (side - 1,) * nparams), \
        (lambda p: k if all(a <= v <= b for a, v, b in zip(lo, p, hi)) else 0)


class TestProductDiagramScan:
    """The scan of a product diagram reads its covers off the strides and
    its maps by flat key; it reads off what the full scan does."""

    @settings(max_examples=60, deadline=None)
    @given(convex_tables(), st.sampled_from([F2, F5, QQ]))
    def test_window_modules(self, table, field):
        diagram = window_module(field, *table)
        assert diagram.steps is not None
        assert _present_diagram(diagram) == diagram_presentation_by_full_scan(diagram)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([F2, F5, QQ]), st.integers(1, 3))
    def test_twisted_products(self, seed, field, nparams):
        rng = random.Random(seed)
        a = tuple(rng.randint(-1, 1) for _ in range(nparams))
        box = Box(a, tuple(x + 3 - nparams for x in a))
        view = ExtendedView(random_module(field, rng, box=box, max_summands=3))
        grid = CartesianSet(tuple((NEG_INF, *rng.sample(range(lo - 1, hi + 2), 2))
                                  for lo, hi in zip(box.a, box.b)))
        diagram = restrict_view(view, grid)
        assert diagram.steps is not None
        assert _present_diagram(diagram) == diagram_presentation_by_full_scan(diagram)


    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_modules_read_from_files(self, field):
        """A module file leaves out every zero step, also a step from a
        zero space into another: the walk of the product reads such a step
        as the identity only where both spaces are zero."""
        rng = random.Random(83 + (field.p if field.kind == "prime" else 0))
        for trial in range(12):
            nparams = 1 + trial % 3
            box = Box((0,) * nparams, (4 - nparams,) * nparams)
            module = random_module(field, rng, box=box, twist=trial % 2 == 0)
            view = ExtendedView(module_from_json(module_to_json(module)))
            s = canonical_set(module)
            expected = presentation_by_full_scan(ExtendedView(module), s)
            assert build_presentation(view, s) == expected

    def test_identity_maps_need_no_elimination(self, monkeypatch):
        """A chain of 2 x 2 identity maps is walked on identity steps: no
        onto test, so no elimination, and no product."""
        pts = [(i,) for i in range(6)]
        chain = PosetDiagram(F2, pts, {p: 2 for p in pts},
                             lambda c, d: Matrix.identity(F2, 2))
        calls = count_linear_algebra(monkeypatch)
        generators, relations, _, _ = _present_diagram(chain)
        assert generators == [((0,), 2)] and relations == []
        assert calls == {"echelon": [], "matmul": []}


@st.composite
def low_rank_matrices(draw):
    """Matrices over F2, F5 or Q with 0 to 5 rows and columns, drawn as a
    product through an inner dimension of 0 to 3, so that ranks below both
    sides are common; shapes 0 x k and k x 0 included."""
    field = draw(st.sampled_from([F2, F5, QQ]))
    nrows, inner, ncols = (draw(st.integers(0, 5)), draw(st.integers(0, 3)),
                           draw(st.integers(0, 5)))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)) \
        if field.kind == "rational" else st.integers(0, field.p - 1)

    def block(r, c):
        return Matrix(field, [[draw(entry) for _ in range(c)] for _ in range(r)], ncols=c)
    return block(nrows, inner) @ block(inner, ncols)


class TestGeneratorLifts:
    @settings(max_examples=200, deadline=None)
    @given(lam=low_rank_matrices())
    @example(lam=Matrix.zeros(F5, 0, 0))
    @example(lam=Matrix.zeros(F5, 0, 3))
    @example(lam=Matrix.zeros(QQ, 3, 0))
    def test_matches_cokernel_projection_pivots(self, lam):
        lifts = _generator_lifts(lam)
        assert lifts == cokernel_lifts(lam)
        assert lifts.ncols == lam.nrows - rank(lam)

    def test_one_elimination_and_none_without_columns(self, monkeypatch):
        """One pivots-only elimination of lam transposed, and no matrix built
        but the lifts, by either constructor."""
        calls, built = [], []
        pivot_columns, init, of_rows = linalg.pivot_columns, Matrix.__init__, Matrix._of_rows

        def counted(field, rows, ncols):
            calls.append((len(rows), ncols))
            return pivot_columns(field, rows, ncols)

        def counted_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def counted_of_rows(*args):
            built.append(of_rows(*args))
            return built[-1]
        lam = Matrix(F2, [[1, 0], [1, 0], [0, 1]])
        monkeypatch.setattr("detmod.presentation.pivot_columns", counted)
        monkeypatch.setattr(Matrix, "__init__", counted_init)
        monkeypatch.setattr(Matrix, "_of_rows", staticmethod(counted_of_rows))
        lifts = _generator_lifts(lam)
        assert built == [lifts]
        assert lifts == Matrix(F2, [[1], [0], [0]])
        assert calls == [(2, 3)]
        _generator_lifts(Matrix.zeros(F2, 3, 0))
        assert calls == [(2, 3)]

    @settings(max_examples=100, deadline=None)
    @given(m=low_rank_matrices())
    def test_pivot_columns_are_those_of_rref(self, m):
        rows = [list(r) for r in m.rows]
        assert tuple(linalg.pivot_columns(m.field, m.rows, m.ncols)) == linalg.rref(m)[1]
        assert [list(r) for r in m.rows] == rows


def count_linear_algebra(monkeypatch) -> dict:
    """From here on, the shape of every elimination and matrix product."""
    calls = {"echelon": [], "matmul": []}
    echelon, matmul = linalg._echelon, Matrix.__matmul__

    def counted_echelon(*args, **kwargs):
        calls["echelon"].append((len(args[1]), args[2]))
        return echelon(*args, **kwargs)

    def counted_matmul(self, other):
        calls["matmul"].append((self.shape, other.shape))
        return matmul(self, other)
    monkeypatch.setattr(linalg, "_echelon", counted_echelon)
    monkeypatch.setattr(Matrix, "__matmul__", counted_matmul)
    return calls


class TestScanIsLinear:
    """On a 400-point chain the scan walks no path from a generator, and
    makes a bounded number of eliminations and products per point: none at
    all when every step is the identity, and no product where no relation
    is born."""

    N = 400
    SWAP = Matrix(F2, [[0, 1], [1, 0]])

    def chain(self, step=None, n=N, last=None):
        step = step or Matrix.identity(F2, 1)
        pts = [(i,) for i in range(n)]
        maps = {((i,), (i + 1,)): step for i in range(n - 1)}
        if last is not None:
            maps[((n - 2,), (n - 1,))] = last
        return PosetDiagram(F2, pts, {p: step.nrows for p in pts}, maps)

    def swap_chain(self, n=N, last=None):
        """Invertible steps that are not the identity, so every point is scanned."""
        return self.chain(self.SWAP, n, last)

    def test_no_path_map_call(self, monkeypatch):
        def no_path_map(*args):
            raise AssertionError("path_map called")
        monkeypatch.setattr(PosetDiagram, "path_map", no_path_map)
        generators, relations, _, _ = _present_diagram(self.chain())
        assert generators == [((0,), 1)] and relations == []
        generators, relations, _, _ = _present_diagram(self.swap_chain())
        assert generators == [((0,), 2)] and relations == []

    def test_matrix_products_linear_in_points(self, monkeypatch):
        """No relation is born on the swap chain, so no evaluation map is
        formed; with its last step zero, two are born at the top, and the
        map there is formed up the whole chain, with no recursion: also at
        2,000 points under the default recursion limit."""
        chain = self.swap_chain()
        calls = count_linear_algebra(monkeypatch)
        _present_diagram(chain)
        assert calls["matmul"] == []
        for n in (self.N, 2000):
            chain = self.swap_chain(n, last=Matrix.zeros(F2, 2, 2))
            calls["matmul"].clear()
            generators, relations, _, _ = _present_diagram(chain)
            assert generators == [((0,), 2), ((n - 1,), 2)] and relations == [((n - 1,), 2)]
            assert 0 < len(calls["matmul"]) <= n

    def test_eliminations_linear_in_points(self, monkeypatch):
        chain = self.swap_chain()
        calls = count_linear_algebra(monkeypatch)
        _present_diagram(chain)
        assert 0 < len(calls["echelon"]) <= 3 * self.N

    def test_identity_chain_makes_no_elimination_or_product(self, monkeypatch):
        chain = self.chain()
        calls = count_linear_algebra(monkeypatch)
        generators, relations, _, lifts = _present_diagram(chain)
        assert generators == [((0,), 1)] and relations == []
        assert lifts == {(0,): Matrix.identity(F2, 1)}
        assert calls == {"echelon": [], "matmul": []}


class TestIdentitySteps:
    """A step that is the identity matrix is scanned as the identity: no
    lift elimination and no product there, and the same presentation."""

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_identity_chain_on_the_product(self, field, monkeypatch):
        box = Box((0,), (59,))
        view = ExtendedView(interval_module(field, box, [(0,), (0,)], [(60,), (60,)]))
        s = canonical_set(view.module)
        calls = count_linear_algebra(monkeypatch)
        report = births_deaths(view, s)
        pres = build_presentation(view, s)
        assert report.births == {(NEG_INF,): 2} and report.deaths == {}
        assert pres.generator_images == {(NEG_INF,): Matrix.identity(field, 2)}
        assert calls == {"echelon": [], "matmul": []}

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_identity_composite_between_clamps_two_apart(self, field):
        """Twisted at odd first coordinates only: each unit step there is
        twisted, and the composite across it is the identity again."""
        box = Box((0, 0), (4, 4))
        module = interval_module(field, box, [(0, 0), (2, 1), (2, 3)], [(5, 5), (5, 5), (4, 3)])
        view = ExtendedView(twist_module(module, random.Random(7), keep=lambda p: p[0] % 2 == 0))
        assert not view.module.step((2, 1), 0).is_identity()
        assert view.eval_map((2, 1), (4, 1)).is_identity()
        s = set(itertools.product((NEG_INF, 2, 4), (NEG_INF, 1, 3)))
        enc = encode(view, s)
        report = births_deaths(view, s)
        assert (report.births, report.deaths) == births_deaths_by_cone(enc)
        assert report.deaths
        assert build_presentation(view, s) == presentation_by_full_scan(view, s)
        assert present_diagram(enc) == presentation_by_full_scan(view, s)

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_mixed_steps_match_oracles(self, field, monkeypatch):
        """On the product route and on the diagram route of the encoding:
        random modules on the canonical set, twisted except at first
        coordinates 0 and 2 mod 3; and modules with grades at even offsets
        from the lower corner on the set of even offsets, twisted at odd
        first offsets only, whose steps skip the odd offsets and compose to
        the identity where no grade lies between."""
        identities = []
        is_identity = Matrix.is_identity

        def counted(m):
            got = is_identity(m)
            identities.append(got and m.nrows > 0)
            return got
        monkeypatch.setattr(Matrix, "is_identity", counted)
        rng = random.Random(41 + (field.p if field.kind == "prime" else 0))
        for nparams in (1, 2, 3):
            for k in range(4):
                a = tuple(rng.randint(-1, 1) for _ in range(nparams))
                box = Box(a, tuple(x + 5 - nparams for x in a))
                if k % 2:
                    starts = [tuple(rng.randrange(lo, hi + 1, 2) for lo, hi in zip(a, box.b))
                              for _ in range(rng.randint(1, 4))]
                    ends = [tuple(x + 2 * rng.randint(1, 3) for x in g) for g in starts]
                    module = twist_module(interval_module(field, box, starts, ends), rng,
                                          keep=lambda p: (p[0] - a[0]) % 2 == 0)
                    s = set(itertools.product(*({NEG_INF} | set(range(lo + 2, hi + 1, 2))
                                                for lo, hi in zip(a, box.b))))
                else:
                    module = twist_module(random_module(field, rng, box=box, max_summands=4,
                                                        twist=False),
                                          rng, keep=lambda p: p[0] % 3 != 1)
                    s = canonical_set(module)
                view = ExtendedView(module)
                enc = encode(view, s)
                report = births_deaths(view, s)
                assert (report.births, report.deaths) == births_deaths_by_cone(enc)
                expected = presentation_by_full_scan(view, s)
                assert build_presentation(view, s) == expected
                assert present_diagram(enc) == expected
        assert any(identities) and not all(identities)


class TestOntoSteps:
    """Steps that are onto but not invertible settle the cokernel as an
    identity does: twisted interval sums whose intervals all start at the
    lower corner and end apart, so that every step is onto and a k -> k - 1
    projection where an interval ends.  The build takes one lift, at the
    bottom, and agrees with the oracles; verify agrees with the pointwise
    oracle on the presentation and its corruptions."""

    @staticmethod
    def projection_modules(field, rng):
        for nparams in (1, 2, 3):
            for _ in range(3):
                a = tuple(rng.randint(-1, 1) for _ in range(nparams))
                box = Box(a, tuple(x + 4 - nparams for x in a))
                ends = [tuple(rng.randint(x + 1, y + 1) for x, y in zip(a, box.b))
                        for _ in range(rng.randint(2, 4))]
                yield twist_module(interval_module(field, box, [a] * len(ends), ends), rng)

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_projections_match_oracles(self, field, monkeypatch):
        rng = random.Random(2801 + (field.p if field.kind == "prime" else 0))
        lifts, generator_lifts = [], presentation_module._generator_lifts

        def counted(lam):
            lifts.append(lam.shape)
            return generator_lifts(lam)
        monkeypatch.setattr(presentation_module, "_generator_lifts", counted)
        projections = caught = 0
        for module in self.projection_modules(field, rng):
            projections += sum(m.nrows < m.ncols for m in given_steps(module).values())
            view = ExtendedView(module)
            s = canonical_set(module)
            lifts.clear()
            report = births_deaths(view, s)
            assert list(report.births) == [min_point(module.box.dim)] and len(lifts) == 1
            assert (report.births, report.deaths) == births_deaths_by_cone(encode(view, s))
            pres = build_presentation(view, s)
            assert pres == presentation_by_full_scan(view, s)
            assert present_diagram(encode(view, s)) == pres
            assert _assert_scan_matches_oracles(view, pres).ok
            for corrupt in CORRUPTIONS.values():
                bad = corrupt(view, pres, rng)
                if bad is not None:
                    caught += not _assert_scan_matches_oracles(view, bad).ok
        assert projections >= 9 and caught >= 9, (projections, caught)


class TestScanCounts:
    """What the scan skips: the encoding on a product closure, every kernel
    basis where no relation can be born, every lift elimination where a
    lower-cover step is onto, and every product off the points below a
    kernel that grows."""

    def whole_box_view(self, field=F5, starts=(), ends=()):
        box = Box((0, 0), (5, 5))
        module = interval_module(field, box, [box.a, *starts], [(6, 6), *ends])
        return ExtendedView(twist_module(module, random.Random(13)))

    @staticmethod
    def record(mp, names) -> tuple:
        """From here on, the points the presentation walk visits, and the
        point it stands on, from the new columns there on, at each call of
        the named functions of ``detmod.presentation`` and at each matrix
        product."""
        walk, matmul = presentation_module._walk, Matrix.__matmul__
        current, walked, at = [None], [], {name: [] for name in names + ("matmul",)}

        def recorded_walk(field, poset, new_columns, gens):
            def at_point(pt, dim, maps):
                current[0] = pt
                return new_columns(pt, dim, maps)
            for visit in walk(field, poset, at_point, gens):
                walked.append(visit[0])
                yield visit

        def recorder(name, f):
            def recorded(*args):
                at[name].append(current[0])
                return f(*args)
            return recorded
        mp.setattr(presentation_module, "_walk", recorded_walk)
        for name in names:
            f = getattr(presentation_module, name)
            mp.setattr(presentation_module, name, recorder(name, f))
        mp.setattr(Matrix, "__matmul__", recorder("matmul", matmul))
        return walked, at

    @staticmethod
    def read_off(view, walked, grades) -> tuple:
        """On the product of the walked coordinates, by evaluation on a
        fresh view: the points with no onto lower-cover step, and those
        where the kernel of the evaluation map grows, for generators with
        the multiplicities ``grades``."""
        view = ExtendedView(view.module)
        factors = [sorted({c[i] for c in walked}) for i in range(len(walked[0]))]
        covers = {c: [c[:i] + (f[f.index(v) - 1],) + c[i + 1:]
                      for i, (f, v) in enumerate(zip(factors, c)) if v != f[0]] for c in walked}

        def kdim(c):
            return sum(m for b, m in grades.items() if leq(b, c)) - view.eval_space(c)
        not_onto = [c for c in walked if not any(
            rank(view.eval_map(p, c)) == view.eval_space(c) for p in covers[c])]
        growth = {c for c in walked if kdim(c) and all(kdim(p) != kdim(c) for p in covers[c])}
        return not_onto, growth

    @pytest.mark.parametrize("field", [F5, QQ], ids=["f5", "q"])
    def test_linear_algebra_only_where_a_generator_or_relation_can_be_born(self, field):
        """The twisted box with a second interval: births at the bottom and
        at (2, 2), a death at (4, 4).  Lift eliminations run exactly at the
        points with no onto lower-cover step, and products only where the
        kernel grows, for the points below it; verify takes ranks and
        products only where no lower-cover step is onto, at relation grades
        and where the kernel grows."""
        view = self.whole_box_view(field, [(2, 2)], [(4, 4)])
        s = canonical_set(view.module)
        with pytest.MonkeyPatch.context() as mp:
            walked, at = self.record(mp, ("_generator_lifts",))
            report = births_deaths(view, s)
        assert report.births == {BOTTOM: 1, (2, 2): 1} and report.deaths == {(4, 4): 1}
        not_onto, growth = self.read_off(view, walked, report.births)
        assert at["_generator_lifts"] == not_onto
        assert set(report.births) <= set(not_onto) and len(not_onto) < len(walked) // 8
        assert growth == {(4, 4)} and set(at["matmul"]) <= growth
        assert 0 < len(at["matmul"]) <= sum(leq(c, (4, 4)) for c in walked)

        pres = build_presentation(view, s)
        with pytest.MonkeyPatch.context() as mp:
            walked, at = self.record(mp, ("rank",))
            assert verify_presentation(view, pres)
        not_onto, growth = self.read_off(view, walked, dict(pres.generators))
        relations = {d for d, _ in pres.relations}
        assert at["rank"] and set(at["rank"]) <= set(not_onto) | growth
        assert at["matmul"] and set(at["matmul"]) <= set(not_onto) | relations

    def test_product_closure_builds_no_encoding(self, monkeypatch):
        def no_restrict(*args):
            raise AssertionError("restrict_view called")
        monkeypatch.setattr("detmod.presentation.restrict_view", no_restrict)
        view = ExtendedView(random_module(F5, random.Random(64), max_summands=4))
        s = canonical_set(view.module)
        build_presentation(view, s)
        births_deaths(view, s)

    def test_no_kernel_basis_without_deaths(self, monkeypatch):
        calls = []
        kernel_basis = linalg.kernel_basis

        def counted(m):
            calls.append(m.shape)
            return kernel_basis(m)
        monkeypatch.setattr("detmod.presentation.kernel_basis", counted)
        view = self.whole_box_view()
        report = births_deaths(view, canonical_set(view.module))
        assert report.births == {BOTTOM: 1} and report.deaths == {}
        report = diagram_births_deaths(TestScanIsLinear().chain())
        assert report.births == {(0,): 1} and report.deaths == {}
        assert calls == []


class TestVerifyCounts:
    """What verify with generator images computes: the rank of the images
    only where no lower-cover step is onto, and the rank of the relation
    matrix only where the kernel grows or a check fails."""

    def test_whole_box_interval_makes_one_elimination(self, monkeypatch):
        box = Box((0, 0), (5, 5))
        view = ExtendedView(interval_module(F5, box, [box.a], [(6, 6)]))
        pres = build_presentation(view, canonical_set(view.module))
        calls = count_linear_algebra(monkeypatch)
        assert verify_presentation(view, pres)
        assert len(calls["echelon"]) == 1 and calls["matmul"] == []

    @pytest.mark.parametrize("corrupt", [None, "block", "relation"])
    def test_relation_rank_only_where_the_kernel_grows(self, corrupt, monkeypatch):
        import detmod.presentation as presentation
        view, pres = _presented_module_with_relations(F5, random.Random(1107))
        if corrupt is not None:
            pres = CORRUPTIONS[corrupt](view, pres, random.Random(1108))
        grid = critical_grid(view.box, [p for p, _ in pres.generators + pres.relations])

        def kdim(c):
            return sum(m for b, m in pres.generators if leq(b, c)) - view.eval_space(c)

        def grows(c):
            covers = [c[:axis] + (f[f.index(v) - 1],) + c[axis + 1:]
                      for axis, (f, v) in enumerate(zip(grid.factors, c)) if v != f[0]]
            return all(kdim(p) != kdim(c) for p in covers)

        current, relation_matrices, taken = [None], [], []
        walk, relation_matrix, rank_ = presentation._walk, presentation._relation_matrix, rank

        def recorded_walk(*args):
            for visit in walk(*args):
                current[0] = visit[0]
                yield visit

        def recorded_relation_matrix(*args):
            got = relation_matrix(*args)
            relation_matrices.append(got)
            return got

        def recorded_rank(m):
            if any(m is r for r in relation_matrices):
                taken.append(current[0])
            return rank_(m)
        monkeypatch.setattr(presentation, "_walk", recorded_walk)
        monkeypatch.setattr(presentation, "_relation_matrix", recorded_relation_matrix)
        monkeypatch.setattr(presentation, "rank", recorded_rank)
        check = verify_presentation(view, pres)
        assert check.ok is (corrupt is None)
        assert taken and all(grows(c) or c == check.point for c in taken), taken
        assert len(taken) < len(grid.sorted_points()) // 4


class TestVerifyPresentation:
    def test_worked_example_passes_everywhere(self):
        view = corner_view()
        pres = build_presentation(view, UNIT_SET)
        pts = set(UNIT_SET) | set(Box((-2, -2), (2, 2)).integer_points())
        assert verify_presentation(view, pres)
        assert presentation_check_at_points(view, pres, pts)

    def test_handwritten_presentation_passes(self):
        view = corner_view()
        pres = Presentation(F2, 2, ((BOTTOM, 1),),
                            (((NEG_INF, 1), 1), ((1, NEG_INF), 1)),
                            {((NEG_INF, 1), BOTTOM): Matrix(F2, [[1]]),
                             ((1, NEG_INF), BOTTOM): Matrix(F2, [[1]])})
        assert verify_presentation(view, pres)

    def test_dropping_a_relation_fails_at_the_death_point(self):
        view = corner_view()
        pres = Presentation(F2, 2, ((BOTTOM, 1),), (((NEG_INF, 1), 1),),
                            {((NEG_INF, 1), BOTTOM): Matrix(F2, [[1]])})
        check = verify_presentation(view, pres)
        assert not check.ok
        assert check.point is not None
        assert leq((1, NEG_INF), check.point)

    def test_roundtrip_on_random_modules(self):
        rng = random.Random(67)
        for field in (F2, F5, QQ):
            for _ in range(8):
                view = ExtendedView(random_module(field, rng))
                s = canonical_set(view.module)
                pres = build_presentation(view, s)
                assert verify_presentation(view, pres), \
                    (field, view.box)

    def test_search_fallback_without_images(self):
        # what the search accepts on its grid holds on the box widened by 2
        rng = random.Random(68)
        for field in (F2, F5, QQ):
            for _ in range(3):
                view = ExtendedView(random_module(field, rng))
                pres = build_presentation(view, canonical_set(view.module))
                bare = dataclasses.replace(pres, generator_images=None)
                assert verify_presentation(view, bare)
                assert presentation_check_at_points(view, bare, widened_box_points(view))

    def test_certificate_check_runs_no_search(self, monkeypatch):
        import detmod.presentation

        def no_search(*args):
            raise AssertionError("isomorphism search called")
        monkeypatch.setattr(detmod.presentation, "_find_isomorphism", no_search)
        view = ExtendedView(random_module(F5, random.Random(69), max_summands=4))
        pres = build_presentation(view, canonical_set(view.module))
        assert verify_presentation(view, pres)

    def test_zero_image_column_fails(self):
        view = ExtendedView(random_module(F5, random.Random(70), max_summands=4))
        pres = build_presentation(view, canonical_set(view.module))
        b, image = max(pres.generator_images.items(), key=lambda e: e[1].nrows)
        zeroed = Matrix(F5, [(0,) + row[1:] for row in image.rows], ncols=image.ncols)
        images = dict(pres.generator_images)
        images[b] = zeroed
        check = verify_presentation(view, dataclasses.replace(pres, generator_images=images))
        assert not check.ok and check.point == b

    def test_relations_inconsistent_with_images_fail(self):
        # two summands born at the bottom, one dying at (1, 1); the relation
        # is moved onto the other generator, which still presents a module
        # isomorphic to this one, but not through the given images
        from helpers import interval_module

        module = interval_module(F5, Box((0, 0), (1, 1)), [(0, 0), (0, 0)], [(1, 1), (2, 2)])
        view = ExtendedView(module)
        pres = build_presentation(view, UNIT_SET)
        assert pres.generators == ((BOTTOM, 2),) and pres.relations == (((1, 1), 1),)
        block = pres.blocks[((1, 1), BOTTOM)]
        moved = dataclasses.replace(pres, blocks={((1, 1), BOTTOM): Matrix(
            F5, block.rows[::-1], ncols=1)})
        check = verify_presentation(view, moved)
        assert not check.ok and check.point == (1, 1) and "zero" in check.reason
        bare = dataclasses.replace(moved, generator_images=None)
        assert verify_presentation(view, bare)

    def test_image_with_wrong_row_count_fails_at_its_generator(self):
        view = corner_view()
        pres = build_presentation(view, UNIT_SET)
        images = {BOTTOM: Matrix(F2, [[1], [0]])}
        check = verify_presentation(view, dataclasses.replace(pres, generator_images=images))
        assert not check.ok and check.point == BOTTOM and "rows" in check.reason

    def test_generator_images_validated(self):
        gens = ((BOTTOM, 1),)
        for images in ({(1, 1): Matrix(F2, [[1]]), BOTTOM: Matrix(F2, [[1]])},
                       {BOTTOM: Matrix(F2, [[1, 0]])},
                       {}):
            with pytest.raises(InputError):
                Presentation(F2, 2, gens, (), {}, generator_images=images)

    def test_large_rational_module(self):
        view = ExtendedView(random_module(QQ, random.Random(5), box=Box((0, 0), (4, 4)),
                                          max_summands=10))
        pres = build_presentation(view, canonical_set(view.module))
        assert verify_presentation(view, pres)

    def test_absent_block_is_zero_of_its_shape(self):
        pres = Presentation(F2, 2, ((BOTTOM, 2),), (((1, 1), 3),), {})
        assert pres.block((1, 1), BOTTOM) == Matrix.zeros(F2, 2, 3)
        assert pres.block((1, 1), BOTTOM) is Matrix.zeros(PrimeField(2), 2, 3)

    def test_repeated_points_rejected(self):
        for gens, rels in ((((BOTTOM, 1), (BOTTOM, 1)), ()),
                           (((BOTTOM, 1),), (((1, 1), 1), ((1, 1), 2)))):
            with pytest.raises(InputError):
                Presentation(F2, 2, gens, rels, {})

    @pytest.mark.parametrize("gens,rels,blocks,message", [
        (((BOTTOM, 0),), (), {}, "multiplicity at (-inf, -inf) must be a positive integer"),
        (((BOTTOM, True),), (), {}, "multiplicity at (-inf, -inf) must be a positive integer"),
        ((), (((1, 1), 2.0),), {}, "multiplicity at (1, 1) must be a positive integer"),
        (((BOTTOM, 1),), (((1, 1), 1),), {((2, 2), BOTTOM): Matrix.identity(F2, 1)},
         "block ((2, 2), (-inf, -inf)) does not match a relation/generator pair"),
        (((BOTTOM, 1),), (((1, 1), 1),), {((1, 1), (0, 0)): Matrix.identity(F2, 1)},
         "block ((1, 1), (0, 0)) does not match a relation/generator pair"),
        (((BOTTOM, 2),), (((1, 1), 3),), {((1, 1), BOTTOM): Matrix.zeros(F2, 3, 2)},
         "block ((1, 1), (-inf, -inf)) has shape (3, 2), expected (2, 3)"),
    ], ids=["zero", "bool", "float", "off-relation", "off-generator", "shape"])
    def test_malformed_presentation_refused(self, gens, rels, blocks, message):
        with pytest.raises(InputError) as err:
            Presentation(F2, 2, gens, rels, blocks)
        assert str(err.value) == message

    def test_grading_enforced(self):
        with pytest.raises(InputError):
            Presentation(F2, 2, (((1, 1), 1),), ((BOTTOM, 1),),
                         {(BOTTOM, (1, 1)): Matrix(F2, [[1]])})


def _perturb_block(view, pres, rng):
    if not pres.blocks:
        return None
    key = rng.choice(sorted(pres.blocks, key=repr))
    block = pres.blocks[key]
    i, j = rng.randrange(block.nrows), rng.randrange(block.ncols)
    rows = [list(r) for r in block.entries()]
    rows[i][j] = pres.field.add(rows[i][j], pres.field.one)
    blocks = dict(pres.blocks)
    blocks[key] = Matrix(pres.field, rows, ncols=block.ncols)
    return dataclasses.replace(pres, blocks=blocks)


def _drop_relation(view, pres, rng):
    if not pres.relations:
        return None
    d, _ = rng.choice(pres.relations)
    return dataclasses.replace(
        pres, relations=tuple(r for r in pres.relations if r[0] != d),
        blocks={k: v for k, v in pres.blocks.items() if k[0] != d})


def _zero_image_column(view, pres, rng):
    candidates = [b for b, image in pres.generator_images.items() if image.nrows]
    if not candidates:
        return None
    b = rng.choice(sorted(candidates, key=repr))
    image = pres.generator_images[b]
    j = rng.randrange(image.ncols)
    zero = pres.field.zero
    images = dict(pres.generator_images)
    images[b] = Matrix(pres.field, [row[:j] + (zero,) + row[j + 1:] for row in image.entries()],
                       ncols=image.ncols)
    return dataclasses.replace(pres, generator_images=images)


def _stray_point(view, rng):
    """A point outside the box widened by 2: beyond it on one axis at least."""
    box = view.box
    far = rng.randrange(box.dim)
    return tuple(box.b[i] + rng.randint(3, 9) if i == far
                 else rng.choice([NEG_INF, box.a[i] - 3, box.b[i], box.b[i] + 4])
                 for i in range(box.dim))


def _add_stray_generator(view, pres, rng):
    """One more generator beyond the box widened by 2, with a random image."""
    g = _stray_point(view, rng)
    dim = view.eval_space(g)
    pool = range(pres.field.p) if pres.field.kind == "prime" else range(-2, 3)
    image = Matrix(pres.field, [[rng.choice(pool)] for _ in range(dim)], ncols=1)
    images = dict(pres.generator_images)
    images[g] = image
    return g, dataclasses.replace(pres, generators=pres.generators + ((g, 1),),
                                  generator_images=images)


def _add_stray_relation(view, pres, rng):
    """One more relation beyond the box widened by 2, on the generators below it."""
    d = _stray_point(view, rng)
    below = [(b, m) for b, m in pres.generators if leq(b, d)]
    if not below:
        return None
    field = pres.field
    blocks = dict(pres.blocks)
    for b, m in below:
        blocks[(d, b)] = Matrix(field, [[rng.randrange(2)] for _ in range(m)], ncols=1)
    blocks[(d, below[0][0])] = Matrix(field, [[1]] + [[0]] * (below[0][1] - 1), ncols=1)
    return dataclasses.replace(pres, relations=pres.relations + ((d, 1),), blocks=blocks)


CORRUPTIONS = {"block": _perturb_block, "relation": _drop_relation,
               "image": _zero_image_column, "stray relation": _add_stray_relation}


def _presented_module_with_relations(field, rng):
    """A random module and its presentation, drawn until it has a relation."""
    while True:
        view = ExtendedView(random_module(field, rng, max_summands=5))
        pres = build_presentation(view, canonical_set(view.module))
        if pres.relations:
            return view, pres


def _scan_grid_points(view, pres):
    grades = [b for b, _ in pres.generators] + [d for d, _ in pres.relations]
    return critical_grid(view.box, grades).sorted_points()


def _assert_scan_matches_oracles(view, pres):
    """The scan agrees with the pointwise oracle on its grid, verdict, point and
    reason; and whatever the oracle catches on the box widened by 2 or at the
    grades, it catches.  Without the images, verify passes what the scan
    passes and fails at the same point where the scan finds a cokernel of the
    wrong dimension."""
    check = verify_presentation(view, pres)
    assert check == presentation_check_at_points(view, pres, _scan_grid_points(view, pres))
    for pts in (widened_box_points(view), [p for p, _ in pres.generators + pres.relations]):
        if not presentation_check_at_points(view, pres, pts):
            assert not check.ok
    bare = verify_presentation(view, dataclasses.replace(pres, generator_images=None))
    if check.ok:
        assert bare.ok is True
    elif check.reason.startswith("cokernel dimension"):
        assert bare == check
    return check


class TestScanMatchesPointwiseOracle:
    """The one-scan certificate check against the per-point oracle, on honest
    and corrupted presentations."""

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_seeded_honest_and_corrupted(self, field):
        rng = random.Random(1100 + field.p if field.kind == "prime" else 1100)
        caught = 0
        for _ in range(8):
            view, pres = _presented_module_with_relations(field, rng)
            assert _assert_scan_matches_oracles(view, pres).ok
            for corrupt in CORRUPTIONS.values():
                bad = corrupt(view, pres, rng)
                if bad is not None:
                    caught += not _assert_scan_matches_oracles(view, bad).ok
            g, stray = _add_stray_generator(view, pres, rng)
            assert presentation_check_at_points(view, stray, widened_box_points(view))
            check = _assert_scan_matches_oracles(view, stray)
            assert not check.ok and check.point == g, (g, check)
        assert caught >= 20  # most corruptions break the presentation

    @given(seed=st.integers(0, 10 ** 6), field=st.sampled_from([F2, F5, QQ]),
           corruption=st.sampled_from(sorted(CORRUPTIONS) + ["stray", "none"]))
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_corruptions(self, seed, field, corruption):
        rng = random.Random(seed)
        if corruption in ("block", "relation", "stray relation"):
            view, pres = _presented_module_with_relations(field, rng)
        else:
            view = ExtendedView(random_module(field, rng))
            pres = build_presentation(view, canonical_set(view.module))
        if corruption == "none":
            assert _assert_scan_matches_oracles(view, pres).ok
        elif corruption == "stray":
            g, stray = _add_stray_generator(view, pres, rng)
            check = _assert_scan_matches_oracles(view, stray)
            assert not check.ok and check.point == g
        else:
            bad = CORRUPTIONS[corruption](view, pres, rng)
            if bad is not None:
                _assert_scan_matches_oracles(view, bad)

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_stored_identity_steps(self, field):
        """The walk takes an identity matrix between distinct clamps as onto:
        on the whole-box interval, on untwisted random modules and on random
        modules twisted at odd first coordinates only."""
        rng = random.Random(1106)
        box = Box((0, 0), (5, 5))
        modules = [interval_module(field, box, [box.a], [(6, 6)])]
        for k in range(8):
            module = random_module(field, rng, box=Box((0, 0), (3, 3)), max_summands=5,
                                   twist=False)
            modules.append(twist_module(module, rng, keep=lambda p: p[0] % 2 == 0)
                           if k % 2 else module)
        assert sum(any(m.nrows and m.is_identity() for m in given_steps(module).values())
                   for module in modules) >= 6
        caught = 0
        for module in modules:
            view = ExtendedView(module)
            pres = build_presentation(view, canonical_set(module))
            assert _assert_scan_matches_oracles(view, pres).ok
            for corrupt in CORRUPTIONS.values():
                bad = corrupt(view, pres, rng)
                if bad is not None:
                    caught += not _assert_scan_matches_oracles(view, bad).ok
            g, stray = _add_stray_generator(view, pres, rng)
            check = _assert_scan_matches_oracles(view, stray)
            assert not check.ok and check.point == g, (g, check)
        assert caught >= 12

    def test_key_less_route_rejects_a_stray_generator(self):
        rng = random.Random(1104)
        view = ExtendedView(random_module(F5, rng, max_summands=2))
        pres = build_presentation(view, canonical_set(view.module))
        g, stray = _add_stray_generator(view, pres, rng)
        check = verify_presentation(view, dataclasses.replace(stray, generator_images=None))
        assert not check.ok and check.point == g

    def test_scan_makes_no_eval_map_call(self, monkeypatch):
        def no_eval_map(*args):
            raise AssertionError("eval_map called")
        view = ExtendedView(random_module(QQ, random.Random(1105)))
        pres = build_presentation(view, canonical_set(view.module))
        monkeypatch.setattr(ExtendedView, "eval_map", no_eval_map)
        assert verify_presentation(view, pres)


def _hom_dimensions(field, rng):
    """Hom dimensions between two random modules on one box, as (helper,
    nat_basis) pairs: for a diagram target (the box data of both) and for a
    module target (a presentation of one, the extended view of the other).

    Restriction to a grid G holding every grade of the presentation keeps it
    a presentation, so Hom over G between the restrictions is the reference
    for the module target.
    """
    m = random_module(field, rng, max_summands=4)
    n = random_module(field, rng, box=m.box, max_summands=4)
    a, b = module_diagram(m), module_diagram(n)
    diagram = (len(_hom_basis(present_diagram(a), b.dims.__getitem__, b.path_map)),
               len(linalg.nat_basis(a, b)))
    vm, vn = ExtendedView(m), ExtendedView(n)
    pres = build_presentation(vm, canonical_set(m))
    grid = critical_grid(m.box, [p for p, _ in pres.generators + pres.relations])
    module = (len(_hom_basis(pres, vn.eval_space, vn.eval_map)),
              len(linalg.nat_basis(restrict_view(vm, grid), restrict_view(vn, grid))))
    return diagram, module


class TestHomFromPresentation:
    """Hom out of a presentation, one linear system, against ``nat_basis``,
    which solves naturality point by point; and the search on top of it."""

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_seeded_dimensions_match_nat_basis(self, field):
        rng = random.Random(1200)
        nonzero = 0
        for _ in range(16):
            diagram, module = _hom_dimensions(field, rng)
            assert diagram[0] == diagram[1] and module[0] == module[1], (diagram, module)
            nonzero += diagram[0] > 0 and module[0] > 0
        assert nonzero >= 6

    @given(seed=st.integers(0, 10 ** 6), field=st.sampled_from([F2, F5, QQ]))
    @settings(max_examples=30, deadline=None)
    def test_hypothesis_dimensions_match_nat_basis(self, seed, field):
        diagram, module = _hom_dimensions(field, random.Random(seed))
        assert diagram[0] == diagram[1] and module[0] == module[1]

    def test_basis_elements_map_relations_to_zero(self):
        view = ExtendedView(random_module(QQ, random.Random(1201), max_summands=4))
        pres = build_presentation(view, canonical_set(view.module))
        basis = _hom_basis(pres, view.eval_space, view.eval_map)
        assert basis and pres.relations
        for images in basis:
            for d, r in pres.relations:
                total = Matrix.zeros(QQ, view.eval_space(d), r)
                for b, _ in pres.generators:
                    if leq(b, d):
                        total = total + view.eval_map(b, d) @ images[b] @ pres.block(d, b)
                assert total.is_zero()

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_cokernel_endomorphisms_match_module(self, field):
        # coker P is M for an honest P, so End over either has one dimension
        rng = random.Random(1204)
        for _ in range(4):
            view = ExtendedView(random_module(field, rng, max_summands=4))
            pres = build_presentation(view, canonical_set(view.module))
            assert len(_hom_basis(pres, *_cokernel_module(pres))) == \
                len(_hom_basis(pres, view.eval_space, view.eval_map))

    def test_unequal_hom_dimensions_certify_false_over_q(self):
        # [0,1]+[0,0]+[1,2]+[2,2] against [0,2]+[0,0]+[1,1]+[2,2]: equal
        # dimensions everywhere, no exhaustive search over Q, and
        # dim Hom(a, b) = 6 against dim End(a) = 7 says no
        from helpers import interval_module

        box = Box((0,), (2,))
        a = ExtendedView(interval_module(QQ, box, [(0,), (0,), (1,), (2,)],
                                         [(2,), (1,), (3,), (3,)]))
        b = ExtendedView(interval_module(QQ, box, [(0,), (0,), (1,), (2,)],
                                         [(3,), (1,), (2,), (3,)]))
        s = canonical_set(a.module)
        assert canonical_set(b.module) == s
        for x, y in ((a, b), (b, a)):  # End(x) or End(y) differs from Hom(x, y)
            bare = dataclasses.replace(build_presentation(x, s), generator_images=None)
            assert verify_presentation(x, bare).ok is True
            check = verify_presentation(y, bare)
            assert check.ok is False and check.point is None
            assert check_encoding(y, s, encode(x, s)) is False

    @pytest.mark.parametrize("field", [QQ, linalg.PrimeField(101)], ids=["q", "f101"])
    def test_both_routes_decide_equal_dimension_pairs(self, field, monkeypatch):
        # twisted sums of intervals on a chain, paired by dimension vector:
        # no exhaustive search over these fields, yet neither route is left
        # without an answer, and the two routes agree; key-less verify
        # presents the module on its critical grid with no restriction
        from helpers import interval_module, twist_module

        def no_restrict(*args):
            raise AssertionError("restrict_view called")
        monkeypatch.setattr("detmod.grid_module.restrict_view", no_restrict)
        monkeypatch.setattr("detmod.presentation.restrict_view", no_restrict)
        rng = random.Random(1206)
        box = Box((0,), (3,))
        by_dims = {}
        for _ in range(60):
            starts = [(rng.randint(0, 3),) for _ in range(rng.randint(2, 4))]
            ends = [(g + rng.randint(1, 3),) for (g,) in starts]
            m = twist_module(interval_module(field, box, starts, ends), rng)
            by_dims.setdefault(tuple(m.dims[p] for p in box.integer_points()), []).append(m)
        verdicts = []
        for group in by_dims.values():
            for a, b in zip(group, group[1:3]):
                bare = dataclasses.replace(build_presentation(ExtendedView(a), canonical_set(a)),
                                           generator_images=None)
                ok = verify_presentation(ExtendedView(b), bare).ok
                assert ok is linalg.diagrams_isomorphic(module_diagram(a), module_diagram(b))
                verdicts.append(ok)
        assert verdicts.count(True) >= 3 and verdicts.count(False) >= 3

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_product_walk_and_restriction_give_equal_hom_dimensions(self, field):
        # key-less verify presents M by the product walk of its critical
        # grid; Hom out of that presentation, into M and into another module,
        # has the dimension it has out of the presentation of M restricted
        # to the grid
        from detmod.presentation import _presentation, _product_poset, _scan

        rng = random.Random(1207)
        nonzero = 0
        for _ in range(8):
            m = random_module(field, rng, max_summands=4)
            n = random_module(field, rng, box=m.box, max_summands=4)
            vm, vn = ExtendedView(m), ExtendedView(n)
            pres = build_presentation(vm, canonical_set(m))
            grid = critical_grid(m.box, [p for p, _ in pres.generators + pres.relations])
            walked = _presentation(field, m.box.dim, _scan(field, _product_poset(vm, grid)))
            restricted = present_diagram(restrict_view(vm, grid))
            for target in (vm, vn):
                dims = [len(_hom_basis(p, target.eval_space, target.eval_map))
                        for p in (walked, restricted)]
                assert dims[0] == dims[1], dims
                nonzero += dims[0] > 0
        assert nonzero >= 6

    def test_search_that_runs_out_is_inconclusive(self, monkeypatch):
        import detmod.presentation

        monkeypatch.setattr(detmod.presentation, "_find_isomorphism", lambda *args: None)
        view = ExtendedView(random_module(F5, random.Random(1203), max_summands=4))
        s = canonical_set(view.module)
        pres = build_presentation(view, s)
        check = verify_presentation(view, dataclasses.replace(pres, generator_images=None))
        assert check.ok is None and check.point is None and not check
        assert verify_presentation(view, pres).ok is True
        diagram = encode(view, s)
        assert linalg.diagrams_isomorphic(diagram, diagram) is True  # the identity exit

    def test_no_route_calls_nat_basis(self, monkeypatch):
        from helpers import random_invertible

        def no_nat_basis(*args):
            raise AssertionError("nat_basis called")
        monkeypatch.setattr(linalg, "nat_basis", no_nat_basis)
        rng = random.Random(1202)
        view = ExtendedView(random_module(F5, rng, max_summands=4))
        s = canonical_set(view.module)
        pres = build_presentation(view, s)
        assert verify_presentation(view, dataclasses.replace(pres, generator_images=None))
        diagram = encode(view, s)
        twist = {p: random_invertible(F5, diagram.dims[p], rng) for p in diagram.points}
        maps = {(c, d): twist[d] @ diagram.maps[(c, d)] @ solve(
                    twist[c], Matrix.identity(F5, diagram.dims[c]))
                for c, d in diagram.covers()}
        conjugated = PosetDiagram(F5, diagram.points, dict(diagram.dims), maps)
        assert any(conjugated.maps[e] != diagram.maps[e] for e in diagram.covers())
        assert check_encoding(view, s, conjugated) is True
        assert linalg.diagrams_isomorphic(conjugated, diagram) is True


class TestTrialPhase:
    """A pair of F2 modules on [0, 3] that only the trial phase of the
    isomorphism search decides.  Both have dims 1, 1, 3, 2; A steps from 1
    by (0, 1, 0) and from 2 by [[1, 0, 1], [1, 1, 0]], B by (1, 1, 0) and
    [[1, 0, 1], [0, 1, 1]].  Hom out of A's presentation into B has a basis
    of 6 maps, the greedy pass over them misses an isomorphism, and the four
    Hom dimensions agree, so the search goes on to try combinations."""

    @staticmethod
    def pair() -> tuple:
        box = Box((0,), (3,))
        dims = {(0,): 1, (1,): 1, (2,): 3, (3,): 2}

        def view(one, two):
            return ExtendedView(GridModule(F2, box, dims, {((1,), 0): Matrix(F2, one),
                                                           ((2,), 0): Matrix(F2, two)}))
        return (view([[0], [1], [0]], [[1, 0, 1], [1, 1, 0]]),
                view([[1], [1], [0]], [[1, 0, 1], [0, 1, 1]]))

    def search(self, monkeypatch, exhaustive: int, trials: int) -> tuple:
        """The key-less verify of A's presentation against B, and
        ``check_encoding`` of A's encoding against B, under these budgets,
        each with the sizes of the Hom bases it found."""
        monkeypatch.setattr(presentation_module, "EXHAUSTIVE_LIMIT", exhaustive)
        monkeypatch.setattr(presentation_module, "RANDOM_TRIALS", trials)
        sizes, hom_basis = [], _hom_basis

        def counted(*args):
            basis = hom_basis(*args)
            sizes.append(len(basis))
            return basis
        monkeypatch.setattr(presentation_module, "_hom_basis", counted)
        a, b = self.pair()
        s = canonical_set(a.module)
        assert sorted(s) == [(NEG_INF,), (1,), (2,), (3,)]
        bare = dataclasses.replace(build_presentation(a, s), generator_images=None)
        out = [verify_presentation(b, bare), list(sizes)]
        sizes.clear()
        out += [check_encoding(b, s, encode(a, s)), list(sizes)]
        return tuple(out)

    def test_the_exhaustive_phase_finds_the_isomorphism(self, monkeypatch):
        # no seeded trial: 2^6 combinations are tried, and one is an isomorphism
        check, sizes, encoded, encoded_sizes = self.search(monkeypatch, 4096, 0)
        assert check.ok is True
        assert sizes == encoded_sizes == [6, 6, 6, 6]  # the basis, then the three certificates
        assert encoded is True

    def test_seeded_trials_find_it_without_the_exhaustive_phase(self, monkeypatch):
        check, _, encoded, _ = self.search(monkeypatch, 0, 1500)
        assert check.ok is True and encoded is True

    def test_no_trials_is_inconclusive(self, monkeypatch, tmp_path, capsys):
        from detmod import io as dio
        from detmod.cli import main

        check, sizes, encoded, _ = self.search(monkeypatch, 0, 0)
        assert check.ok is None and check.point is None
        assert check.reason == "the isomorphism search ran out of trials"
        assert sizes == [6, 6, 6, 6] and encoded is None
        a, b = self.pair()
        s = canonical_set(a.module)
        files = {"b": dio.module_to_json(b.module),
                 "set": [dio.encode_point(p) for p in sorted(s)],
                 "pres": dio.presentation_to_json(build_presentation(a, s)),
                 "enc": dio.diagram_to_json(encode(a, s))}
        del files["pres"]["generator_images"]
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
        path = {name: str(tmp_path / f"{name}.json") for name in files}
        for argv in (["--presentation", path["pres"]],
                     ["--encoding", path["enc"], "--set", path["set"]]):
            code = main(["verify", path["b"]] + argv)
            out = capsys.readouterr().out
            assert code == 3 and json.loads(out)["ok"] is None


class TestFreeCoverComparison:
    def test_colimit_comparison_iso_at_critical_points_when_determined(self):
        # the induced map from the colimit over the set's downset part is an
        # isomorphism everywhere once the set determines the module
        from detmod import critical_grid, join_closure

        rng = random.Random(71)
        for _ in range(6):
            view = ExtendedView(random_module(F5, rng))
            s = canonical_set(view.module)
            closed = sorted(join_closure(s), key=lambda p: tuple(
                (0, 0) if c == NEG_INF else (1, c) for c in p))
            enc = restrict_view(view, closed)
            for c in critical_grid(view.box, s).sorted_points():
                below = [p for p in closed if leq(p, c)]
                sub = enc.restrict_downclosed(below)
                dim, inj = diagram_colimit(sub)
                legs = [view.eval_map(p, c) for p in sub.points]
                cone = hstack(F5, legs, nrows=view.eval_space(c)) if legs \
                    else Matrix.zeros(F5, view.eval_space(c), 0)
                quotient = hstack(F5, [inj[p] for p in sub.points], nrows=dim) \
                    if sub.points else Matrix.zeros(F5, dim, 0)
                lam_t = solve(quotient.transpose(), cone.transpose())
                assert lam_t is not None
                lam = lam_t.transpose()
                assert lam.nrows == lam.ncols == rank(lam), (c, lam.shape)

    def test_comparison_not_epi_when_support_escapes(self):
        view = corner_view()
        s = [(0, 0)]
        # nothing of the set lies below the bottom corner, so the colimit is
        # zero while the module value there is one: not an epimorphism
        assert view.eval_space(BOTTOM) == 1
        assert not in_upset(s, BOTTOM)


class TestThreeParameters:
    def random_module_3d(self, rng):
        from helpers import interval_module, twist_module

        a = tuple(rng.randint(-1, 0) for _ in range(3))
        b = tuple(x + rng.randint(0, 1) for x in a)
        box = Box(a, b)
        starts, ends = [], []
        for _ in range(rng.randint(1, 2)):
            g = tuple(rng.randint(box.a[i] - 1, box.b[i]) for i in range(3))
            d = tuple(rng.randint(g[i], box.b[i] + 1) for i in range(3))
            starts.append(g)
            ends.append(d)
        return twist_module(interval_module(F5, box, starts, ends), rng)

    def test_determinacy_and_roundtrip_in_three_parameters(self):
        rng = random.Random(89)
        for _ in range(5):
            module = self.random_module_3d(rng)
            view = ExtendedView(module)
            s = canonical_set(module)
            assert is_admissible(module, sorted(s))
            report_points = set(s)
            lo = tuple(a - 1 for a in view.box.a)
            hi = tuple(b + 1 for b in view.box.b)
            report_points.update(Box(lo, hi).integer_points())
            pres = build_presentation(view, s)
            assert verify_presentation(view, pres)
            assert presentation_check_at_points(view, pres, report_points)

    def test_corner_in_three_parameters(self):
        m = corner_module(F2, top=(0, 0, 0), box=Box((0, 0, 0), (1, 1, 1)))
        view = ExtendedView(m)
        s = canonical_set(m)
        pres = build_presentation(view, s)
        bottom = (NEG_INF,) * 3
        assert pres.generators == ((bottom, 1),)
        deaths = {p for p, _ in pres.relations}
        assert deaths == {(1, NEG_INF, NEG_INF), (NEG_INF, 1, NEG_INF),
                          (NEG_INF, NEG_INF, 1)}
        pts = set(s) | set(Box((-1, -1, -1), (2, 2, 2)).integer_points())
        assert verify_presentation(view, pres)
        assert presentation_check_at_points(view, pres, pts)


class TestZipUnzip:
    def test_unzip_of_point_is_upset_indicator(self):
        lattice = [(0, 0)]
        n = PosetDiagram(F2, lattice, {(0, 0): 1}, {})
        evaluator = unzip_module(lattice, n)
        assert evaluator.eval_space((1, 1)) == 1
        assert evaluator.eval_space((0, 0)) == 1
        assert evaluator.eval_space((NEG_INF, 0)) == 0
        assert evaluator.eval_space(BOTTOM) == 0

    def test_unzip_zip_recovers_worked_example(self):
        view = corner_view()
        lattice = sorted(UNIT_SET)
        evaluator = unzip_module(lattice, zip_module(view, lattice))
        for c in [BOTTOM, (0, 0), (1, 1), (-3, 5), (NEG_INF, 0), (2, 2)]:
            assert evaluator.eval_space(c) == view.eval_space(c)

    def test_unzip_support_in_upset(self):
        rng = random.Random(73)
        from detmod import join_closure
        for _ in range(10):
            view = ExtendedView(random_module(F5, rng))
            pts = join_closure({(rng.randint(-2, 2), rng.randint(-2, 2))
                                for _ in range(3)})
            if not pts:
                continue
            evaluator = unzip_module(sorted(pts), zip_module(view, sorted(pts)))
            for _ in range(10):
                c = tuple(NEG_INF if rng.random() < 0.3 else rng.randint(-4, 4)
                          for _ in range(2))
                if not in_upset(pts, c):
                    assert evaluator.eval_space(c) == 0

    def test_zip_is_the_restriction(self):
        view = corner_view()
        diagram = zip_module(view, sorted(UNIT_SET))
        assert diagram.points == (BOTTOM, (NEG_INF, 1), (1, NEG_INF), (1, 1))
        assert [diagram.dims[p] for p in diagram.points] == [1, 0, 0, 0]

    def test_zip_unzip_recovers_diagram_supported_on_lattice(self):
        view = ExtendedView(random_module(F5, random.Random(79)))
        lattice = sorted(canonical_set(view.module))
        diagram = zip_module(view, lattice)
        evaluator = unzip_module(lattice, diagram)
        again = evaluator.restrict(lattice)
        assert again.points == diagram.points
        assert again.dims == diagram.dims
        assert all(again.maps[e] == diagram.maps[e] for e in diagram.covers())

    def test_rejects_non_join_closed(self):
        with pytest.raises(InputError):
            zip_module(corner_view(), [(1, 0), (0, 1)])


class TestAdmissibility:
    def test_worked_example_lattice(self):
        assert is_admissible(corner_module(F2), sorted(UNIT_SET))

    def test_single_point_not_admissible(self):
        assert not is_admissible(corner_module(F2), [(0, 0)])

    def test_constant_module_bottom_lattice(self):
        box = Box((0, 0), (1, 1))
        dims = {p: 1 for p in box.integer_points()}
        steps = {}
        for p in box.integer_points():
            for axis in range(2):
                if p[axis] + 1 <= box.b[axis]:
                    steps[(p, axis)] = Matrix.identity(F2, 1)
        m = GridModule(F2, box, dims, steps)
        assert is_admissible(m, [BOTTOM])

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    @pytest.mark.parametrize("nparams", [1, 2, 3])
    def test_matches_reconstruction_on_seeded_instances(self, field, nparams):
        rng = random.Random(1150 * nparams + (field.p if field.kind == "prime" else 0))
        verdicts = set()
        for trial in range(24):
            module = random_module(field, rng, box=_admissibility_box(rng, nparams))
            if trial % 3 == 0:
                pts = canonical_set(module)
            else:
                pts = {random_ext_point(rng, nparams) for _ in range(rng.randint(1, 4))}
            lattice = _lattice(pts, nparams, with_bottom=trial % 2 == 0)
            verdict = is_admissible(module, lattice)
            assert verdict == admissible_by_reconstruction(module, lattice), (trial, lattice)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           field=st.sampled_from([F2, F5, QQ]),
           nparams=st.integers(1, 3),
           with_bottom=st.booleans(),
           data=st.data())
    def test_matches_reconstruction_on_hypothesis_instances(self, seed, field, nparams,
                                                            with_bottom, data):
        rng = random.Random(seed)
        module = random_module(field, rng, box=_admissibility_box(rng, nparams))
        coord = st.one_of(st.just(NEG_INF), st.integers(-2, 3))
        pts = data.draw(st.frozensets(st.tuples(*[coord] * nparams), min_size=1, max_size=4))
        lattice = _lattice(pts, nparams, with_bottom)
        assert is_admissible(module, lattice) == admissible_by_reconstruction(module, lattice)

    def test_evaluates_no_map(self, monkeypatch):
        def no_eval_map(*args):
            raise AssertionError("is_admissible evaluated a structure map")
        monkeypatch.setattr(ExtendedView, "eval_map", no_eval_map)
        rng = random.Random(1160)
        verdicts = set()
        for trial in range(12):
            nparams = 1 + trial % 3
            module = random_module(F5, rng, box=_admissibility_box(rng, nparams))
            lattice = _lattice(canonical_set(module) if trial % 2 else
                               {random_ext_point(rng, nparams) for _ in range(3)},
                               nparams, with_bottom=trial % 4 < 2)
            verdicts.add(is_admissible(module, lattice))
        assert verdicts == {True, False}

    def test_refuses_malformed_input(self):
        box = Box((0, 0), (1, 1))
        dims = {p: 1 for p in box.integer_points()}
        # (0, 0) -> (1, 0) -> (1, 1) is 1, (0, 0) -> (0, 1) -> (1, 1) a left-out zero
        bad = GridModule(F2, box, dims, {((0, 0), 0): Matrix.identity(F2, 1),
                                         ((1, 0), 1): Matrix.identity(F2, 1)})
        good = corner_module(F2)
        cases = [(bad, [(1, 1)], "module does not validate: square does not commute"),
                 (good, [(1.5, 0)], "invalid coordinate 1.5 in cartesian factor"),
                 (good, [(0, 0), (1.5, 1)],
                  "invalid coordinate 1.5; expected an integer or -inf"),
                 (good, [], "the lattice must be non-empty"),
                 (good, [(0, 1), (1, 0)], "the point set is not closed under joins"),
                 (good, [(0, 1, 2)], "lattice dimension mismatch"),
                 # the checks run in this order: join closure, module, dimension
                 (bad, [(0, 1), (1, 0)], "the point set is not closed under joins"),
                 (bad, [(0, 1, 2)], "module does not validate")]
        for module, lattice, message in cases:
            with pytest.raises(InputError) as exc:
                is_admissible(module, lattice)
            assert str(exc.value).startswith(message), (lattice, str(exc.value))


    def test_closedness_pair_by_pair_matches_the_closure(self):
        """The lattice test, pair by pair, agrees with comparing the set with
        its join closure."""
        rng = random.Random(1170)
        sets = [random_point_set(rng, 1 + trial % 3, max_size=6) for trial in range(90)]
        sets = [s for s in sets if s]
        expected = [join_closure(s) == s for s in sets]
        got = []
        for s in sets:
            try:
                got.append(_require_join_closed(s) == sorted(s))
            except InputError as exc:
                assert str(exc) == "the point set is not closed under joins"
                got.append(False)
        assert got == expected and set(expected) == {True, False}


def _admissibility_box(rng, nparams):
    width = 2 if nparams < 3 else 1
    a = tuple(rng.randint(-1, 1) for _ in range(nparams))
    return Box(a, tuple(x + rng.randint(0, width) for x in a))


def _lattice(pts, nparams, with_bottom):
    """The join closure of the points other than the bottom, with the bottom
    added or not; a lattice of one axis point when no other point is left."""
    bottom = min_point(nparams)
    closed = join_closure(set(pts) - {bottom}) or {(0,) + bottom[1:]}
    return sorted(closed | {bottom} if with_bottom else closed, key=str)


def _constant_run_modules(field, rng):
    """Seeded 2- and 3-parameter modules with slabs of identity steps.

    Interval sums twisted by a basis change at every point whose offset
    along one axis is 1 mod 3 (a slab of steps along that axis between two
    other offsets is the identity wherever no interval starts or ends), and
    untwisted interval sums, two of which span the whole box: products of
    identity chains, every step the identity.
    """
    for nparams in (2, 3):
        side = 5 if nparams == 2 else 3
        for trial in range(4):
            a = tuple(rng.randint(-1, 1) for _ in range(nparams))
            box = Box(a, tuple(x + side for x in a))
            starts = [tuple(rng.randint(lo, hi) for lo, hi in zip(a, box.b))
                      for _ in range(rng.randint(1, 3))]
            ends = [tuple(rng.randint(x + 1, hi + 1) for x, hi in zip(g, box.b))
                    for g in starts]
            module = interval_module(field, box, starts, ends)
            if trial % 2:
                axis = trial % nparams
                module = twist_module(module, rng,
                                      keep=lambda p, axis=axis: (p[axis] - a[axis]) % 3 != 1)
            yield module
        top = tuple(x + side + 1 for x in a)
        yield interval_module(field, box, [a] * (1 + nparams % 2), [top] * (1 + nparams % 2))


class TestConstantRuns:
    """The product walk leaves out every coordinate whose slab of steps is
    all identities, and what it reads off is that of the walk that keeps
    them: the identity flags of the module patched to ``False`` leave out
    only coordinates that clamp alike, as before."""

    @staticmethod
    def read_off(view, s, presentations):
        walked = [0]
        walk = presentation_module._walk

        def counted(*args):
            for visit in walk(*args):
                walked[0] += 1
                yield visit
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(presentation_module, "_walk", counted)
            report = births_deaths(view, s)
            built = build_presentation(view, s)
            checks = [verify_presentation(view, p) for p in presentations]
        return (report, built, checks), walked[0]

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_same_as_the_walk_without_the_drop(self, field, monkeypatch):
        rng = random.Random(2502 + (field.p if field.kind == "prime" else 0))
        walked = {"drop": 0, "kept": 0}
        failing = 0
        for module in _constant_run_modules(field, rng):
            view = ExtendedView(module)
            s = canonical_grid(module)
            pres = build_presentation(view, s)
            presentations = [pres, _add_stray_generator(view, pres, rng)[1]]
            presentations += [c for c in (corrupt(view, pres, rng)
                                          for corrupt in CORRUPTIONS.values()) if c is not None]
            got, walked_drop = self.read_off(view, s, presentations)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(GridModule, "identity_runs", lambda module: [
                    list(range(hi - lo + 1)) for lo, hi in zip(module.box.a, module.box.b)])
                mp.setattr(GridModule, "identities", property(lambda module: set()))
                expected, walked_kept = self.read_off(view, s, presentations)
            assert got == expected
            assert got[0] == births_deaths(view, canonical_set(module))
            assert got[2][0].ok and not got[2][1].ok  # the presentation, and a stray generator
            walked["drop"] += walked_drop
            walked["kept"] += walked_kept
            failing += sum(not check.ok for check in got[2])
        assert walked["drop"] < walked["kept"] // 2, walked
        assert failing

    def test_a_chain_walks_one_point(self, tmp_path):
        """births-deaths on the 80-point identity chain walks its bottom point only."""
        from detmod import io as dio
        from detmod.cli import main
        path, out = tmp_path / "chain.json", tmp_path / "report.json"
        box = Box((0,), (79,))
        path.write_text(json.dumps(dio.module_to_json(
            interval_module(F2, box, [(0,)], [(80,)]))), encoding="utf-8")
        visits = []
        walk = presentation_module._walk

        def recorded(*args):
            for visit in walk(*args):
                visits.append(visit[0])
                yield visit
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(presentation_module, "_walk", recorded)
            assert main(["births-deaths", str(path), "--out", str(out)]) == 0
        assert visits == [(NEG_INF,)]
        assert json.loads(out.read_text()) == {
            "births": [{"multiplicity": 1, "point": ["-inf"]}], "deaths": []}
