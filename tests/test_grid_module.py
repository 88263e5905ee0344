"""Grid modules, their extended semantics, and window diagrams."""

import random
from fractions import Fraction

import pytest

from detmod import (Box, ExtendedView, GridModule, InputError, Matrix,
                    NEG_INF, QQ, canonical_set, ext_box, is_invertible,
                    pointed_closure, poset_covers, restrict_view, sort_points,
                    validate_diagram, validate_module, window_module)
from detmod.io import matrix_to_json, module_from_json, module_to_json
from helpers import (F2, F5, corner_module, diagram_limit, every_step, halfplane_table,
                     module_diagram, path_commutativity_ok, random_module,
                     stabilization_window, unzip_module, validate_by_products,
                     validate_module_by_diagram)

BOTTOM = (NEG_INF, NEG_INF)


class TestValidation:
    def test_corner_module_validates(self):
        assert validate_module(corner_module(F2)).ok

    def test_noncommuting_square_reported(self):
        box = Box((0, 0), (1, 1))
        dims = {p: 1 for p in box.integer_points()}
        steps = {
            ((0, 0), 0): Matrix.identity(F2, 1),
            ((0, 0), 1): Matrix.identity(F2, 1),
            ((1, 0), 1): Matrix.identity(F2, 1),
            ((0, 1), 0): Matrix.zeros(F2, 1, 1),
        }
        check = validate_module(GridModule(F2, box, dims, steps))
        assert not check.ok

    def test_shape_mismatch_reported(self):
        box = Box((0,), (1,))
        check = validate_module(GridModule(F2, box, {(0,): 1, (1,): 2},
                                           {((0,), 0): Matrix.identity(F2, 1)}))
        assert not check.ok
        assert "shape" in check.message

    def test_random_commutative_module_passes(self):
        rng = random.Random(5)
        for _ in range(10):
            assert validate_module(random_module(F5, rng)).ok

    def test_dims_must_cover_box(self):
        with pytest.raises(InputError):
            GridModule(F2, Box((0, 0), (1, 1)), {(0, 0): 1}, {})


def _random_box(rng, nparams):
    side = {1: 4, 2: 2, 3: 1}[nparams]
    a = tuple(rng.randint(-1, 1) for _ in range(nparams))
    return Box(a, tuple(x + rng.randint(1, side) for x in a))


def _random_matrix(field, nrows, ncols, rng):
    pool = range(field.p) if field.kind == "prime" else range(-2, 3)
    return Matrix(field, [[rng.choice(pool) for _ in range(ncols)] for _ in range(nrows)],
                  ncols=ncols)


def _module_variants(module, rng):
    """The module with every step given, with its zero steps left out, and
    copies of the latter with one step replaced or left out at random."""
    every = every_step(module)
    given = {k: m for k, m in every.items() if not m.is_zero()}
    variants = [every, given]
    for key in rng.sample(sorted(every), min(3, len(every))):
        shape = every[key].shape
        variants.append({**given, key: _random_matrix(module.field, *shape, rng)})
    if given:
        dropped = rng.choice(sorted(given))
        variants.append({k: m for k, m in given.items() if k != dropped})
    return [GridModule(module.field, module.box, dict(module.dims), steps)
            for steps in variants]


class TestValidateModuleRoutes:
    """The unit-square walk against the poset-diagram route and path enumeration."""

    @pytest.mark.parametrize("field,seed", [(F2, 11), (F5, 13), (QQ, 17)],
                             ids=["f2", "f5", "q"])
    @pytest.mark.parametrize("nparams", [1, 2, 3])
    def test_agrees_with_diagram_route_and_paths(self, field, seed, nparams):
        rng = random.Random(100 * nparams + seed)
        verdicts = set()
        for _ in range(30):
            base = random_module(field, rng, box=_random_box(rng, nparams))
            for module in _module_variants(base, rng):
                fast = validate_module(module)
                module._validated = None
                slow = validate_module_by_diagram(module)
                assert fast == slow
                assert fast.ok == path_commutativity_ok(module_diagram(module))
                verdicts.add(fast.ok)
        assert verdicts == ({True} if nparams == 1 else {True, False})

    def test_builds_no_poset_diagram(self, monkeypatch):
        import detmod.grid_module as grid_module
        import detmod.linalg as linalg

        def forbidden(*args, **kwargs):
            raise AssertionError("validate_module went through a poset diagram")

        rng = random.Random(7)
        modules = []
        for field in (F2, F5, QQ):
            for _ in range(4):
                base = random_module(field, rng, box=_random_box(rng, 2))
                modules.extend(_module_variants(base, rng))
        with monkeypatch.context() as m:
            m.setattr(linalg.PosetDiagram, "__init__", forbidden)
            m.setattr(linalg, "validate_diagram", forbidden)
            m.setattr(grid_module, "validate_diagram", forbidden)
            verdicts = {validate_module(module).ok for module in modules}
        assert verdicts == {True, False}

    def test_squares_through_left_out_steps_form_no_product(self, monkeypatch):
        # steps along axis 1 are given, those along axis 2 are left out, so
        # both composites of every unit square pass through a left-out step
        box = Box((0, 0), (2, 2))
        steps = {(p, 0): Matrix.identity(F5, 1) for p in box.integer_points() if p[0] < 2}
        module = GridModule(F5, box, {p: 1 for p in box.integer_points()}, steps)

        def forbidden(self, other):
            raise AssertionError("a matrix product was formed")

        monkeypatch.setattr(Matrix, "__matmul__", forbidden)
        assert validate_module(module).ok

    def test_left_out_steps_share_one_zero_per_shape(self):
        module = corner_module(F2, top=(1, 1), box=Box((0, 0), (3, 3)))
        zeros = {}
        for mat in every_step(module).values():
            assert mat.is_zero()
            assert zeros.setdefault(mat.shape, mat) is mat


def _perturbed(module, rng):
    """Copies of the module with one entry of one given step changed."""
    field = module.field
    every = every_step(module)
    keys = [k for k, m in every.items() if m.nrows and m.ncols]
    out = []
    for key in rng.sample(keys, min(3, len(keys))):
        rows = [list(r) for r in every[key].rows]
        r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        if field.kind == "prime":
            rows[r][c] = (rows[r][c] + rng.randrange(1, field.p)) % field.p
        else:
            rows[r][c] += Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 3]))
        steps = {**every, key: Matrix(field, rows, ncols=len(rows[0]))}
        out.append(GridModule(field, module.box, dict(module.dims), steps))
    return out


def _unit_square(field, dims, c_j, up_i, c_i, up_j):
    """The 2 x 2 box with the given dimensions at (0,0), (0,1), (1,0), (1,1)
    and every step given: (0,0) -> (0,1) -> (1,1) is up_i @ c_j and
    (0,0) -> (1,0) -> (1,1) is up_j @ c_i."""
    box = Box((0, 0), (1, 1))
    steps = {((0, 0), 1): c_j, ((0, 1), 0): up_i, ((0, 0), 0): c_i, ((1, 0), 1): up_j}
    steps = {k: m if isinstance(m, Matrix) else Matrix(field, m, ncols=len(m[0]))
             for k, m in steps.items()}
    return GridModule(field, box, dict(zip(box.integer_points(), dims)), steps)


SQUARE = ((0, 0), (0, 1), (1, 0), (1, 1))


class TestValidateMatchesProducts:
    """validate_module, which multiplies rows, against ``validate_by_products``,
    which multiplies matrices: the same verdict and the same square."""

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    @pytest.mark.parametrize("nparams", [1, 2, 3])
    def test_perturbed_modules(self, field, nparams):
        rng = random.Random(700 * nparams + (field.p if field.kind == "prime" else 0))
        verdicts = set()
        for _ in range(25):
            base = random_module(field, rng, box=_random_box(rng, nparams), max_summands=4)
            for module in [base] + _perturbed(base, rng) + _module_variants(base, rng):
                fast = validate_module(module)
                assert fast == validate_by_products(module)
                verdicts.add(fast.ok)
        assert verdicts == ({True} if nparams == 1 else {True, False})

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_square_through_a_zero_dimensional_corner(self, field):
        """Steps into and out of the zero space at (1, 0) given explicitly, so
        that route is the zero map although no shared zero is on it."""
        one = Matrix.identity(field, 1)
        into, out_of = Matrix.zeros(field, 0, 1), Matrix.zeros(field, 1, 0)
        for up_i, ok in ((one, False), (Matrix.zeros(field, 1, 1), True)):
            module = _unit_square(field, (1, 1, 0, 1), one, up_i, into, out_of)
            check = validate_module(module)
            assert check == validate_by_products(module)
            assert check.ok is ok and check.square == (None if ok else SQUARE)
        # both routes through zero spaces
        module = _unit_square(field, (1, 0, 0, 1), into, out_of, into, out_of)
        assert validate_module(module).ok

    def test_products_equal_only_mod_p(self):
        """2 * 3 = 6 against 1 * 1 = 1 over F5: equal in the field, not as integers."""
        module = _unit_square(F5, (1, 1, 1, 1), [[2]], [[3]], [[1]], [[1]])
        assert validate_module(module).ok and validate_by_products(module).ok
        module = _unit_square(F5, (1, 1, 1, 1), [[2]], [[3]], [[1]], [[2]])
        assert validate_module(module) == validate_by_products(module)
        assert validate_module(module).square == SQUARE
        # 2 x 2 blocks whose products differ by 5 and 10 in two entries
        module = _unit_square(F5, (2, 2, 2, 2), [[1, 2], [3, 4]], [[4, 4], [1, 0]],
                              [[1, 2], [3, 4]], [[4, 4], [1, 0]])
        assert validate_module(module).ok
        module = _unit_square(F5, (2, 2, 2, 2), [[1, 2], [3, 4]], [[4, 4], [1, 0]],
                              [[1, 2], [3, 4]], [[4, 4], [1, 1]])
        assert not validate_module(module).ok

    def test_rational_sides_cross_multiplied(self):
        """1/2 * 4 against 2/3 * 3: both 2, over different denominators."""
        half, third = Fraction(1, 2), Fraction(2, 3)
        module = _unit_square(QQ, (1, 1, 1, 1), [[half]], [[4]], [[third]], [[3]])
        assert validate_module(module).ok and validate_by_products(module).ok
        module = _unit_square(QQ, (1, 1, 1, 1), [[half]], [[4]], [[third]], [["7/2"]])
        assert not validate_module(module).ok

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    @pytest.mark.parametrize("nparams", [2, 3])
    def test_module_files_with_steps_left_out_or_zero(self, field, nparams):
        """Each module and its perturbations loaded from two files: one that
        leaves its zero steps out, as ``module_to_json`` writes it, and one
        that gives every step, zeros explicit.  Both validate as the oracle
        says, and every step reads the same from either and from the module."""
        rng = random.Random(610 * nparams + (field.p if field.kind == "prime" else 0))
        verdicts, left_out = set(), 0
        for _ in range(12):
            base = random_module(field, rng, box=_random_box(rng, nparams), max_summands=4)
            for module in [base] + _perturbed(base, rng):
                sparse = module_to_json(module)
                dense = dict(sparse, maps=[
                    {"from": list(p), "axis": axis + 1, "matrix": matrix_to_json(m)}
                    for (p, axis), m in sorted(every_step(module).items())])
                loaded = [module_from_json(obj) for obj in (sparse, dense)]
                assert len(loaded[1].steps) == len(every_step(module))
                left_out += len(loaded[1].steps) - len(loaded[0].steps)
                for m in loaded:
                    fast, slow = validate_module(m), validate_by_products(m)
                    assert (fast.ok, fast.message, fast.square) == \
                        (slow.ok, slow.message, slow.square)
                    verdicts.add(fast.ok)
                for (p, axis), step in every_step(module).items():
                    assert loaded[0].step(p, axis) == loaded[1].step(p, axis) == step
        assert verdicts == {True, False} and left_out

    def test_makes_no_matrix_product(self, monkeypatch):
        rng = random.Random(23)
        modules = []
        for field in (F2, F5, QQ):
            for nparams in (2, 3):
                base = random_module(field, rng, box=_random_box(rng, nparams), max_summands=4)
                modules += [base] + _perturbed(base, rng)

        def forbidden(self, other):
            raise AssertionError("validate_module formed a Matrix product")
        monkeypatch.setattr(Matrix, "__matmul__", forbidden)
        assert {validate_module(module).ok for module in modules} == {True, False}


class TestEvalSpace:
    def test_worked_example_values(self):
        view = ExtendedView(corner_module(F2))
        assert view.eval_space(BOTTOM) == 1
        assert view.eval_space((1, NEG_INF)) == 0
        assert view.eval_space((NEG_INF, 0)) == 1
        assert view.eval_space((NEG_INF, 1)) == 0

    def test_clamp_identity_inside_box(self):
        view = ExtendedView(corner_module(F2))
        for c in view.box.integer_points():
            assert view.eval_space(c) == view.module.dims[c]

    def test_clamp_idempotence(self):
        rng = random.Random(9)
        view = ExtendedView(random_module(F5, rng))
        grid = ext_box(Box(tuple(a - 2 for a in view.box.a),
                           tuple(b + 2 for b in view.box.b)))
        for c in grid.points():
            assert view.eval_space(c) == view.eval_space(view.clamp(c))


class TestLimitOracle:
    def test_extension_agrees_with_limit(self):
        rng = random.Random(13)
        for _ in range(25):
            view = ExtendedView(random_module(F5, rng))
            for _ in range(4):
                c = tuple(NEG_INF if rng.random() < 0.4 else rng.randint(-4, 4)
                          for _ in range(view.box.dim))
                window = stabilization_window(view, c)
                diagram = restrict_view(view, window.cartesian())
                dim, _ = diagram_limit(diagram)
                assert dim == view.eval_space(c), (c, view.box)

    def test_worked_example_bottom_corner(self):
        view = ExtendedView(corner_module(F2))
        window = stabilization_window(view, BOTTOM)
        dim, _ = diagram_limit(restrict_view(view, window.cartesian()))
        assert dim == 1 == view.eval_space(BOTTOM)


class TestEvalMap:
    def test_identity_on_equal_points(self):
        view = ExtendedView(corner_module(F2))
        assert view.eval_map((0, 0), (0, 0)) == Matrix.identity(F2, 1)

    def test_worked_example_bottom_to_origin(self):
        view = ExtendedView(corner_module(F2))
        assert view.eval_map(BOTTOM, (0, 0)) == Matrix.identity(F2, 1)

    def test_requires_comparable_points(self):
        view = ExtendedView(corner_module(F2))
        with pytest.raises(InputError):
            view.eval_map((1, 0), (0, 1))

    def test_functoriality_on_random_triples(self):
        rng = random.Random(17)
        for _ in range(10)              :
            view = ExtendedView(random_module(F5, rng))
            for _ in range(10):
                base = tuple(NEG_INF if rng.random() < 0.3 else rng.randint(-3, 3)
                             for _ in range(view.box.dim))
                mid = tuple(v if v != NEG_INF and rng.random() < 0.5 else
                            (rng.randint(int(v) if v != NEG_INF else -3, 4))
                            for v in base)
                mid = tuple(max(m, b) for m, b in zip(mid, base))
                top = tuple(int(m) + rng.randint(0, 3) for m in mid)
                left = view.eval_map(mid, top) @ view.eval_map(base, mid)
                assert left == view.eval_map(base, top)

    def test_unit_cover_returns_the_stored_step(self, monkeypatch):
        module = random_module(F5, random.Random(29), box=Box((0, 0), (2, 2)))
        view = ExtendedView(module)
        products = []
        matmul = Matrix.__matmul__

        def counted(self, other):
            products.append(other.shape)
            return matmul(self, other)
        monkeypatch.setattr(Matrix, "__matmul__", counted)
        for (p, axis), step in every_step(module).items():
            assert view.eval_map(p, module._step_target(p, axis)) is step
        below = (NEG_INF, 0)  # clamps onto (0, 0), one step below (1, 0)
        assert view.eval_map(below, (1, 0)) is module.step((0, 0), 0)
        assert products == []
        assert view.eval_map((0, 0), (2, 0)) == \
            module.step((1, 0), 0) @ module.step((0, 0), 0)
        assert len(products) == 2

    def test_iso_when_clamps_agree(self):
        rng = random.Random(19)
        view = ExtendedView(random_module(F5, rng))
        a = view.box.a
        below = tuple(x - 3 for x in a)
        deeper = tuple(x - 1 for x in a)
        assert view.clamp(below) == view.clamp(deeper)
        assert is_invertible(view.eval_map(below, deeper))


class TestRestrictDiagram:
    def test_worked_example_restriction(self):
        view = ExtendedView(corner_module(F2))
        diagram = restrict_view(view, ext_box(Box((1, 1), (1, 1))).points())
        assert [diagram.dims[p] for p in diagram.points] == [1, 0, 0, 0]
        assert diagram.points[0] == BOTTOM

    def test_single_point(self):
        view = ExtendedView(corner_module(F2))
        diagram = restrict_view(view, [(0, 0)])
        assert diagram.points == ((0, 0),)
        assert diagram.dims[(0, 0)] == 1

    def test_restrictions_always_validate(self):
        rng = random.Random(23)
        for _ in range(10):
            view = ExtendedView(random_module(F5, rng))
            pts = {tuple(NEG_INF if rng.random() < 0.3 else rng.randint(-3, 3)
                         for _ in range(view.box.dim)) for _ in range(6)}
            diagram = restrict_view(view, pts)
            assert diagram._validated is True
            diagram._validated = None  # check the squares, not the inherited flag
            assert validate_diagram(diagram).ok

    def test_cartesian_fast_path_matches_generic(self, monkeypatch):
        import detmod.grid_module as grid_module

        view = ExtendedView(corner_module(F2))
        cart = ext_box(Box((0, 0), (1, 1)))
        pts = sort_points(cart.points())
        generic = poset_covers(pts)
        with monkeypatch.context() as m:
            m.setattr(grid_module, "poset_covers", None)
            for points in (cart, cart.points(), list(reversed(pts))):
                fast = restrict_view(view, points)
                assert list(fast.points) == pts
                assert fast.dims == {p: view.eval_space(p) for p in pts}
                assert set(fast.covers()) == set(generic)
                assert all(fast.maps[e] == view.eval_map(*e) for e in generic)

    def test_sparse_set_does_not_build_its_product(self, monkeypatch):
        import detmod.grid_module as grid_module

        view = ExtendedView(corner_module(F2))
        # a chain: its coordinate sets span a product of 40**2 points
        chain = [(i, i) for i in range(40)]
        with monkeypatch.context() as m:
            m.setattr(grid_module.CartesianSet, "points", None)
            diagram = restrict_view(view, chain)
        assert sorted(diagram.covers()) == [(chain[i], chain[i + 1]) for i in range(39)]

    def test_encoded_view_restriction_matches_evaluation(self):
        rng = random.Random(41)
        for _ in range(6):
            view = ExtendedView(random_module(F5, rng))
            lattice = pointed_closure(canonical_set(view.module))
            enc = unzip_module(lattice, restrict_view(view, lattice))
            pts = {tuple(NEG_INF if rng.random() < 0.3 else rng.randint(-3, 3)
                         for _ in range(view.box.dim)) for _ in range(6)}
            diagram = enc.restrict(pts)
            assert diagram.dims == {p: enc.eval_space(p) for p in diagram.points}
            assert all(diagram.maps[e] == enc.eval_map(*e) for e in diagram.covers())


class TestIdentitySteps:
    """Whether a step is the identity is decided once from its stored rows,
    alike for modules from the loader and from ``GridModule.__init__``."""

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["F2", "F5", "Q"])
    def test_identity_steps_match_matrices(self, field):
        rng = random.Random(31)
        for _ in range(20):
            module = random_module(field, rng, twist=rng.random() < 0.5)
            every = every_step(module)
            expected = {e for e, m in every.items() if m.is_identity()}
            for built in (module, GridModule(field, module.box, dict(module.dims), every),
                          module_from_json(module_to_json(module))):
                assert {e for e in every if built.is_identity_step(*e)} == expected
                assert built.identities == {key for key in built.step_rows
                                            if built.flat_step(key).is_identity()}

    def test_shape_and_denominator_decide(self):
        # dims 2, 2, 1, 0, 0 on a chain: I2, then [1 0] (not square), then
        # 1 -> 0 and a left-out 0 -> 0 (the 0 x 0 identity)
        steps = {((0,), 0): Matrix(QQ, [[1, 0], [0, 1]]),
                 ((1,), 0): Matrix(QQ, [[1, 0]]),
                 ((2,), 0): Matrix.zeros(QQ, 0, 1)}
        box = Box((0,), (4,))
        dims = dict(zip(box.integer_points(), [2, 2, 1, 0, 0]))
        module = GridModule(QQ, box, dims, steps)
        obj = module_to_json(module)
        obj["maps"][0]["matrix"] = [["2/2", "0/3"], [0, "7/7"]]
        halves = module_to_json(module)
        halves["maps"][0]["matrix"] = [["1/2", 0], [0, "1/2"]]
        for built, first in ((module, True), (module_from_json(obj), True),
                             (module_from_json(halves), False)):
            assert [built.is_identity_step((t,), 0) for t in range(4)] == \
                [first, False, False, True]


class TestWindowModule:
    def test_halfplane_dims(self):
        diagram = window_module(F2, Box((-3, -3), (3, 3)), halfplane_table)
        assert diagram.dims[(-1, 0)] == 1
        assert diagram.dims[(0, 0)] == 0
        assert diagram.dims[(NEG_INF, 3)] == 1
        assert diagram.dims[BOTTOM] == 1
        assert validate_diagram(diagram).ok

    def test_zero_table(self):
        diagram = window_module(F2, Box((0, 0), (1, 1)), lambda p: 0)
        assert all(d == 0 for d in diagram.dims.values())

    def test_without_bottom_faces(self):
        diagram = window_module(F2, Box((0, 0), (1, 1)), lambda p: 1,
                                include_bottom_faces=False)
        assert all(c != NEG_INF for p in diagram.points for c in p)

    def test_rejects_non_functorial_table(self):
        # a bump at one corner: the square through it composes to zero while
        # the other path is an identity, so the table cannot be a functor
        with pytest.raises(InputError):
            window_module(F2, Box((0, 0), (1, 1)),
                          lambda p: 2 if p == (1, 0) else 1,
                          include_bottom_faces=False)
