"""Exact matrix algebra and diagram (co)limits."""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmod import (Box, CartesianSet, DiagramCheck, InputError, Matrix, NEG_INF,
                    PosetDiagram, PrimeField, QQ, RationalField, cokernel_projection,
                    diagrams_isomorphic, hstack, is_invertible, join_closure, kernel_basis,
                    leq, pointed_closure, poset_covers, rank, restrict_view, solve,
                    validate_diagram)
from detmod.linalg import diagram_colimit, nat_basis
from helpers import (F2, F5, all_cover_paths, canonical_set, diagram_limit,
                     echelon_by_field_methods,
                     matmul_by_field_methods, minimal_squares_commute,
                     module_diagram, path_commutativity_ok, poset_covers_bruteforce,
                     poset_covers_by_scan,
                     random_invertible, random_module, random_point_set)
from detmod import linalg
from detmod.extgrid import as_product

FIELDS = [F2, F5, QQ]
# with a prime above 5, as the elimination scales each pivot row by the pivot's inverse
KERNEL_FIELDS = [F2, F5, PrimeField(7), QQ]
KERNEL_IDS = ["f2", "f5", "f7", "q"]


def random_matrix(field, nrows, ncols, rng):
    pool = range(field.p) if field.kind == "prime" else range(-3, 4)
    return Matrix(field, [[field.coerce(rng.choice(pool)) for _ in range(ncols)]
                          for _ in range(nrows)], ncols=ncols)


@st.composite
def matrices(draw, field):
    nrows = draw(st.integers(0, 4))
    ncols = draw(st.integers(0, 4))
    entries = draw(st.lists(st.integers(-6, 6), min_size=nrows * ncols,
                            max_size=nrows * ncols))
    rows = [[field.coerce(entries[i * ncols + j]) for j in range(ncols)]
            for i in range(nrows)]
    return Matrix(field, rows, ncols=ncols)


class TestElimination:
    def test_rank_identity(self):
        assert rank(Matrix.identity(F2, 3)) == 3

    def test_kernel_forced_over_f2(self):
        k = kernel_basis(Matrix(F2, [[1, 1]]))
        assert k.shape == (2, 1)
        assert k.column(0) == (1, 1)

    def test_solve_reproduces_constructed_solution(self):
        rng = random.Random(7)
        a = random_invertible(QQ, 4, rng)
        x = random_matrix(QQ, 4, 2, rng)
        b = a @ x
        got = solve(a, b)
        assert got == x

    def test_solve_detects_inconsistency(self):
        a = Matrix(QQ, [[1, 0], [1, 0]])
        b = Matrix(QQ, [[1], [2]])
        assert solve(a, b) is None

    def test_rational_entries_stay_exact(self):
        a = Matrix(QQ, [["1/3", 1], [0, "2/7"]])
        assert a.entries()[0][0] == Fraction(1, 3)
        assert (a.rows, a.den) == (((7, 21), (0, 6)), 21)
        assert is_invertible(a)

    @pytest.mark.parametrize("field", FIELDS)
    def test_rank_plus_nullity(self, field):
        rng = random.Random(11)
        for _ in range(25):
            m = random_matrix(field, rng.randint(0, 4), rng.randint(0, 4), rng)
            assert rank(m) + kernel_basis(m).ncols == m.ncols

    @pytest.mark.parametrize("field", FIELDS)
    def test_cokernel_projection_contract(self, field):
        rng = random.Random(13)
        for _ in range(25):
            m = random_matrix(field, rng.randint(0, 4), rng.randint(0, 4), rng)
            q = cokernel_projection(m)
            assert q.nrows == m.nrows - rank(m)
            assert rank(q) == q.nrows
            assert (q @ m).is_zero()

    def test_kernel_columns_annihilated(self):
        rng = random.Random(17)
        for _ in range(25):
            m = random_matrix(F5, rng.randint(1, 4), rng.randint(1, 4), rng)
            k = kernel_basis(m)
            assert (m @ k).is_zero()
            assert rank(k) == k.ncols

    @given(matrices(F5))
    def test_rank_nullity_property_f5(self, m):
        assert rank(m) + kernel_basis(m).ncols == m.ncols

    @given(matrices(QQ))
    def test_rank_nullity_property_rationals(self, m):
        assert rank(m) + kernel_basis(m).ncols == m.ncols

    @given(matrices(F2))
    def test_kernel_and_cokernel_contracts_f2(self, m):
        k = kernel_basis(m)
        q = cokernel_projection(m)
        assert (m @ k).is_zero()
        assert (q @ m).is_zero()
        assert rank(q) == q.nrows == m.nrows - rank(m)

    @given(matrices(F5))
    def test_solve_found_solutions_check_out(self, m):
        rhs = m @ Matrix.identity(F5, m.ncols)
        x = solve(m, rhs)
        assert x is not None
        assert m @ x == rhs

    def test_empty_shapes(self):
        tall = Matrix.zeros(F2, 3, 0)
        wide = Matrix.zeros(F2, 0, 3)
        assert rank(tall) == 0 and rank(wide) == 0
        assert kernel_basis(tall).shape == (0, 0)
        assert kernel_basis(wide).shape == (3, 3)
        assert cokernel_projection(tall).shape == (3, 3)
        assert cokernel_projection(wide).shape == (0, 0)
        assert (tall @ Matrix.zeros(F2, 0, 5)).shape == (3, 5)
        assert is_invertible(Matrix.zeros(F2, 0, 0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError):
            Matrix(F2, [[1, 0]]) @ Matrix(F2, [[1, 0]])
        with pytest.raises(InputError):
            solve(Matrix(F2, [[1]]), Matrix(F2, [[1], [0]]))

    def test_internal_rows_kept_and_widths_checked(self):
        """``_of_rows`` keeps a tuple row as the same object and makes a
        tuple of any other row; ``Matrix`` coerces and checks the widths."""
        row = (1, 2)
        internal = Matrix._of_rows(F5, [row, [3, 4]], 2)
        assert internal.rows == ((1, 2), (3, 4)) and internal.rows[0] is row
        assert type(internal.rows[1]) is tuple and internal.shape == (2, 2)
        assert Matrix(F5, [[6, -1]]).rows == ((1, 4),)
        half = Matrix(QQ, [[1, "1/2"]])
        assert half.entries() == ((Fraction(1), Fraction(1, 2)),)
        assert (half.rows, half.den) == (((2, 1),), 2)
        with pytest.raises(InputError, match="ragged"):
            Matrix(F5, [(1, 2), (3,)])
        with pytest.raises(InputError, match="expected 3"):
            Matrix(F5, [(1, 2)], ncols=3)

    def test_rational_field_is_one_value(self):
        assert RationalField() == QQ and hash(RationalField()) == hash(QQ)
        assert repr(QQ) == "RationalField()"
        assert QQ != PrimeField(2) and PrimeField(2) != QQ
        assert len({QQ, RationalField(), PrimeField(2), F2}) == 2

    @pytest.mark.parametrize("field", FIELDS, ids=["f2", "f5", "q"])
    def test_is_identity(self, field):
        assert Matrix.identity(field, 0).is_identity()
        assert Matrix.identity(field, 3).is_identity()
        assert not Matrix.zeros(field, 2, 2).is_identity()
        assert not Matrix.zeros(field, 2, 0).is_identity()
        assert not Matrix(field, [[1, 1], [0, 1]]).is_identity()
        assert not Matrix(field, [[0, 1], [1, 0]]).is_identity()
        assert not Matrix(field, [[1, 0]]).is_identity()


def kernel_matrix(rng, field, nrows, ncols, rank_at_most=None, big=False):
    """A seeded matrix for the kernel comparison: a product through an inner
    dimension (so ranks below both sides are common), with some rows and
    columns zeroed; over Q with denominators up to 10^6 when ``big``."""
    def entry():
        if field.kind == "prime":
            return rng.randrange(field.p)
        den = rng.randint(1, 10 ** 6) if big else rng.randint(1, 4)
        return Fraction(rng.randint(-10 ** 6 if big else -4, 10 ** 6 if big else 4), den)
    inner = rng.randint(0, max(nrows, ncols)) if rank_at_most is None else rank_at_most
    a = Matrix(field, [[entry() for _ in range(inner)] for _ in range(nrows)], ncols=inner)
    b = Matrix(field, [[entry() for _ in range(ncols)] for _ in range(inner)], ncols=ncols)
    rows = [list(r) for r in matmul_by_field_methods(a, b).entries()]
    for i in range(nrows):
        if rng.random() < 0.15:
            rows[i] = [field.zero] * ncols
    for j in range(ncols):
        if rng.random() < 0.15:
            for r in rows:
                r[j] = field.zero
    return Matrix(field, rows, ncols=ncols)


@st.composite
def kernel_inputs(draw):
    """Two multipliable matrices over F2, F5 or Q, 0 to 5 on each side, with
    rational denominators up to 10^6; shapes 0 x k and k x 0 included."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))
    entry = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6)) \
        if field.kind == "rational" else st.integers(0, field.p - 1)
    entry = st.one_of(st.just(field.zero), entry)

    def block(r, c):
        return Matrix(field, [[draw(entry) for _ in range(c)] for _ in range(r)], ncols=c)
    return block(n, k), block(k, m)


def in_normal_form(m: Matrix) -> bool:
    """Whether ``m`` holds integer rows over a positive denominator in
    lowest terms: residues over 1 on F_p; on Q the gcd of ``den`` and every
    entry 1, so 1 for the zero matrix."""
    values = [x for r in m.rows for x in r]
    if not all(type(x) is int for x in values) or type(m.den) is not int:
        return False
    if m.field.kind == "prime":
        return m.den == 1 and all(0 <= x < m.field.p for x in values)
    return m.den >= 1 and math.gcd(m.den, *values) == 1


def echelon_in_integer_form(field, rows, ncols, pivot_limit=None, reduce=True) -> tuple:
    """``linalg._echelon``'s result made by :func:`echelon_by_field_methods`
    on the integer rows read as field elements: with ``reduce`` the rows in
    the integer form of a matrix over their denominator, where every row of
    the rank has its pivot equal to it."""
    rows, pivots = echelon_by_field_methods(field, [list(map(field.coerce, r)) for r in rows],
                                            ncols, pivot_limit, reduce)
    if not reduce:
        return None, pivots, 1
    m = Matrix(field, rows, ncols=ncols)
    return [list(r) for r in m.rows], pivots, m.den


def _is_multiple(field, u, v) -> bool:
    """Whether u is a non-zero multiple of v (both zero counts)."""
    zero = field.zero
    if [x != zero for x in u] != [y != zero for y in v]:
        return False
    j = next((j for j, y in enumerate(v) if y != zero), None)
    return j is None or all(field.sub(field.mul(x, v[j]), field.mul(u[j], y)) == zero
                            for x, y in zip(u, v))


class TestIntegerRowKernel:
    """The elimination in both modes, the kernels and solutions built on its
    reduced mode, and the product on integer rows agree with the same
    computations by field methods (``tests/helpers.py``)."""

    @staticmethod
    def assert_agrees(a, b):
        field = a.field
        product = matmul_by_field_methods(a, b)
        for m in (a, b, product):
            expected = echelon_by_field_methods(field, m.entries(), m.ncols)[1]
            assert linalg.pivot_columns(field, m.rows, m.ncols) == expected
            assert rank(m) == len(expected)
            assert linalg.full_row_rank(field, m.rows, m.ncols) == (len(expected) == m.nrows)
            for limit in range(m.ncols + 1):
                assert linalg._echelon(field, m.rows, m.ncols, pivot_limit=limit,
                                       reduce=False)[1] == \
                    echelon_by_field_methods(field, m.entries(), m.ncols, limit)[1]
            TestIntegerRowKernel.assert_reduced_agrees(m, Matrix.identity(field, m.nrows))
        TestIntegerRowKernel.assert_reduced_agrees(a, product)
        got = a @ b
        assert got == product
        assert got.shape == (a.nrows, b.ncols)
        assert in_normal_form(got)

    @staticmethod
    def assert_reduced_agrees(m, rhs):
        """The reduced mode on ``m`` beside ``rhs``, at every pivot limit, and
        ``kernel_basis``, ``cokernel_projection`` and ``solve``: the rows of
        the rank over ``den`` equal the reference's, each later row is a
        non-zero multiple of the reference's, every row holds ints, and every
        result is in the normal form."""
        field = m.field
        (left, right), _ = linalg.over_one_den([m, rhs])
        aug = [r + s for r, s in zip(left, right)]
        entries = [r + s for r, s in zip(m.entries(), rhs.entries())]
        width = m.ncols + rhs.ncols
        for limit in range(width + 1):
            rows, pivots, den = linalg._echelon(field, aug, width, pivot_limit=limit)
            ref_rows, ref_pivots = echelon_by_field_methods(field, entries, width, limit)
            assert pivots == ref_pivots
            k = len(pivots)
            assert [tuple(Fraction(x, den) for x in r) for r in rows[:k]] == \
                [tuple(r) for r in ref_rows[:k]]
            assert all(type(x) is int for r in rows for x in r)
            assert den == 1 or field.kind == "rational"
            assert all(_is_multiple(field, r, s) for r, s in zip(rows[k:], ref_rows[k:]))
            assert len(rows) == len(ref_rows)
        got = kernel_basis(m), cokernel_projection(m), solve(m, rhs)
        with mock.patch.object(linalg, "_echelon", echelon_in_integer_form):
            assert got == (kernel_basis(m), cokernel_projection(m), solve(m, rhs))
        assert all(in_normal_form(out) for out in got if out is not None)

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_seeded(self, field):
        rng = random.Random(2501 + (field.p if field.kind == "prime" else 0))
        for trial in range(300):
            n, k, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6)
            big = trial % 2 == 1
            a = kernel_matrix(rng, field, n, k, big=big)
            b = kernel_matrix(rng, field, k, m, rank_at_most=rng.randint(0, 3), big=big)
            self.assert_agrees(a, b)

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_edge_shapes(self, field):
        for n, k, m in [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1)]:
            self.assert_agrees(Matrix.zeros(field, n, k), Matrix.zeros(field, k, m))
            self.assert_agrees(Matrix.identity(field, n), Matrix.zeros(field, n, m))
        big = Fraction(999_983, 1_000_000)
        if field.kind == "rational":
            a = Matrix(field, [[big, 1 / big, 0], [0, 0, 0], [-big, 0, Fraction(1, 999_999)]])
            self.assert_agrees(a, a)

    @pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
    def test_reduced_rank_deficient(self, field):
        """Zero rows, a rank below both sides, and an augmented part that is
        inconsistent past ``pivot_limit``: ``solve`` finds no solution."""
        m = Matrix(field, [[1, 1, 0], [0, 0, 0], [1, 1, 0], [0, 1, 1]])
        inconsistent = Matrix(field, [[1, 0], [0, 0], [0, 1], [1, 1]])
        assert solve(m, inconsistent) is None
        self.assert_reduced_agrees(m, inconsistent)
        self.assert_reduced_agrees(m, m @ Matrix(field, [[1, 0], [1, 1], [0, 1]]))
        self.assert_reduced_agrees(m.transpose(), Matrix.zeros(field, 3, 0))
        for n, k in [(0, 0), (0, 3), (3, 0), (2, 2)]:
            self.assert_reduced_agrees(Matrix.zeros(field, n, k), Matrix.identity(field, n))
        if field.kind == "rational":
            u = [Fraction(999_983, 10 ** 6), Fraction(1, 999_999), 0]
            v = [Fraction(-1, 10 ** 6), Fraction(7, 3), Fraction(5, 999_998)]
            big = Matrix(field, [u, v, [x + y for x, y in zip(u, v)]])
            assert rank(big) == 2
            self.assert_reduced_agrees(big, Matrix.identity(field, 3))

    @settings(max_examples=300, deadline=None)
    @given(pair=kernel_inputs())
    def test_hypothesis(self, pair):
        self.assert_agrees(*pair)


# the entry-level references of TestIntegerForm: rows of field elements,
# made by the field's own arithmetic on ``entries()``

def _ref_transpose(rows, ncols) -> tuple:
    return tuple(tuple(r[j] for r in rows) for j in range(ncols))


def _ref_kernel(field, rows, ncols) -> tuple:
    """The canonical kernel basis from the reduced echelon form by field methods."""
    reduced, pivots = echelon_by_field_methods(field, rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = [[field.zero] * len(free) for _ in range(ncols)]
    for k, f in enumerate(free):
        basis[f][k] = field.one
        for r, pc in enumerate(pivots):
            basis[pc][k] = field.sub(field.zero, reduced[r][f])
    return tuple(map(tuple, basis))


def _ref_solve(field, rows, rhs, ncols, width):
    reduced, pivots = echelon_by_field_methods(field, [r + s for r, s in zip(rows, rhs)],
                                               ncols + width, ncols)
    if any(x != field.zero for r in reduced[len(pivots):] for x in r[ncols:]):
        return None
    sol = [(field.zero,) * width] * ncols
    for r, pc in enumerate(pivots):
        sol[pc] = tuple(reduced[r][ncols:])
    return tuple(sol)


@st.composite
def integer_form_inputs(draw):
    """A field among F2, F5, F7, F13 and Q, and matrices a (n x k), b (k x
    m), c (n x m) over it, 0 to 4 on each side: entries drawn anew or as a
    product through a smaller inner dimension (so kernels are not only
    forced by the shape), rows zeroed at random, Q numerators and
    denominators up to 10^12, and now and then the identity."""
    field = draw(st.sampled_from([F2, F5, PrimeField(7), PrimeField(13), QQ]))
    if field.kind == "prime":
        entry = st.integers(0, field.p - 1)
    else:
        entry = st.one_of(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                          st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                                    st.integers(1, 10 ** 12)))
    entry = st.one_of(st.just(field.zero), entry)

    def block(r, c):
        inner = draw(st.integers(0, 4))
        if draw(st.booleans()) and inner < min(r, c):
            left = [[draw(entry) for _ in range(inner)] for _ in range(r)]
            right = _ref_transpose([[draw(entry) for _ in range(c)] for _ in range(inner)], c)
            rows = [[field.dot(u, v) for v in right] for u in left]
        else:
            rows = [[draw(entry) for _ in range(c)] for _ in range(r)]
        rows = [[field.zero] * c if draw(st.integers(0, 5)) == 0 else row for row in rows]
        if r == c and draw(st.integers(0, 7)) == 0:
            rows = [[field.one if i == j else field.zero for j in range(c)] for i in range(r)]
        return Matrix(field, rows, ncols=c)
    n, k, m = (draw(st.integers(0, 4)) for _ in range(3))
    return block(n, k), block(k, m), block(n, m)


class TestIntegerForm:
    """Every operation on the integer form (rows over one denominator) agrees
    with the same operation by field methods on ``entries()``, and leaves
    its result in the normal form: residues over 1 on F_p, lowest terms on Q."""

    @staticmethod
    def check(a, b, c):
        field = a.field
        ea, eb, ec = a.entries(), b.entries(), c.entries()
        for m, e in ((a, ea), (b, eb), (c, ec)):
            assert in_normal_form(m)
            assert Matrix(field, e, ncols=m.ncols) == m
            assert all(type(x) is Fraction for r in e for x in r) or field.kind == "prime"
            assert m.is_zero() == all(x == field.zero for r in e for x in r)
            assert m.is_identity() == (m.nrows == m.ncols and e == tuple(
                tuple(field.one if i == j else field.zero for j in range(m.ncols))
                for i in range(m.nrows)))
            results = [m.transpose(), kernel_basis(m), cokernel_projection(m)]
            assert results[0].entries() == _ref_transpose(e, m.ncols)
            assert results[1].entries() == _ref_kernel(field, e, m.ncols)  # the same basis
            left = _ref_transpose(_ref_kernel(field, _ref_transpose(e, m.ncols), m.nrows),
                                  m.nrows - rank(m))
            assert results[2].entries() == tuple(
                map(tuple, echelon_by_field_methods(field, left, m.nrows)[0]))
            assert rank(m) == len(echelon_by_field_methods(field, e, m.ncols)[1])
            assert all(in_normal_form(out) for out in results)
        product = a @ b
        assert product.entries() == tuple(tuple(field.dot(r, col) for col in
                                                _ref_transpose(eb, b.ncols)) for r in ea)
        stacked = hstack(field, [a, c], a.nrows)
        assert stacked.entries() == tuple(r + s for r, s in zip(ea, ec))
        got = solve(a, c)
        expected = _ref_solve(field, ea, ec, a.ncols, c.ncols)
        assert (got is None) == (expected is None)
        assert got is None or got.entries() == expected
        results = [product, stacked] + ([got] if got is not None else [])
        assert all(in_normal_form(out) for out in results)
        for x, y in ((a, b), (b, c), (a, c), (product, c)):
            assert (x == y) == (x.shape == y.shape and x.entries() == y.entries())

    @settings(max_examples=400, deadline=None)
    @given(triple=integer_form_inputs())
    def test_hypothesis(self, triple):
        self.check(*triple)

    @pytest.mark.parametrize("field", [F2, F5, PrimeField(7), PrimeField(13), QQ],
                             ids=["f2", "f5", "f7", "f13", "q"])
    def test_edge_shapes(self, field):
        for n, k, m in [(0, 0, 0), (0, 3, 2), (3, 0, 2), (2, 3, 0), (2, 2, 2)]:
            self.check(Matrix.zeros(field, n, k), Matrix.zeros(field, k, m),
                       Matrix.zeros(field, n, m))
            self.check(Matrix.identity(field, n), Matrix.zeros(field, n, m),
                       Matrix.identity(field, n) if n == m else Matrix.zeros(field, n, m))

    def test_large_rationals_in_lowest_terms(self):
        big = Fraction(10 ** 12 - 11, 10 ** 12)
        a = Matrix(QQ, [[big, 1 / big], [Fraction(1, 10 ** 12), 0], [0, 0]])
        q = 10 ** 12 - 11  # prime to 10^12
        assert (a.rows, a.den) == (((q * q, 10 ** 24), (q, 0), (0, 0)), 10 ** 12 * q)
        self.check(a, a.transpose(), a @ a.transpose())
        assert (a @ Matrix.zeros(QQ, 2, 3)).den == 1


def chain_diagram(field, dims, mats):
    points = [(i,) for i in range(len(dims))]
    maps = {((i,), (i + 1,)): m for i, m in enumerate(mats)}
    return PosetDiagram(field, points, {(i,): d for i, d in enumerate(dims)}, maps)


class TestColimit:
    def test_one_point(self):
        d = PosetDiagram(F5, [(0, 0)], {(0, 0): 3}, {})
        dim, inj = diagram_colimit(d)
        assert dim == 3
        assert inj[(0, 0)] == Matrix.identity(F5, 3)

    def test_coproduct_of_incomparable_points(self):
        d = PosetDiagram(F2, [(0, 1), (1, 0)], {(0, 1): 1, (1, 0): 1}, {})
        dim, _ = diagram_colimit(d)
        assert dim == 2

    def test_iso_chain_collapses(self):
        rng = random.Random(3)
        mats = [random_invertible(F5, 2, rng) for _ in range(3)]
        d = chain_diagram(F5, [2, 2, 2, 2], mats)
        dim, inj = diagram_colimit(d)
        assert dim == 2
        assert is_invertible(inj[(3,)])

    def test_injections_commute_with_maps(self):
        rng = random.Random(5)
        for _ in range(10)        :
            dims = [rng.randint(0, 3) for _ in range(3)]
            mats = [random_matrix(F5, dims[i + 1], dims[i], rng) for i in range(2)]
            d = chain_diagram(F5, dims, mats)
            _, inj = diagram_colimit(d)
            for (c, e) in d.covers():
                assert inj[e] @ d.maps[(c, e)] == inj[c]


class TestPathMap:
    def test_long_identity_chain(self):
        n = 1500
        points = [(i,) for i in range(n)]
        covers = list(zip(points, points[1:]))
        d = PosetDiagram(F2, points, {p: 1 for p in points},
                         {e: Matrix.identity(F2, 1) for e in covers})
        assert d.path_map(points[0], points[-1]) == Matrix.identity(F2, 1)
        assert d.path_map(points[1], points[-1]) == Matrix.identity(F2, 1)

    def test_linear_number_of_comparisons_on_long_chain(self, monkeypatch):
        import detmod.linalg

        n = 1500
        points = [(i,) for i in range(n)]
        covers = list(zip(points, points[1:]))
        d = PosetDiagram(F2, points, {p: 1 for p in points},
                         {e: Matrix.identity(F2, 1) for e in covers})
        calls = [0]

        def counting(fn):
            def wrapper(a, b):
                calls[0] += 1
                return fn(a, b)
            return wrapper
        monkeypatch.setattr(detmod.linalg, "leq", counting(detmod.linalg.leq))
        assert d.path_map(points[0], points[-1]) == Matrix.identity(F2, 1)
        assert calls[0] <= 4 * n

    def test_target_not_above_or_not_in_the_diagram_refused(self):
        points = [(0, 0), (0, 1), (1, 0), (1, 1)]
        d = PosetDiagram(F2, points, {p: 1 for p in points}, {})
        with pytest.raises(InputError) as err:
            d.path_map((0, 1), (1, 0))
        assert str(err.value) == "(0, 1) is not below (1, 0) in the diagram"
        with pytest.raises(InputError) as err:
            d.path_map((0, 0), (1, 2))
        assert str(err.value) == "no covering chain from (1, 1) to (1, 2)"

    @pytest.mark.parametrize("field", FIELDS, ids=["f2", "f5", "q"])
    def test_matches_composites_along_every_cover_path(self, field):
        for enc in _encodings(field, random.Random(31), 6):
            for c in enc.points:
                for d in enc.points:
                    if not leq(c, d):
                        continue
                    for path in all_cover_paths(enc, c, d):
                        mat = Matrix.identity(field, enc.dims[c])
                        for x, y in zip(path, path[1:]):
                            mat = enc.maps[(x, y)] @ mat
                        assert enc.path_map(c, d) == mat, (c, d, path)

    @pytest.mark.parametrize("field", FIELDS, ids=["f2", "f5", "q"])
    def test_cover_lists_are_read_off_the_covers_in_order(self, field):
        """Each point's upper and lower covers are those read off ``covers()``,
        in the linear extension, on products and on other closures."""
        for enc in _encodings(field, random.Random(35), 12):
            upper, lower = enc.cover_lists()
            assert list(upper) == list(lower) == list(enc.points)
            for p in enc.points:
                assert upper[p] == [d for c, d in enc.covers() if c == p]
                assert lower[p] == [c for c, d in enc.covers() if d == p]
                assert upper[p] == sorted(upper[p]) and lower[p] == sorted(lower[p])


def _encodings(field, rng, count: int) -> list:
    """Encodings of seeded modules on the pointed closures of their canonical
    sets (products) and of random sets with a point in the box (mostly not)."""
    encodings = []
    for trial in range(count):
        module = random_module(field, rng)
        s = canonical_set(module) if trial % 3 == 0 else \
            random_point_set(rng, 2, max_size=4) | {module.box.a}
        encodings.append(restrict_view(module, pointed_closure(s)))
    assert {enc.product is None for enc in encodings} == {True, False}
    return encodings


class TestPosetCovers:
    COORDS = (NEG_INF, -2, -1, 0, 1, 2, 3)

    @pytest.mark.parametrize("nparams", [1, 2, 3])
    def test_matches_definition_on_random_sets(self, nparams):
        rng = random.Random(40 + nparams)
        for _ in range(30):
            pts = random_point_set(rng, nparams, max_size=12)
            product = CartesianSet(tuple(rng.sample(self.COORDS, rng.randint(1, 3))
                                         for _ in range(nparams)))
            for candidate in (pts, join_closure(pts), product.points()):
                ordered = list(candidate)
                rng.shuffle(ordered)
                assert set(poset_covers(ordered)) == set(poset_covers_bruteforce(ordered))
            assert set(product.covers()) == set(poset_covers_bruteforce(product.points()))

    @pytest.mark.parametrize("nparams", [1, 2, 3])
    def test_bitmasks_give_the_scan_in_its_order(self, nparams):
        """Equal lists, order included, on sets with -inf coordinates, ties on
        an axis (coordinates from a range of 4), closed and not join-closed."""
        rng = random.Random(70 + nparams)
        seen_open = seen_tie = 0
        for _ in range(60):
            pts = random_point_set(rng, nparams, max_size=14, lo=0, hi=3)
            for candidate in (pts, join_closure(pts)):
                ordered = list(candidate)
                rng.shuffle(ordered)
                assert poset_covers(ordered) == poset_covers_by_scan(ordered)
            seen_open += join_closure(pts) != pts
            seen_tie += any(len({p[a] for p in pts}) < len(pts) for a in range(nparams))
        assert nparams == 1 or (seen_open and seen_tie)  # a chain is closed, with no tie

    def test_bitmasks_on_a_lattice_that_is_not_a_product(self):
        pts = pointed_closure(set(CartesianSet(((NEG_INF, 0, 1), (0, 2))).points())
                              | {(2, 1), (-1, 3)})
        assert as_product(pts) is None
        assert poset_covers(list(pts)) == poset_covers_by_scan(pts)
        assert set(poset_covers(list(pts))) == set(poset_covers_bruteforce(list(pts)))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.sampled_from(TestPosetCovers.COORDS)] * n), max_size=16)))
    def test_bitmasks_match_the_scan(self, pts):
        assert poset_covers(pts) == poset_covers_by_scan(pts)


class TestLimit:
    def test_one_point(self):
        d = PosetDiagram(QQ, [(0,)], {(0,): 2}, {})
        dim, proj = diagram_limit(d)
        assert dim == 2
        assert proj[(0,)] == Matrix.identity(QQ, 2)

    def test_product_of_two_points(self):
        d = PosetDiagram(QQ, [(0, 1), (1, 0)], {(0, 1): 2, (1, 0): 3}, {})
        dim, _ = diagram_limit(d)
        assert dim == 5

    def test_constant_identity_window(self):
        pts = [(i, j) for i in range(2) for j in range(2)]
        maps = {}
        d = PosetDiagram(F2, pts, {p: 2 for p in pts},
                         {e: Matrix.identity(F2, 2) for e in
                          PosetDiagram(F2, pts, {p: 2 for p in pts}, {}).covers()})
        dim, proj = diagram_limit(d)
        assert dim == 2
        for (c, e) in d.covers():
            assert d.maps[(c, e)] @ proj[c] == proj[e]


@st.composite
def extended_products(draw):
    """A :class:`CartesianSet` of 1 to 3 axes, each -inf and 0 to 3 integers."""
    nparams = draw(st.integers(1, 3))
    return CartesianSet(tuple((NEG_INF, *draw(st.frozensets(st.integers(-3, 3), max_size=3)))
                              for _ in range(nparams)))


class TestProductCovers:
    """A product diagram lists its covers as it makes them, with no sort and
    no generic cover search, and keeps each map by its flat key too."""

    @settings(max_examples=150, deadline=None)
    @given(extended_products(), st.booleans())
    def test_covers_and_keys_match_the_cover_search(self, grid, as_points):
        pts = grid.sorted_points()
        diagram = PosetDiagram(F5, pts if as_points else grid, {p: 1 for p in pts},
                               lambda c, d: Matrix.identity(F5, 1))
        assert diagram.product == grid
        assert diagram.covers() == tuple(sorted(poset_covers(pts)))
        n, place = grid.dim, {p: x for x, p in enumerate(pts)}
        assert sorted(diagram.steps) == sorted(
            place[c] * n + next(i for i in range(n) if c[i] != d[i]) for c, d in diagram.covers())
        for c, d in diagram.covers():
            axis = next(i for i in range(n) if c[i] != d[i])
            assert diagram.steps[place[c] * n + axis] is diagram.maps[(c, d)]

    def test_left_out_maps_are_one_zero_per_shape_over_the_diagrams_field(self):
        """A zero made for an equal field object is not taken."""
        grid = CartesianSet(((NEG_INF, 0, 1), (NEG_INF, 0)))
        dims = {p: 1 + (p[0] == 1) for p in grid}
        Matrix.zeros(PrimeField(7), 2, 1)
        field = PrimeField(7)
        diagram = PosetDiagram(field, grid, dims, {})
        zeros = [m for m in diagram.maps.values() if m.shape == (2, 1)]
        assert len(zeros) == 2 and zeros[0] is zeros[1] and zeros[0].field is field
        assert validate_diagram(diagram)


class TestDiagramCovers:
    def test_duplicate_points_refused(self):
        with pytest.raises(InputError, match="duplicate points in diagram"):
            PosetDiagram(F2, [(0,), (0,)], {(0,): 1}, {})

    def test_left_out_covers_share_one_zero_per_shape(self):
        pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
        diagram = PosetDiagram(F5, pts, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}, {})
        assert diagram.maps[((0, 0), (0, 1))] is diagram.maps[((0, 0), (1, 0))] \
            is Matrix.zeros(F5, 2, 1)
        assert diagram.maps[((0, 1), (1, 1))] is Matrix.zeros(PrimeField(5), 1, 2)
        assert Matrix.identity(QQ, 3) is Matrix.identity(RationalField(), 3)

    def test_derived_covers_are_complete_and_decide_the_product_once(self, monkeypatch):
        calls = []
        as_product_of = linalg.as_product
        monkeypatch.setattr(linalg, "as_product", lambda pts: calls.append(pts) or as_product_of(pts))
        grid = CartesianSet(((NEG_INF, 0, 1), (0, 2)))
        lattice = pointed_closure({(0, 1), (1, 0)})
        for pts, product in ((grid.sorted_points(), grid), (grid, grid), (lattice, None)):
            diagram = PosetDiagram(F2, pts, {p: 1 for p in pts}, {})
            assert diagram.product == product
            assert diagram.covers() == tuple(sorted(poset_covers(list(pts))))
            assert validate_diagram(diagram)
        assert len(calls) == 3 and calls[1] is grid  # a CartesianSet is its own product


class TestValidation:
    def test_valid_grid(self):
        pts = [(i, j) for i in range(2) for j in range(2)]
        dims = {p: 1 for p in pts}
        skeleton = PosetDiagram(F2, pts, dims, {})
        maps = {e: Matrix.identity(F2, 1) for e in skeleton.covers()}
        assert validate_diagram(PosetDiagram(F2, pts, dims, maps))

    def test_mismatched_square_reported(self):
        pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
        dims = {p: 1 for p in pts}
        maps = {
            ((0, 0), (0, 1)): Matrix.identity(F2, 1),
            ((0, 0), (1, 0)): Matrix.identity(F2, 1),
            ((0, 1), (1, 1)): Matrix.identity(F2, 1),
            ((1, 0), (1, 1)): Matrix.zeros(F2, 1, 1),
        }
        check = validate_diagram(PosetDiagram(F2, pts, dims, maps))
        assert not check.ok
        assert check.square == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_shape_violation_reported(self):
        pts = [(0,), (1,)]
        check = validate_diagram(PosetDiagram(F2, pts, {(0,): 1, (1,): 2},
                                              {((0,), (1,)): Matrix.identity(F2, 1)}))
        assert not check.ok
        assert "shape" in check.message

    def test_map_over_another_field_reported(self):
        pts = [(0,), (1,)]
        check = validate_diagram(PosetDiagram(F2, pts, {(0,): 1, (1,): 1},
                                              {((0,), (1,)): Matrix.identity(F5, 1)}))
        assert check == DiagramCheck(False, "map (0,) -> (1,) is over the wrong field",
                                     ((0,), (1,)))

    def test_invalid_dimension_refused(self):
        for d in (-1, True, 1.0, None):
            with pytest.raises(InputError) as err:
                PosetDiagram(F2, [(0,), (1,)], {(0,): 1, (1,): d}, {})
            assert str(err.value) == f"invalid dimension {d!r} at (1,)"

    def test_colimit_refuses_invalid_diagram(self):
        pts = [(0, 0), (0, 1), (1, 0), (1, 1)]
        dims = {p: 1 for p in pts}
        maps = {((0, 0), (0, 1)): Matrix.identity(F2, 1),
                ((0, 0), (1, 0)): Matrix.identity(F2, 1),
                ((0, 1), (1, 1)): Matrix.identity(F2, 1),
                ((1, 0), (1, 1)): Matrix.zeros(F2, 1, 1)}
        with pytest.raises(InputError):
            diagram_colimit(PosetDiagram(F2, pts, dims, maps))

    def test_minimal_squares_match_path_enumeration(self):
        # randomized cross-check of the square reduction on small grids
        rng = random.Random(23)
        pts = [(i, j) for i in range(3) for j in range(2)]
        for _ in range(20):
            dims = {p: rng.randint(0, 2) for p in pts}
            skeleton = PosetDiagram(F2, pts, dims, {})
            maps = {(c, d): random_matrix(F2, dims[d], dims[c], rng)
                    for c, d in skeleton.covers()}
            diagram = PosetDiagram(F2, pts, dims, maps)
            assert bool(validate_diagram(diagram)) == path_commutativity_ok(diagram)

    @pytest.mark.parametrize("field", [F2, F5], ids=["f2", "f5"])
    def test_non_product_closures_match_path_enumeration(self, field):
        """Seeded join closures that are not products of chains.

        Each closure carries a restricted module (it commutes), that
        restriction with one cover map zeroed or shifted, and random maps.
        Runs until both verdicts have been seen at least ten times, and one
        diagram fails although all its minimal squares commute.
        """
        rng = random.Random(41 + field.p)
        verdicts = {True: 0, False: 0}
        square_free_failures = 0
        while min(verdicts.values()) < 10 or not square_free_failures:
            nparams = rng.choice([2, 2, 3])
            pts = join_closure(random_point_set(rng, nparams, 6))
            if len(pts) < 4 or as_product(pts) is not None:
                continue
            box = Box((0,) * nparams, (4 - nparams,) * nparams)
            module = random_module(field, rng, box=box, max_summands=4)
            restricted = restrict_view(module, pts)
            covers = restricted.covers()
            maps = dict(restricted.maps)
            edge = rng.choice(covers)
            shape = maps[edge].shape
            maps[edge] = maps[edge] + random_matrix(field, *shape, rng) \
                if rng.random() < 0.5 else Matrix.zeros(field, *shape)
            random_maps = {(c, d): random_matrix(field, restricted.dims[d], restricted.dims[c],
                                                 rng) for c, d in covers}
            for candidate in (maps, restricted.maps, random_maps):
                diagram = PosetDiagram(field, restricted.points, restricted.dims, candidate)
                check = validate_diagram(diagram)
                assert bool(check) == path_commutativity_ok(diagram)
                verdicts[bool(check)] += 1
                square_free_failures += not check and bool(minimal_squares_commute(diagram))
                if not check:
                    c, d1, d2, e = check.square
                    assert leq(c, d1) and leq(c, d2) and d1 != d2
                    assert (d1, e) in diagram.maps and (d2, e) in diagram.maps

    @pytest.mark.parametrize("field", FIELDS, ids=["f2", "f5", "q"])
    def test_products_report_the_first_failing_square(self, field):
        """Seeded products of chains, some factors holding -inf and some of
        one coordinate: a module's restriction (it commutes), that
        restriction with one cover map zeroed or shifted, and random maps.
        ``validate_diagram`` reports the square that ``minimal_squares_commute``,
        which tries every square, finds first; failing squares are seen at
        more than one corner and on more than one pair of axes."""
        rng = random.Random(53 + (field.p if field.kind == "prime" else 0))
        verdicts, corners, pairs = {True: 0, False: 0}, set(), set()
        for _ in range(40):
            nparams = rng.choice([2, 3])
            factors = []
            for _ in range(nparams):
                coords = rng.sample(range(-1, 3), rng.choice([1, 2, 2, 3]))
                factors.append(coords + [NEG_INF] if rng.random() < 0.5 else coords)
            grid = CartesianSet(tuple(factors))
            box = Box((0,) * nparams, (2,) * nparams)
            restricted = restrict_view(random_module(field, rng, box=box), grid)
            covers, dims = restricted.covers(), restricted.dims
            shifted = dict(restricted.maps)
            if covers:
                edge = rng.choice(covers)
                shape = shifted[edge].shape
                shifted[edge] = shifted[edge] + random_matrix(field, *shape, rng) \
                    if rng.random() < 0.5 else Matrix.zeros(field, *shape)
            random_maps = {(c, d): random_matrix(field, dims[d], dims[c], rng)
                           for c, d in covers}
            for maps in (restricted.maps, shifted, random_maps):
                diagram = PosetDiagram(field, grid.sorted_points(), dims, maps)
                assert diagram.product == grid
                check = validate_diagram(diagram)
                assert check == minimal_squares_commute(diagram)
                verdicts[check.ok] += 1
                if not check:
                    c, d1, d2, _ = check.square
                    corners.add(c == min(grid.sorted_points()))
                    pairs.add(tuple(a for a in range(nparams) if d1[a] != d2[a]))
        assert min(verdicts.values()) >= 10
        assert corners == {True, False} and len(pairs) > 1

    def test_square_free_counterexample(self):
        """Two chains from (0,0) to (2,1) that share no minimal square."""
        pts = [(0, 0), (2, 0), (0, 1), (1, 1), (2, 1)]
        one = Matrix.identity(F2, 1)
        maps = {((0, 0), (2, 0)): one, ((0, 0), (0, 1)): one, ((0, 1), (1, 1)): one,
                ((1, 1), (2, 1)): one, ((2, 0), (2, 1)): Matrix.zeros(F2, 1, 1)}
        diagram = PosetDiagram(F2, pts, {p: 1 for p in pts}, maps)
        check = validate_diagram(diagram)
        assert not check and not path_commutativity_ok(diagram)
        assert check.square == ((0, 0), (1, 1), (2, 0), (2, 1))
        maps[((2, 0), (2, 1))] = one
        assert validate_diagram(PosetDiagram(F2, pts, {p: 1 for p in pts}, maps))


class TestDiagramIsomorphism:
    @pytest.mark.parametrize("field,seed", [(F2, 29), (F5, 31), (QQ, 37)])
    def test_conjugated_diagrams_are_isomorphic(self, field, seed):
        from helpers import random_module

        rng = random.Random(seed)
        for _ in range(15):
            a = module_diagram(random_module(field, rng, twist=False))
            assert validate_diagram(a)
            dims = a.dims
            twist = {p: random_invertible(field, dims[p], rng) for p in a.points}
            inv = {p: solve(twist[p], Matrix.identity(field, dims[p])) for p in a.points}
            b_maps = {(c, d): twist[d] @ a.maps[(c, d)] @ inv[c] for c, d in a.covers()}
            b = PosetDiagram(field, a.points, dict(dims), b_maps)
            assert diagrams_isomorphic(a, b)

    def test_found_isomorphism_is_natural_and_invertible(self):
        """The generator images the search finds induce, at every point, the map
        sending a's carried generator lifts to the carried images; it is natural
        and invertible."""
        from helpers import random_module
        from detmod.presentation import _find_isomorphism, present_diagram

        rng = random.Random(41)
        a = module_diagram(random_module(F5, rng, twist=False))
        b = random_module(F5, rng, twist=False)
        twist = {p: random_invertible(F5, a.dims[p], rng) for p in a.points}
        inv = {p: solve(twist[p], Matrix.identity(F5, a.dims[p])) for p in a.points}
        b_maps = {(c, d): twist[d] @ a.maps[(c, d)] @ inv[c] for c, d in a.covers()}
        b = PosetDiagram(F5, a.points, dict(a.dims), b_maps)
        pres = present_diagram(a)
        lifts = pres.generator_images
        images = _find_isomorphism(pres, (a.dims.__getitem__, a.path_map),
                                   (b.dims.__getitem__, b.path_map), a.points,
                                   lambda: present_diagram(b))
        assert isinstance(images, dict)
        iso = {}
        for p in a.points:
            below = [g for g, _ in pres.generators if leq(g, p)]
            lifted = hstack(F5, [a.path_map(g, p) @ lifts[g] for g in below], nrows=a.dims[p])
            carried = hstack(F5, [b.path_map(g, p) @ images[g] for g in below],
                             nrows=b.dims[p])
            iso_t = solve(lifted.transpose(), carried.transpose())
            assert iso_t is not None
            iso[p] = iso_t.transpose()
        assert any(not iso[p].is_zero() for p in a.points)
        for c, d in a.covers():
            assert iso[d] @ a.maps[(c, d)] == b.maps[(c, d)] @ iso[c]
        for p in a.points:
            assert is_invertible(iso[p])

    def test_nat_basis_spans_naturality_solutions(self):
        a = chain_diagram(F2, [1, 1], [Matrix.identity(F2, 1)])
        basis = nat_basis(a, a)
        assert len(basis) == 1
        assert basis[0][(0,)] == Matrix.identity(F2, 1)

    def test_distinguishes_zero_from_identity(self):
        a = chain_diagram(F2, [1, 1], [Matrix.identity(F2, 1)])
        b = chain_diagram(F2, [1, 1], [Matrix.zeros(F2, 1, 1)])
        assert not diagrams_isomorphic(a, b)

    def test_dimension_mismatch(self):
        a = PosetDiagram(F2, [(0,)], {(0,): 1}, {})
        b = PosetDiagram(F2, [(0,)], {(0,): 2}, {})
        assert not diagrams_isomorphic(a, b)

    def test_distinguishes_split_from_nonsplit_extension(self):
        # both dims (2, 2), maps of equal rank 1, but different module structure
        a = chain_diagram(F2, [2, 2], [Matrix(F2, [[0, 1], [0, 0]])])
        b = chain_diagram(F2, [2, 2], [Matrix(F2, [[1, 0], [0, 0]])])
        # these happen to be isomorphic (change of basis swaps coordinates)
        assert diagrams_isomorphic(a, b)
        c = chain_diagram(F2, [2, 2], [Matrix.identity(F2, 2)])
        assert not diagrams_isomorphic(a, c)

    def test_zero_diagrams_isomorphic(self):
        a = PosetDiagram(F2, [(0,), (1,)], {(0,): 0, (1,): 0}, {})
        assert diagrams_isomorphic(a, a)

    @pytest.mark.parametrize("field", [F2, QQ], ids=["f2", "q"])
    def test_equal_cover_ranks_unequal_composite_certified_false(self, field):
        # dims (2, 2, 2) and cover ranks (1, 1) on both chains, but the
        # composite 0 -> 2 has rank 0 in a and rank 1 in b: a is
        # [0,1]+[0,0]+[1,2]+[2,2] and b is [0,2]+[0,0]+[1,1]+[2,2], so
        # dim Hom(a, b) = 6 differs from dim End(a) = 7, which certifies the
        # answer over Q too, where no search is exhaustive
        keep_first = Matrix(field, [[1, 0], [0, 0]])
        a = chain_diagram(field, [2, 2, 2], [keep_first, Matrix(field, [[0, 0], [0, 1]])])
        b = chain_diagram(field, [2, 2, 2], [keep_first, keep_first])
        assert diagrams_isomorphic(a, b) is False
        assert diagrams_isomorphic(b, a) is False

    def test_fourteen_distinct_twisted_intervals_over_f2(self):
        """A twisted sum of 14 intervals with distinct supports on a 5x5 box is
        found isomorphic to the plain sum.  Random combinations over F2 rarely
        hit an isomorphism of so many summands, and on this seed a greedy pass
        that takes the basis in index order, not by rank, falls short."""
        from helpers import interval_module, twist_module

        rng = random.Random(10)
        box = Box((0, 0), (4, 4))
        points = list(box.integer_points())
        supports, starts, ends = set(), [], []
        while len(starts) < 14:
            g = tuple(rng.randint(0, 4) for _ in range(2))
            d = tuple(rng.randint(g[i], 5) for i in range(2))
            support = frozenset(p for p in points if leq(g, p) and not leq(d, p))
            if support and support not in supports:
                supports.add(support)
                starts.append(g)
                ends.append(d)
        plain = interval_module(F2, box, starts, ends)
        twisted = twist_module(plain, rng)
        assert max(plain.dims.values()) >= 6
        assert diagrams_isomorphic(module_diagram(twisted), module_diagram(plain)) is True
