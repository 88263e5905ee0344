"""Exact linear algebra over prime fields and the rationals.

Matrices are dense, immutable, and carry their field; they keep integer
rows over one denominator (:class:`Matrix`).  On top of them sit
finite poset diagrams of vector spaces with commutativity validation.
Verdicts elsewhere in the package come from explicit maps checked with
ranks and products; :func:`diagrams_isomorphic` searches the maps out of a
presentation, for input that carries no such map.  No floating point is
used anywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, xor
from typing import Iterable

from .errors import InputError
from .extgrid import CartesianSet, Point, as_product, leq, order_masks, sort_points


def _is_prime(p: int) -> bool:
    """Whether ``p`` >= 2 is a prime."""
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """F_p with elements stored as ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise InputError(f"field characteristic must be an integer, got {self.p!r}")
        if not (2 <= self.p <= 2**31) or not _is_prime(self.p):
            raise InputError(f"{self.p} is not a prime in [2, 2^31]")

    kind = "prime"
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            raise InputError(f"cannot coerce {x!r} into F_{self.p}")
        return x % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def dot(self, u, v):
        return sum(a * b for a, b in zip(u, v)) % self.p


@dataclass(frozen=True)
class RationalField:
    """Q with exact Fraction arithmetic."""

    kind = "rational"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, bool):
            raise InputError(f"cannot coerce {x!r} into Q")
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        if isinstance(x, str):
            try:
                return Fraction(x)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"cannot parse rational {x!r}") from exc
        raise InputError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def dot(self, u, v):
        return sum(a * b for a, b in zip(u, v))


QQ = RationalField()


@functools.cache
def identity_rows(n: int) -> tuple:
    """The n x n identity as a tuple of integer row tuples, made once per n."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class Matrix:
    """Immutable dense matrix over an exact field, kept in one integer form.

    ``rows`` holds tuples of ints over one positive denominator ``den``:
    over F_p the entries as residues in [0, p) and ``den`` 1; over Q the
    entries times ``den``, in lowest terms (the gcd of ``den`` and every
    entry is 1, so a zero matrix has ``den`` 1).  Two matrices are thus
    equal exactly when their rows and denominators are.  ``Matrix(field,
    rows)`` takes rows of field elements, and :meth:`entries` gives them
    back, for code that does field arithmetic on entries.

    Zero-dimensional shapes (0 x k and k x 0) are first-class citizens; most
    of the package's maps into or out of zero spaces go through them.
    """

    __slots__ = ("field", "nrows", "ncols", "rows", "den")

    def __init__(self, field, rows, ncols: int | None = None):
        rows = [tuple(map(field.coerce, r)) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InputError("ragged matrix rows")
            if ncols is not None and ncols != width:
                raise InputError(f"matrix has {width} columns, expected {ncols}")
            ncols = width
        elif ncols is None:
            raise InputError("a matrix with zero rows needs an explicit column count")
        self.field, self.nrows, self.ncols = field, len(rows), ncols
        self.rows, self.den = _integer_form(field, rows)

    @classmethod
    def _of_rows(cls, field, rows: list, ncols: int, den: int = 1) -> "Matrix":
        """A matrix from integer rows over ``den``, each ``ncols`` wide and
        already in the normal form: a tuple of tuples is kept as it is, any
        other rows are made one, and nothing is checked."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.den = field, len(rows), ncols, den
        m.rows = rows if type(rows) is tuple else tuple([r if type(r) is tuple else tuple(r)
                                                         for r in rows])
        return m

    @classmethod
    def _reduced(cls, field, rows: list, ncols: int, den: int = 1) -> "Matrix":
        """A matrix from any integer rows over ``den`` > 0, brought to the
        normal form: each entry taken mod p over F_p (where ``den`` is 1),
        and over Q the rows and ``den`` divided by their gcd."""
        if field.kind == "prime":
            p = field.p
            rows = [tuple([x % p for x in r]) for r in rows]
        elif den > 1:
            g = math.gcd(den, *itertools.chain.from_iterable(rows))
            if g > 1:
                rows, den = [tuple([x // g for x in r]) for r in rows], den // g
        return cls._of_rows(field, rows, ncols, den)

    @classmethod
    def _of_entries(cls, field, rows: list, ncols: int) -> "Matrix":
        """A matrix from rows of field elements made by field arithmetic,
        each ``ncols`` wide and unchecked: the inverse of :meth:`entries`."""
        rows, den = _integer_form(field, rows)
        return cls._of_rows(field, rows, ncols, den)

    def entries(self) -> tuple:
        """The rows as field elements: over F_p the rows themselves, over Q
        one :class:`Fraction` per entry."""
        if self.field.kind == "prime":
            return self.rows
        den = self.den
        return tuple([tuple([Fraction(x, den) for x in r]) for r in self.rows])

    # a matrix is immutable, so each of these is made once per field and shape
    @classmethod
    @functools.cache
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        return cls._of_rows(field, ((0,) * ncols,) * nrows, ncols)

    @classmethod
    @functools.cache
    def identity(cls, field, n: int) -> "Matrix":
        return cls._of_rows(field, identity_rows(n), n)

    @classmethod
    def from_columns(cls, field, columns: Iterable, nrows: int) -> "Matrix":
        cols = [tuple(c) for c in columns]
        for c in cols:
            if len(c) != nrows:
                raise InputError("column length mismatch")
        if not cols or nrows == 0:
            return cls.zeros(field, nrows, len(cols))
        return cls(field, list(zip(*cols)), ncols=len(cols))

    @property
    def shape(self) -> tuple:
        return (self.nrows, self.ncols)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def is_identity(self) -> bool:
        n = self.nrows
        return n == self.ncols and self.den == 1 and self.rows == identity_rows(n)

    def column(self, j: int) -> tuple:
        """Column ``j`` of the integer rows, over ``den``."""
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        if self.nrows == 0 or self.ncols == 0:
            return Matrix.zeros(self.field, self.ncols, self.nrows)
        return Matrix._of_rows(self.field, list(zip(*self.rows)), self.nrows, self.den)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.shape != other.shape:
            raise InputError(f"shape mismatch {self.shape} + {other.shape}")
        (a, b), den = over_one_den([self, other])
        return Matrix._reduced(self.field, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)],
                               self.ncols, den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The rows of :func:`product_rows`: over F_p already in the normal
        form, over Q divided by their gcd with the denominator
        (:meth:`_reduced`)."""
        field = self.field
        if other.field is not field and other.field != field:
            raise InputError("field mismatch in matrix product")
        if self.ncols != other.nrows:
            raise InputError(f"shape mismatch {self.shape} @ {other.shape}")
        if not self.ncols:  # no rows in other to read the columns from
            return Matrix.zeros(field, self.nrows, other.ncols)
        rows = product_rows(self, other)
        if field.kind == "prime":
            return Matrix._of_rows(field, rows, other.ncols)
        return Matrix._reduced(field, rows, other.ncols, self.den * other.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows and self.den == other.den
                and self.ncols == other.ncols
                and (self.field is other.field or self.field == other.field))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def product_rows(a: Matrix, b: Matrix) -> tuple:
    """The integer rows of ``a @ b`` over ``a.den * b.den``, for ``a.ncols
    == b.nrows`` > 0: each entry one sum of products of the two matrices'
    integer rows, over F_p reduced mod p as it is made, and over Q left as
    it is, so that its gcd with the denominator may exceed 1.  The one
    product kernel; the sums are written out for inner sizes 1, 2 and 3."""
    cols, k, rows = list(zip(*b.rows)), a.ncols, a.rows
    if a.field.kind == "prime":
        p = a.field.p
        if k == 1:
            return tuple([tuple([x * u % p for (u,) in cols]) for (x,) in rows])
        if k == 2:
            return tuple([tuple([(x * u + y * v) % p for u, v in cols]) for x, y in rows])
        if k == 3:
            return tuple([tuple([(x * u + y * v + z * w) % p for u, v, w in cols])
                          for x, y, z in rows])
        return tuple([tuple([sum(map(mul, r, c)) % p for c in cols]) for r in rows])
    if k == 1:
        return tuple([tuple([x * u for (u,) in cols]) for (x,) in rows])
    if k == 2:
        return tuple([tuple([x * u + y * v for u, v in cols]) for x, y in rows])
    if k == 3:
        return tuple([tuple([x * u + y * v + z * w for u, v, w in cols]) for x, y, z in rows])
    return tuple([tuple([sum(map(mul, r, c)) for c in cols]) for r in rows])


def _integer_form(field, rows: list) -> tuple:
    """``(rows, den)`` of rows of field elements: over Q the entries times
    their least common denominator, which is then in lowest terms."""
    if field.kind == "prime":
        return tuple(map(tuple, rows)), 1
    den = math.lcm(*[x.denominator for r in rows for x in r])
    return tuple([tuple([x.numerator * (den // x.denominator) for x in r]) for r in rows]), den


def over_one_den(mats: list) -> tuple:
    """The rows of each matrix over one denominator, the least common
    multiple of theirs: ``(rows of each matrix, den)``.  Matrices in the
    normal form, put side by side or stacked whole, are in it again; a part
    of their entries may not be (:meth:`Matrix._reduced`)."""
    den = math.lcm(*[m.den for m in mats])
    return [m.rows if m.den == den else [tuple([x * (den // m.den) for x in r]) for r in m.rows]
            for m in mats], den


def hstack(field, mats: list, nrows: int) -> Matrix:
    for m in mats:
        if m.nrows != nrows:
            raise InputError("row count mismatch in hstack")
    parts, den = over_one_den(mats)
    rows = [tuple(itertools.chain.from_iterable(part[i] for part in parts)) for i in range(nrows)]
    return Matrix._of_rows(field, rows, sum(m.ncols for m in mats), den)


def _echelon(field, rows, ncols, pivot_limit=None, reduce=True):
    """Reduced row echelon form on integer rows; returns (rows, pivot
    columns, den).

    Over F_p each pivot row is scaled to pivot 1 when its pivot is chosen
    (one inverse per pivot that is not 1), and entry b of a row is cleared
    by row - b * pivot row on residues, one ``%`` per entry (a XOR over
    F_2).  Over Q, on the integer rows of a matrix (its denominator does not
    change the row space), entry b is cleared against pivot a by a * row -
    b * pivot row, and each new row divided by the gcd of its entries
    (fraction-free, as Bareiss 1968).  With ``reduce`` false only rows below
    a pivot are cleared, the rows returned are ``None`` and ``den`` is 1.
    Otherwise rows above it are cleared too, and each row of the rank is
    scaled so that its pivot is ``den``, the least common multiple of the
    pivots (1 over F_p): those rows over ``den`` are the reduced rows.
    Later rows keep integer entries up to a non-zero factor.
    """
    if pivot_limit is None:
        pivot_limit = ncols
    nrows = len(rows)
    prime = field.p if field.kind == "prime" else 0
    # rows are replaced, never changed in place, so the given ones are shared
    rows = list(rows)
    pivots = []
    r = 0
    for c in range(pivot_limit):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if rows[pr][c]:
                break
        else:
            continue
        prow = rows[pr]
        a = prow[c]
        if prime and a != 1:
            a = pow(a, -1, prime)
            prow = [x * a % prime for x in prow]
        rows[pr], rows[r] = rows[r], prow
        for i in range(0 if reduce else r + 1, nrows):
            row = rows[i]
            b = row[c]
            if not b or i == r:
                continue
            if prime == 2:
                rows[i] = list(map(xor, row, prow))
            elif prime:
                rows[i] = [(x - b * y) % prime for x, y in zip(row, prow)]
            else:
                new = [a * x - b * y for x, y in zip(row, prow)]
                g = math.gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    den = 1
    if reduce and not prime and pivots:
        den = math.lcm(*[rows[k][c] for k, c in enumerate(pivots)])
        for k, c in enumerate(pivots):
            if rows[k][c] != den:
                f = den // rows[k][c]
                rows[k] = [x * f for x in rows[k]]
    return (rows if reduce else None), pivots, den


# no verb calls rref; perfbench/bench_trace.py binds it by name
def rref(m: Matrix) -> tuple:
    """Reduced row echelon form together with the pivot columns."""
    rows, pivots, den = _echelon(m.field, m.rows, m.ncols)
    return Matrix._reduced(m.field, rows, m.ncols, den), tuple(pivots)


def pivot_columns(field, rows, ncols: int) -> list:
    """The pivot columns of the echelon form of ``rows``, with no result matrix."""
    return _echelon(field, rows, ncols, reduce=False)[1]


def rank(m: Matrix) -> int:
    return len(pivot_columns(m.field, m.rows, m.ncols))


def full_row_rank(field, rows, ncols: int) -> bool:
    """Whether the rows are independent, so that their map is onto; no
    elimination for fewer than two rows."""
    if len(rows) < 2:
        return not rows or any(rows[0])
    return len(rows) <= ncols and len(pivot_columns(field, rows, ncols)) == len(rows)


def is_invertible(m: Matrix) -> bool:
    """Square with full rank; non-square shapes never qualify."""
    return m.nrows == m.ncols and rank(m) == m.nrows


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form the canonical basis of the null space (free columns of the rref)."""
    rows, pivots, den = _echelon(m.field, m.rows, m.ncols)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = [[0] * len(free) for _ in range(m.ncols)]
    for k, f in enumerate(free):
        basis[f][k] = den
        for r, pc in enumerate(pivots):
            basis[pc][k] = -rows[r][f]
    return Matrix._reduced(m.field, basis, len(free), den)


def cokernel_projection(m: Matrix) -> Matrix:
    """Surjection from the target of ``m`` whose kernel is exactly the image.

    The rows are the reduced-echelon basis of the left null space, so the
    result has full row rank ``nrows(m) - rank(m)`` and is canonical.
    """
    left = kernel_basis(m.transpose()).transpose()
    rows, _, den = _echelon(m.field, left.rows, left.ncols)
    return Matrix._reduced(m.field, rows, m.nrows, den)


def solve(m: Matrix, rhs: Matrix) -> Matrix | None:
    """A particular solution X of m @ X = rhs, or None when inconsistent.

    Free variables are set to zero, which makes the answer canonical.
    """
    if m.field != rhs.field:
        raise InputError("field mismatch in solve")
    if m.nrows != rhs.nrows:
        raise InputError(f"shape mismatch in solve: {m.shape} vs {rhs.shape}")
    (left, right), _ = over_one_den([m, rhs])  # the same equations
    aug = [a + b for a, b in zip(left, right)]
    rows, pivots, den = _echelon(m.field, aug, m.ncols + rhs.ncols, pivot_limit=m.ncols)
    for i in range(len(pivots), m.nrows):
        if any(rows[i][m.ncols:]):
            return None
    sol = [(0,) * rhs.ncols] * m.ncols
    for r, pc in enumerate(pivots):
        sol[pc] = rows[r][m.ncols:]
    return Matrix._reduced(m.field, sol, rhs.ncols, den)


def poset_covers(points: list) -> list:
    """Covering pairs of an arbitrary finite subposet of the extended grid.

    The points are indexed in a linear extension, and bit j of ``up[i]`` is
    set when point j lies above point i (:func:`order_masks`).  Scanning up(p)
    without p from the least index, the first point left is a cover q of p,
    and every point above q is dropped before the next.  So the covers come
    out by p, then by q, in the linear extension.
    """
    ordered = sort_points(points)
    up = order_masks(ordered)
    covers = []
    for i, p in enumerate(ordered):
        rest = up[i] & ~(1 << i)
        while rest:
            j = (rest & -rest).bit_length() - 1
            covers.append((p, ordered[j]))
            rest &= ~up[j]
    return covers


@dataclass(frozen=True)
class DiagramCheck:
    """Outcome of a commutativity / shape validation."""

    ok: bool
    message: str | None = None
    square: tuple | None = None

    def __bool__(self):
        return self.ok


class PosetDiagram:
    """A functor from a finite subposet of the extended grid to vector spaces.

    Stores a dimension per point and a matrix per covering relation; maps
    between comparable points are composites along covering chains, which is
    unambiguous once the diagram validates.  The covers are derived: from
    :attr:`product`, the points as a :class:`CartesianSet` when they are one
    (else ``None``), or by :func:`poset_covers`.  ``maps`` is a function of
    a cover's two ends that gives its matrix, or a dict of matrices by
    cover, where a cover left out maps by :meth:`Matrix.zeros` of its
    shape, looked up once per shape.  On a product, :attr:`steps` holds the
    map of each cover by its flat step key in the product's layout
    (:class:`CartesianSet`); elsewhere it is ``None``.
    """

    def __init__(self, field, points, dims, maps):
        self.field = field
        given, points = points, list(points)
        self.points = tuple(sort_points(points))
        if len(self.points) != len(points):
            raise InputError("duplicate points in diagram")
        self.product = as_product(given if isinstance(given, CartesianSet) else self.points)
        values = [dims[p] for p in self.points]
        if not ({*map(type, values)} <= {int} and min(values, default=0) >= 0):
            for p, d in zip(self.points, values):
                if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                    raise InputError(f"invalid dimension {d!r} at {p!r}")
        self.dims = dict(zip(self.points, values))
        keys = None
        if self.product is None:  # by source, then target, as sort_points orders
            covers = sorted(poset_covers(list(self.points)))
        else:  # by source, then the last axis first, which is the same order
            covers, keys, points = [], [], self.points
            strides, step_keys = self.product.strides, self.product.step_keys
            for x, axes in enumerate(self.product.upper_axes):
                for axis in reversed(axes):
                    covers.append((points[x], points[x + strides[axis]]))
                    keys.append(step_keys[axis][x])
        self._covers = tuple(covers)
        if callable(maps):
            mats = [maps(c, d) for c, d in covers]
        else:
            mats = [maps.get(cover) for cover in covers]
            if len(mats) - mats.count(None) != len(maps):
                cover_set = set(covers)
                for c, d in maps:
                    if (c, d) not in cover_set:
                        raise InputError(f"map {c!r} -> {d!r} is not a covering pair of the "
                                         f"points")
            zeros = {}  # by shape
            for k, m in enumerate(mats):
                if m is None:
                    shape = (self.dims[covers[k][1]], self.dims[covers[k][0]])
                    m = zeros.get(shape)
                    if m is None:
                        m = Matrix.zeros(field, *shape)
                        if m.field is not field:  # made for an equal field: one of this one
                            m = Matrix._of_rows(field, m.rows, m.ncols)
                        zeros[shape] = m
                    mats[k] = m
        self.maps = dict(zip(covers, mats))
        self.steps = None if keys is None else dict(zip(keys, mats))
        self._identities = None
        self._path_cache = {}
        self._cover_lists = None
        self._validated = None

    def covers(self) -> tuple:
        return self._covers

    def cover_lists(self) -> tuple:
        """``(upper, lower)``: per point, its upper and its lower covers,
        made once, on first use.  The covers are sorted by source and then
        by target, so every list comes out in the linear extension."""
        if self._cover_lists is None:
            upper, lower = {p: [] for p in self.points}, {p: [] for p in self.points}
            for c, d in self._covers:
                upper[c].append(d)
                lower[d].append(c)
            self._cover_lists = upper, lower
        return self._cover_lists

    def identity_covers(self) -> frozenset:
        """The covers whose map is the identity, decided on first use."""
        if self._identities is None:
            self._identities = frozenset(e for e, m in self.maps.items() if m.is_identity())
        return self._identities

    def path_map(self, c: Point, d: Point) -> Matrix:
        """Structure map between comparable points, composed along covers.

        Walks up from c, each time to the first upper cover of x below d in
        the linear extension (the first point of (x, d]), and caches every
        composite on the way.
        """
        if c == d:
            return Matrix.identity(self.field, self.dims[c])
        cached = self._path_cache.get((c, d))
        if cached is not None:
            return cached
        if not leq(c, d):
            raise InputError(f"{c!r} is not below {d!r} in the diagram")
        upper = self.cover_lists()[0]
        steps = []
        x = c
        while True:
            nxt = next((y for y in upper[x] if leq(y, d)), None)
            if nxt is None:
                raise InputError(f"no covering chain from {x!r} to {d!r}")
            steps.append((x, nxt))
            result = Matrix.identity(self.field, self.dims[d]) if nxt == d \
                else self._path_cache.get((nxt, d))
            if result is not None:
                break
            x = nxt
        for x, nxt in reversed(steps):
            result = result @ self.maps[(x, nxt)]
            self._path_cache[(x, d)] = result
        return result

    # used only by presentation.predecessor_colimit_map, which no verb calls
    def restrict_downclosed(self, points: Iterable[Point]) -> "PosetDiagram":
        """Restriction to a down-closed subset, whose covers are those of the
        diagram between its points."""
        keep = set(points)
        sub = PosetDiagram(self.field, keep, {p: self.dims[p] for p in keep},
                           {e: self.maps[e] for e in self._covers
                            if e[0] in keep and e[1] in keep})
        if self._validated is True:
            sub._validated = True
        return sub


def first_failing_square(layout: CartesianSet, dims: list, steps: dict, identities
                         ) -> tuple | None:
    """The first unit square of a product of chains whose two composites
    differ, reported as ``(c, c + e_j, c + e_i, c + e_i + e_j)``; ``None``
    when every square commutes.

    ``layout`` is the product, and ``dims`` lists the dimensions of its
    points by place.  ``steps`` maps the flat step keys of the layout to
    matrices, a key left out being a zero step, and ``identities`` holds the
    keys of the identity steps.

    The unit squares generate every commutativity relation of a product of
    chains, so they are the only squares checked.  They are walked in
    lexicographic order of their bottom corner c, and at each c the pairs of
    axes j > i in the order (n-1, n-2), (n-1, n-3), ..., (1, 0).  Both
    composites out of a point with no step in ``steps`` are zero, so only
    the sources of steps are corners.  A square commutes without a product
    when c or its top corner has dimension zero, or when its four steps are
    identities.  A composite through a zero-dimensional corner or a left-out
    step is zero, so at most one product is formed then, and compared with
    zero.  The composites are compared on the rows of :func:`product_rows`,
    with no :class:`Matrix` made: over F_p as they are, and over Q
    cross-multiplied by each other's denominator; a square of four spaces of
    dimension one, on the products of its entries, so with no row made.
    """
    if layout.dim < 2 or not steps:  # a chain has no square
        return None
    p = getattr(next(iter(steps.values())).field, "p", 0)  # 0 over Q
    strides, keys, upper = layout.strides, layout.step_keys, layout.upper_axes
    for x in sorted({x for x, _ in layout.steps_of(steps)}):
        axes = upper[x][::-1]
        if len(axes) < 2 or not dims[x]:
            continue
        for k, j in enumerate(axes):
            xj, keys_j = x + strides[j], keys[j]
            kj = keys_j[x]
            c_j = dims[xj] and steps.get(kj)
            for i in axes[k + 1:]:
                xi, xe = x + strides[i], xj + strides[i]
                if not dims[xe]:
                    continue
                ki, kji, kij = keys[i][x], keys[i][xj], keys_j[xi]
                if (kj in identities and kji in identities
                        and ki in identities and kij in identities):
                    continue
                up_i = c_j and steps.get(kji)
                c_i = dims[xi] and steps.get(ki)
                up_j = c_i and steps.get(kij)
                if not (up_i or up_j):
                    continue
                if dims[x] == dims[xj] == dims[xi] == dims[xe] == 1:
                    left = up_i.rows[0][0] * c_j.rows[0][0] if up_i else 0
                    right = up_j.rows[0][0] * c_i.rows[0][0] if up_j else 0
                    dl, dr = up_i and up_i.den * c_j.den or 1, up_j and up_j.den * c_i.den or 1
                    if (left - right) % p if p else left * dr != right * dl:
                        return tuple(map(layout.point, (x, xj, xi, xe)))
                    continue
                # the rows of each composite: through an identity those of its other step
                left = up_i and (up_i.rows if kj in identities else c_j.rows if kji in identities
                                 else product_rows(up_i, c_j))
                right = up_j and (up_j.rows if ki in identities else c_i.rows if kij in identities
                                  else product_rows(up_j, c_i))
                if up_i and up_j:  # over the products of the denominators, 1 for an identity
                    dl, dr = up_i.den * c_j.den, up_j.den * c_i.den
                    commutes = left == right if dl == dr else all(
                        u * dr == v * dl for r, s in zip(left, right) for u, v in zip(r, s))
                else:  # a composite through a left-out step is zero
                    commutes = not any(map(any, left if up_i else right))
                if not commutes:
                    return tuple(map(layout.point, (x, xj, xi, xe)))
    return None


def validate_diagram(diagram: PosetDiagram) -> DiagramCheck:
    """Shape conformance plus commutativity: all covering chains between two
    points compose to the same map.

    On a point set that is a product of chains (``as_product`` recognises
    it) the unit squares generate every commutativity relation, so only
    they are checked, by :func:`first_failing_square`.  On other sets they
    do not: on (0,0), (2,0), (0,1), (1,1), (2,1) the chains from (0,0) to
    (2,1) through (2,0) and through (1,1) share no square.  There the
    composites from a point c are carried up the covers in linear-extension
    order, and compared wherever a point e is reached through two lower
    covers d1, d2; a mismatch is reported as ``(c, d1, d2, e)``.  Every
    chain from a point with one upper cover runs through that cover, and a
    point of dimension zero has only zero composites, so only points with
    two or more upper covers and a non-zero space are sources of that walk.
    """
    if diagram._validated is True:
        return DiagramCheck(True)
    dims, field = diagram.dims, diagram.field
    for (c, d), m in diagram.maps.items():
        if m.nrows != dims[d] or m.ncols != dims[c]:
            return DiagramCheck(False, f"map {c!r} -> {d!r} has shape {m.shape}, expected "
                                f"{(dims[d], dims[c])}", (c, d))
        if m.field is not field and m.field != field:
            return DiagramCheck(False, f"map {c!r} -> {d!r} is over the wrong field", (c, d))
    if diagram.product is not None:
        steps = {key: m for key, m in diagram.steps.items() if not m.is_zero()}
        square = first_failing_square(diagram.product, list(dims.values()), steps,
                                      {key for key, m in steps.items() if m.is_identity()})
        if square is not None:
            return DiagramCheck(False, "square does not commute", square)
    else:
        upper = diagram.cover_lists()[0]
        for start, c in enumerate(diagram.points):
            if diagram.dims[c] == 0 or len(upper[c]) < 2:
                continue
            composite, via = {c: None}, {}  # None stands for the identity at c
            for x in diagram.points[start:]:
                if x not in composite:
                    continue
                here = composite[x]
                for e in upper[x]:
                    step = diagram.maps[(x, e)]
                    mat = step if here is None else step @ here
                    if e not in composite:
                        composite[e], via[e] = mat, x
                    elif composite[e] != mat:
                        return DiagramCheck(False, "square does not commute", (c, via[e], x, e))
    diagram._validated = True
    return DiagramCheck(True)


def _require_valid(diagram: PosetDiagram):
    check = validate_diagram(diagram)
    if not check:
        raise InputError(f"diagram does not validate: {check.message} at {check.square!r}")


# diagram_colimit and _block_offsets serve no verb; perfbench/bench_trace.py binds the first
def _block_offsets(diagram: PosetDiagram) -> tuple:
    offsets = {}
    total = 0
    for p in diagram.points:
        offsets[p] = total
        total += diagram.dims[p]
    return offsets, total


def diagram_colimit(diagram: PosetDiagram) -> tuple:
    """Colimit of the diagram: (dimension, injection matrix per point).

    Computed as the direct sum of all spaces modulo the identifications
    x ~ f(x) along every covering map; relations along composites follow
    from those along covers.
    """
    _require_valid(diagram)
    field = diagram.field
    offsets, total = _block_offsets(diagram)
    columns = []
    for c, d in diagram.covers():
        f = diagram.maps[(c, d)].entries()
        oc, od = offsets[c], offsets[d]
        for j in range(diagram.dims[c]):
            col = [field.zero] * total
            for i, row in enumerate(f):
                col[od + i] = row[j]
            col[oc + j] = field.sub(col[oc + j], field.one)
            columns.append(col)
    relations = Matrix.from_columns(field, columns, nrows=total)
    q = cokernel_projection(relations)
    injections = {}
    for p in diagram.points:
        o = offsets[p]
        injections[p] = Matrix._reduced(field, [r[o:o + diagram.dims[p]] for r in q.rows],
                                        diagram.dims[p], q.den)
    return q.nrows, injections


def _vec(m: Matrix) -> list:
    """The entries of ``m`` as field elements, row by row."""
    return [x for row in m.entries() for x in row]


# kron, _unvec and _inverse serve only nat_basis, below
def kron(p: Matrix, q: Matrix) -> Matrix:
    """Kronecker product; with row-major vec, vec(P M R) = kron(P, R^T) vec(M)."""
    rows = [[x * y for x in pr for y in qr] for pr in p.rows for qr in q.rows]
    return Matrix._reduced(p.field, rows, p.ncols * q.ncols, p.den * q.den)


def _unvec(column: Matrix, nrows, ncols) -> Matrix:
    """A matrix of one column, read row by row as an nrows x ncols matrix."""
    flat = [x for (x,) in column.rows]
    return Matrix._of_rows(column.field, [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)],
                           ncols, column.den)


def _inverse(m: Matrix) -> Matrix:
    inv = solve(m, Matrix.identity(m.field, m.nrows))
    if inv is None:
        raise InputError("matrix is not invertible")
    return inv


# no verb calls nat_basis; perfbench/bench_trace.py binds it by name
def nat_basis(a: PosetDiagram, b: PosetDiagram) -> list:
    """Basis of the space of natural transformations a -> b.

    Each basis element is a dict with one matrix per point.  Unknowns are
    kept only at points without an in-cover whose a-side map is invertible;
    everywhere else the component is propagated through that cover (the
    naturality square determines it exactly), and the remaining squares turn
    into linear constraints on the few free blocks.
    """
    if a.points != b.points:
        raise InputError("diagrams must share the same point set")
    if a.field != b.field:
        raise InputError("diagrams must share the same field")
    field = a.field
    _require_valid(a)
    _require_valid(b)
    in_covers = a.cover_lists()[1]

    free_offset = {}
    total = 0
    propagate = {}
    for p in a.points:
        chosen = None
        for c in in_covers[p]:
            if a.dims[c] == a.dims[p] and is_invertible(a.maps[(c, p)]):
                chosen = c
                break
        if chosen is None:
            free_offset[p] = total
            total += b.dims[p] * a.dims[p]
        else:
            propagate[p] = chosen

    expr = {}
    constraints = []
    zero = field.zero
    for p in a.points:
        size = b.dims[p] * a.dims[p]
        if p in free_offset:
            o = free_offset[p]
            expr[p] = Matrix._of_rows(field, [[0] * (o + i) + [1] + [0] * (total - o - i - 1)
                                              for i in range(size)], total)
            remaining = in_covers[p]
        else:
            c = propagate[p]
            f_inv = _inverse(a.maps[(c, p)])
            expr[p] = kron(b.maps[(c, p)], f_inv.transpose()) @ expr[c]
            remaining = [cc for cc in in_covers[p] if cc != c]
        for c in remaining:
            lhs = kron(Matrix.identity(field, b.dims[p]), a.maps[(c, p)].transpose()) @ expr[p]
            rhs = kron(b.maps[(c, p)], Matrix.identity(field, a.dims[c])) @ expr[c]
            for lr, rr in zip(lhs.entries(), rhs.entries()):
                row = [field.sub(x, y) for x, y in zip(lr, rr)]
                if any(x != zero for x in row):
                    constraints.append(row)

    if total == 0:
        # no parameters anywhere: the zero transformation is the whole space
        return []
    kernel = kernel_basis(Matrix._of_entries(field, constraints, total))
    basis = []
    for j in range(kernel.ncols):
        u = Matrix._reduced(field, [(x,) for x in kernel.column(j)], 1, kernel.den)
        basis.append({p: _unvec(expr[p] @ u, b.dims[p], a.dims[p]) for p in a.points})
    return basis


def diagrams_isomorphic(a: PosetDiagram, b: PosetDiagram) -> bool | None:
    """Decide whether two diagrams on the same poset are naturally isomorphic.

    After the cheap exits (dimensions, the identity, cover ranks), ``a`` is
    presented by its scan and ``presentation._find_isomorphism`` searches the
    maps out of that presentation into ``b``.  ``True`` comes with an
    isomorphism in hand, ``False`` with a certificate: unequal dimensions or
    cover ranks, dim Hom(a, b) unlike one of End(a), Hom(b, a) and End(b),
    or an exhausted small search.  ``None`` means that the search ran out.
    """
    if a.points != b.points:
        raise InputError("diagrams must share the same point set")
    if a.field != b.field:
        raise InputError("diagrams must share the same field")
    for p in a.points:
        if a.dims[p] != b.dims[p]:
            return False
    if all(a.maps[e] == b.maps[e] for e in a.covers()):
        return True
    for e in a.covers():
        if rank(a.maps[e]) != rank(b.maps[e]):
            return False
    _require_valid(b)  # and the scan validates a
    from .presentation import _find_isomorphism, present_diagram
    found = _find_isomorphism(present_diagram(a), (a.dims.__getitem__, a.path_map),
                              (b.dims.__getitem__, b.path_map), a.points,
                              lambda: present_diagram(b))
    return None if found is None else found is not False
