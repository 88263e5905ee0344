"""Exact linear algebra over prime fields and the rationals.

Matrices are dense, immutable, and carry their field.  On top of them sit
finite poset diagrams of vector spaces with commutativity validation.
Verdicts elsewhere in the package come from explicit maps checked with
ranks and products; :func:`diagrams_isomorphic` searches the maps out of a
presentation, for input that carries no such map.  No floating point is
used anywhere.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, xor
from typing import Iterable

from .errors import InputError
from .extgrid import Point, as_product, leq, sort_points


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
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

    def coerce_rows(self, rows) -> list:
        """Rows of entries as tuples of field elements: a plain int is reduced
        at once, anything else goes through :meth:`coerce`."""
        p, coerce = self.p, self.coerce
        return [tuple([x % p if type(x) is int else coerce(x) for x in r]) for r in rows]

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def dot(self, u, v):
        return sum(a * b for a, b in zip(u, v)) % self.p

    def scale_row(self, k, row):
        p = self.p
        return [(k * x) % p for x in row]

    def subtract_scaled(self, row, k, prow):
        p = self.p
        return [(x - k * y) % p for x, y in zip(row, prow)]


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

    def coerce_rows(self, rows) -> list:
        coerce = self.coerce
        return [tuple([Fraction(x) if type(x) is int else coerce(x) for x in r]) for r in rows]

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return Fraction(1) / a

    def dot(self, u, v):
        return sum(a * b for a, b in zip(u, v))

    def scale_row(self, k, row):
        return [k * x for x in row]

    def subtract_scaled(self, row, k, prow):
        return [x - k * y for x, y in zip(row, prow)]

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational-field")

    def __repr__(self):
        return "RationalField()"


QQ = RationalField()


_IDENTITY_ROWS = {}


def identity_rows(n: int) -> list:
    """The n x n identity as a list of integer row tuples, made once per n.
    Entries of either field compare equal to these integers."""
    rows = _IDENTITY_ROWS.get(n)
    if rows is None:
        rows = _IDENTITY_ROWS[n] = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return rows


class Matrix:
    """Immutable dense matrix over an exact field.

    Zero-dimensional shapes (0 x k and k x 0) are first-class citizens; most
    of the package's maps into or out of zero spaces go through them.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows, ncols: int | None = None, _coerce: bool = True):
        # internal callers (``_coerce=False``) pass field elements, often in
        # rows that are already tuples: those are kept, not copied
        if _coerce:
            rows = [tuple(r) for r in rows]
        else:
            rows = [r if type(r) is tuple else tuple(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InputError("ragged matrix rows")
            if ncols is not None and ncols != width:
                raise InputError(f"matrix has {width} columns, expected {ncols}")
            ncols = width
        elif ncols is None:
            raise InputError("a matrix with zero rows needs an explicit column count")
        if _coerce:
            rows = field.coerce_rows(rows)
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = tuple(rows)

    @classmethod
    def _of_rows(cls, field, rows: list, ncols: int) -> "Matrix":
        """A matrix from rows of field elements, each a tuple of length
        ``ncols``, taken as they are: the caller has checked them."""
        m = cls.__new__(cls)
        m.field, m.nrows, m.ncols, m.rows = field, len(rows), ncols, tuple(rows)
        return m

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, [(z,) * ncols for _ in range(nrows)], ncols=ncols, _coerce=False)

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        z, o = field.zero, field.one
        return cls(field, [tuple(o if i == j else z for j in range(n)) for i in range(n)],
                   ncols=n, _coerce=False)

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
        z = self.field.zero
        return all(x == z for r in self.rows for x in r)

    def is_identity(self) -> bool:
        n = self.nrows
        return n == self.ncols and list(self.rows) == identity_rows(n)

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        if self.nrows == 0 or self.ncols == 0:
            return Matrix.zeros(self.field, self.ncols, self.nrows)
        return Matrix(self.field, list(zip(*self.rows)), ncols=self.nrows, _coerce=False)

    def scale(self, c) -> "Matrix":
        f = self.field
        return Matrix(f, [[f.mul(c, x) for x in row] for row in self.rows],
                      ncols=self.ncols, _coerce=False)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.shape != other.shape:
            raise InputError(f"shape mismatch {self.shape} + {other.shape}")
        f = self.field
        return Matrix(f, [[f.add(x, y) for x, y in zip(r, s)]
                          for r, s in zip(self.rows, other.rows)],
                      ncols=self.ncols, _coerce=False)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product on integer rows: over F_p each entry is one sum of
        products taken mod p; over Q each row of ``self`` and each column of
        ``other`` is cleared to integers over its own denominator, and each
        entry is one :class:`Fraction` of an integer sum."""
        field = self.field
        if field != other.field:
            raise InputError("field mismatch in matrix product")
        if self.ncols != other.nrows:
            raise InputError(f"shape mismatch {self.shape} @ {other.shape}")
        if self.nrows == 0 or other.ncols == 0 or self.ncols == 0:
            return Matrix.zeros(field, self.nrows, other.ncols)
        if field.kind == "prime":
            p = field.p
            cols = list(zip(*other.rows))
            rows = [tuple([sum(map(mul, r, c)) % p for c in cols]) for r in self.rows]
        else:
            cols = [_cleared(c) for c in zip(*other.rows)]
            rows = []
            for r in self.rows:
                r, dr = _cleared(r)
                rows.append(tuple([Fraction(sum(map(mul, r, c))) if dr * dc == 1
                                   else Fraction(sum(map(mul, r, c)), dr * dc)
                                   for c, dc in cols]))
        return Matrix._of_rows(field, rows, other.ncols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.field == other.field
                and self.shape == other.shape and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over {self.field!r})"


def hstack(field, mats: list, nrows: int) -> Matrix:
    for m in mats:
        if m.nrows != nrows:
            raise InputError("row count mismatch in hstack")
    rows = [tuple(itertools.chain.from_iterable(m.rows[i] for m in mats)) for i in range(nrows)]
    return Matrix(field, rows, ncols=sum(m.ncols for m in mats), _coerce=False)


def _cleared(vector) -> tuple:
    """A vector of rationals as (integer entries, denominator): the entries
    times their least common denominator, and that denominator."""
    pairs = [x.as_integer_ratio() for x in vector]
    den = math.lcm(*[q for _, q in pairs])
    if den == 1:
        return [n for n, _ in pairs], 1
    return [n * (den // q) for n, q in pairs], den


def _echelon(field, rows, ncols, pivot_limit=None, reduce=True):
    """Reduced row echelon form; returns (rows, pivot columns).

    With ``reduce`` false only the pivot columns are wanted, and the rows
    returned are ``None``.  Each row below a pivot is then cleared on
    integer rows, which gives the same pivots: over F_p the update
    a * row - b * pivot row takes one ``%`` per entry, with no inverse (over
    F_2 it is the XOR of the two rows); over Q every row is first cleared of
    denominators, and the update is fraction-free, each new row divided by
    the gcd of its entries so that they stay small.
    """
    if pivot_limit is None:
        pivot_limit = ncols
    nrows = len(rows)
    pivots = []
    r = 0
    if not reduce:
        prime = field.p if field.kind == "prime" else 0
        # rows are replaced, never changed in place, so the given ones are shared
        rows = list(rows) if prime else [_cleared(row)[0] for row in rows]
        for c in range(pivot_limit):
            if r == nrows:
                break
            for pr in range(r, nrows):
                if rows[pr][c]:
                    break
            else:
                continue
            prow = rows[pr]
            if pr != r:
                rows[r], rows[pr] = prow, rows[r]
            a = prow[c]
            for i in range(r + 1, nrows):
                row = rows[i]
                b = row[c]
                if not b:
                    continue
                if prime == 2:
                    rows[i] = list(map(xor, row, prow))
                elif prime:
                    rows[i] = [(a * x - b * y) % prime for x, y in zip(row, prow)]
                else:
                    new = [a * x - b * y for x, y in zip(row, prow)]
                    g = math.gcd(*new)
                    rows[i] = [x // g for x in new] if g > 1 else new
            pivots.append(c)
            r += 1
        return None, pivots
    rows = [list(r) for r in rows]
    zero, one = field.zero, field.one
    for c in range(pivot_limit):
        if r == nrows:
            break
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        if rows[r][c] != one:
            rows[r] = field.scale_row(field.inv(rows[r][c]), rows[r])
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] != zero:
                rows[i] = field.subtract_scaled(rows[i], rows[i][c], prow)
        pivots.append(c)
        r += 1
    return rows, pivots


# no verb calls rref; perfbench/bench_trace.py binds it by name
def rref(m: Matrix) -> tuple:
    """Reduced row echelon form together with the pivot columns."""
    rows, pivots = _echelon(m.field, m.rows, m.ncols)
    return Matrix(m.field, rows, ncols=m.ncols, _coerce=False), tuple(pivots)


def pivot_columns(field, rows, ncols: int) -> list:
    """The pivot columns of the echelon form of ``rows``, with no result matrix."""
    return _echelon(field, rows, ncols, reduce=False)[1]


def rank(m: Matrix) -> int:
    return len(pivot_columns(m.field, m.rows, m.ncols))


def is_invertible(m: Matrix) -> bool:
    """Square with full rank; non-square shapes never qualify."""
    return m.nrows == m.ncols and rank(m) == m.nrows


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form the canonical basis of the null space (free columns of the rref)."""
    field = m.field
    rows, pivots = _echelon(field, m.rows, m.ncols)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = [[field.zero] * len(free) for _ in range(m.ncols)]
    for k, f in enumerate(free):
        basis[f][k] = field.one
        for r, pc in enumerate(pivots):
            basis[pc][k] = field.neg(rows[r][f])
    return Matrix(field, basis, ncols=len(free), _coerce=False)


def cokernel_projection(m: Matrix) -> Matrix:
    """Surjection from the target of ``m`` whose kernel is exactly the image.

    The rows are the reduced-echelon basis of the left null space, so the
    result has full row rank ``nrows(m) - rank(m)`` and is canonical.
    """
    left = kernel_basis(m.transpose()).transpose()
    rows, _ = _echelon(m.field, left.rows, left.ncols)
    return Matrix(m.field, rows, ncols=m.nrows, _coerce=False)


def solve(m: Matrix, rhs: Matrix) -> Matrix | None:
    """A particular solution X of m @ X = rhs, or None when inconsistent.

    Free variables are set to zero, which makes the answer canonical.
    """
    if m.field != rhs.field:
        raise InputError("field mismatch in solve")
    if m.nrows != rhs.nrows:
        raise InputError(f"shape mismatch in solve: {m.shape} vs {rhs.shape}")
    field = m.field
    aug = [list(a) + list(b) for a, b in zip(m.rows, rhs.rows)]
    width = m.ncols + rhs.ncols
    rows, pivots = _echelon(field, aug, width, pivot_limit=m.ncols)
    zero = field.zero
    for i in range(len(pivots), m.nrows):
        if any(x != zero for x in rows[i][m.ncols:]):
            return None
    sol = [[zero] * rhs.ncols for _ in range(m.ncols)]
    for r, pc in enumerate(pivots):
        sol[pc] = list(rows[r][m.ncols:])
    return Matrix(field, sol, ncols=rhs.ncols, _coerce=False)


def poset_covers(points: list) -> list:
    """Covering pairs of an arbitrary finite subposet of the extended grid.

    The points are indexed in a linear extension, and bit j of ``up[i]`` is
    set when point j lies above point i: the AND, over the axes, of the
    points whose coordinate there is at least point i's.  Scanning up(p)
    without p from the least index, the first point left is a cover q of p,
    and every point above q is dropped before the next.  So the covers come
    out by p, then by q, in the linear extension.
    """
    ordered = sort_points(points)
    up = [-1] * len(ordered)
    for axis in range(len(ordered[0]) if ordered else 0):
        at = {}
        for i, p in enumerate(ordered):
            at[p[axis]] = at.get(p[axis], 0) | 1 << i
        at_least, acc = {}, 0
        for v in sorted(at, reverse=True):
            acc = at_least[v] = acc | at[v]
        up = [u & at_least[p[axis]] for u, p in zip(up, ordered)]
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
    unambiguous once the diagram validates.  A cover left out of ``maps``
    maps by the zero matrix of its shape, one shared matrix per shape.
    Without ``covers`` it derives all of them, from :attr:`product` or by
    :func:`poset_covers`, and ``covers_complete`` is true; a caller's may not be.
    """

    def __init__(self, field, points, dims, maps, covers=None):
        self.field = field
        points = list(points)
        self.points = tuple(sort_points(points))
        if len(self.points) != len(points):
            raise InputError("duplicate points in diagram")
        self.dims = {}
        for p in self.points:
            d = dims[p]
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise InputError(f"invalid dimension {d!r} at {p!r}")
            self.dims[p] = d
        self.covers_complete = covers is None
        self._product = False  # not decided yet
        if covers is None:
            product = self.product
            covers = poset_covers(list(self.points)) if product is None else product.covers()
        self._covers = tuple(sorted(covers))  # by source, then target, as sort_points orders
        cover_set = set(self._covers)
        self.maps = {}
        for key, mat in maps.items():
            if key not in cover_set:
                raise InputError(f"map given for non-covering pair {key!r}")
            self.maps[key] = mat
        zeros = {}
        for c, d in self._covers:
            if (c, d) not in self.maps:
                shape = (self.dims[d], self.dims[c])
                mat = zeros.get(shape)
                if mat is None:
                    mat = zeros[shape] = Matrix.zeros(field, *shape)
                self.maps[(c, d)] = mat
        self._identities = None
        self._path_cache = {}
        self._upper = None
        self._validated = None

    def covers(self) -> tuple:
        return self._covers

    @property
    def product(self):
        """The points as a :class:`CartesianSet` if they are one, else ``None``; decided once."""
        if self._product is False:
            self._product = as_product(self.points)
        return self._product

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
        if self._upper is None:
            self._upper = {p: [] for p in self.points}
            for x, y in self._covers:
                self._upper[x].append(y)
            position = {p: i for i, p in enumerate(self.points)}
            for ups in self._upper.values():
                ups.sort(key=position.__getitem__)
        steps = []
        x = c
        while True:
            nxt = next((y for y in self._upper[x] if leq(y, d)), None)
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
        """Restriction to a down-closed subset; covers are inherited verbatim."""
        keep = set(points)
        covers = [e for e in self._covers if e[0] in keep and e[1] in keep]
        sub = PosetDiagram(self.field, keep, {p: self.dims[p] for p in keep},
                           {e: self.maps[e] for e in covers}, covers=covers)
        if self._validated is True:
            sub._validated = True
        return sub


def validate_diagram(diagram: PosetDiagram) -> DiagramCheck:
    """Shape conformance plus commutativity: all covering chains between two
    points compose to the same map.

    On a point set that is a product of chains (``as_product`` recognises
    it) the minimal squares generate every commutativity relation, so only
    they are checked: pairs of covers c < d1, c < d2 with a common upper
    cover e.  A square commutes with no product when c or e is a zero
    space, or when its four maps are identities.  On other sets they do
    not: on (0,0), (2,0), (0,1), (1,1), (2,1) the chains from (0,0) to
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
    upper = {p: [] for p in diagram.points}
    for c, d in diagram.covers():
        upper[c].append(d)
    if diagram.product is not None:
        above = {p: set(ups) for p, ups in upper.items()}
        identities = diagram.identity_covers()
        for c, outs in upper.items():
            if not dims[c]:
                continue
            for i, d1 in enumerate(outs):
                for d2 in outs[i + 1:]:
                    for e in above[d1] & above[d2]:
                        if not dims[e] or ((c, d1) in identities and (d1, e) in identities
                                           and (c, d2) in identities and (d2, e) in identities):
                            continue
                        left = diagram.maps[(d1, e)] @ diagram.maps[(c, d1)]
                        right = diagram.maps[(d2, e)] @ diagram.maps[(c, d2)]
                        if left != right:
                            return DiagramCheck(False, "square does not commute", (c, d1, d2, e))
    else:
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
        f = diagram.maps[(c, d)]
        oc, od = offsets[c], offsets[d]
        for j in range(diagram.dims[c]):
            col = [field.zero] * total
            for i in range(f.nrows):
                col[od + i] = f.rows[i][j]
            col[oc + j] = field.sub(col[oc + j], field.one)
            columns.append(col)
    relations = Matrix.from_columns(field, columns, nrows=total)
    q = cokernel_projection(relations)
    injections = {}
    for p in diagram.points:
        o = offsets[p]
        injections[p] = Matrix(field, [r[o:o + diagram.dims[p]] for r in q.rows],
                               ncols=diagram.dims[p], _coerce=False)
    return q.nrows, injections


# kron, _unvec and _inverse serve only nat_basis, below
def kron(p: Matrix, q: Matrix) -> Matrix:
    """Kronecker product; with row-major vec, vec(P M R) = kron(P, R^T) vec(M)."""
    field = p.field
    rows = []
    for i in range(p.nrows):
        for r in range(q.nrows):
            row = []
            for j in range(p.ncols):
                pij = p.rows[i][j]
                row.extend(field.mul(pij, x) for x in q.rows[r])
            rows.append(row)
    return Matrix(field, rows, ncols=p.ncols * q.ncols, _coerce=False)


def _vec(m: Matrix) -> list:
    return [x for row in m.rows for x in row]


def _unvec(field, vec, nrows, ncols) -> Matrix:
    rows = [vec[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    return Matrix(field, rows, ncols=ncols, _coerce=False)


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
    in_covers = {p: [] for p in a.points}
    for c, d in a.covers():
        in_covers[d].append(c)

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
            rows = []
            for i in range(size):
                row = [zero] * total
                row[o + i] = field.one
                rows.append(row)
            expr[p] = Matrix(field, rows, ncols=total, _coerce=False)
            remaining = in_covers[p]
        else:
            c = propagate[p]
            f_inv = _inverse(a.maps[(c, p)])
            expr[p] = kron(b.maps[(c, p)], f_inv.transpose()) @ expr[c]
            remaining = [cc for cc in in_covers[p] if cc != c]
        for c in remaining:
            lhs = kron(Matrix.identity(field, b.dims[p]), a.maps[(c, p)].transpose()) @ expr[p]
            rhs = kron(b.maps[(c, p)], Matrix.identity(field, a.dims[c])) @ expr[c]
            for lr, rr in zip(lhs.rows, rhs.rows):
                row = [field.sub(x, y) for x, y in zip(lr, rr)]
                if any(x != zero for x in row):
                    constraints.append(row)

    if total == 0:
        # no parameters anywhere: the zero transformation is the whole space
        return []
    system = Matrix(field, constraints, ncols=total, _coerce=False) if constraints \
        else Matrix.zeros(field, 0, total)
    kernel = kernel_basis(system)
    basis = []
    for j in range(kernel.ncols):
        u = Matrix.from_columns(field, [kernel.column(j)], nrows=total)
        nat = {}
        for p in a.points:
            v = _vec(expr[p] @ u)
            nat[p] = _unvec(field, v, b.dims[p], a.dims[p])
        basis.append(nat)
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
    if a.covers() == b.covers() and all(a.maps[e] == b.maps[e] for e in a.covers()):
        return True
    if all(a.dims[p] == 0 for p in a.points):
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
