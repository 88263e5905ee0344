"""Order theory of the integer grid extended by a bottom coordinate.

Points live in (Z u {-inf})^n with the coordinatewise partial order.  Every
finite set of points has a unique minimal upper bound (the coordinatewise
maximum) and every finite non-empty set has a unique maximal lower bound (the
coordinatewise minimum), so the extended grid is a bounded join-semilattice
with bottom element (-inf, ..., -inf).

The bottom coordinate is represented by ``float("-inf")``; all other
coordinates are plain ``int``.  Points are ordinary tuples, so they can be
used as dict keys and set members directly.  All functions here are pure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError

NEG_INF = float("-inf")

ExtCoord = int | float  # the only permitted float value is NEG_INF
Point = tuple  # tuple[ExtCoord, ...]


def is_coord(value) -> bool:
    """True for an int or the bottom element, False otherwise (bools excluded)."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    return isinstance(value, float) and value == NEG_INF


def as_point(coords: Iterable, dim: int | None = None) -> Point:
    """Validate a coordinate sequence and return it as a point tuple."""
    pt = tuple(coords)
    if dim is not None and len(pt) != dim:
        raise InputError(f"point {pt!r} does not have dimension {dim}")
    if not pt:
        raise InputError("points must have dimension at least 1")
    for v in pt:
        if not is_coord(v):
            raise InputError(f"invalid coordinate {v!r}; expected an integer or -inf")
    return pt


def common_dim(points: Iterable[Point]) -> int:
    """Shared dimension of a non-empty collection of points."""
    dims = {len(p) for p in points}
    if len(dims) != 1:
        if not dims:
            raise InputError("empty point collection has no dimension")
        raise InputError(f"dimension mismatch among points: {sorted(dims)}")
    return dims.pop()


def leq(p: Point, q: Point) -> bool:
    """Coordinatewise order.  Tuple comparison would be lexicographic; avoid it."""
    return all(a <= b for a, b in zip(p, q))


def lt(p: Point, q: Point) -> bool:
    return p != q and leq(p, q)


def is_integral(p: Point) -> bool:
    """True when no coordinate is the bottom element."""
    return all(c != NEG_INF for c in p)


def min_point(dim: int) -> Point:
    return (NEG_INF,) * dim


def point_sort_key(p: Point):
    """Total order with -inf below every integer, refining the product order.

    It is the order of the point tuples themselves, since the float -inf
    compares below every int; :func:`sort_points` sorts by that directly.
    """
    return tuple((0, 0) if c == NEG_INF else (1, c) for c in p)


def sort_points(points: Iterable[Point]) -> list[Point]:
    """Deduplicate and sort lexicographically (a linear extension of <=), in
    the order of :func:`point_sort_key`."""
    return sorted(set(points))


def mub(points: Iterable[Point], dim: int | None = None) -> Point:
    """Minimal upper bound: the coordinatewise maximum.

    The empty set is allowed only when ``dim`` is given, in which case the
    bottom element of that dimension is returned (the join of nothing).
    """
    pts = list(points)
    if not pts:
        if dim is None:
            raise InputError("mub of an empty set needs an explicit dimension")
        return min_point(dim)
    n = common_dim(pts)
    if dim is not None and dim != n:
        raise InputError(f"points have dimension {n}, expected {dim}")
    return tuple(max(p[i] for p in pts) for i in range(n))


def join(p: Point, q: Point) -> Point:
    return tuple(map(max, p, q))


def join_closure(points: Iterable[Point]) -> frozenset:
    """Closure of a finite set under pairwise joins.

    Because the join operation is associative, the fixpoint of pairwise joins
    equals the set of minimal upper bounds of all non-empty subsets, without
    enumerating the subsets.  Every element of the closure is the join of
    some input points, so each new element needs joining with the input
    points only: the join of k of them is found in the (k-1)-th round.
    """
    closed = set(points)
    if closed:
        common_dim(closed)
        if as_product(closed) is not None:  # a product of chains is join-closed
            return frozenset(closed)
    given = list(closed)
    frontier = given
    while frontier:
        frontier = {join(p, q) for p in frontier for q in given} - closed
        closed |= frontier
    return frozenset(closed)


def pointed_closure(points: Iterable[Point], dim: int | None = None) -> frozenset:
    """Join closure together with the bottom element of the grid."""
    closed = set(join_closure(points))
    if closed:
        dim = common_dim(closed)
    elif dim is None:
        raise InputError("pointed closure of an empty set needs an explicit dimension")
    closed.add(min_point(dim))
    return frozenset(closed)


def join_below(s: Iterable[Point], c: Point) -> Point:
    """Join of the elements of ``s`` lying below ``c``.

    Monotone in ``c``; returns the bottom element when nothing in ``s`` is
    below ``c``.  Unchanged when ``s`` is replaced by its join closure.
    """
    below = [p for p in s if leq(p, c)]
    return mub(below, dim=len(c))


# no verb calls downset_of; perfbench/bench_trace.py binds it by name
def downset_of(s: Iterable[Point], c: Point) -> frozenset:
    """The part of ``s`` lying below ``c``."""
    return frozenset(p for p in s if leq(p, c))


def in_upset(s: Iterable[Point], c: Point) -> bool:
    """True when ``c`` lies above some element of ``s``."""
    return any(leq(p, c) for p in s)


@dataclass(frozen=True)
class Box:
    """Closed interval [a, b] of integer points, a <= b coordinatewise."""

    a: tuple
    b: tuple

    def __post_init__(self):
        a = as_point(self.a)
        b = as_point(self.b, dim=len(a))
        if not (is_integral(a) and is_integral(b)):
            raise InputError("box corners must be integer points")
        if not leq(a, b):
            raise InputError(f"box corners out of order: {a!r} > {b!r}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def _checked(cls, a: Point, b: Point) -> "Box":
        """A box from corners the caller has checked as ``__post_init__``
        does: points of one dimension, integral, with a <= b."""
        box = cls.__new__(cls)
        object.__setattr__(box, "a", a)
        object.__setattr__(box, "b", b)
        return box

    @property
    def dim(self) -> int:
        return len(self.a)

    def integer_points(self) -> Iterator[Point]:
        """All integer points of the box in lexicographic order."""
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.a, self.b)]
        return itertools.product(*ranges)

    def strides(self) -> tuple:
        """Per axis, how far apart in :meth:`integer_points` a point and the
        next one along the axis lie."""
        return lex_strides([hi - lo + 1 for lo, hi in zip(self.a, self.b)])

    def cartesian(self) -> "CartesianSet":
        return CartesianSet(tuple(tuple(range(lo, hi + 1)) for lo, hi in zip(self.a, self.b)))


@dataclass(frozen=True)
class CartesianSet:
    """A product S_1 x ... x S_n of finite coordinate sets in Z u {-inf}."""

    factors: tuple

    def __post_init__(self):
        factors = tuple(tuple(sorted(set(f))) for f in self.factors)
        if not factors:
            raise InputError("cartesian sets need dimension at least 1")
        for f in factors:
            if not f:
                raise InputError("cartesian factors must be non-empty")
            for v in f:
                if not is_coord(v):
                    raise InputError(f"invalid coordinate {v!r} in cartesian factor")
        object.__setattr__(self, "factors", factors)

    @property
    def dim(self) -> int:
        return len(self.factors)

    def __len__(self) -> int:
        size = 1
        for f in self.factors:
            size *= len(f)
        return size

    def __contains__(self, c: Point) -> bool:
        return len(c) == self.dim and all(v in f for v, f in zip(c, self.factors))

    def __iter__(self) -> Iterator[Point]:
        """The points in lexicographic order."""
        return itertools.product(*self.factors)

    def sorted_points(self) -> list[Point]:
        """The product enumerated in lexicographic order."""
        return list(itertools.product(*self.factors))

    def points(self) -> frozenset:
        return frozenset(itertools.product(*self.factors))

    def extended(self) -> "CartesianSet":
        """The same product with the bottom coordinate added to each factor."""
        return CartesianSet(tuple((NEG_INF,) + f if f[0] != NEG_INF else f for f in self.factors))

    def covers(self) -> Iterator[tuple]:
        """Covering pairs of the product poset: one axis stepped to its
        successor, by source in lexicographic order, then by axis.  The
        successor along an axis lies one stride further in that order."""
        lengths = [len(f) for f in self.factors]
        strides = lex_strides(lengths)
        pts = self.sorted_points()
        for i, idx in enumerate(itertools.product(*map(range, lengths))):
            for axis, k in enumerate(idx):
                if k + 1 < lengths[axis]:
                    yield pts[i], pts[i + strides[axis]]

    def join_below(self, c: Point) -> Point:
        """Coordinatewise version of :func:`join_below`; factors must contain -inf."""
        out = []
        for v, f in zip(c, self.factors):
            if f[0] != NEG_INF:
                raise InputError("coordinatewise join_below needs -inf in every factor")
            below = [x for x in f if x <= v]
            out.append(below[-1])
        return tuple(out)


def as_product(points) -> CartesianSet | None:
    """The finite collection ``points`` as a :class:`CartesianSet` when it is
    the product of its coordinate sets, otherwise ``None``.

    The size of that product is compared first, so a sparse set never builds
    it; equal sizes are confirmed by an exact comparison.
    """
    if isinstance(points, CartesianSet):
        return points
    pts = frozenset(points)
    if not pts:
        return None
    factors = [frozenset(coords) for coords in zip(*pts)]
    size = 1
    for f in factors:
        size *= len(f)
    if size != len(pts):
        return None
    product = CartesianSet(tuple(factors))
    return product if product.points() == pts else None


def _to_cartesian(source) -> CartesianSet:
    if isinstance(source, CartesianSet):
        return source
    if isinstance(source, Box):
        return source.cartesian()
    raise InputError(f"expected a Box or CartesianSet, got {type(source).__name__}")


def ext_box(source) -> CartesianSet:
    """Extend a cartesian set (or box) by the bottom coordinate on every axis.

    For a box [a, b] this is the set of points whose i-th coordinate lies in
    [a_i, b_i] or equals -inf, with exactly prod(b_i - a_i + 2) elements.
    """
    return _to_cartesian(source).extended()


def meet_above(source, c: Point) -> Point:
    """Meet of the elements of a cartesian set above ``c``.

    Defined for ``c`` in the extended set: each bottom coordinate is replaced
    by the least element of the corresponding factor, finite coordinates must
    belong to their factor and are kept.
    """
    cart = _to_cartesian(source)
    if len(c) != cart.dim:
        raise InputError(f"point {c!r} does not match dimension {cart.dim}")
    out = []
    for v, f in zip(c, cart.factors):
        if v == NEG_INF and f[0] != NEG_INF:
            out.append(f[0])
        elif v in f:
            out.append(v)
        else:
            raise InputError(f"point {c!r} is not in the extended cartesian set")
    return tuple(out)


def convex_projection(box: Box, c: Point) -> Point:
    """Clamp an integer point into the box, coordinate by coordinate."""
    if len(c) != box.dim:
        raise InputError(f"point {c!r} does not match box dimension {box.dim}")
    if not is_integral(c):
        raise InputError("convex projection is defined on integer points only; "
                         "use the extended projection for points with -inf coordinates")
    return tuple(max(lo, min(v, hi)) for v, lo, hi in zip(c, box.a, box.b))


def extended_projection(box: Box, c: Point) -> Point:
    """Total extension of the clamp to the whole extended grid.

    Equals join_below into the extended box followed by meet_above into the
    box; on integer points it agrees with :func:`convex_projection`.
    """
    if len(c) != box.dim:
        raise InputError(f"point {c!r} does not match box dimension {box.dim}")
    return tuple(map(max, box.a, map(min, c, box.b)))


def critical_grid(box: Box, s: Iterable[Point] = ()) -> CartesianSet:
    """Finite product grid on which box data and downset predicates are constant.

    Per axis it collects -inf, the box range widened by one, and for
    every point of ``s`` the threshold coordinate together with its
    predecessor.  Between consecutive representatives nothing changes: module
    values only move inside the widened box, and membership of a downset of
    ``s`` only flips at coordinates of ``s``.  Widening by one gives every
    clamp class of an axis (below the box, each box coordinate, above it) a
    representative; a wider grid only repeats classes.
    """
    pts = [as_point(p, dim=box.dim) for p in s]
    factors = []
    for i in range(box.dim):
        vals = {NEG_INF}
        vals.update(range(box.a[i] - 1, box.b[i] + 2))
        for p in pts:
            if p[i] != NEG_INF:
                vals.add(p[i] - 1)
                vals.add(p[i])
        factors.append(tuple(sorted(vals)))
    return CartesianSet(tuple(factors))


def clamps_and_strides(grid: CartesianSet, box: Box) -> tuple:
    """Per axis of a product grid, the clamps and the stride.

    ``clamps[axis][k]`` is the k-th coordinate of the axis clamped into the
    box, as :func:`extended_projection` clamps it.  The stride is how many
    points back in ``grid.sorted_points()`` the lower cover along the axis
    lies: the point at flat index i with index k > 0 on the axis covers the
    one at i - stride, whose index there is k - 1.
    """
    factors = grid.factors
    clamps = tuple(tuple(lo if v < lo else min(v, hi) for v in f)
                   for f, lo, hi in zip(factors, box.a, box.b))
    return clamps, lex_strides([len(f) for f in factors])


def lex_strides(lengths) -> tuple:
    """Per axis of a product with these axis lengths, how far apart in
    lexicographic order a point and the next one along the axis lie."""
    strides = [1] * len(lengths)
    for axis in reversed(range(len(lengths) - 1)):
        strides[axis] = strides[axis + 1] * lengths[axis + 1]
    return tuple(strides)
