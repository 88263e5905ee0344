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
from functools import cached_property
from operator import le, or_
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
    if not {*map(type, pt)} <= {int}:  # plain ints need no call per coordinate
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
    return all(map(le, p, q))


def lt(p: Point, q: Point) -> bool:
    return p != q and leq(p, q)


def is_integral(p: Point) -> bool:
    """True when no coordinate is the bottom element."""
    return NEG_INF not in p


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


# k points can have 2^k - 1 joins, so a closure is refused once it grows past this
MAX_CLOSURE_POINTS = 4096


def order_masks(points: list, above: bool = True) -> list:
    """Per point of ``points``, as bits (point j is bit j), the points at or
    above it, or with ``above`` false at or below it: the AND, over the
    axes, of the points whose coordinate there is at least (at most) its
    own."""
    masks = [-1] * len(points)
    for axis in range(len(points[0]) if points else 0):
        at = {}
        for i, p in enumerate(points):
            at[p[axis]] = at.get(p[axis], 0) | 1 << i
        reach, acc = {}, 0
        for v in sorted(at, reverse=above):
            acc = reach[v] = acc | at[v]
        masks = [m & reach[p[axis]] for m, p in zip(masks, points)]
    return masks


def join_closure(points: Iterable[Point]) -> frozenset:
    """Closure of a finite set under pairwise joins.

    Because the join operation is associative, the fixpoint of pairwise joins
    equals the set of minimal upper bounds of all non-empty subsets, without
    enumerating the subsets.  Every element of the closure is the join of
    some input points, so each new element needs joining with the input
    points only: the join of k of them is found in the (k-1)-th round.  The
    first round joins each unordered pair of input points once, and only
    the pairs that are not comparable (:func:`order_masks`): the join of a
    comparable pair is one of the two.  A product of chains is join-closed
    as it is; any other closure of more than ``MAX_CLOSURE_POINTS`` points
    is refused after the round that passes it.
    """
    closed = set(points)
    if closed:
        common_dim(closed)
        if as_product(closed) is not None:
            return frozenset(closed)
    given = list(closed)
    comparable = map(or_, order_masks(given), order_masks(given, above=False))
    frontier = set()
    for i, mask in enumerate(comparable):
        rest, p = ~mask >> (i + 1) << (i + 1) & ((1 << len(given)) - 1), given[i]
        while rest:
            low = rest & -rest
            frontier.add(join(p, given[low.bit_length() - 1]))
            rest ^= low
    frontier -= closed
    closed |= frontier
    while frontier:
        if len(closed) > MAX_CLOSURE_POINTS:
            raise InputError(f"the join closure has at least {len(closed)} points, "
                             f"above the bound {MAX_CLOSURE_POINTS}")
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

    @property
    def dim(self) -> int:
        return len(self.a)

    def integer_points(self) -> Iterator[Point]:
        """All integer points of the box in lexicographic order."""
        ranges = [range(lo, hi + 1) for lo, hi in zip(self.a, self.b)]
        return itertools.product(*ranges)

    def cartesian(self) -> "CartesianSet":
        return _unchecked(CartesianSet, tuple([tuple(range(lo, hi + 1))
                                               for lo, hi in zip(self.a, self.b)]))


def _unchecked(cls, *values):
    """A :class:`Box` or a :class:`CartesianSet` with its fields set to
    ``values`` through ``cls.__new__``, with no check: for checked data."""
    made = cls.__new__(cls)
    made.__dict__.update(zip(cls.__dataclass_fields__, values))
    return made


class _once(cached_property):
    """A cached property without the lock it takes before Python 3.12."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


@dataclass(frozen=True)
class CartesianSet:
    """A product S_1 x ... x S_n of finite coordinate sets in Z u {-inf},
    laid out as a product of chains, as every walk of a product reads it.

    A point is known by its place x in lexicographic order.  ``strides``
    gives per axis how far apart there a point and the next one along the
    axis lie; ``upper_axes`` and ``lower`` give each point's covers, and
    ``cover_axis`` the axis of a cover by the distance between the places of
    its ends.  The step along ``axis`` out of the place x has the flat key
    ``x * n + axis``, ``step_keys[axis][x]``, and :meth:`steps_of` inverts
    it.  Each list is made on first read, lock-free, for loops to read.
    """

    factors: tuple

    def __post_init__(self):
        factors = tuple(tuple(sorted(set(f))) for f in self.factors)
        if not factors:
            raise InputError("cartesian sets need dimension at least 1")
        for f in factors:
            if not f:
                raise InputError("cartesian factors must be non-empty")
            if not {*map(type, f[1:] if f[0] == NEG_INF else f)} <= {int}:
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
        return _unchecked(CartesianSet, tuple([f if f[0] == NEG_INF else (NEG_INF,) + f
                                               for f in self.factors]))

    def covers(self) -> Iterator[tuple]:
        """Covering pairs of the product poset: one axis stepped to its
        successor, by source in lexicographic order, then by axis."""
        pts, strides = self.sorted_points(), self.strides
        for x, axes in enumerate(self.upper_axes):
            for axis in axes:
                yield pts[x], pts[x + strides[axis]]

    @_once
    def strides(self) -> tuple:
        strides = [1]
        for f in self.factors[:0:-1]:
            strides.append(strides[-1] * len(f))
        return tuple(strides[::-1])

    def point(self, x: int) -> Point:
        """The point at place x."""
        return tuple([f[x // stride % len(f)] for f, stride in zip(self.factors, self.strides)])

    @_once
    def upper_axes(self) -> list:
        """Per point, the axes of its upper covers, in increasing order: along
        an axis, every point but those at its last coordinate has one."""
        axes = [()]
        for axis in reversed(range(len(self.factors))):
            axes = [(axis,) + rest for rest in axes] * (len(self.factors[axis]) - 1) + axes
        return axes

    @_once
    def lower(self) -> list:
        """Per point, the places of its lower covers, the first axis first."""
        lower, strides = [[] for _ in self.upper_axes], self.strides
        for x, axes in enumerate(self.upper_axes):
            for axis in axes:
                lower[x + strides[axis]].append(x)
        return lower

    @_once
    def cover_axis(self) -> dict:
        """The axis of a cover by the distance between the places of its
        ends: an axis of one coordinate has none, though its stride repeats
        the next axis's."""
        return {stride: axis for axis, stride in reversed(list(enumerate(self.strides)))}

    @_once
    def step_keys(self) -> tuple:
        """Per axis, the flat key ``x * n + axis`` of the step out of each place x."""
        n = len(self.factors)
        size = self.strides[0] * len(self.factors[0]) * n
        return tuple([list(range(axis, size, n)) for axis in range(n)])

    def steps_of(self, keys) -> list:
        """``(x, axis)`` of each flat step key, in order."""
        n = len(self.factors)
        return [divmod(key, n) for key in keys]

    def clamps(self, box: Box) -> list:
        """Per axis, each coordinate clamped into the box, as
        :func:`extended_projection` clamps it, by its place on the box's axis."""
        return [[0 if v < lo else min(v, hi) - lo for v in f]
                for f, lo, hi in zip(self.factors, box.a, box.b)]

    def places(self, positions) -> list:
        """The place of each point of the product of ``positions`` (per
        axis, places on this product's axis), in lexicographic order."""
        out = [0]
        for pos, f in zip(positions, self.factors):
            size = len(f)
            out = [x * size + k for x in out for k in pos]
        return out


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
    """Meet of the elements of a cartesian set (or box) above ``c``.

    Defined for ``c`` in the extended set: each bottom coordinate is replaced
    by the least element of the corresponding factor, finite coordinates must
    belong to their factor and are kept.  A box is read off its corners.
    """
    if isinstance(source, Box):
        if len(c) != source.dim:
            raise InputError(f"point {c!r} does not match dimension {source.dim}")
        if not all(v == NEG_INF or lo <= v <= hi for v, lo, hi in zip(c, source.a, source.b)):
            raise InputError(f"point {c!r} is not in the extended cartesian set")
        return tuple(map(max, source.a, c))
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


# the grids are walked point by point, so a larger one is refused before it is built
MAX_GRID_POINTS = 10 ** 6


def critical_grid(box: Box, s: Iterable[Point] = ()) -> CartesianSet:
    """Finite product grid on which box data and downset predicates are constant.

    Per axis it collects -inf, the box range widened by one, and for
    every point of ``s`` the threshold coordinate together with its
    predecessor.  Between consecutive representatives nothing changes: module
    values only move inside the widened box, and membership of a downset of
    ``s`` only flips at coordinates of ``s``.  Widening by one gives every
    clamp class of an axis (below the box, each box coordinate, above it) a
    representative; a wider grid only repeats classes.  Each axis is sized
    before its range is listed, and a grid of more than ``MAX_GRID_POINTS``
    points is an ``InputError``.
    """
    pts = [as_point(p, dim=box.dim) for p in s]
    outside, size = [], 1
    for i in range(box.dim):
        lo, hi = box.a[i] - 1, box.b[i] + 1
        out = {v for p in pts if p[i] != NEG_INF for v in (p[i] - 1, p[i])
               if not lo <= v <= hi}
        outside.append(out)
        size *= hi - lo + 2 + len(out)
    if size > MAX_GRID_POINTS:
        raise InputError(f"the critical grid has {size} points, above the bound {MAX_GRID_POINTS}")
    return _unchecked(CartesianSet, tuple([tuple(sorted({NEG_INF, *range(lo - 1, hi + 2), *out}))
                                           for lo, hi, out in zip(box.a, box.b, outside)]))
