"""Finitely determined modules stored by their restriction to a box.

A :class:`GridModule` keeps dimensions and unit step matrices on the integer
points of a closed box.  By the storage contract its value anywhere on the
grid is read off through the convex projection, and its value anywhere on the
extended grid (including points with -inf coordinates) through the extended
projection.  :class:`ExtendedView` exposes that total semantics without
copying data.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import mul, sub
from typing import Callable

from .errors import InputError
from .extgrid import (Box, CartesianSet, Point, NEG_INF, as_product,
                      extended_projection, leq, sort_points)
from .linalg import (DiagramCheck, Matrix, PosetDiagram, identity_rows, poset_covers,
                     validate_diagram)


class GridModule:
    """Box-shaped grid of vector spaces with one step matrix per unit move.

    ``dims`` maps every integer point of the box, in lexicographic order, to
    a dimension.  A step is the move from a point to ``point + e_axis``, kept
    by its flat index ``x * n + axis``, where x is the point's place in
    ``box.integer_points()``.  ``step_rows`` holds each given step, and no
    other, as ``(rows, den)``: integer rows over one positive denominator,
    the rows themselves over F_p (den 1) and the rows times their least
    common denominator over Q.  That is the form the square check
    multiplies.  ``identities`` holds the flat index of each given step that
    is the identity, decided once from its rows, on first use.
    :meth:`flat_step` and :meth:`step` make a step's :class:`Matrix` on
    first use and keep it; a step the input leaves out is the zero matrix of
    the forced shape, one shared (immutable) matrix per shape.  Axes are
    0-based here (the file format is 1-based).
    """

    def __init__(self, field, box: Box, dims: dict, steps: dict):
        pts = list(box.integer_points())
        if list(dims) != pts:
            for p in pts:
                if p not in dims:
                    raise InputError(f"missing dimension at box point {p!r}")
            if len(dims) != len(pts):
                extra = set(dims) - set(pts)
                raise InputError(f"dimensions given outside the box: {sorted(extra)[:3]!r}")
        dims = {p: dims[p] for p in pts}
        for p, d in dims.items():
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise InputError(f"invalid dimension {d!r} at {p!r}")
        index, n, top = dict(zip(pts, range(len(pts)))), box.dim, box.b
        mats = {}
        for (p, axis), mat in steps.items():
            if not (p in index and 0 <= axis < n and p[axis] < top[axis]):
                raise InputError(f"step at {p!r} along axis {axis} leaves the box")
            mats[index[p] * n + axis] = mat
        self._fill(field, box, dims, index, {key: _integer_rows(mat) for key, mat in mats.items()})
        self._mats = mats  # checked for shape and field by validate_module

    @classmethod
    def _checked(cls, field, box: Box, dims: dict, index: dict, step_rows: dict):
        """A module from data the caller has checked as ``__init__`` and
        :func:`validate_module` do: ``dims`` on the box points in order and
        each a dimension, ``index`` the place of each box point in that
        order, ``step_rows`` the given steps by flat index, each inside the
        box, of its forced shape and over ``field``."""
        module = cls.__new__(cls)
        module._fill(field, box, dims, index, step_rows)
        return module

    def _fill(self, field, box, dims, index, step_rows):
        self.field = field
        self.box = box
        self.dims = dims
        self.step_rows = step_rows
        self._index = index
        self._layout_cache = None
        self._identities = None
        self._mats = {}
        self._zero = {}
        self._validated = None

    def _step_target(self, p: Point, axis: int) -> Point:
        return p[:axis] + (p[axis] + 1,) + p[axis + 1:]

    def flat_step(self, key: int) -> Matrix | None:
        """The matrix of the given step at flat index ``key``, made from its
        rows on first use, or ``None`` when the input leaves that step out."""
        mat = self._mats.get(key)
        if mat is None:
            given = self.step_rows.get(key)
            if given is None:
                return None
            rows, den = given
            if rows:
                ncols = len(rows[0])
            else:  # no rows: the width is the dimension at the source
                ncols = next(itertools.islice(self.dims.values(), key // self.box.dim, None))
            if self.field.kind == "rational":
                rows = [tuple(map(Fraction, r)) if den == 1
                        else tuple([Fraction(x, den) for x in r]) for r in rows]
            mat = self._mats[key] = Matrix._of_rows(self.field, rows, ncols)
        return mat

    def step(self, p: Point, axis: int) -> Matrix:
        x = self._index.get(p)
        if x is not None:
            key = x * self.box.dim + axis
            if key in self.step_rows:
                return self.flat_step(key)
        shape = (self.dims[self._step_target(p, axis)], self.dims[p])
        mat = self._zero.get(shape)
        if mat is None:
            mat = self._zero[shape] = Matrix.zeros(self.field, *shape)
        return mat

    def _layout(self) -> tuple:
        """The dimensions in box order and the box strides, made once."""
        if self._layout_cache is None:
            self._layout_cache = list(self.dims.values()), self.box.strides()
        return self._layout_cache

    @property
    def identities(self) -> set:
        """The flat indices of the given steps that are the identity: square
        over their source, over denominator 1, with the identity's rows.
        Decided once, on first use, so a module that is only loaded pays
        nothing."""
        if self._identities is None:
            values, n = self._layout()[0], self.box.dim
            self._identities = {key for key, (rows, den) in self.step_rows.items()
                                if den == 1 and len(rows) == values[key // n]
                                and rows == identity_rows(len(rows))}
        return self._identities

    def is_identity_step(self, p: Point, axis: int) -> bool:
        """Whether the step from the box point ``p`` along ``axis`` is the
        identity, with no :class:`Matrix` made: a given step as stored, a
        left-out one when both its ends are zero spaces (the 0 x 0
        identity)."""
        x = self._index[p]
        key = x * self.box.dim + axis
        if key in self.identities:
            return True
        if key in self.step_rows:
            return False
        values, strides = self._layout()
        return not values[x] and not values[x + strides[axis]]

    def is_identity_slab(self, axis: int, t: int) -> bool:
        """Whether every step along ``axis`` out of a box point with
        coordinate ``t`` there is the identity."""
        values, strides = self._layout()
        n, stride, lo = len(strides), strides[axis], self.box.a[axis]
        block = stride * (self.box.b[axis] - lo + 1)
        identities, given = self.identities, self.step_rows
        for o in range((t - lo) * stride, len(values), block):
            for x in range(o, o + stride):
                key = x * n + axis
                if key not in identities and (key in given or values[x]
                                              or values[x + stride]):
                    return False
        return True

    @property
    def steps(self) -> dict:
        """Every given step's matrix by ``(point, axis)``, in the order of
        ``step_rows``; the matrices not made yet are made now."""
        pts, n = list(self.dims), self.box.dim
        return {(pts[key // n], key % n): self.flat_step(key) for key in self.step_rows}


def _integer_rows(mat: Matrix) -> tuple:
    """A matrix as integer rows over one positive denominator, as
    ``GridModule.step_rows`` keeps a step: a list of its own row tuples over
    1 on F_p, and over the least common denominator on Q."""
    if mat.field.kind == "prime":
        return list(mat.rows), 1
    den = math.lcm(*(x.denominator for r in mat.rows for x in r))
    return [tuple([x.numerator * (den // x.denominator) for x in r]) for r in mat.rows], den


def _composite(outer: tuple, inner: tuple) -> tuple:
    """The product of two steps given as (integer rows, denominator),
    unreduced, as its entries in row-major order over a denominator."""
    (a, da), (b, db) = outer, inner
    cols = list(zip(*b))
    return [sum(map(mul, r, col)) for r in a for col in cols], da * db


def _composites_agree(left, right, p: int) -> bool:
    """Equality of two composites, each (entries, denominator) or ``None``
    for the zero map: mod p over F_p (``p`` > 0), and by cross-multiplying
    the denominators over Q (``p`` = 0)."""
    if left is None or right is None:
        entries = (left or right)[0]
        return not any(map(p.__rmod__, entries)) if p else not any(entries)
    (a, da), (b, db) = left, right
    if p:
        return not any(map(p.__rmod__, map(sub, a, b)))
    return a == b if da == db else list(map(db.__mul__, a)) == list(map(da.__mul__, b))


def validate_module(module: GridModule) -> DiagramCheck:
    """Shape, field and commutativity checks for the stored box data.

    The unit squares of the box generate every commutativity relation of the
    grid, and through the extended projection of the whole extended grid, so
    they are the only squares checked.  They are walked in lexicographic
    order of their bottom corner c, and at each c the pairs of axes j > i in
    the order (n-1, n-2), (n-1, n-3), ..., (1, 0); the first failure is
    reported as ``(c, c + e_j, c + e_i, c + e_i + e_j)``.  Points and steps
    are read by flat index (see :class:`GridModule`).  A square commutes
    without a product when c or its top corner has dimension zero, or when
    its four steps are identities.  A composite through a zero-dimensional
    corner or a left-out step is zero, so at most one product is formed
    then.  Products are made on the stored integer rows, with no
    :class:`Matrix`: over F_p the two sides are compared mod p unreduced,
    and over Q cross-multiplied by their denominators.  Shapes and fields
    are checked on the matrices made so far, those given to
    ``GridModule.__init__``; the loader checks the shape of every step it
    decodes.
    """
    if module._validated is True:
        return DiagramCheck(True)
    dims, given, field, identities = module.dims, module.step_rows, module.field, module.identities
    n, top, strides = module.box.dim, module.box.b, module.box.strides()
    pts, values = list(dims), list(dims.values())
    for key, mat in module._mats.items():
        x, axis = divmod(key, n)
        expected = (values[x + strides[axis]], values[x])
        if mat.shape != expected:
            p, q = pts[x], pts[x + strides[axis]]
            return DiagramCheck(False, f"step at {p!r} along axis {axis + 1} has shape "
                                f"{mat.shape}, expected {expected}", (p, q))
        if mat.field != field:
            p, q = pts[x], pts[x + strides[axis]]
            return DiagramCheck(False, f"step at {p!r} along axis {axis + 1} is over the "
                                "wrong field", (p, q))
    prime = field.p if field.kind == "prime" else 0
    # both composites of a square out of a point with no step given are zero,
    # and a box of one axis has no square; c + e_a is at x + strides[a]
    for x in sorted({key // n for key in given}) if n > 1 else ():
        if values[x] == 0:
            continue
        c = pts[x]
        axes = [axis for axis in reversed(range(n)) if c[axis] < top[axis]]
        for k, j in enumerate(axes):
            xj = x + strides[j]
            c_j = values[xj] and given.get(x * n + j)
            for i in axes[k + 1:]:
                xi, xe = x + strides[i], xj + strides[i]
                if values[xe] == 0:
                    continue
                if (x * n + j in identities and xj * n + i in identities
                        and x * n + i in identities and xi * n + j in identities):
                    continue
                up_i = c_j and given.get(xj * n + i)
                c_i = values[xi] and given.get(x * n + i)
                up_j = c_i and given.get(xi * n + j)
                left = _composite(up_i, c_j) if up_i else None
                right = _composite(up_j, c_i) if up_j else None
                if (left or right) and not _composites_agree(left, right, prime):
                    return DiagramCheck(False, "square does not commute",
                                        (c, pts[xj], pts[xi], pts[xe]))
    module._validated = True
    return DiagramCheck(True)


class ExtendedView:
    """Total semantics of a grid module on the whole extended grid.

    The value at a point c is the stored value at the extended projection of
    c into the box, and structure maps are composites of stored steps along a
    canonical staircase path (axis 1 first, then axis 2, and so on).  Results
    are memoized; the view holds no copied data.
    """

    def __init__(self, module: GridModule):
        check = validate_module(module)
        if not check:
            raise InputError(f"module does not validate: {check.message} at {check.square!r}")
        self.module = module
        self._map_cache = {}

    @property
    def field(self):
        return self.module.field

    @property
    def box(self) -> Box:
        return self.module.box

    def clamp(self, c: Point) -> Point:
        return extended_projection(self.module.box, c)

    def eval_space(self, c: Point) -> int:
        return self.module.dims[self.clamp(c)]

    def eval_map(self, c: Point, d: Point) -> Matrix:
        """The structure map from c to d: :meth:`box_map` from clamp(c) to
        clamp(d)."""
        if not leq(c, d):
            raise InputError(f"{c!r} is not below {d!r}")
        return self.box_map(self.clamp(c), self.clamp(d))

    def box_map(self, p: Point, q: Point) -> Matrix:
        """The map between box points p <= q: the stored steps composed
        along the staircase from p to q.

        The composite starts from the first step, so a unit cover returns
        the stored step itself and a path of k steps makes k - 1 products;
        the identity is built only when p = q.
        """
        key = (p, q)
        cached = self._map_cache.get(key)
        if cached is not None:
            return cached
        if p == q:
            mat = Matrix.identity(self.field, self.module.dims[p])
        else:
            mat = None
            x = list(p)
            for axis in range(self.module.box.dim):
                while x[axis] < q[axis]:
                    step = self.module.step(tuple(x), axis)
                    mat = step if mat is None else step @ mat
                    x[axis] += 1
        self._map_cache[key] = mat
        return mat


def restrict_view(view: ExtendedView, points) -> PosetDiagram:
    """Diagram of a view on a finite point set, with dims and maps evaluated.

    When ``points`` is a :class:`CartesianSet`, or a set equal to the product
    of its per-axis coordinate sets (tested by size first, so a sparse set
    never builds its product), the covering relations of the product poset
    are used directly instead of being recomputed.  Each point is clamped
    into the box once, and dims and maps are read off the clamped points
    (:meth:`ExtendedView.box_map`).  The diagram is marked validated: the
    view validates its module when it is built, and a functor restricts to
    a functor.
    """
    if not isinstance(points, CartesianSet):
        points = frozenset(points)
    product = as_product(points)
    if product is not None:
        pts = product.sorted_points()
        covers = list(product.covers())
    else:
        pts = sort_points(points)
        covers = poset_covers(pts)
    at = {p: view.clamp(p) for p in pts}
    space = view.module.dims
    dims = {p: space[at[p]] for p in pts}
    maps = {(c, d): view.box_map(at[c], at[d]) for c, d in covers}
    diagram = PosetDiagram(view.field, pts, dims, maps, covers=covers)
    diagram._validated = True
    return diagram


def window_module(field, window: Box, table: Callable[[Point], int],
                  include_bottom_faces: bool = True) -> PosetDiagram:
    """Diagram on a window built from a dimension table, for example studies.

    Points are the integer points of the window, together with all faces
    obtained by sending coordinates to -inf when ``include_bottom_faces`` is
    set.  Each covering map is the identity when the two dimensions agree and
    the zero map otherwise, which is the right choice for indicator-style
    tables; any commutativity violation is reported as an error.
    """
    factors = []
    for lo, hi in zip(window.a, window.b):
        f = tuple(range(lo, hi + 1))
        factors.append((NEG_INF,) + f if include_bottom_faces else f)
    grid = CartesianSet(tuple(factors))
    pts = grid.sorted_points()
    dims = {}
    for p in pts:
        d = table(p)
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise InputError(f"table value {d!r} at {p!r} is not a dimension")
        dims[p] = d
    covers = list(grid.covers())
    maps = {}
    for c, d in covers:
        if dims[c] == dims[d]:
            maps[(c, d)] = Matrix.identity(field, dims[c])
        else:
            maps[(c, d)] = Matrix.zeros(field, dims[d], dims[c])
    diagram = PosetDiagram(field, pts, dims, maps, covers=covers)
    check = validate_diagram(diagram)
    if not check:
        raise InputError(f"window table is not functorial: {check.message} at {check.square!r}")
    return diagram
