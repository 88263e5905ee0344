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
from typing import Callable

from .errors import InputError
from .extgrid import Box, CartesianSet, Point, NEG_INF, _unchecked, extended_projection, leq
from .linalg import (DiagramCheck, Matrix, PosetDiagram, first_failing_square, full_row_rank,
                     validate_diagram)


class GridModule:
    """Box-shaped grid of vector spaces with one step matrix per unit move.

    ``dims`` maps every integer point of the box, in lexicographic order, to
    a dimension.  ``layout`` is the box as a :class:`CartesianSet`, whose
    places and flat step keys the data are kept by: ``points`` lists the box
    points by place, and ``dim_list`` holds their dimensions in that order.
    A step is the move from a point to ``point + e_axis``.  ``given`` holds
    the :class:`Matrix` of each given step, and no other, by flat key.
    ``identities`` holds the flat key of each given step that is the
    identity, decided once, on first use.  :meth:`step` reads a step; a
    step the input leaves out is :meth:`Matrix.zeros` of the forced shape.
    A step of another shape, or over another field, is refused when the
    module is built.  Axes are 0-based here; a message names an axis
    1-based, as the file format does, and one out of range as it was given.
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
        for p in pts:
            d = dims[p]
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise InputError(f"invalid dimension {d!r} at {p!r}")
        self._fill(field, box, [dims[p] for p in pts])
        index, n, top, keys, dims = self._index, box.dim, box.b, self.layout.step_keys, self.dims
        for (p, axis), mat in steps.items():
            if p not in index:
                raise InputError(f"step source {p!r} is outside the box")
            if not 0 <= axis < n:
                raise InputError(f"invalid axis {axis!r} at {p!r}; axes are 0 to {n - 1} here")
            if p[axis] == top[axis]:
                raise InputError(f"step at {p!r} along axis {axis + 1} leaves the box")
            expected = (dims[self._step_target(p, axis)], dims[p])
            if mat.shape != expected:
                raise InputError(f"step at {p!r} along axis {axis + 1} has shape {mat.shape}, "
                                 f"expected {expected}")
            if mat.field != field:
                raise InputError(f"step at {p!r} along axis {axis + 1} is over the wrong field")
            self.given[keys[axis][index[p]]] = mat

    @classmethod
    def _checked(cls, field, box: Box, dim_list: list):
        """A module with no given step, from the dimensions of the box points
        in order, each checked as ``__init__`` checks it.  The caller adds to
        ``given`` the steps it has checked as ``__init__`` does: by flat key,
        each inside the box, of its forced shape and over ``field``."""
        module = cls.__new__(cls)
        module._fill(field, box, dim_list)
        return module

    def _fill(self, field, box, dim_list):
        self.field = field
        self.box = box
        self.layout = box.cartesian()
        self.points = self.layout.sorted_points()
        self.dim_list = list(dim_list)
        self.dims = dict(zip(self.points, dim_list))
        self.given = {}
        self._index = dict(zip(self.points, range(len(dim_list))))
        self._identities = None
        self._validated = None

    def _step_target(self, p: Point, axis: int) -> Point:
        return p[:axis] + (p[axis] + 1,) + p[axis + 1:]

    def step(self, p: Point, axis: int) -> Matrix:
        x = self._index.get(p)
        if x is not None:
            mat = self.given.get(self.layout.step_keys[axis][x])
            if mat is not None:
                return mat
        return Matrix.zeros(self.field, self.dims[self._step_target(p, axis)], self.dims[p])

    @property
    def identities(self) -> set:
        """The flat keys of the given steps that are the identity, decided
        once, on first use, so a module that is only loaded pays nothing."""
        if self._identities is None:
            self._identities = {key for key, m in self.given.items() if m.is_identity()}
        return self._identities

    def is_invertible_step(self, x: int, axis: int) -> bool:
        """Whether the step out of the place x along ``axis`` is invertible,
        with no :class:`Matrix` made: square, and the identity or onto, which
        a left-out step is when its spaces are zero, and a step between
        spaces of one dimension when its one entry is not zero."""
        values, layout, d = self.dim_list, self.layout, self.dim_list[x]
        if d != values[x + layout.strides[axis]]:
            return False
        key = layout.step_keys[axis][x]
        given = self.given.get(key)
        if given is None or d < 2:  # a left-out step is zero; a 1 x 1 step, its entry
            return given.rows[0][0] != 0 if given is not None and d else not d
        return key in self.identities or full_row_rank(self.field, given.rows, d)

    def identity_runs(self) -> list:
        """Per axis, a label for each box coordinate there, in order: two
        coordinates have the same label exactly when every step along the
        axis between them, at every box point, is the identity.

        One pass counts the identity steps of each slab (the steps along
        the axis out of the box points with one coordinate there): the given
        ones, and those left out between two zero spaces.  A slab below the
        top of its axis holds one step per box point of the top slab, and
        is all identities when it counts that many; a label counts the
        slabs below it that are not."""
        layout, values, given = self.layout, self.dim_list, self.given
        strides, keys, sizes = layout.strides, layout.step_keys, [len(f) for f in layout.factors]
        counts = [[0] * size for size in sizes]
        for x, axis in layout.steps_of(self.identities):
            counts[axis][x // strides[axis] % sizes[axis]] += 1
        for x, axes in enumerate(layout.upper_axes):
            if not values[x]:
                for axis in axes:
                    if not values[x + strides[axis]] and keys[axis][x] not in given:
                        counts[axis][x // strides[axis] % sizes[axis]] += 1
        return [list(itertools.accumulate([m * size != len(values) for m in row[:-1]],
                                          initial=0))
                for row, size in zip(counts, sizes)]


def validate_module(module: GridModule) -> DiagramCheck:
    """Commutativity of the stored box data, by :func:`first_failing_square`
    on the box points and the given steps; a module is well shaped from the
    moment it is built.

    The unit squares of the box generate every commutativity relation of the
    grid, and through the extended projection of the whole extended grid.
    """
    if module._validated is True:
        return DiagramCheck(True)
    square = first_failing_square(module.layout, module.dim_list, module.given,
                                  module.identities)
    if square is not None:
        return DiagramCheck(False, "square does not commute", square)
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

    The diagram derives its covers: those of the product when the points are
    one, such as a :class:`CartesianSet`, else by ``poset_covers``.  Each
    point is clamped into the box once, and dims and maps are read off the
    clamped points (:meth:`ExtendedView.box_map`).  The diagram is marked
    validated: the view validates its module when it is built, and a
    functor restricts to a functor.
    """
    if not isinstance(points, CartesianSet):
        points = frozenset(points)
    at = {p: view.clamp(p) for p in points}
    space = view.module.dims
    diagram = PosetDiagram(view.field, points, {p: space[q] for p, q in at.items()},
                           lambda c, d: view.box_map(at[c], at[d]))
    diagram._validated = True
    return diagram


def window_module(field, window: Box, table: Callable[[Point], int]) -> PosetDiagram:
    """Diagram on a window built from a dimension table, for example studies.

    Points are the integer points of the window, together with all faces
    obtained by sending coordinates to -inf.  Each covering map is the
    identity when the two dimensions agree and the zero map otherwise, which
    is the right choice for indicator-style tables; any commutativity
    violation is reported as an error.
    """
    grid = _unchecked(CartesianSet, tuple([(NEG_INF,) + tuple(range(lo, hi + 1))
                                           for lo, hi in zip(window.a, window.b)]))
    dims = {}
    for p in grid:
        d = table(p)
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise InputError(f"table value {d!r} at {p!r} is not a dimension")
        dims[p] = d
    # the covers of other dimensions map by zero
    diagram = PosetDiagram(field, grid, dims, {(c, d): Matrix.identity(field, dims[c])
                                               for c, d in grid.covers() if dims[c] == dims[d]})
    check = validate_diagram(diagram)
    if not check:
        raise InputError(f"window table is not functorial: {check.message} at {check.square!r}")
    return diagram
