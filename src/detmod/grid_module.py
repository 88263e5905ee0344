"""Finitely determined modules stored by their restriction to a box.

A :class:`GridModule` keeps dimensions and unit step matrices on the integer
points of a closed box.  By the storage contract its value anywhere on the
grid is read off through the convex projection, and its value anywhere on the
extended grid (including points with -inf coordinates) through the extended
projection.  :class:`ExtendedView` exposes that total semantics without
copying data.
"""

from __future__ import annotations

from typing import Callable

from .errors import InputError
from .extgrid import (Box, CartesianSet, Point, NEG_INF, extended_projection,
                      join_below, leq, pointed_closure, sort_points)
from .linalg import (DiagramCheck, Matrix, PosetDiagram, poset_covers,
                     validate_diagram)


class GridModule:
    """Box-shaped grid of vector spaces with one step matrix per unit move.

    ``dims`` maps every integer point of the box to a dimension.  ``steps``
    maps ``(point, axis)`` to the matrix of the move from ``point`` to
    ``point + e_axis``; omitted steps are the zero matrix of the forced
    shape.  Axes are 0-based here (the file format is 1-based).
    """

    def __init__(self, field, box: Box, dims: dict, steps: dict):
        self.field = field
        self.box = box
        self.dims = {}
        for p in box.integer_points():
            if p not in dims:
                raise InputError(f"missing dimension at box point {p!r}")
            self.dims[p] = dims[p]
        if len(dims) != len(self.dims):
            extra = set(dims) - set(self.dims)
            raise InputError(f"dimensions given outside the box: {sorted(extra)[:3]!r}")
        self.steps = {}
        for (p, axis), mat in steps.items():
            if not self._step_in_box(p, axis):
                raise InputError(f"step at {p!r} along axis {axis} leaves the box")
            self.steps[(p, axis)] = mat
        for p in box.integer_points():
            for axis in range(box.dim):
                if self._step_in_box(p, axis) and (p, axis) not in self.steps:
                    q = self._step_target(p, axis)
                    self.steps[(p, axis)] = Matrix.zeros(field, self.dims[q], self.dims[p])
        self._validated = None

    def _step_in_box(self, p: Point, axis: int) -> bool:
        return (self.box.contains(p) and 0 <= axis < self.box.dim
                and p[axis] + 1 <= self.box.b[axis])

    def _step_target(self, p: Point, axis: int) -> Point:
        return p[:axis] + (p[axis] + 1,) + p[axis + 1:]

    def step(self, p: Point, axis: int) -> Matrix:
        return self.steps[(p, axis)]

    def as_diagram(self) -> PosetDiagram:
        """The stored box data as a poset diagram (covers are the unit steps)."""
        covers = []
        maps = {}
        for (p, axis), mat in self.steps.items():
            q = self._step_target(p, axis)
            covers.append((p, q))
            maps[(p, q)] = mat
        diagram = PosetDiagram(self.field, list(self.box.integer_points()),
                               dict(self.dims), maps, covers=covers)
        if self._validated is True:
            diagram._validated = True
        return diagram


def validate_module(module: GridModule) -> DiagramCheck:
    """Shape and commutativity checks for the stored box data."""
    if module._validated is True:
        return DiagramCheck(True)
    for (p, axis), mat in module.steps.items():
        q = module._step_target(p, axis)
        expected = (module.dims[q], module.dims[p])
        if mat.shape != expected:
            return DiagramCheck(False, f"step at {p!r} along axis {axis + 1} has shape "
                                f"{mat.shape}, expected {expected}", (p, q))
        if mat.field != module.field:
            return DiagramCheck(False, f"step at {p!r} along axis {axis + 1} is over the "
                                "wrong field", (p, q))
    check = validate_diagram(module.as_diagram())
    if check.ok:
        module._validated = True
    return check


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
        if not leq(c, d):
            raise InputError(f"{c!r} is not below {d!r}")
        p, q = self.clamp(c), self.clamp(d)
        key = (p, q)
        cached = self._map_cache.get(key)
        if cached is not None:
            return cached
        mat = Matrix.identity(self.field, self.module.dims[p])
        x = list(p)
        for axis in range(self.module.box.dim):
            while x[axis] < q[axis]:
                mat = self.module.step(tuple(x), axis) @ mat
                x[axis] += 1
        self._map_cache[key] = mat
        return mat

    def restrict_diagram(self, points) -> PosetDiagram:
        return restrict_view(self, points)


def restrict_view(view, points) -> PosetDiagram:
    """Diagram of a view on a finite point set, with dims and maps evaluated.

    When ``points`` is a :class:`CartesianSet`, or a set equal to the product
    of its per-axis coordinate sets (tested by size first, so a sparse set
    never builds its product), the covering relations of the product poset
    are used directly instead of being recomputed.  The diagram is marked
    validated: both view classes validate their data when they are built, and
    a functor restricts to a functor.
    """
    if not isinstance(points, CartesianSet):
        pts = sort_points(points)
        product = CartesianSet(tuple(zip(*pts))) if pts else None
        if product is not None and len(product) == len(pts) \
                and product.points() == frozenset(pts):
            points = product
    if isinstance(points, CartesianSet):
        pts = points.sorted_points()
        covers = list(points.covers())
    else:
        covers = poset_covers(pts)
    dims = {p: view.eval_space(p) for p in pts}
    maps = {e: view.eval_map(*e) for e in covers}
    diagram = PosetDiagram(view.field, pts, dims, maps, covers=covers)
    diagram._validated = True
    return diagram


class EncodedView:
    """Evaluator of a diagram on a join-closed pointed set over the whole grid.

    The underlying diagram must live on a set closed under joins and
    containing the bottom element.  The value at c is the diagram's value at
    the join of the diagram points below c, so the evaluator is the
    restriction of the diagram along that collapse; the support is contained
    in the upset of the points with non-zero values.
    """

    def __init__(self, diagram: PosetDiagram):
        pts = frozenset(diagram.points)
        if pointed_closure(pts) != pts:
            raise InputError("encoded views need a join-closed point set containing the bottom")
        check = validate_diagram(diagram)
        if not check:
            raise InputError(f"diagram does not validate: {check.message} at {check.square!r}")
        self.diagram = diagram
        self._points = pts
        self._collapse_cache = {}

    @property
    def field(self):
        return self.diagram.field

    def collapse(self, c: Point) -> Point:
        key = c
        cached = self._collapse_cache.get(key)
        if cached is None:
            cached = join_below(self._points, c)
            self._collapse_cache[key] = cached
        return cached

    def eval_space(self, c: Point) -> int:
        return self.diagram.dims[self.collapse(c)]

    def eval_map(self, c: Point, d: Point) -> Matrix:
        if not leq(c, d):
            raise InputError(f"{c!r} is not below {d!r}")
        return self.diagram.path_map(self.collapse(c), self.collapse(d))

    def restrict_diagram(self, points) -> PosetDiagram:
        return restrict_view(self, points)


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
