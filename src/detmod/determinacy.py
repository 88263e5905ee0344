"""Deciding when a finite point set determines an extended module.

The defining condition: whenever two comparable points see the same part of
the set below them, the structure map between them must be an isomorphism.
It suffices to check it on the covering pairs of a finite critical grid,
because the module data and the downset predicate are constant between
consecutive grid representatives.  Since every coordinate of the set lies
in the grid, the downsets of a cover (c, d) along an axis differ exactly
when some s in the set has s_axis = d_axis and s <= d.

The verdict is read off the stored steps.  A cover of the grid clamps into
the box onto one point, where its map is the identity, or onto one stored
unit step (q, axis).  The covers onto that step are a product of ranges,
one per axis, least at the corner of q: q with every coordinate at the
box's lower bound sent to -inf, except along ``axis``.  Equal downsets are
closed downwards on that product.  So the step breaks the condition exactly
when the covers at its corner see equal downsets and the step is not
invertible, and the corner is its cover that a walk of the grid meets first.
The brute-force window oracle walks every cover of its window's critical
grid instead, so results can be certified independently.  Both test a
step through :meth:`GridModule.is_invertible_step`, with no matrix made.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import not_, or_

from .errors import InputError, NotDeterminedError
from .extgrid import (Box, CartesianSet, NEG_INF, _unchecked, as_point, critical_grid, min_point,
                      pointed_closure)
from .grid_module import GridModule, restrict_view
from .linalg import PosetDiagram, _require_valid, diagrams_isomorphic


@dataclass(frozen=True)
class DeterminacyReport:
    """Outcome of a determinacy check.

    ``holds`` is the covering-pair condition alone; ``support_ok`` is the
    separate support condition, and a failing ``witness`` is a covering pair
    with equal downsets whose map is not invertible.
    """

    holds: bool
    witness: tuple | None
    support_ok: bool
    method: str

    @property
    def determined(self) -> bool:
        return self.holds and self.support_ok

    def __bool__(self) -> bool:
        return self.determined


def _normalize_set(module: GridModule, s):
    """The set as points of the module's dimension: a :class:`CartesianSet`
    of that dimension as it is, any other collection as a frozenset."""
    n = module.box.dim
    if isinstance(s, frozenset) or not isinstance(s, CartesianSet):
        return frozenset(as_point(p, dim=n) for p in s)
    if s.dim != n:
        raise InputError(f"point set has dimension {s.dim}, expected {n}")
    return s


def _first_failing_step(module: GridModule, s):
    """The cover (c, d = c + e_axis) at the corner c of the first failing step.

    The steps along an axis into v are settled at once when the set holds
    the axis point with v there.  Otherwise a step that is not 0 x 0 is a
    candidate when no s in the set with s_axis = v lies below d; candidates
    are tested for invertibility in the order of (c, axis), where tuples
    order -inf below every integer as ``point_sort_key`` does.  Steps are
    tested by :meth:`GridModule.is_invertible_step` at the place of the
    clamp of c, the box point the step leaves, with no :class:`Matrix` made.

    Everything is kept by integer index: a step by the place of the box
    point q it leaves and its axis, and a set point by one bit.  The set
    points below d are those with coordinate v on the axis that lie below
    the corner of q + e_axis (:func:`_downsets`), and a candidate is ordered
    by the place of c in the layout of the points with coordinates -inf and
    the box's on every axis, the box extended, and then by axis.
    """
    box, values, strides = module.box, module.dim_list, module.layout.strides
    lower, top = box.a, box.b
    settled = _axis_coordinates(s, box.dim)
    ext = below = None  # made for the first step that is not settled, and that needs them
    candidates = []  # (place of c in ext, axis, place of q)
    for axis, stride in enumerate(strides):
        lo = lower[axis]
        live = [v for v in range(lo + 1, top[axis] + 1) if v not in settled[axis]]
        if not live:
            continue
        if ext is None:
            pts, ext = list(s), module.layout.extended()
            # per axis, the set points at or below each coordinate of ext
            at = [_masks_below(pts, i, f) for i, f in enumerate(ext.factors)]
            # per box point, the place of its corner in ext (all but the box's lower bound)
            corner = ext.places([[0, *range(2, len(f))] for f in ext.factors])
        # per step into v: the first box point q with q_axis = v - 1, the set points
        # with v on the axis, and how far c (c_axis = v - 1) lies from q's corner
        m = at[axis]
        steps = [((v - 1 - lo) * stride, m[v - lo + 1] & ~m[v - lo],
                  ext.strides[axis] if v - 1 == lo else 0) for v in live]
        if below is None and any(at_v for _, at_v, _ in steps):  # below each box corner
            below = _downsets([[m[0], *m[2:]] for m in at])
        block = stride * (top[axis] - lo + 1)
        candidates += [(corner[x] + shift, axis, x) for base, at_v, shift in steps
                       for o in range(base, len(values), block) for x in range(o, o + stride)
                       if (values[x] or values[x + stride])
                       and not (at_v and at_v & below[x + stride])]
    candidates.sort()
    for place, axis, x in candidates:
        if not module.is_invertible_step(x, axis):
            c = ext.point(place)
            return c, c[:axis] + (c[axis] + 1,) + c[axis + 1:]
    return None


def _masks_below(pts, axis: int, factor: tuple) -> list:
    """Per coordinate of ``factor``, an increasing tuple that starts at -inf,
    the points of ``pts`` whose coordinate on ``axis`` is at or below it, as
    bits: the k-th point ``pts`` yields is bit k."""
    at = [0] * (len(factor) + 1)
    for bit, p in enumerate(pts):
        at[bisect_left(factor, p[axis])] |= 1 << bit
    return list(itertools.accumulate(at[:-1], or_))


def _downsets(masks: list) -> list:
    """Per point of a product in lexicographic order, the set points at or
    below it, as bits: the and of its coordinates' :func:`_masks_below`."""
    downsets = [-1]
    for m in masks:
        downsets = [d & x for d in downsets for x in m]
    return downsets


def _axis_coordinates(s, n: int) -> list:
    """Per axis, the coordinates v for which the set holds the axis point
    with v on that axis and -inf on every other: on a product, every
    coordinate of the axis's factor when the other factors all hold -inf.
    ``s`` is normalized: a frozenset or a :class:`CartesianSet`."""
    if not isinstance(s, frozenset):
        bottom = [f[0] == NEG_INF for f in s.factors]
        return [set(f) if all(bottom[:axis] + bottom[axis + 1:]) else set()
                for axis, f in enumerate(s.factors)]
    out = [set() for _ in range(n)]
    for p in s:
        finite = [axis for axis, v in enumerate(p) if v != NEG_INF]
        if len(finite) == 1:
            out[finite[0]].add(p[finite[0]])
    return out


def is_S_determined(module: GridModule, s) -> DeterminacyReport:
    """Covering-pair condition on the critical grid, and the support check.

    Both are read off the stored steps, with no grid built (see the module
    docstring): the witness is the corner cover of the first failing step,
    which a walk of the grid meets first.  Support holds when the bottom
    element is in the set, or when the corner of every box point of
    non-zero dimension is in its upset: the points that clamp to a box
    point lie above its corner, read as bits (:func:`_downsets`).
    """
    box, pts = module.box, _normalize_set(module, s)
    witness = _first_failing_step(module, pts)
    # per axis, the corner of each box coordinate: -inf for the lower bound, else itself
    corner = [(NEG_INF,) + tuple(range(lo + 1, hi + 1)) for lo, hi in zip(box.a, box.b)]
    support_ok = min_point(box.dim) in pts or all(itertools.compress(
        _downsets([_masks_below(pts, i, f) for i, f in enumerate(corner)]), module.dim_list))
    return DeterminacyReport(witness is None, witness, support_ok, "critical-grid")


def default_oracle_window(box: Box, s) -> Box:
    """Smallest box containing the data box and all finite set coordinates."""
    lo, hi = list(box.a), list(box.b)
    for p in s:
        for i, v in enumerate(p):
            if v != NEG_INF:
                lo[i] = min(lo[i], v)
                hi[i] = max(hi[i], v)
    return _unchecked(Box, tuple(lo), tuple(hi))


def is_S_determined_oracle(module: GridModule, s, window: Box) -> DeterminacyReport:
    """Brute force over every covering pair of an extended window.

    The window must contain the data box and all finite coordinates of the
    set.  Its critical grid (the window widened by one, and -inf on every
    axis) is walked cover by cover in the order of ``CartesianSet.covers``,
    and the first cover that breaks the condition is the witness.  A cover
    whose ends clamp to one box point maps by the identity; any other
    clamps onto one stored unit step, tested once per call by
    :meth:`GridModule.is_invertible_step` and kept by its flat key.  Grid
    points are addressed by their place in the grid's layout, and a
    set point by its index on each axis: the part of the set below a grid
    point is the and of one bit mask per axis, the set points at or below
    its index there.  The downsets of a cover's ends are compared on those
    masks (:func:`_equal_downsets`), and support is checked on them at every
    grid point.  Exists so critical-grid results can be cross-certified.
    """
    box, pts = module.box, _normalize_set(module, s)
    if window.dim != box.dim:
        raise InputError("window dimension mismatch")
    if not (all(w <= a for w, a in zip(window.a, box.a))
            and all(w >= b for w, b in zip(window.b, box.b))):
        raise InputError("oracle window must contain the data box")
    for p in pts:
        for i, v in enumerate(p):
            if v != NEG_INF and not (window.a[i] <= v <= window.b[i]):
                raise InputError(f"oracle window must contain the set point {p!r}")
    grid = critical_grid(window)
    downsets = _downsets([_masks_below(pts, i, f) for i, f in enumerate(grid.factors)])
    clamp_at = module.layout.places(grid.clamps(box))  # per grid point, its clamp's place
    # support fails at a grid point that sees no set point and clamps to a non-zero space
    support_ok = min_point(window.dim) in pts or not any(
        itertools.compress(map(module.dim_list.__getitem__, clamp_at), map(not_, downsets)))
    strides, keys, invertible = grid.strides, module.layout.step_keys, {}
    for x, axes in enumerate(grid.upper_axes):
        q = clamp_at[x]
        for axis in axes:
            y = x + strides[axis]
            if clamp_at[y] == q or not _equal_downsets(downsets, x, y):
                continue
            key = keys[axis][q]
            ok = invertible.get(key)
            if ok is None:
                ok = invertible[key] = module.is_invertible_step(q, axis)
            if not ok:
                return DeterminacyReport(False, (grid.point(x), grid.point(y)), support_ok,
                                         "oracle")
    return DeterminacyReport(True, None, support_ok, "oracle")


def _equal_downsets(downsets: list, x: int, y: int) -> bool:
    """Whether the grid points at flat indices x and y see the same part of
    the set below them."""
    return downsets[x] == downsets[y]


def canonical_grid(module: GridModule) -> CartesianSet:
    """Default determining set of a stored module, as the product it is: the
    extended box [a + 1, b].

    The data box [a, b] itself is extended instead when a + 1 exceeds b on
    some axis.  It holds the bottom point, so it is its own pointed join
    closure.
    """
    a, b = module.box.a, module.box.b
    lo = tuple(x + 1 for x in a)
    if not all(s <= y for s, y in zip(lo, b)):
        lo = a
    return _unchecked(CartesianSet, tuple([(NEG_INF,) + tuple(range(u, v + 1))
                                           for u, v in zip(lo, b)]))


def canonical_set(module: GridModule) -> frozenset:
    """The points of :func:`canonical_grid`."""
    return canonical_grid(module).points()


def determined_closure(module: GridModule, s):
    """The pointed join closure of a set that determines the module.

    Refuses with the witness pair when the covering-pair condition fails, in
    which case no encoding on that closure can restrict back to the module.
    A :class:`CartesianSet` with -inf on every axis, such as
    :func:`canonical_grid`, is its own closure and is returned as it is.
    """
    pts = _normalize_set(module, s)
    witness = _first_failing_step(module, pts)
    if witness is not None:
        raise NotDeterminedError(witness)
    if not isinstance(pts, frozenset) and all(f[0] == NEG_INF for f in pts.factors):
        return pts
    return pointed_closure(pts, dim=module.box.dim)


def encode(module: GridModule, s) -> PosetDiagram:
    """The finite model: the module restricted to the pointed join closure
    of the set, refused as by :func:`determined_closure`."""
    return restrict_view(module, determined_closure(module, s))


def check_encoding(module: GridModule, s, n: PosetDiagram) -> bool | None:
    """Does restricting ``n`` along the collapse reproduce the module?

    ``n`` must be a commuting diagram on the pointed join closure of the set;
    anything else is an input error, whatever the verdict would be.  The
    restriction reproduces the module exactly when the set determines it
    (the covering-pair condition) and ``n`` is isomorphic to the module's own
    restriction to the closure, so the isomorphism check runs on the closure
    only; it accepts at once when ``n`` equals that restriction, as the
    output of :func:`encode` does.  ``None`` means the set determines the
    module but the isomorphism search ran out.
    """
    pts = _normalize_set(module, s)
    closure = pointed_closure(pts, dim=module.box.dim)
    if frozenset(n.points) != closure:
        raise InputError("diagram is not defined on the pointed join closure of the set")
    if n.field != module.field:
        raise InputError("diagram and module are over different fields")
    _require_valid(n)
    return (_first_failing_step(module, pts) is None
            and diagrams_isomorphic(n, restrict_view(module, closure)))
