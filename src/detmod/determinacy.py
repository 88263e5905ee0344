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
The brute-force window oracle walks every cover of its window instead, so
results can be certified independently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, NotDeterminedError
from .extgrid import (Box, CartesianSet, NEG_INF, as_point, clamps_and_strides,
                      in_upset, leq, min_point, pointed_closure)
from .grid_module import ExtendedView, GridModule, restrict_view
from .linalg import PosetDiagram, diagrams_isomorphic, is_invertible, validate_diagram


@dataclass(frozen=True)
class DeterminacyReport:
    """Outcome of a determinacy check.

    ``holds`` is the covering-pair condition alone; ``support_ok`` is the
    separate support condition, and a failing ``witness`` is a covering pair
    with equal downsets whose map is not invertible.  The public deciders
    always check support.  ``support_ok`` is ``None`` only from
    :func:`determinacy_report` with ``check_support=False``, which
    :func:`determined_closure` and :func:`check_encoding` use, as they read
    ``holds`` alone.
    """

    holds: bool
    witness: tuple | None
    support_ok: bool | None
    method: str

    @property
    def determined(self) -> bool:
        return self.holds and self.support_ok is not False

    def __bool__(self) -> bool:
        return self.determined


def _normalize_set(view: ExtendedView, s):
    """The set as points of the module's dimension: a :class:`CartesianSet`
    of that dimension as it is, any other collection as a frozenset."""
    n = view.box.dim
    if isinstance(s, frozenset) or not isinstance(s, CartesianSet):
        return frozenset(as_point(p, dim=n) for p in s)
    if s.dim != n:
        raise InputError(f"point set has dimension {s.dim}, expected {n}")
    return s


def _first_failing_cover(module: GridModule, s: frozenset, factors: tuple,
                         clamps: tuple):
    """First cover of the grid, in the order of ``covers()``, that breaks the condition.

    ``clamps[axis][k]`` is the clamp of ``factors[axis][k]`` into the box, so
    a cover whose two clamped coordinates agree maps by the identity, and any
    other cover by the stored step out of the clamped point.

    The covers along an axis whose upper end has the (k+1)-th coordinate
    there form a slab, and two things settle a whole slab before the walk.
    Its clamps agree, so every cover in it maps by the identity.  Or the set
    holds the axis point q with ``factors[axis][k + 1]`` on the axis and -inf
    everywhere else: q lies below the upper end d of every cover in the slab
    and not below its lower end, so every cover in it changes the downset.
    The walk visits only the other, live, slabs, in the same order, so the
    witness is the one a walk of every cover finds; with no live slab there
    is nothing to walk.  The canonical set holds every axis point whose
    coordinate clamps apart from the one below it, so it never has a live
    slab, whatever the size of the grid.
    """
    n = len(factors)
    live = [[k + 1 < len(f) and cl[k] != cl[k + 1]
             and (NEG_INF,) * axis + (f[k + 1],) + (NEG_INF,) * (n - axis - 1) not in s
             for k in range(len(f))]
            for axis, (f, cl) in enumerate(zip(factors, clamps))]
    if not any(itertools.chain.from_iterable(live)):
        return None
    at_coord = [{} for _ in factors]
    for p in s:
        for axis, v in enumerate(p):
            at_coord[axis].setdefault(v, []).append(p)
    invertible = {}
    indices = itertools.product(*(range(len(f)) for f in factors))
    for idx, c, clamped in zip(indices, itertools.product(*factors),
                               itertools.product(*clamps)):
        for axis, k in enumerate(idx):
            if not live[axis][k]:
                continue
            key = (clamped, axis)
            ok = invertible.get(key)
            if ok:
                continue
            d = c[:axis] + (factors[axis][k + 1],) + c[axis + 1:]
            if any(leq(p, d) for p in at_coord[axis].get(d[axis], ())):
                continue
            if ok is None:
                ok = invertible[key] = is_invertible(module.step(*key))
            if not ok:
                return c, d
    return None


def _condition_on_grid(view: ExtendedView, s: frozenset, grid: CartesianSet,
                       method: str) -> DeterminacyReport:
    """The covering-pair and support conditions on a product grid.

    Every factor of ``grid`` must hold every integer of the data box and
    every coordinate of ``s``, as the critical grid and the oracle window
    do: then each cover clamps onto one point or one unit step, and the
    threshold rule of the module docstring decides downset equality.
    """
    module = view.module
    clamps, _ = clamps_and_strides(grid, module.box)
    witness = _first_failing_cover(module, s, grid.factors, clamps)
    support_ok = min_point(grid.dim) in s or all(
        in_upset(s, p) for p, q in zip(itertools.product(*grid.factors),
                                       itertools.product(*clamps)) if module.dims[q])
    return DeterminacyReport(witness is None, witness, support_ok, method)


def _corner_factors(box: Box) -> list:
    """Per axis, the corner coordinate of each box coordinate in order: -inf
    for the lower bound, and every other coordinate itself."""
    return [(NEG_INF,) + tuple(range(lo + 1, hi + 1)) for lo, hi in zip(box.a, box.b)]


def _first_failing_step(module: GridModule, s):
    """The cover (c, d = c + e_axis) at the corner c of the first failing step.

    The steps along an axis into v are settled at once when the set holds
    the axis point with v there.  Otherwise a step that is not 0 x 0 is a
    candidate when no s in the set with s_axis = v lies below d; candidates
    are tested for invertibility in the order of (c, axis), where tuples
    order -inf below every integer as ``point_sort_key`` does.  Steps are
    read by flat index, and a step's matrix is made only when it is tested;
    a left-out step that is not 0 x 0 is a zero map, so it fails with no
    test, and an identity step passes with none.
    """
    box = module.box
    n, lower, top, strides = box.dim, box.a, box.b, box.strides()
    values = list(module.dims.values())
    settled = _axis_coordinates(s, n)
    at_coord = None  # per axis, the points of the set by their coordinate there
    candidates = []
    for axis, stride in enumerate(strides):
        block = stride * (top[axis] - lower[axis] + 1)
        cs = _corner_factors(box)  # per axis the corner coordinates, in box order
        for v in range(lower[axis] + 1, top[axis] + 1):
            if v in settled[axis]:
                continue
            if at_coord is None:
                at_coord = [{} for _ in range(n)]
                for p in s:
                    for i, u in enumerate(p):
                        at_coord[i].setdefault(u, []).append(p)
            # the flat indices of the box points q with q_axis = v - 1, in order
            base = (v - 1 - lower[axis]) * stride
            xs = [x for o in range(base, len(values), block) for x in range(o, o + stride)]
            cs[axis] = (v - 1,)
            ds = cs[:axis] + [(v,)] + cs[axis + 1:]
            below = at_coord[axis].get(v, ())
            for x, c, d in zip(xs, itertools.product(*cs), itertools.product(*ds)):
                if (values[x] or values[x + stride]) and not any(leq(p, d) for p in below):
                    candidates.append((c, axis, d, x * n + axis))
    candidates.sort(key=lambda x: x[:2])
    for c, axis, d, key in candidates:
        if key in module.identities:
            continue
        step = module.flat_step(key)
        if step is None or not is_invertible(step):
            return c, d
    return None


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


def determinacy_report(module: GridModule, pts, check_support: bool) -> DeterminacyReport:
    """:func:`is_S_determined` on a set of points the caller has normalized
    as :func:`_normalize_set` does: a frozenset of points of the module's
    dimension, or a :class:`CartesianSet` of that dimension."""
    witness = _first_failing_step(module, pts)
    support_ok = None
    if check_support:
        corners = itertools.product(*_corner_factors(module.box))
        support_ok = min_point(module.box.dim) in pts or all(
            in_upset(pts, c) for c, dq in zip(corners, module.dims.values()) if dq)
    return DeterminacyReport(witness is None, witness, support_ok, "critical-grid")


def is_S_determined(view: ExtendedView, s) -> DeterminacyReport:
    """Covering-pair condition on the critical grid, and the support check.

    Both are read off the stored steps, with no grid built (see the module
    docstring): the witness is the corner cover of the first failing step,
    which a walk of the grid meets first.  Support holds when the bottom
    element is in the set, or when the corner of every box point of
    non-zero dimension is in its upset: the points that clamp to a box
    point lie above its corner.
    """
    return determinacy_report(view.module, _normalize_set(view, s), check_support=True)


def default_oracle_window(box: Box, s) -> Box:
    """Smallest box containing the data box and all finite set coordinates."""
    lo, hi = list(box.a), list(box.b)
    for p in s:
        for i, v in enumerate(p):
            if v != NEG_INF:
                lo[i] = min(lo[i], v)
                hi[i] = max(hi[i], v)
    return Box(tuple(lo), tuple(hi))


def is_S_determined_oracle(view: ExtendedView, s, window: Box) -> DeterminacyReport:
    """Brute force over every covering pair of an extended window.

    The window must contain the data box and all finite coordinates of the
    set; it is widened by one, as the critical grid is, and extended by the
    -inf faces before enumeration.  Exists so critical-grid results can be
    cross-certified.
    """
    pts = _normalize_set(view, s)
    if window.dim != view.box.dim:
        raise InputError("window dimension mismatch")
    if not (all(w <= a for w, a in zip(window.a, view.box.a))
            and all(w >= b for w, b in zip(window.b, view.box.b))):
        raise InputError("oracle window must contain the data box")
    for p in pts:
        for i, v in enumerate(p):
            if v != NEG_INF and not (window.a[i] <= v <= window.b[i]):
                raise InputError(f"oracle window must contain the set point {p!r}")
    factors = tuple((NEG_INF,) + tuple(range(window.a[i] - 1, window.b[i] + 2))
                    for i in range(window.dim))
    grid = CartesianSet(factors)
    return _condition_on_grid(view, pts, grid, "oracle")


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
    return CartesianSet(tuple((NEG_INF,) + tuple(range(u, v + 1)) for u, v in zip(lo, b)))


def canonical_set(module: GridModule) -> frozenset:
    """The points of :func:`canonical_grid`."""
    return canonical_grid(module).points()


def determined_closure(view: ExtendedView, s):
    """The pointed join closure of a set that determines the module.

    Refuses with the witness pair when the covering-pair condition fails, in
    which case no encoding on that closure can restrict back to the module.
    A :class:`CartesianSet` with -inf on every axis, such as
    :func:`canonical_grid`, is its own closure and is returned as it is.
    """
    pts = _normalize_set(view, s)
    report = determinacy_report(view.module, pts, check_support=False)
    if not report.holds:
        raise NotDeterminedError(report.witness)
    if not isinstance(pts, frozenset) and all(f[0] == NEG_INF for f in pts.factors):
        return pts
    return pointed_closure(pts, dim=view.box.dim)


def encode(view: ExtendedView, s) -> PosetDiagram:
    """The finite model: the view restricted to the pointed join closure of
    the set, refused as by :func:`determined_closure`."""
    return restrict_view(view, determined_closure(view, s))


def check_encoding(view: ExtendedView, s, n: PosetDiagram) -> bool | None:
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
    pts = _normalize_set(view, s)
    closure = pointed_closure(pts, dim=view.box.dim)
    if frozenset(n.points) != closure:
        raise InputError("diagram is not defined on the pointed join closure of the set")
    if n.field != view.field:
        raise InputError("diagram and module are over different fields")
    check = validate_diagram(n)
    if not check:
        raise InputError(f"diagram does not validate: {check.message} at {check.square!r}")
    return (determinacy_report(view.module, pts, check_support=False).holds
            and diagrams_isomorphic(n, restrict_view(view, closure)))
