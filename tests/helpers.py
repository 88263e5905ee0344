"""Shared oracles, generators, and fixtures for the test suite.

The oracles deliberately use the slow, definition-chasing route (subset
enumeration, window searches, path enumeration) so that the fast code paths
are checked against something independent of them.
"""

from __future__ import annotations

import itertools
import random

from detmod import (Box, CartesianSet, DeterminacyReport, DiagramCheck,
                    GridModule, InputError, Matrix, NEG_INF, PosetDiagram,
                    Presentation, PresentationCheck, PrimeField, as_point, canonical_set,
                    cokernel_projection, critical_grid, encode, hstack, in_upset,
                    is_invertible, join_below, kernel_basis, leq, lt, min_point, mub,
                    point_sort_key, rank, restrict_view, solve,
                    sort_points, validate_diagram)
from detmod.extgrid import downset_of
from detmod.linalg import _block_offsets, _require_valid, diagram_colimit
from detmod.presentation import (_check_images, _cokernel_module, _find_isomorphism,
                                 _presentation, _product_poset, _require_join_closed, _scan)

F2 = PrimeField(2)
F5 = PrimeField(5)


# ---------------------------------------------------------------------------
# linear-algebra references: elimination and products by field methods

def echelon_by_field_methods(field, rows, ncols: int, pivot_limit=None, reduce=True) -> tuple:
    """(rows, pivot columns) of an echelon form made entry by entry with the
    field's ``mul`` and ``sub``: each pivot row scaled by the inverse of its
    pivot, then the rows below it cleared, and with ``reduce`` the rows above
    it too.  This is how ``linalg._echelon`` ran before it moved to integer
    rows; its reduced rows are those of the reduced form, and every row past
    the rank is a non-zero multiple of the one ``_echelon`` returns."""
    mul, sub, zero = field.mul, field.sub, field.zero
    rows = [list(r) for r in rows]
    limit = ncols if pivot_limit is None else pivot_limit
    pivots, r = [], 0
    for c in range(limit):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if rows[r][c] != field.one:
            inv = pow(rows[r][c], -1, field.p) if field.kind == "prime" else 1 / rows[r][c]
            rows[r] = [mul(inv, x) for x in rows[r]]
        for i in range(len(rows)) if reduce else range(r + 1, len(rows)):
            k = rows[i][c]
            if i != r and k != zero:
                rows[i] = [sub(x, mul(k, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def matmul_by_field_methods(a: Matrix, b: Matrix) -> Matrix:
    """The product with one ``field.dot`` per entry, entries as field elements."""
    if a.nrows == 0 or b.ncols == 0 or a.ncols == 0:
        return Matrix.zeros(a.field, a.nrows, b.ncols)
    cols = entry_columns(b)
    return Matrix(a.field, [[a.field.dot(r, c) for c in cols] for r in a.entries()], ncols=b.ncols)


def entry_columns(m: Matrix) -> list:
    """The columns of ``m`` as tuples of field elements."""
    rows = m.entries()
    return [tuple(r[j] for r in rows) for j in range(m.ncols)]


# ---------------------------------------------------------------------------
# order-theory oracles

def window_ext_points(lo: int, hi: int, n: int):
    """All points of ({-inf} u [lo, hi])^n."""
    axis = (NEG_INF,) + tuple(range(lo, hi + 1))
    return list(itertools.product(axis, repeat=n))


def minimal_upper_bounds_bruteforce(points, candidates):
    """Minimal elements among the upper bounds found inside ``candidates``."""
    uppers = [w for w in candidates if all(leq(p, w) for p in points)]
    return {w for w in uppers if not any(lt(v, w) for v in uppers)}


def maximal_lower_bounds_bruteforce(points, candidates):
    lowers = [w for w in candidates if all(leq(w, p) for p in points)]
    return {w for w in lowers if not any(lt(w, v) for v in lowers)}


def coordinatewise_join_below(cart: CartesianSet, c):
    """``join_below`` on a product whose factors all hold -inf, read off
    coordinate by coordinate."""
    out = []
    for v, f in zip(c, cart.factors):
        if f[0] != NEG_INF:
            raise InputError("coordinatewise join_below needs -inf in every factor")
        out.append([x for x in f if x <= v][-1])
    return tuple(out)


def join_closure_by_subsets(points):
    """Closure computed straight from the definition: one join per non-empty subset."""
    pts = list(points)
    out = set()
    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            out.add(mub(sub))
    return frozenset(out)


def poset_covers_bruteforce(points):
    """Covering pairs from the definition: q covers p when p < q and no point
    of the set lies strictly between them."""
    pts = list(points)
    covers = []
    for p in pts:
        ups = [q for q in pts if lt(p, q)]
        for q in ups:
            if not any(lt(r, q) for r in ups if r is not q):
                covers.append((p, q))
    return covers


def poset_covers_by_scan(points):
    """Covering pairs by a quadratic scan of a linear extension, in the order
    ``poset_covers`` gives them (by p, then by q): in the order of
    ``point_sort_key``, q > p covers p exactly when no cover of p met before
    q lies below q."""
    ordered = sorted(set(points), key=point_sort_key)
    covers = []
    for i, p in enumerate(ordered):
        ups = []
        for q in ordered[i + 1:]:
            if lt(p, q) and not any(lt(r, q) for r in ups):
                ups.append(q)
                covers.append((p, q))
    return covers


def all_cover_paths(diagram: PosetDiagram, c, d):
    """Every covering chain from c to d inside the diagram's poset."""
    if c == d:
        return [[c]]
    paths = []
    for (x, y) in diagram.covers():
        if x == c and leq(y, d):
            for tail in all_cover_paths(diagram, y, d):
                paths.append([c] + tail)
    return paths


def path_commutativity_ok(diagram: PosetDiagram) -> bool:
    """Full path-enumeration commutativity check; only usable on small posets."""
    for c in diagram.points:
        for d in diagram.points:
            if not lt(c, d):
                continue
            composites = []
            for path in all_cover_paths(diagram, c, d):
                mat = Matrix.identity(diagram.field, diagram.dims[c])
                for x, y in zip(path, path[1:]):
                    mat = diagram.maps[(x, y)] @ mat
                composites.append(mat)
            if any(m != composites[0] for m in composites[1:]):
                return False
    return True


def minimal_squares_commute(diagram: PosetDiagram) -> DiagramCheck:
    """Do all squares of covers c < d1, d2 < e commute?  Enough on products
    of chains only.  Every square is tried, and the least failing one as a
    tuple ``(c, d1, d2, e)`` with d1 < d2 (points compare as tuples) is
    reported: on a product, the first in the order of ``validate_diagram``."""
    covers = set(diagram.covers())
    failing = []
    for c, d1 in covers:
        for c2, d2 in covers:
            if c2 != c or not d1 < d2:
                continue
            for e in diagram.points:
                if (d1, e) in covers and (d2, e) in covers and \
                        diagram.maps[(d1, e)] @ diagram.maps[(c, d1)] != \
                        diagram.maps[(d2, e)] @ diagram.maps[(c, d2)]:
                    failing.append((c, d1, d2, e))
    if failing:
        return DiagramCheck(False, "square does not commute", min(failing))
    return DiagramCheck(True)


def given_steps(module: GridModule) -> dict:
    """Every given step's matrix by ``(point, axis)``, in the order of
    ``module.given``."""
    pts, n = list(module.dims), module.box.dim
    return {(pts[key // n], key % n): mat for key, mat in module.given.items()}


def data_steps(field, box: Box, dims: dict, steps: dict) -> dict:
    """Every unit step of the box by ``(point, axis)`` for module data as
    ``GridModule`` takes it, which need not commute: the given steps in
    their order, then the left-out ones, zero matrices, in lexicographic
    order."""
    out, top = dict(steps), box.b
    for p in box.integer_points():
        for axis in range(box.dim):
            if p[axis] < top[axis] and (p, axis) not in out:
                q = p[:axis] + (p[axis] + 1,) + p[axis + 1:]
                out[(p, axis)] = Matrix.zeros(field, dims[q], dims[p])
    return out


def every_step(module: GridModule) -> dict:
    """Every unit step of the box by ``(point, axis)``, read through
    ``GridModule.step``: the given steps in their order, then the left-out
    ones in lexicographic order."""
    steps = given_steps(module)
    top = module.box.b
    for p in module.box.integer_points():
        for axis in range(module.box.dim):
            if p[axis] < top[axis] and (p, axis) not in steps:
                steps[(p, axis)] = module.step(p, axis)
    return steps


def data_diagram(field, box: Box, dims: dict, steps: dict) -> PosetDiagram:
    """Module data, which need not commute, as a generic poset diagram
    (covers are the unit steps), not yet validated."""
    maps = {(p, p[:axis] + (p[axis] + 1,) + p[axis + 1:]): mat
            for (p, axis), mat in data_steps(field, box, dims, steps).items()}
    return PosetDiagram(field, list(box.integer_points()), dict(dims), maps)


def module_diagram(module: GridModule) -> PosetDiagram:
    """The stored box data as a generic poset diagram (covers are the unit steps)."""
    return data_diagram(module.field, module.box, module.dims, given_steps(module))


def diagram_limit(diagram: PosetDiagram) -> tuple:
    """Limit of the diagram: (dimension, projection matrix per point).

    The kernel of the difference map from the direct sum of all spaces into
    the direct sum over covers of the target spaces.
    """
    _require_valid(diagram)
    field = diagram.field
    offsets, total = _block_offsets(diagram)
    rows = []
    for c, d in diagram.covers():
        f = diagram.maps[(c, d)]
        oc, od = offsets[c], offsets[d]
        for i in range(diagram.dims[d]):
            row = [field.zero] * total
            row[oc:oc + f.ncols] = f.entries()[i]
            row[od + i] = field.sub(row[od + i], field.one)
            rows.append(row)
    k = kernel_basis(Matrix(field, rows, ncols=total))
    return k.ncols, {p: Matrix(field, k.entries()[offsets[p]:offsets[p] + diagram.dims[p]],
                               ncols=k.ncols) for p in diagram.points}


def validate_module_by_diagram(field, box: Box, dims: dict, steps: dict) -> DiagramCheck:
    """Commutativity of module data by the generic route: every minimal square
    of its poset diagram, with covers sorted by the linear extension."""
    return validate_diagram(data_diagram(field, box, dims, steps))


def validate_by_products(field, box: Box, dims: dict, steps: dict) -> DiagramCheck:
    """Unit squares of module data checked with :class:`Matrix` products, in
    the order of ``first_failing_square``, which ``GridModule`` refuses
    data by.

    The data are taken as ``GridModule`` takes them, and need not commute;
    they must be well shaped.  Every unit square is checked, with each step
    given or, left out, a zero matrix; the products are those of
    ``Matrix.__matmul__`` and the sides are compared as matrices over the
    field.
    """
    step = data_steps(field, box, dims, steps)
    n, top = box.dim, box.b

    def target(p, axis):
        return p[:axis] + (p[axis] + 1,) + p[axis + 1:]
    for c in box.integer_points():
        axes = [axis for axis in reversed(range(n)) if c[axis] < top[axis]]
        for k, j in enumerate(axes):
            cj = target(c, j)
            for i in axes[k + 1:]:
                ci, e = target(c, i), target(cj, i)
                if step[(cj, i)] @ step[(c, j)] != step[(ci, j)] @ step[(c, i)]:
                    return DiagramCheck(False, "square does not commute", (c, cj, ci, e))
    return DiagramCheck(True)


# ---------------------------------------------------------------------------
# determinacy oracle: downsets compared at every grid point

def oracle_grid(window: Box, widen: int = 1) -> CartesianSet:
    """-inf and the window widened by ``widen`` per axis; widened by one it is
    the grid of ``is_S_determined_oracle``, and wider it checks that one is
    enough."""
    return CartesianSet(tuple((NEG_INF,) + tuple(range(lo - widen, hi + widen + 1))
                              for lo, hi in zip(window.a, window.b)))


def condition_by_downsets(module, s, grid: CartesianSet, method: str) -> DeterminacyReport:
    """The covering-pair and support conditions straight from the definition:
    a downset of ``s`` at every grid point, and the map of every cover with
    equal downsets evaluated and tested for invertibility."""
    points = grid.sorted_points()
    downsets = {p: downset_of(s, p) for p in points}
    holds, witness = True, None
    for c, d in grid.covers():
        if downsets[c] == downsets[d] and not is_invertible(module.eval_map(c, d)):
            holds, witness = False, (c, d)
            break
    support_ok = min_point(grid.dim) in s or all(
        module.eval_space(p) == 0 for p in points if not in_upset(s, p))
    return DeterminacyReport(holds, witness, support_ok, method)


def canonical_map_check(module, s) -> DeterminacyReport:
    """The paper's condition 2: invertibility of the map from the collapsed
    reference point.

    For every critical point c the structure map from the join of the set
    elements below c into c must be an isomorphism.  Equivalent to the
    covering-pair condition; support is not checked (``support_ok`` is
    ``None``).
    """
    pts = frozenset(as_point(p, dim=module.box.dim) for p in s)
    grid = critical_grid(module.box, pts)
    for c in grid.sorted_points():
        a = join_below(pts, c)
        if not is_invertible(module.eval_map(a, c)):
            return DeterminacyReport(False, (a, c), None, "critical-grid")
    return DeterminacyReport(True, None, None, "critical-grid")


def admissible_by_reconstruction(module: GridModule, l) -> bool:
    """Zip then unzip along a join-closed lattice, compared with the module
    at every critical point.

    The reconstruction maps into the module at c by the structure map from
    the collapse a of c when a lies in the lattice, and by the zero map out
    of the zero space otherwise.  It reproduces the module exactly when that
    map is invertible at every point of the critical grid, which holds every
    collapse.
    """
    pts = sort_points(l)
    lattice = frozenset(pts)

    def comparison_invertible(c) -> bool:
        a = join_below(pts, c)
        if a in lattice:
            return is_invertible(module.eval_map(a, c))
        return module.eval_space(c) == 0

    grid = critical_grid(module.box, pts)
    return all(comparison_invertible(c) for c in grid.sorted_points())


# ---------------------------------------------------------------------------
# zip and unzip: restriction to a join-closed lattice and back (Miller's
# encoding by collapse, arXiv:1711.01933), which is_admissible decides

def zip_module(module, l) -> PosetDiagram:
    """Restriction of the extended module to a join-closed point set."""
    return restrict_view(module, _require_join_closed(l))


class Unzipped:
    """A diagram on a join-closed lattice spread over the whole extended grid:
    the value at c is the diagram's value at the join of the lattice points
    below c, and zero where there are none."""

    def __init__(self, lattice, diagram: PosetDiagram):
        _require_valid(diagram)
        self.lattice, self.diagram, self.field = lattice, diagram, diagram.field

    def collapse(self, c):
        below = [p for p in self.lattice if leq(p, c)]
        return mub(below) if below else None

    def eval_space(self, c) -> int:
        a = self.collapse(c)
        return 0 if a is None else self.diagram.dims[a]

    def eval_map(self, c, d) -> Matrix:
        if not leq(c, d):
            raise InputError(f"{c!r} is not below {d!r}")
        a = self.collapse(c)
        if a is None:
            return Matrix.zeros(self.field, self.eval_space(d), 0)
        return self.diagram.path_map(a, self.collapse(d))

    def restrict(self, points) -> PosetDiagram:
        """The evaluator on a finite point set, with every cover evaluated."""
        pts = sort_points(points)
        return PosetDiagram(self.field, pts, {p: self.eval_space(p) for p in pts}, self.eval_map)


def unzip_module(l, n: PosetDiagram) -> Unzipped:
    """Spread a diagram on a join-closed set back over the whole extended grid."""
    pts = _require_join_closed(l)
    if frozenset(n.points) != frozenset(pts):
        raise InputError("diagram points do not match the lattice")
    return Unzipped(pts, n)


# ---------------------------------------------------------------------------
# module generators

def corner_module(field, top=(0, 0), box=None) -> GridModule:
    """Indicator of the downset of ``top``: one-dimensional below it, zero above."""
    if box is None:
        box = Box(top, tuple(t + 1 for t in top))
    dims = {p: (1 if leq(p, top) else 0) for p in box.integer_points()}
    return GridModule(field, box, dims, {})


def halfplane_table(p) -> int:
    """Dimension table of the open lower halfplane x + y < 0 (works with -inf)."""
    return 1 if p[0] + p[1] < 0 else 0


def interval_module(field, box: Box, starts, ends) -> GridModule:
    """Direct sum of indicator modules of the convex regions [g, not-above d).

    ``starts`` and ``ends`` are equal-length lists of points with g <= d; the
    k-th summand is one-dimensional exactly on the points above g_k and not
    above d_k, with identity maps inside.  Commutative by construction.
    """
    def member(k, p):
        return leq(starts[k], p) and not leq(ends[k], p)

    k_count = len(starts)
    dims = {}
    for p in box.integer_points():
        dims[p] = sum(1 for k in range(k_count) if member(k, p))
    steps = {}
    for p in box.integer_points():
        for axis in range(box.dim):
            if p[axis] + 1 > box.b[axis]:
                continue
            q = p[:axis] + (p[axis] + 1,) + p[axis + 1:]
            rows_k = [k for k in range(k_count) if member(k, q)]
            cols_k = [k for k in range(k_count) if member(k, p)]
            rows = [[field.one if rk == ck else field.zero for ck in cols_k]
                    for rk in rows_k]
            steps[(p, axis)] = Matrix(field, rows, ncols=len(cols_k))
    return GridModule(field, box, dims, steps)


def random_invertible(field, n: int, rng: random.Random) -> Matrix:
    if field.kind == "prime":
        pool = range(field.p)
    else:
        pool = range(-2, 3)
    while True:
        rows = [[field.coerce(rng.choice(pool)) for _ in range(n)] for _ in range(n)]
        m = Matrix(field, rows, ncols=n)
        if is_invertible(m):
            return m


def twist_module(module: GridModule, rng: random.Random, keep=None) -> GridModule:
    """Conjugate every pointwise space by a random basis change.

    Keeps dimensions and commutativity while making the step matrices
    generic instead of 0/1 diagonal.  The points where ``keep(p)`` holds keep
    their basis, so a step between two of them stays as it was.
    """
    field = module.field
    basis = {p: (Matrix.identity(field, module.dims[p]) if keep is not None and keep(p)
                 else random_invertible(field, module.dims[p], rng))
             for p in module.box.integer_points()}
    inverse = {}
    for p, b in basis.items():
        n = b.nrows
        inv = solve(b, Matrix.identity(field, n))
        inverse[p] = inv
    steps = {}
    for (p, axis), mat in every_step(module).items():
        q = module._step_target(p, axis)
        steps[(p, axis)] = basis[q] @ mat @ inverse[p]
    return GridModule(field, module.box, dict(module.dims), steps)


def random_module(field, rng: random.Random, box: Box | None = None,
                  max_summands: int = 3, twist: bool = True,
                  summands: int | None = None) -> GridModule:
    """Random commutative grid module: a twisted sum of convex indicators,
    at most ``max_summands`` of them, or exactly ``summands``."""
    if box is None:
        n = 2
        a = tuple(rng.randint(-1, 1) for _ in range(n))
        b = tuple(x + rng.randint(0, 2) for x in a)
        box = Box(a, b)
    starts, ends = [], []
    for _ in range(rng.randint(0, max_summands) if summands is None else summands):
        g = tuple(rng.randint(box.a[i] - 1, box.b[i]) for i in range(box.dim))
        d = tuple(rng.randint(g[i], box.b[i] + 1) for i in range(box.dim))
        starts.append(g)
        ends.append(d)
    mod = interval_module(field, box, starts, ends)
    if twist:
        mod = twist_module(mod, rng)
    return mod


def stabilization_window(module, c) -> Box:
    """Integer window over which the limit computes the extension's value.

    Per axis the window runs from the coordinate up to max(coordinate, one
    below the box); bottom coordinates start at one below the box, where the
    module has already become constant, making the truncation exact.
    """
    lo, hi = [], []
    for i, v in enumerate(c):
        edge = module.box.a[i] - 1
        hi_i = max(v, edge) if v != NEG_INF else edge
        lo_i = v if v != NEG_INF else edge
        lo.append(int(lo_i))
        hi.append(int(hi_i))
    return Box(tuple(lo), tuple(hi))


def random_ext_point(rng: random.Random, n: int, lo: int = -2, hi: int = 3,
                     bottom_prob: float = 0.3):
    return tuple(NEG_INF if rng.random() < bottom_prob else rng.randint(lo, hi)
                 for _ in range(n))


def random_point_set(rng: random.Random, n: int, max_size: int, lo: int = -2,
                     hi: int = 3) -> frozenset:
    size = rng.randint(0, max_size)
    return frozenset(random_ext_point(rng, n, lo, hi) for _ in range(size))


# ---------------------------------------------------------------------------
# presentation oracles: colimit cones over whole strict downsets and kernels
# inherited from every lower point, as the definitions state them

def colimit_map_by_cone(diagram: PosetDiagram, c) -> Matrix:
    """Predecessor colimit map solved on every point of the strict downset.

    The cone legs are composites along covering chains (``path_map``).
    """
    below = [p for p in diagram.points if lt(p, c)]
    sub = diagram.restrict_downclosed(below)
    colim_dim, injections = diagram_colimit(sub)
    field = diagram.field
    quotient = hstack(field, [injections[p] for p in sub.points], nrows=colim_dim)
    cone = hstack(field, [diagram.path_map(p, c) for p in sub.points],
                  nrows=diagram.dims[c])
    return solve(quotient.transpose(), cone.transpose()).transpose()


def births_deaths_by_cone(diagram: PosetDiagram) -> tuple:
    """(births, deaths) from the cokernel and kernel of every cone map."""
    births, deaths = {}, {}
    for c in diagram.points:
        lam = colimit_map_by_cone(diagram, c)
        r = rank(lam)
        if lam.nrows > r:
            births[c] = lam.nrows - r
        if lam.ncols > r:
            deaths[c] = lam.ncols - r
    return births, deaths


def cokernel_lifts(lam: Matrix) -> Matrix:
    """Unit vectors at the pivot columns of the cokernel projection of ``lam``."""
    field = lam.field
    pivots = [next(j for j, x in enumerate(row) if x != field.zero)
              for row in cokernel_projection(lam).entries()]
    return Matrix.from_columns(field, [[field.one if i == j else field.zero
                                        for i in range(lam.nrows)] for j in pivots],
                               nrows=lam.nrows)


def _pad_generator_rows(field, small, mat: Matrix, large) -> Matrix:
    """Rows of a matrix graded by the (point, multiplicity) list ``small``,
    placed in the positions of the larger list ``large``."""
    offsets, o = {}, 0
    for b, m in small:
        offsets[b] = o
        o += m
    rows = []
    for b, m in large:
        for i in range(m):
            rows.append(mat.entries()[offsets[b] + i] if b in offsets
                        else (field.zero,) * mat.ncols)
    return Matrix(field, rows, ncols=mat.ncols)


def diagram_presentation_by_full_scan(diagram: PosetDiagram, structure_map=None) -> tuple:
    """(generators, relations, blocks, generator lifts) of a diagram.

    Generators come from the cone colimit maps; relations are chosen one rank
    per kernel column against the kernels of every lower point.  The image of
    a generator at b in c is ``structure_map(b, c)`` applied to its lift, by
    default the diagram's own ``path_map``, so no image is carried up covers.
    """
    field = diagram.field
    structure_map = structure_map or diagram.path_map
    lifts, generators = {}, []
    for c in diagram.points:
        lift = cokernel_lifts(colimit_map_by_cone(diagram, c))
        if lift.ncols:
            lifts[c] = lift
            generators.append((c, lift.ncols))
    kernels, relations, blocks = {}, [], {}
    for c in diagram.points:
        active = [(b, m) for b, m in generators if leq(b, c)]
        total = sum(m for _, m in active)
        ev = hstack(field, [structure_map(b, c) @ lifts[b] for b, _ in active],
                    nrows=diagram.dims[c])
        ker = kernel_basis(ev)
        kernels[c] = (active, ker)
        current = []
        for p in diagram.points:
            if lt(p, c):
                current.extend(entry_columns(_pad_generator_rows(field, kernels[p][0],
                                                                 kernels[p][1], active)))
        chosen = []
        for col in entry_columns(ker):
            before = rank(Matrix.from_columns(field, current, nrows=total))
            if rank(Matrix.from_columns(field, current + [col], nrows=total)) > before:
                chosen.append(col)
                current.append(col)
        if not chosen:
            continue
        relations.append((c, len(chosen)))
        vectors = Matrix.from_columns(field, chosen, nrows=total)
        offset = 0
        for b, m in active:
            seg = Matrix(field, vectors.entries()[offset:offset + m], ncols=len(chosen))
            if not seg.is_zero():
                blocks[(c, b)] = seg
            offset += m
    return generators, relations, blocks, lifts


def presentation_by_full_scan(module, s) -> Presentation:
    """The full scan of the encoding, with images from the module's own
    ``eval_map``; the generator lifts are the presentation's generator images."""
    generators, relations, blocks, lifts = diagram_presentation_by_full_scan(
        encode(module, s), module.eval_map)
    return Presentation(module.field, module.box.dim, tuple(generators), tuple(relations), blocks,
                        generator_images=lifts)


# ---------------------------------------------------------------------------
# presentation oracle: every given point checked on its own, with the
# generator images carried there by the module's structure maps

def free_complex_at(pres: Presentation, pt):
    """Active generators and relations at a point, and the relation matrix there."""
    gens = [(b, m) for b, m in pres.generators if leq(b, pt)]
    rels = [(d, m) for d, m in pres.relations if leq(d, pt)]
    nrows = sum(m for _, m in gens)
    blocks = [Matrix(pres.field, [r for b, _ in gens for r in pres.block(d, b).entries()],
                     ncols=dm)
              for d, dm in rels]
    mat = hstack(pres.field, blocks, nrows=nrows) if blocks \
        else Matrix.zeros(pres.field, nrows, 0)
    return gens, rels, mat


def presentation_check_at_points(module, pres: Presentation, pts) -> PresentationCheck:
    """The presentation checked at each given point on its own, in sorted order.

    At each point the cokernel of the relations there has the module's
    dimension.  With ``generator_images``, the images carried to the point
    by ``eval_map`` from every generator below it must also send the
    relations to zero and span the module; an image with the wrong number
    of rows fails at its generator first.  So a verify that holds on its
    grid can be checked on any points, from the definition.
    """
    images = pres.generator_images
    for b, _ in pres.generators:
        if images is not None and images[b].nrows != module.eval_space(b):
            return PresentationCheck(False, b, f"generator image has {images[b].nrows} rows, "
                                     f"module dimension is {module.eval_space(b)}")
    for pt in sort_points(pts):
        gens, _, rel = free_complex_at(pres, pt)
        dim = module.eval_space(pt)
        coker = rel.nrows - rank(rel)
        if coker != dim:
            return PresentationCheck(False, pt, f"cokernel dimension {coker} differs from "
                                     f"module dimension {dim}")
        if images is None:
            continue
        ev = hstack(module.field, [module.eval_map(b, pt) @ images[b] for b, _ in gens], nrows=dim)
        if not (ev @ rel).is_zero():
            return PresentationCheck(False, pt, "relations do not map to zero")
        if rank(ev) != dim:
            return PresentationCheck(False, pt, "generator images do not span the module")
    return PresentationCheck(True)


def verify_on_critical_grid(module: GridModule, pres: Presentation) -> PresentationCheck:
    """The checks of ``verify_presentation`` on ``critical_grid`` of the box
    and the grades: per axis -inf, the box widened by one, and every finite
    grade coordinate with its predecessor.  That grid holds every clamp
    class and every set of grades below a point, as verify's own grid does,
    and the least coordinate of each, so the verdict and the first failing
    point are verify's."""
    if pres.field != module.field:
        raise InputError("presentation and module are over different fields")
    grid = critical_grid(module.box, [b for b, _ in pres.generators]
                         + [d for d, _ in pres.relations])
    if pres.generator_images is not None:
        return _check_images(module, pres, grid)
    coker = _cokernel_module(pres)
    points = {}  # one grid point per clamp and set of generators below it
    for pt in grid.sorted_points():
        coker_dim = coker[0](pt)
        if coker_dim != module.eval_space(pt):
            return PresentationCheck(False, pt, f"cokernel dimension {coker_dim} differs from "
                                     f"module dimension {module.eval_space(pt)}")
        points.setdefault((module.clamp(pt), tuple(b for b, _ in pres.generators
                                                   if leq(b, pt))), pt)
    found = _find_isomorphism(pres, coker, (module.eval_space, module.eval_map),
                              list(points.values()),
                              lambda: _presentation(module.field, module.box.dim,
                                                    _scan(module.field,
                                                          _product_poset(module, grid))))
    if found is None:
        return PresentationCheck(None, None, "the isomorphism search ran out of trials")
    if found is False:
        return PresentationCheck(False, None, "structure maps do not match the module")
    return PresentationCheck(True)


def widened_box_points(module, width: int = 2) -> set:
    """The canonical set together with the integer box widened by ``width``."""
    pts = set(canonical_set(module))
    lo = tuple(a - width for a in module.box.a)
    hi = tuple(b + width for b in module.box.b)
    pts.update(Box(lo, hi).integer_points())
    return pts
