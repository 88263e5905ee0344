"""Births, deaths, and finite presentations of determined modules.

One upward scan over a diagram reads off its presentation: generators where
the lower-cover maps fail to be onto, relations from the kernel vectors that
are new modulo the kernels at the lower covers.  Births and deaths are the
generator and relation multiplicities of that scan, by right exactness of
colimits (see :func:`diagram_births_deaths`).
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ConsistencyError, InputError
from .extgrid import (CartesianSet, Point, as_point, as_product, clamps_and_strides,
                      critical_grid, join_closure, leq, lex_strides, lt, sort_points)
from .grid_module import ExtendedView, GridModule, restrict_view
from .determinacy import determinacy_report, determined_closure
from .linalg import (Matrix, PosetDiagram, _require_valid, _vec, cokernel_projection,
                     diagram_colimit, hstack, kernel_basis, pivot_columns, rank, solve)


@dataclass(frozen=True)
class BirthDeathReport:
    """Multiplicity of births and deaths per point; only non-zero entries listed.

    They are the generator and relation multiplicities of one presentation scan.
    """

    births: dict
    deaths: dict


@dataclass(frozen=True)
class PresentationCheck:
    """A verdict: ``ok`` is ``True``, ``False`` (with a point where one is
    known), or ``None`` when the isomorphism search ran out; only ``True``
    is truthy."""

    ok: bool | None
    point: Point | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok is True


@dataclass(frozen=True)
class Presentation:
    """Two-term graded presentation: relations -> generators -> module -> 0.

    Generators and relations are (point, multiplicity) pairs; ``blocks`` maps
    (relation point, generator point) to the corresponding coefficient block,
    of shape generator multiplicity by relation multiplicity.  A relation may
    only involve generators at points below it, so blocks outside the grading
    are not stored.

    ``generator_images``, when present, is the certificate of the map from
    the free module onto the module: it sends every generator point b to a
    matrix of shape dim M(b) by multiplicity whose columns are the images of
    the generators at b.  ``None`` means the presentation carries no map, and
    verification has to search for an isomorphism instead.
    """

    field: object
    dim: int
    generators: tuple
    relations: tuple
    blocks: dict
    generator_images: dict | None = None

    def __post_init__(self):
        gen_mult = dict(self.generators)
        rel_mult = dict(self.relations)
        if len(gen_mult) != len(self.generators) or len(rel_mult) != len(self.relations):
            raise InputError("a generator or relation point is listed twice")
        # multiplicity lookups, built once for ``block``
        object.__setattr__(self, "_gen_mult", gen_mult)
        object.__setattr__(self, "_rel_mult", rel_mult)
        for pt, mult in list(self.generators) + list(self.relations):
            as_point(pt, dim=self.dim)
            if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
                raise InputError(f"multiplicity at {pt!r} must be a positive integer")
        if self.generator_images is not None:
            for b, image in self.generator_images.items():
                if b not in gen_mult:
                    raise InputError(f"generator image at {b!r}, which is not a generator")
                if image.ncols != gen_mult[b]:
                    raise InputError(f"generator image at {b!r} has {image.ncols} columns, "
                                     f"expected the multiplicity {gen_mult[b]}")
            missing = [b for b in gen_mult if b not in self.generator_images]
            if missing:
                raise InputError(f"no generator image at {missing[0]!r}")
        for (d, b), block in self.blocks.items():
            if d not in rel_mult or b not in gen_mult:
                raise InputError(f"block ({d!r}, {b!r}) does not match a relation/generator pair")
            if not leq(b, d):
                raise InputError(f"block ({d!r}, {b!r}) violates the grading")
            if block.shape != (gen_mult[b], rel_mult[d]):
                raise InputError(f"block ({d!r}, {b!r}) has shape {block.shape}, expected "
                                 f"{(gen_mult[b], rel_mult[d])}")

    def block(self, d: Point, b: Point) -> Matrix:
        got = self.blocks.get((d, b))
        if got is not None:
            return got
        return Matrix.zeros(self.field, self._gen_mult[b], self._rel_mult[d])


# predecessor_colimit_map and _lower_covers serve no verb; perfbench/bench_trace.py binds the first
def _lower_covers(diagram: PosetDiagram) -> dict:
    """The lower covers of every point of the diagram."""
    lower = {c: [] for c in diagram.points}
    for p, c in diagram.covers():
        lower[c].append(p)
    return lower


def predecessor_colimit_map(diagram: PosetDiagram, c: Point) -> Matrix:
    """Canonical map into c from the colimit over the strict downset of c.

    The definitional map, kept for inspection: failure to be surjective makes
    c a birth, failure to be injective a death.  The downset is taken inside
    the diagram's own point set; when it is empty the map has a
    zero-dimensional source.  The colimit injections from the lower covers
    of c span the colimit, so the map is the unique solution of the equations
    that send each of those injections to its cover map into c.
    """
    if c not in diagram.dims:
        raise InputError(f"{c!r} is not a point of the diagram")
    below = [p for p in diagram.points if lt(p, c)]
    colim_dim, injections = diagram_colimit(diagram.restrict_downclosed(below))
    lower = _lower_covers(diagram)[c]
    quotient = hstack(diagram.field, [injections[p] for p in lower], nrows=colim_dim)
    cone = hstack(diagram.field, [diagram.maps[(p, c)] for p in lower], nrows=diagram.dims[c])
    lam_t = solve(quotient.transpose(), cone.transpose())
    if lam_t is None:
        raise ConsistencyError("cone map does not factor through the colimit")
    return lam_t.transpose()


def _generator_lifts(lam: Matrix) -> Matrix:
    """Unit vectors lifting a basis of the cokernel of ``lam``, in one elimination.

    The lifts are the e_j with e_j outside im(lam) + span(e_i : i < j): the
    lexicographically first choice, and the unit vectors at the pivot
    columns of the reduced-echelon cokernel projection.  e_j lies in that
    sum exactly when some vector of the image has its last non-zero
    coordinate at j.  The last non-zero coordinates of the vectors of a
    subspace are the pivots of its echelon form with the coordinates in
    reverse order, so the pivots of lam transposed, its columns reversed,
    give every j that is not a lift.  A map with no columns has image zero,
    and every unit vector lifts.
    """
    field, n = lam.field, lam.nrows
    taken = set()
    if lam.ncols and n:
        reversed_image = [col[::-1] for col in zip(*lam.rows)]
        taken = {n - 1 - k for k in pivot_columns(field, reversed_image, n)}
    free = [j for j in range(n) if j not in taken]
    zero_row = (field.zero,) * len(free)
    rows = [zero_row] * n
    for k, j in enumerate(free):
        row = list(zero_row)
        row[k] = field.one
        rows[j] = row
    return Matrix(field, rows, ncols=len(free), _coerce=False)


def _walk(field, poset: tuple, new_columns: Callable, gens: list):
    """One upward walk of a finite poset, carrying the images of its generators.

    ``poset`` is ``(points, dims, lower, step)``: the points in
    lexicographic order, ``dims[i]`` the dimension at ``points[i]``,
    ``lower[i]`` the indices of its lower covers, and ``step(p, i)`` the map
    from ``points[p]`` to ``points[i]``, or ``None`` for the identity
    (:func:`_product_poset`, :func:`_present_diagram`).

    At each point c, ``new_columns(points[c], dims[c], maps)``, with
    ``maps`` the steps from the lower covers, gives the images of the
    generators at c, or ``None``; ``gens`` collects them in walk order as
    (point, columns).  The generators active at c are those at c and those
    active at its lower covers.  Their images in M(c), side by side in the
    order of ``gens``, make ev_c, carried up one lower cover at a time: the
    columns of a generator b < c are taken from step(p, c) @ ev_p for the
    first lower cover p of c that has b, identity steps first (they need no
    product), and where p has every active generator, that is all of ev_c.
    As the poset's maps commute, every covering chain from b to c gives the
    same columns, exactly M(b -> c) applied to the images at b.

    The kernel rule.  Let K_c be the kernel of ev_c.  Where ev_c is onto
    M(c), dim K_c is the number of generator columns at c minus dim M(c),
    known without an elimination.  The generators active at a lower cover p
    are a sublist of those at c, and ev_c on them is step(p, c) @ ev_p, so
    K_p placed in F_c, the free module on the generators active at c (its
    rows copied to the offsets of p's generators, zero rows elsewhere),
    lies in K_c.  So where dim K_c is
    0, or equals dim K_p for some lower cover p, the placed K_p is all of
    K_c: the kernel does not grow at c.  The walk keeps per point a root,
    ``None`` for a zero kernel, the root of such a p, else c itself; as
    placing from r into F_p and then into F_c is placing from r into F_c,
    K_c is the placed kernel of its root.

    Yields per point (point, dim, the active generator indices in
    order, ev, whether a lower-cover step is the identity, roots): ``roots``
    is ``None`` where the kernel does not grow, else the distinct roots of
    the lower covers, so that their placed kernels are those of the covers.
    The build (:func:`_scan`) takes a kernel basis, and verify
    (:func:`_check_images`) a rank of the relation matrix, only where
    ``roots`` is not ``None``.
    """
    points, dims, lower, step = poset
    mults = []  # per generator index
    states = []  # per point: (active generator indices, ev, dim K, kernel root)
    for c, (pt, dim, covers) in enumerate(zip(points, dims, lower)):
        maps = [step(p, c) for p in covers]
        new = new_columns(pt, dim, maps)
        order = sorted(set().union(*(states[p][0] for p in covers)))
        carried = {}
        if new is not None:
            carried[len(mults)] = (new, 0)
            order.append(len(mults))
            mults.append(new.ncols)
            gens.append((pt, new))
        ev = None
        for p, m in sorted(zip(covers, maps), key=lambda pm: pm[1] is not None):
            below, ev_p, _, _ = states[p]
            if all(g in carried for g in below):
                continue
            moved = ev_p if m is None else m @ ev_p
            if len(below) == len(order):  # every active generator, in order
                ev = moved
                break
            offset = 0
            for g in below:
                carried.setdefault(g, (moved, offset))
                offset += mults[g]
        if ev is None:
            rows = [[] for _ in range(dim)]
            for g in order:
                source, offset = carried[g]
                m = mults[g]
                for row, src in zip(rows, source.rows):
                    row.extend(src[offset:offset + m])
            ev = Matrix(field, rows, ncols=sum(mults[g] for g in order), _coerce=False)
        kdim, root = ev.ncols - dim, None
        if kdim:
            same = next((p for p in covers if states[p][2] == kdim), None)
            root = pt if same is None else states[same][3]
        states.append((order, ev, kdim, root))
        roots = None
        if root is pt:
            roots = list(dict.fromkeys(states[p][3] for p in covers
                                       if states[p][3] is not None))
        yield pt, dim, order, ev, None in maps, roots


def _scan(field, poset: tuple, covers_complete: bool) -> tuple:
    """The presentation scan: (generators, relations, blocks, generator lifts).

    One :func:`_walk` of the poset, upwards.  The generators at c lift a
    basis of the cokernel of its lower-cover maps placed side by side (one
    elimination, :func:`_generator_lifts`).  An identity step is onto, so
    that cokernel is zero wherever a lower-cover step is the identity, and
    no lift is taken there.  ev_c is onto M(c), by induction: the images of
    the ev_p at the lower covers span the images of the lower-cover maps,
    and the lifts span the rest.  Every b < c lies below a lower cover of c,
    so the active generators are all those below c when ``covers_complete``
    says that the covers are those of the poset; otherwise they come from a
    caller and may leave out a chain, and a generator b <= c outside them is
    an ``InputError``.  ev_c on the generator at b is the image of the lift
    at b along a covering chain, ``path_map(b, c) @ lifts[b]``.

    Relations are read off the kernels K_c of the ev_c: the new relations at
    c are the columns of K_c that are new modulo the placed kernels of its
    lower covers.  By the kernel rule of :func:`_walk`, none is born where
    the kernel does not grow, and no elimination runs there.  Where it
    grows, ``kernel_basis`` gives K_c, and its new columns are the pivot
    columns past the placed kernels in one elimination of the placed kernels
    of the lower covers' roots followed by that basis, made only when some
    lower cover has a non-zero kernel.  Which columns are new depends only
    on the span of the placed kernels, so any basis of them serves, and the
    relations are those of a scan that takes every kernel.
    """
    gens, relations, blocks, kernels = [], [], {}, {}
    zero = field.zero

    def lifts(pt, dim, maps):
        if None in maps:
            return None
        lift = _generator_lifts(maps[0] if len(maps) == 1 else hstack(field, maps, nrows=dim))
        return lift if lift.ncols else None
    for pt, _, order, ev, _, roots in _walk(field, poset, lifts, gens):
        if not covers_complete:
            below = [g for g, (b, _) in enumerate(gens) if leq(b, pt)]
            if len(below) != len(order):
                missing = next(g for g in below if g not in order)
                raise InputError(f"no covering chain from {gens[missing][0]!r} to {pt!r}")
        if roots is None:
            continue
        ker = kernel_basis(ev)
        kernels[pt] = (order, ker)
        total, width = ev.ncols, 0
        offsets, o = {}, 0
        for g in order:
            offsets[g] = o
            o += gens[g][1].ncols
        stacked = [[] for _ in range(total)]
        for r in roots:
            active_r, ker_r = kernels[r]
            placed = [(zero,) * ker_r.ncols] * total
            src = 0
            for g in active_r:
                m = gens[g][1].ncols
                placed[offsets[g]:offsets[g] + m] = ker_r.rows[src:src + m]
                src += m
            for row, part in zip(stacked, placed):
                row.extend(part)
            width += ker_r.ncols
        if width:
            for row, part in zip(stacked, ker.rows):
                row.extend(part)
            pivots = pivot_columns(field, stacked, width + ker.ncols)
            chosen = [ker.column(j - width) for j in pivots if j >= width]
        else:
            chosen = ker.columns()
        if not chosen:
            continue
        relations.append((pt, len(chosen)))
        for g in order:
            offset, m = offsets[g], gens[g][1].ncols
            seg = Matrix(field, [[col[offset + i] for col in chosen] for i in range(m)],
                         ncols=len(chosen), _coerce=False)
            if not seg.is_zero():
                blocks[(pt, gens[g][0])] = seg
    return [(b, lift.ncols) for b, lift in gens], relations, blocks, dict(gens)


def _present_diagram(diagram: PosetDiagram) -> tuple:
    """The scan of a validated diagram, with its own covers and maps, and
    the diagram's identity covers as identity steps."""
    _require_valid(diagram)
    points, maps, identities = diagram.points, diagram.maps, diagram.identity_covers()
    index = {p: i for i, p in enumerate(points)}
    lower = [[] for _ in points]
    for p, c in diagram.covers():
        lower[index[c]].append(index[p])

    def step(p, c):
        cover = (points[p], points[c])
        return None if cover in identities else maps[cover]
    poset = (points, [diagram.dims[p] for p in points], lower, step)
    return _scan(diagram.field, poset, diagram.covers_complete)


def _product_poset(view: ExtendedView, grid: CartesianSet, grades=()) -> tuple:
    """A product grid as :func:`_walk` takes it, read off the module's box,
    without the coordinates that repeat the one below.

    A coordinate repeats the one below it on its axis when no point of
    ``grades`` has it and every step along the axis between their clamps is
    the identity, at every box point of that slab: equal clamps are the case
    with no step.  A grid point with such a coordinate repeats its lower
    cover along that axis: a grade lies below the point exactly when it
    lies below the cover, the two have the same dimension, and the map
    between them is the identity, so the walk would carry the cover's state
    there, with the same active generators and relations, ev and kernel.
    Verify passes its generator and relation points.  The build passes
    none: it takes a generator only where no lower-cover step is the
    identity, so never at such a coordinate, and a relation only where the
    kernel grows, which it does not across an identity step that brings no
    generator.  What is left is a product grid again, whose steps are the
    composites of those of the grid, and the step into a left-out
    coordinate is the identity, so they are the steps of the grid with the
    identities taken out.

    The lower covers come from the strides and each step from the module at
    the clamped points: ``None`` (the identity) when both clamp to the same
    box point; when they are adjacent, ``None`` again for a step the module
    knows to be the identity, with no :class:`Matrix`, else the stored
    step; and otherwise ``view.box_map``, the composite of the stored steps
    between them, or ``None`` when that matrix is the identity.  The covers
    of a product are complete.
    """
    module = view.module
    factors, clamps = [], []
    for axis, (f, cl) in enumerate(zip(grid.factors, clamps_and_strides(grid, module.box)[0])):
        pins = {p[axis] for p in grades}
        kept = [k for k, v in enumerate(f)
                if not k or v in pins or not all(module.is_identity_slab(axis, t)
                                                 for t in range(cl[k - 1], cl[k]))]
        factors.append([f[k] for k in kept])
        clamps.append([cl[k] for k in kept])
    strides = lex_strides([len(f) for f in factors])
    clamped = list(itertools.product(*clamps))
    lower = [[flat - strides[axis] for axis, k in enumerate(idx) if k]
             for flat, idx in enumerate(itertools.product(*(range(len(f)) for f in factors)))]

    def step(p, c):
        x, y = clamped[p], clamped[c]
        if x == y:
            return None
        axis = next(i for i, (u, v) in enumerate(zip(x, y)) if u != v)
        if y[axis] == x[axis] + 1:
            return None if module.is_identity_step(x, axis) else module.step(x, axis)
        composite = view.box_map(x, y)
        return None if composite.is_identity() else composite
    return list(itertools.product(*factors)), [module.dims[x] for x in clamped], lower, step


def _present_view(view: ExtendedView, s) -> tuple:
    """The scan of a determined module on the pointed join closure of the set:
    on the product grid when the closure is one, else on its encoding.  A
    :class:`CartesianSet` with -inf on every axis, such as the default
    ``canonical_grid``, is that product as it is, with no pass over its
    points."""
    closure = determined_closure(view, s)
    grid = as_product(closure)
    if grid is None:
        return _present_diagram(restrict_view(view, closure))
    return _scan(view.field, _product_poset(view, grid), covers_complete=True)


def diagram_births_deaths(diagram: PosetDiagram) -> BirthDeathReport:
    """Births and deaths of a diagram: the multiplicities of its presentation.

    Apply the colimit over the strict downset D of c, which is right exact,
    to the scan's 0 -> K -> F -> M -> 0.  A free summand on a generator b < c
    has colimit k over D, as its support in D has minimum b, so the colimit
    of F is F_{<c}.  The lifts at c are independent modulo the image of the
    lower covers, so K_c lies in F_{<c}, and the kernel of the canonical map
    into M_c is K_c / (sum of K_p over the lower covers p): as many
    dimensions as the scan's new relation columns at c.  The cokernel is
    that of the lower-cover maps, of dimension the number of generators at c.
    """
    generators, relations, _, _ = _present_diagram(diagram)
    return BirthDeathReport(dict(generators), dict(relations))


def births_deaths(view: ExtendedView, s) -> BirthDeathReport:
    """Births and deaths of a determined module: those of its encoding,
    read off the same scan without building the encoding on a product."""
    generators, relations, _, _ = _present_view(view, s)
    return BirthDeathReport(dict(generators), dict(relations))


def present_diagram(diagram: PosetDiagram) -> Presentation:
    """The scan's presentation of a diagram on a non-empty set of points,
    with the generator lifts as ``generator_images``."""
    generators, relations, blocks, lifts = _present_diagram(diagram)
    return Presentation(diagram.field, len(diagram.points[0]), tuple(generators),
                        tuple(relations), blocks, generator_images=lifts)


def build_presentation(view: ExtendedView, s) -> Presentation:
    """Graded presentation of a determined module: the scan of its encoding,
    without building the encoding on a product."""
    generators, relations, blocks, lifts = _present_view(view, s)
    return Presentation(view.field, view.box.dim, tuple(generators), tuple(relations), blocks,
                        generator_images=lifts)


def _relation_matrix(pres: Presentation, gens: list, rels: list) -> Matrix:
    """The relation matrix on the listed generators (rows) and relations (columns).

    Both lists are (point, multiplicity) pairs; a block that is not stored is zero.
    """
    zero = pres.field.zero
    rows = []
    for b, m in gens:
        parts = [(pres.blocks.get((d, b)), dm) for d, dm in rels]
        for i in range(m):
            row = []
            for block, dm in parts:
                row.extend(block.rows[i] if block is not None else (zero,) * dm)
            rows.append(row)
    return Matrix(pres.field, rows, ncols=sum(m for _, m in rels), _coerce=False)


def verify_presentation(view: ExtendedView, pres: Presentation) -> PresentationCheck:
    """Check that the presentation's cokernel is the module at every point.

    The check runs on G = ``critical_grid(view.box, grades)``, where the
    grades are the generator and relation points.  That is enough for every
    point x of the extended grid.  Let g be the greatest point of G below x:
    per axis, the greatest coordinate of G not above x (every axis of G
    holds -inf).  G holds the box widened by one on every axis, so x and g
    clamp to the same box point and M(g -> x) is the identity.  G holds
    every finite coordinate of every grade, so a grade lies below x exactly
    when it lies below g; F0 and F1 are then the same free modules at x and
    at g, with the same relation matrix.  Miller (arXiv:1711.01933) gives
    the same argument for finite encodings.  So a natural map that is an
    isomorphism at every point of G is one everywhere: ``ok`` means
    "everywhere", and no wider grid could change it.

    With ``generator_images`` the check is of that explicit map, carried up
    G by the walk that builds presentations too (:func:`_walk`), and each
    check at a point runs only where it can fail (:func:`_check_images`).
    A failure names the first point of G, in lexicographic order, where a
    check fails, and the first check that fails there.  Without images the
    cokernel dimensions are compared on G, with the same failing point, and
    then :func:`_find_isomorphism` searches Hom(coker, M) for a map onto M
    at one point of G per clamp and set of generators below it: the other
    points of G with that clamp and those generators carry the same images.
    A map onto M of a cokernel of M's dimension on all of G is an
    isomorphism on G, hence everywhere, so the search need not re-check it.
    The search's Hom-dimension certificates present M by its restriction to
    G, which holds every grade, so they compare Hom spaces over G, where an
    isomorphism would restrict to one.  A search that runs out gives ``ok``
    ``None``.
    """
    if pres.field != view.field:
        raise InputError("presentation and module are over different fields")
    grades = [b for b, _ in pres.generators] + [d for d, _ in pres.relations]
    grid = critical_grid(view.box, grades)
    if pres.generator_images is not None:
        return _check_images(view, pres, grid)
    coker = _cokernel_module(pres)
    points = {}  # one grid point per clamp and set of generators below it
    for pt in grid.sorted_points():
        coker_dim = coker[0](pt)
        if coker_dim != view.eval_space(pt):
            return PresentationCheck(False, pt, f"cokernel dimension {coker_dim} differs from "
                                     f"module dimension {view.eval_space(pt)}")
        points.setdefault((view.clamp(pt), tuple(b for b, _ in pres.generators
                                                 if leq(b, pt))), pt)
    found = _find_isomorphism(pres, coker, (view.eval_space, view.eval_map),
                              list(points.values()),
                              lambda: present_diagram(restrict_view(view, grid)))
    if found is None:
        return PresentationCheck(None, None, "the isomorphism search ran out of trials")
    if found is False:
        return PresentationCheck(False, None, "structure maps do not match the module")
    return PresentationCheck(True)


def _cokernel_module(pres: Presentation) -> tuple:
    """``(dim, path)`` of coker pres, as :func:`_hom_basis` takes them.

    At x the basis is that of ``cokernel_projection`` q_x of the relation
    matrix there; the map from b to d is the mu with mu q_b = q_d restricted
    to the generators below b, which exists as the relations at b are
    relations at d, and is unique as q_b is onto.
    """
    @functools.cache
    def quotient(x):
        gens = [(b, m) for b, m in pres.generators if leq(b, x)]
        rels = [(d, m) for d, m in pres.relations if leq(d, x)]
        return cokernel_projection(_relation_matrix(pres, gens, rels))

    def path(b, d):
        q_d = quotient(d)
        cols = [g for g, m in pres.generators if leq(g, d) for _ in range(m)]
        moved = Matrix.from_columns(pres.field, [q_d.column(j) for j, g in enumerate(cols)
                                                 if leq(g, b)], nrows=q_d.nrows)
        return solve(quotient(b).transpose(), moved.transpose()).transpose()

    return (lambda x: quotient(x).nrows), path


def _check_images(view: ExtendedView, pres: Presentation, grid: CartesianSet
                  ) -> PresentationCheck:
    """The certificate check of :func:`verify_presentation`: one :func:`_walk` of the grid.

    An image with the wrong number of rows fails at its generator point.
    Otherwise the walk carries E_c, the images of the generators below c in
    M(c), up from the lower covers of c.  The module is validated, so E is
    a map out of a free module, natural by construction.  It induces an
    isomorphism from the cokernel of the relation matrix R_c onto M(c)
    when three checks hold at c: R_c has a cokernel of dimension dim M(c),
    E R = 0, and E_c has rank dim M(c).  Each is computed only where it can
    fail:

    - E_c spans M(c) where a lower-cover step is the identity, as E there
      spans M(p) = M(c), so its rank is taken only where none is;
    - E R = 0 is checked only at relation grades, on the new relation
      columns: naturality gives E_c R = M(d -> c) E_d R at every c above a
      relation grade d;
    - once both hold, im R_c lies in ker E_c, and at a lower cover p, which
      passed, im R_p is ker E_p.  The relations at p are relations at c, so
      where the kernel does not grow (the kernel rule of :func:`_walk`),
      im R_c holds the placed ker E_p, which is all of ker E_c, and the
      cokernel has dimension dim M(c): the rank of R_c is taken only where
      the kernel grows.

    Where a check fails, all three run, in that order, so the point and the
    reason are those of checking every point in full.  A grid point the
    walk leaves out (:func:`_product_poset`) repeats a lower cover, with the
    same generators, relations and E, so its checks are those of the cover.
    """
    images = pres.generator_images
    for b, _ in pres.generators:
        if images[b].nrows != view.eval_space(b):
            return PresentationCheck(False, b, f"generator image has {images[b].nrows} rows, "
                                     f"module dimension is {view.eval_space(b)}")
    rel_mult = dict(pres.relations)
    gens = []
    poset = _product_poset(view, grid, grades=list(images) + list(rel_mult))
    for c, dim, order, ev, onto, roots in _walk(view.field, poset,
                                                lambda pt, dim, maps: images.get(pt), gens):
        active = [(gens[g][0], gens[g][1].ncols) for g in order]
        spans = onto or rank(ev) == dim
        zero = c not in rel_mult or (
            ev @ _relation_matrix(pres, active, [(c, rel_mult[c])])).is_zero()
        if spans and zero and roots is None:
            continue
        rel = _relation_matrix(pres, active, [(d, m) for d, m in pres.relations if leq(d, c)])
        coker = rel.nrows - rank(rel)
        if coker != dim:
            return PresentationCheck(False, c, f"cokernel dimension {coker} differs from "
                                     f"module dimension {dim}")
        if not zero:
            return PresentationCheck(False, c, "relations do not map to zero")
        if not spans:
            return PresentationCheck(False, c, "generator images do not span the module")
    return PresentationCheck(True)


# Budgets of the isomorphism search: every coefficient tuple of a Hom space
# over F_p with at most this many elements, else this many seeded trials.
EXHAUSTIVE_LIMIT = 4096
RANDOM_TRIALS = 1500


def _hom_basis(pres: Presentation, dim: Callable, path: Callable) -> list:
    """A basis of Hom(coker pres, N), one dict of generator images per element.

    A map out of the cokernel is an image E_b, a dim N(b) x m_b matrix, for
    every generator point b, such that the relations map to zero:
    sum_b N(b -> d) E_b B_{d,b} = 0 at every relation point d.  That is one
    ``kernel_basis``, with the entries of the E_b row by row as unknowns.
    ``dim(p)`` is dim N(p) and ``path(b, d)`` the structure map N(b -> d):
    ``view.eval_map`` for a module, ``PosetDiagram.path_map`` for a diagram.
    """
    field = pres.field
    offsets, total = {}, 0
    for b, m in pres.generators:
        offsets[b] = total
        total += dim(b) * m
    rows = {d: [[field.zero] * total for _ in range(dim(d) * r)] for d, r in pres.relations}
    for (d, b), block in pres.blocks.items():
        o, r = offsets[b], block.ncols
        # entry (i, j) of N(b -> d) E_b B is sum_{k, l} N[i][k] E_b[k][l] B[l][j]
        for i, nrow in enumerate(path(b, d).rows):
            for j, bcol in enumerate(zip(*block.rows)):
                rows[d][i * r + j][o:o + dim(b) * block.nrows] = [
                    field.mul(x, y) for x in nrow for y in bcol]
    equations = [row for d, _ in pres.relations for row in rows[d]]
    kernel = kernel_basis(Matrix(field, equations, ncols=total, _coerce=False))
    return [{b: Matrix(field, [v[offsets[b] + k * m:offsets[b] + (k + 1) * m]
                               for k in range(dim(b))], ncols=m, _coerce=False)
             for b, m in pres.generators}
            for v in kernel.columns()]


def _find_isomorphism(pres: Presentation, source: tuple, target: tuple, points,
                      present_target: Callable):
    """Generator images of an isomorphism from coker pres onto N, found in
    :func:`_hom_basis`; ``False`` when there is none; ``None`` when the
    search ran out.

    ``source`` and ``target`` are the ``(dim, path)`` of coker pres and of N,
    as :func:`_hom_basis` takes them, and ``present_target()`` presents N.
    Callers check first that the cokernel has the dimension of N at every
    point of ``points``, so a map is an isomorphism where the images of the
    generators below a point, carried there, span N: a candidate is judged
    by those ranks.  A greedy pass adds a basis element whenever the summed
    rank rises, taking them by their own summed rank, largest first, and
    passes again while it rises.  If it misses, dim Hom(coker pres, N) is
    compared with End(coker pres), Hom(N, coker pres) and End(N), which it
    equals when there is an isomorphism; a mismatch certifies that there is
    none.  Then, over F_p with p^k <= ``EXHAUSTIVE_LIMIT``, every combination
    is tried, so a miss certifies that there is none; otherwise
    ``RANDOM_TRIALS`` seeded combinations.  Every step is deterministic.
    """
    dim, path = target
    field = pres.field
    basis = _hom_basis(pres, dim, path)
    shapes, carried = [], []  # per point: (dim, width), and the basis images carried there
    for p in points:
        below = [(b, m, path(b, p)) for b, m in pres.generators if leq(b, p)]
        shapes.append((dim(p), sum(m for _, m, _ in below)))
        carried.append(list(zip(*(_vec(hstack(field, [f @ h[b] for b, _, f in below],
                                              nrows=dim(p))) for h in basis))))

    def ranks(flats):  # lazily, point by point
        for flat, (d, w) in zip(flats, shapes):
            yield rank(Matrix(field, [flat[i * w:(i + 1) * w] for i in range(d)], ncols=w,
                              _coerce=False))

    def judge(coeffs):
        flats = ([field.dot(coeffs, col) for col in cols] for cols in carried)
        if any(r != d for r, (d, _) in zip(ranks(flats), shapes)):
            return None
        images = {b: Matrix.zeros(field, dim(b), m) for b, m in pres.generators}
        for c, h in zip(coeffs, basis):
            for b in images:
                images[b] = images[b] + h[b].scale(c)
        return images

    k, full = len(basis), sum(d for d, _ in shapes)
    alone = [sum(ranks([col[i] for col in cols] for cols in carried)) for i in range(k)]
    coeffs, current, best = [field.zero] * k, [[field.zero] * (d * w) for d, w in shapes], 0
    rising = True
    while rising and best < full:
        rising = False
        for i in sorted(range(k), key=lambda i: -alone[i]):
            added = [[field.add(x, col[i]) for x, col in zip(flat, cols)]
                     for flat, cols in zip(current, carried)]
            added_best = sum(ranks(added))
            if added_best > best:
                coeffs[i] = field.add(coeffs[i], field.one)
                current, best, rising = added, added_best, True
                if best == full:
                    break
    found = judge(coeffs) if best == full else None
    if found is not None:
        return found

    def expected():  # lazily: each presentation and Hom space only when needed
        yield len(_hom_basis(pres, *source))
        other = present_target()
        yield len(_hom_basis(other, *source))
        yield len(_hom_basis(other, *target))
    if not basis or any(e != k for e in expected()):
        return False
    exhaustive = field.kind == "prime" and field.p ** k <= EXHAUSTIVE_LIMIT
    if exhaustive:
        candidates = itertools.product(range(field.p), repeat=k)
    else:
        rng = random.Random(0x5EED)
        candidates = ([rng.randrange(field.p) for _ in range(k)] if field.kind == "prime"
                      else [Fraction(rng.randint(-2 - t // 300, 2 + t // 300)) for _ in range(k)]
                      for t in range(RANDOM_TRIALS))
    for coeffs in filter(any, candidates):
        found = judge(coeffs)
        if found is not None:
            return found
    return False if exhaustive else None


def _require_join_closed(l) -> list:
    pts = sort_points(l)
    if not pts:
        raise InputError("the lattice must be non-empty")
    if join_closure(pts) != frozenset(pts):
        raise InputError("the point set is not closed under joins")
    return pts


def is_admissible(module: GridModule, l) -> bool:
    """Does restricting the module to the lattice and spreading it back
    reproduce the module?

    The lattice must be join-closed.  The reconstruction at c is the module
    at the join a of the lattice points below c, mapped in by M(a -> c), and
    zero when there are none.  So it reproduces the module exactly when the lattice
    determines it (each M(a -> c) is invertible) with support (the module
    is zero off the upset of the lattice): the determinacy check with
    support decides it.
    """
    pts = _require_join_closed(l)
    ExtendedView(module)  # refuses a module that does not validate
    if len(pts[0]) != module.box.dim:
        raise InputError("lattice dimension mismatch")
    lattice = frozenset(as_point(p, dim=module.box.dim) for p in pts)
    return determinacy_report(module, lattice, check_support=True).determined
