"""JSON serialization of points, matrices, modules, diagrams, and reports.

All formats are plain JSON.  Coordinates are integers or the string "-inf";
prime field entries are integers in [0, p); rational entries are integers or
strings "p/q" in lowest terms.  Serializers emit keys and rows in sorted
order so that identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import chain, repeat
from operator import itemgetter
from json.encoder import encode_basestring_ascii as _escape

from .errors import InputError
from .extgrid import Box, NEG_INF, Point, as_point
from .determinacy import DeterminacyReport
from .grid_module import GridModule
from .linalg import Matrix, PosetDiagram, PrimeField, RationalField
from .presentation import BirthDeathReport, Presentation, PresentationCheck


def encode_coord(v):
    return "-inf" if v == NEG_INF else v


def decode_coord(v):
    if v == "-inf":
        return NEG_INF
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise InputError(f"invalid coordinate {v!r}; expected an integer or \"-inf\"")


def encode_point(p: Point) -> list:
    return [encode_coord(v) for v in p]


def decode_point(obj, dim: int | None = None) -> Point:
    if type(obj) is list and obj and dim in (None, len(obj)):
        # one pass over plain ints and "-inf", as points are written
        pt = tuple([v if type(v) is int else NEG_INF if v == "-inf" else None for v in obj])
        if None not in pt:
            return pt
    if not isinstance(obj, list):
        raise InputError(f"invalid point {obj!r}; expected a JSON array")
    return as_point((decode_coord(v) for v in obj), dim=dim)


def field_to_json(field) -> dict:
    if isinstance(field, PrimeField):
        return {"kind": "prime", "p": field.p}
    if isinstance(field, RationalField):
        return {"kind": "rational"}
    raise InputError(f"unknown field {field!r}")


def field_from_json(obj) -> object:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise InputError(f"invalid field spec {obj!r}")
    if obj["kind"] == "prime":
        return PrimeField(obj.get("p"))
    if obj["kind"] == "rational":
        return RationalField()
    raise InputError(f"unknown field kind {obj['kind']!r}")


def _ratio_text(x: int, den: int):
    """x / den in lowest terms: an int, or the string "p/q"."""
    g = math.gcd(x, den)
    return x // g if g == den else f"{x // g}/{den // g}"


def matrix_to_json(m: Matrix) -> list:
    if m.den == 1:
        return [list(row) for row in m.rows]
    return [[_ratio_text(x, m.den) for x in row] for row in m.rows]


def _check_shape(obj, shape: tuple) -> None:
    """Refuse anything but a list of ``shape[0]`` lists of ``shape[1]`` entries."""
    nrows, ncols = shape
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise InputError(f"invalid matrix {obj!r}")
    if len(obj) != nrows:
        raise InputError(f"matrix has shape ({len(obj)}, ...), expected {shape}")
    for i, row in enumerate(obj, 1):
        if len(row) != ncols:
            raise InputError(f"matrix row {i} has {len(row)} entries, expected {ncols}")


def _rational(field, x) -> tuple:
    """An entry over Q as (numerator, denominator) in lowest terms.  "p/q"
    and "-p/q" in decimal digits are read with no :class:`Fraction`; any
    other entry goes through ``field.coerce``, which accepts what
    :class:`Fraction` parses and words every refusal."""
    if type(x) is str:
        num, slash, den = x.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if slash and digits.isascii() and digits.isdigit() and den.isascii() and den.isdigit():
            try:
                num, den = int(num), int(den)
            except ValueError as exc:  # more digits than int() reads
                raise InputError(f"invalid matrix entry: {exc}") from exc
            if den:
                g = math.gcd(num, den)
                return num // g, den // g
    frac = field.coerce(x)
    return frac.numerator, frac.denominator


def _matrices(field, shapes: list, mats: list) -> list:
    """The matrices of the lists ``mats``, each of its shape in ``shapes``:
    every matrix a file holds is decoded here, each distinct one once, into
    the integer form of :class:`Matrix`.  A fault is refused for the first
    matrix at fault, in file order, and its first entry at fault.

    Whole-array passes check that each is a list of rows of its shape with
    plain int entries (over Q, or strings), reduce them mod p over F_p when
    one is out of range, and read each distinct string over Q once, in file
    order (:func:`_rational`).  Each distinct matrix, keyed by its row
    tuples, is made once (:func:`_matrix_of`): only plain ints and strings
    are keys, so no true or 1.0 meets a decoded 1.
    """
    if not mats:
        return []
    nrows, ncols = zip(*shapes)
    flat = None
    if {*map(type, mats)} <= {list} and tuple(map(len, mats)) == nrows:
        rows = list(chain.from_iterable(mats))
        if ({*map(type, rows)} <= {list} and list(map(len, rows))
                == list(chain.from_iterable(map(repeat, ncols, nrows)))):
            flat = list(chain.from_iterable(rows))
    if flat is None or not {*map(type, flat)} <= ({int} if field.kind == "prime" else {int, str}):
        read = field.coerce if field.kind == "prime" else partial(_rational, field)
        for shape, mat in zip(shapes, mats):
            _check_shape(mat, shape)
            for x in chain.from_iterable(mat):
                read(x)
        raise AssertionError("no matrix was refused")
    parsed, p = None, getattr(field, "p", 0)  # 0 over Q
    if p and flat and not (0 <= min(flat) and max(flat) < p):
        rows = [[x % p for x in r] for r in rows]
    elif not p and str in {*map(type, flat)}:
        parsed = {x: _rational(field, x) for x in dict.fromkeys(flat) if type(x) is str}
    rows = list(map(tuple, rows))
    out, memo, o = [], {}, 0
    for r, c in shapes:
        block = tuple(rows[o:o + r])
        key = block or c  # rows of c entries each, or no row, which has no width
        m = memo.get(key)
        if m is None:
            m = memo[key] = (Matrix._of_rows(field, block, c) if parsed is None
                             else _matrix_of(field, block, c, parsed))
        out.append(m)
        o += r
    return out


def _matrix_of(field, rows: tuple, ncols: int, parsed: dict) -> Matrix:
    """The matrix of the rows ``rows`` of plain ints and over Q of strings read
    as ``parsed`` reads them: integer rows over their least common
    denominator, which is in lowest terms, as the rationals were."""
    if parsed.keys().isdisjoint(chain.from_iterable(rows)):
        return Matrix._of_rows(field, rows, ncols)
    pairs = [[parsed[x] if type(x) is str else (x, 1) for x in r] for r in rows]
    den = math.lcm(*[d for r in pairs for _, d in r])
    return Matrix._of_rows(field, tuple([tuple([x * (den // d) for x, d in r]) for r in pairs]),
                           ncols, den)


# the walks eliminate d x d matrices, so the work a file declares is the sum
# of the cubes of its dimensions; two points of dimension 512 are the most
MAX_WORK = 2 * 512 ** 3


def _dim_list(obj) -> list:
    if not isinstance(obj, list):
        raise InputError("dims must be a JSON array")
    if not ({*map(type, obj)} <= {int} and 0 <= min(obj, default=0)):
        for d in obj:
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise InputError(f"invalid dimension {d!r}")
    # the sum of the cubes is at most the largest cube times their number
    work = sum([d * d * d for d in obj]) if max(obj, default=0) ** 3 * len(obj) > MAX_WORK else 0
    if work > MAX_WORK:
        raise InputError(f"the dimensions declare work {work} (the sum of their cubes), "
                         f"above the bound {MAX_WORK}")
    return obj


def _array(obj: dict, key: str) -> list:
    """The array under ``key``, empty when the key is left out."""
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise InputError(f"{key} must be a JSON array")
    return value


def box_from_json(obj) -> Box:
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise InputError(f"invalid box {obj!r}; expected {{\"a\": [...], \"b\": [...]}}")
    a = decode_point(obj["a"])
    return Box(a, decode_point(obj["b"], dim=len(a)))


def box_to_json(box: Box) -> dict:
    return {"a": list(box.a), "b": list(box.b)}


def module_to_json(module: GridModule) -> dict:
    pts, n, keys = module.points, module.box.dim, sorted(module.given)  # by (point, axis)
    maps = []
    for key, (x, axis) in zip(keys, module.layout.steps_of(keys)):
        step = module.given[key]
        if step.is_zero():
            continue
        maps.append({"from": list(pts[x]), "axis": axis + 1, "matrix": matrix_to_json(step)})
    return {
        "field": field_to_json(module.field),
        "n": n,
        "box": box_to_json(module.box),
        "dims": list(module.dims.values()),
        "maps": maps,
    }


def module_from_json(obj) -> GridModule:
    """A module file read and checked in one loop over its map entries.

    Each map entry's source is looked up among the box points, which gives
    its place and its step's flat key in the box's layout; its axis must be
    a plain int in 1..n, its step must stay in the box, and no step may be
    given twice.
    The checks are those of ``GridModule.__init__``, with the loader's own
    messages, and are not made again.  A whole-array pass then checks that
    every source coordinate is a plain int, as a true or a 1.0 passes the
    lookup, and the matrices are decoded at once (:func:`_matrices`).  Last,
    the module's squares are checked, as ``GridModule.__init__`` checks them.

    A file at fault is refused for its first entry at fault, in file order:
    a bad matrix of an entry before the one the checks refuse comes first.
    """
    if not isinstance(obj, dict):
        raise InputError("module file must contain a JSON object")
    field = field_from_json(obj.get("field"))
    box = box_from_json(obj.get("box"))
    n = obj.get("n")
    if n != box.dim:
        raise InputError(f"declared dimension {n!r} does not match the box")
    size = math.prod([hi - lo + 1 for lo, hi in zip(box.a, box.b)])
    dims_list = _dim_list(obj.get("dims"))
    if len(dims_list) != size:
        raise InputError(f"dims has {len(dims_list)} entries, the box has {size} points")
    module = GridModule._checked(field, box, dims_list)
    entries = _array(obj, "maps")
    if not entries:
        return module
    pts, index, top = module.points, module._index, box.b
    strides, step_keys = module.layout.strides, module.layout.step_keys
    keys, shapes, mats = {}, [], []  # the steps' flat keys, in file order
    for entry in entries:
        try:
            p, axis = entry["from"], entry["axis"]
            x = index[tuple(p)]
        except (TypeError, KeyError):  # not an object, a key left out, or no box point
            break
        if type(axis) is not int or not 1 <= axis <= n:
            break
        axis -= 1
        key = step_keys[axis][x]
        if pts[x][axis] == top[axis] or key in keys:
            break
        keys[key] = None
        shapes.append((dims_list[x + strides[axis]], dims_list[x]))
        mats.append(entry.get("matrix"))
    k = len(mats)  # the entry the loop stopped at, if it stopped
    if k < len(entries) or not {*map(type, chain.from_iterable(
            map(itemgetter("from"), entries)))} <= {int}:
        # the first entry at fault: an earlier source with a true or a 1.0,
        # which the lookup passed, or the entry the loop stopped at
        k = next((i for i, e in enumerate(entries[:k])
                  if not {*map(type, e["from"])} <= {int}), k)
        _matrices(field, shapes[:k], mats[:k])  # an earlier bad matrix is refused first
        entry = entries[k]
        if not isinstance(entry, dict):
            raise InputError(f"invalid map entry {entry!r}")
        p = decode_point(entry.get("from"), dim=n)
        axis = entry.get("axis")
        if type(axis) is not int or not 1 <= axis <= n:
            raise InputError(f"invalid axis {axis!r}; axes are 1-based")
        if p not in index:
            raise InputError(f"map source {p!r} is outside the box")
        if p[axis - 1] == top[axis - 1]:
            raise InputError(f"map at {p!r} along axis {axis} leaves the box")
        raise InputError(f"duplicate map at {p!r} along axis {axis}")  # the check left
    module.given.update(zip(keys, _matrices(field, shapes, mats)))
    return module._commute()


def diagram_to_json(diagram: PosetDiagram) -> dict:
    maps = []
    for c, d in diagram.covers():
        m = diagram.maps[(c, d)]
        if m.is_zero():
            continue
        maps.append({"from": encode_point(c), "to": encode_point(d),
                     "matrix": matrix_to_json(m)})
    return {
        "field": field_to_json(diagram.field),
        "n": len(diagram.points[0]) if diagram.points else 0,
        "points": [encode_point(p) for p in diagram.points],
        "dims": [diagram.dims[p] for p in diagram.points],
        "maps": maps,
    }


def diagram_from_json(obj) -> PosetDiagram:
    """A diagram file read and checked in one loop over its map entries.

    Each ``points`` entry is decoded once, and each map end is looked up by
    its raw JSON value among them: of a point listed twice the last place is
    kept, as the last dimension is in ``dims``, and the diagram refuses it
    later.  No map may be given twice.  A true or a 1.0 passes the lookup,
    so a whole-array pass then checks that every coordinate of every end is
    a plain int or a string (only "-inf" is a string among the points), and
    the matrices are decoded at once (:func:`_matrices`).  A file at fault
    is refused for its first entry at fault, as a module file is.  The
    diagram then derives its covers, refuses duplicate points and a map off
    a cover, and maps each cover left out by zero.
    """
    if not isinstance(obj, dict):
        raise InputError("diagram file must contain a JSON object")
    field = field_from_json(obj.get("field"))
    raw_points = obj.get("points")
    if not isinstance(raw_points, list) or not raw_points:
        raise InputError("diagram needs a non-empty \"points\" array")
    points = [decode_point(p) for p in raw_points]
    n = obj.get("n")
    if any(len(p) != n for p in points):
        raise InputError(f"declared dimension {n!r} does not match the points")
    dims_list = _dim_list(obj.get("dims"))
    if len(dims_list) != len(points):
        raise InputError("dims and points have different lengths")
    dims, entries = dict(zip(points, dims_list)), _array(obj, "maps")
    place = {tuple(p): i for i, p in enumerate(raw_points)}
    pairs, shapes, mats = {}, [], []  # the places of each map's ends, in file order
    for entry in entries:
        try:
            c, d = entry["from"], entry["to"]
            pair = place[tuple(c)], place[tuple(d)]
        except (TypeError, KeyError):  # not an object, a key left out, or no point
            break
        if type(c) is not list or type(d) is not list or pair in pairs:
            break
        pairs[pair] = None
        shapes.append((dims_list[pair[1]], dims_list[pair[0]]))
        mats.append(entry.get("matrix"))
    k = len(mats)  # the entry the loop stopped at, if it stopped
    plain = {int, str}
    if k < len(entries) or not {*map(type, chain.from_iterable(chain.from_iterable(
            map(itemgetter("from", "to"), entries))))} <= plain:
        # the first entry at fault, as in a module file
        k = next((i for i, e in enumerate(entries[:k])
                  if not {*map(type, e["from"] + e["to"])} <= plain), k)
        _matrices(field, shapes[:k], mats[:k])
        entry = entries[k]
        if not isinstance(entry, dict):
            raise InputError(f"invalid map entry {entry!r}")
        c = decode_point(entry.get("from"), dim=n)
        d = decode_point(entry.get("to"), dim=n)
        if c not in dims or d not in dims:  # the matrix's shape is read off the points
            raise InputError(f"map {c!r} -> {d!r} is not a covering pair of the points")
        raise InputError(f"duplicate map {c!r} -> {d!r}")  # the check left
    maps = {(points[i], points[j]): m
            for (i, j), m in zip(pairs, _matrices(field, shapes, mats))}
    return PosetDiagram(field, points, dims, maps)


def presentation_to_json(pres: Presentation) -> dict:
    blocks = []
    for (d, b) in sorted(pres.blocks):
        blocks.append({"relation": encode_point(d), "generator": encode_point(b),
                       "block": matrix_to_json(pres.blocks[(d, b)])})
    out = {
        "field": field_to_json(pres.field),
        "n": pres.dim,
        "generators": [{"point": encode_point(p), "multiplicity": m} for p, m in pres.generators],
        "relations": [{"point": encode_point(p), "multiplicity": m} for p, m in pres.relations],
        "rel_matrix": blocks,
    }
    if pres.generator_images is not None:
        out["generator_images"] = [
            {"point": encode_point(b), "images": matrix_to_json(pres.generator_images[b])}
            for b in sorted(pres.generator_images)]
    return out


def presentation_from_json(obj) -> Presentation:
    """A presentation file read and checked in one loop over its blocks and
    one over its generator images; their matrices are decoded at once
    (:func:`_matrices`).  A file at fault is refused for its first entry at
    fault, as a module file is."""
    if not isinstance(obj, dict):
        raise InputError("presentation file must contain a JSON object")
    field = field_from_json(obj.get("field"))
    n = obj.get("n")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f"invalid dimension {n!r}")

    def read_graded(entries, label):
        out = []
        for e in entries:
            if not isinstance(e, dict) or "point" not in e or "multiplicity" not in e:
                raise InputError(f"invalid {label} entry {e!r}")
            pt, mult = decode_point(e["point"], dim=n), e["multiplicity"]
            if type(mult) is not int or mult < 1:
                raise InputError(f"multiplicity at {pt!r} must be a positive integer")
            out.append((pt, mult))
        if len({pt for pt, _ in out}) != len(out):  # before a block is read at it
            raise InputError("a generator or relation point is listed twice")
        return tuple(sorted(out))

    generators = read_graded(_array(obj, "generators"), "generator")
    relations = read_graded(_array(obj, "relations"), "relation")
    gen_mult = dict(generators)
    rel_mult = dict(relations)
    blocks, images, shapes, mats = {}, None, [], []  # the matrices in file order
    try:
        for entry in _array(obj, "rel_matrix"):
            if not isinstance(entry, dict):
                raise InputError(f"invalid rel_matrix entry {entry!r}")
            d = decode_point(entry.get("relation"), dim=n)
            b = decode_point(entry.get("generator"), dim=n)
            if d not in rel_mult or b not in gen_mult:
                raise InputError(f"rel_matrix block ({d!r}, {b!r}) has no matching points")
            if (d, b) in blocks:
                raise InputError(f"duplicate rel_matrix block ({d!r}, {b!r})")
            blocks[(d, b)] = None
            shapes.append((gen_mult[b], rel_mult[d]))
            mats.append(entry.get("block"))
        if "generator_images" in obj:
            images = {}
            for entry in _array(obj, "generator_images"):
                if not isinstance(entry, dict) or "point" not in entry or "images" not in entry:
                    raise InputError(f"invalid generator_images entry {entry!r}")
                b = decode_point(entry["point"], dim=n)
                if b not in gen_mult:
                    raise InputError(f"generator image at {b!r}, which is not a generator")
                if b in images:
                    raise InputError(f"duplicate generator image at {b!r}")
                images[b] = None
                rows = entry["images"]
                shapes.append((len(rows) if isinstance(rows, list) else 0, gen_mult[b]))
                mats.append(rows)
    except InputError:
        _matrices(field, shapes, mats)  # a bad matrix of an earlier entry is refused first
        raise
    matrices = iter(_matrices(field, shapes, mats))
    blocks = dict(zip(blocks, matrices))
    if images is not None:
        images = dict(zip(images, matrices))
    return Presentation(field, n, generators, relations, blocks, generator_images=images)


def pointset_from_json(obj, dim: int | None = None) -> frozenset:
    if isinstance(obj, dict) and "points" in obj:
        obj = obj["points"]
    if not isinstance(obj, list):
        raise InputError(f"invalid point set {obj!r}; expected a JSON array of points")
    return frozenset(decode_point(p, dim=dim) for p in obj)


def determinacy_report_to_json(report: DeterminacyReport) -> dict:
    return {
        "holds": report.holds,
        "witness": [encode_point(report.witness[0]), encode_point(report.witness[1])]
        if report.witness else None,
        "support_ok": report.support_ok,
        "method": report.method,
    }


def birth_death_to_json(report: BirthDeathReport) -> dict:
    def table(entries):
        return [{"point": encode_point(p), "multiplicity": entries[p]}
                for p in sorted(entries)]
    return {"births": table(report.births), "deaths": table(report.deaths)}


def presentation_check_to_json(check: PresentationCheck) -> dict:
    return {
        "ok": check.ok,
        "point": encode_point(check.point) if check.point is not None else None,
        "reason": check.reason,
    }


def canonical_dumps(payload) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2) + "\\n"``, byte for
    byte, without the standard library's pure-Python indenting encoder.

    Only dicts with string keys, lists, strings, ints, bools and None are
    written; anything else raises :class:`TypeError`.
    """
    out = []
    _dump(payload, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _inline(obj: list, newline: str, nested: bool = True) -> str | None:
    """The JSON text of a list of plain ints and strings, or (``nested``) of
    such lists too, as a point, a matrix row or a whole matrix is, made in
    one piece; ``None`` for any other list.  ``newline`` is as in
    :func:`_dump`."""
    if not obj:
        return "[]"
    inner = newline + "  "
    pieces = []
    for item in obj:
        kind = type(item)
        if kind is int:
            pieces.append(int.__repr__(item))
        elif kind is str:
            pieces.append(_escape(item))
        elif kind is list and nested:
            text = _inline(item, inner, False)
            if text is None:
                return None
            pieces.append(text)
        else:
            return None
    return "[" + inner + ("," + inner).join(pieces) + newline + "]"


def _dump(obj, newline: str, out) -> None:
    """Append the JSON text of ``obj`` to ``out`` piece by piece; ``newline``
    is a line break followed by the indent of the line ``obj`` starts on.
    A list that :func:`_inline` writes, such as a point or a matrix, goes in
    one piece, so a map entry of a diagram (``from``, ``to``, ``matrix``) is
    written by one call."""
    if isinstance(obj, list):
        text = _inline(obj, newline)
        if text is not None:
            out(text)
            return
        inner = newline + "  "
        out("[")
        for k, item in enumerate(obj):
            out("," + inner if k else inner)
            _dump(item, inner, out)
        out(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        if not all(map(isinstance, obj, repeat(str))):
            raise TypeError("keys must be str")
        inner = newline + "  "
        out("{")
        for k, key in enumerate(sorted(obj)):
            out(("," + inner if k else inner) + _escape(key) + ": ")
            _dump(obj[key], inner, out)
        out(newline + "}")
    elif isinstance(obj, str):
        out(_escape(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def detect_kind(obj) -> str:
    """One of "module", "diagram", "presentation" from the top-level keys."""
    if not isinstance(obj, dict):
        raise InputError("input file must contain a JSON object")
    if "box" in obj:
        return "module"
    if "points" in obj:
        return "diagram"
    if "generators" in obj:
        return "presentation"
    raise InputError("cannot tell what kind of object this file holds "
                     "(expected a \"box\", \"points\", or \"generators\" key)")
