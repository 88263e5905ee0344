"""JSON serialization of points, matrices, modules, diagrams, and reports.

All formats are plain JSON.  Coordinates are integers or the string "-inf";
prime field entries are integers in [0, p); rational entries are integers or
strings "p/q" in lowest terms.  Serializers emit keys and rows in sorted
order so that identical inputs produce identical bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii as _escape
from operator import le

from .errors import InputError
from .extgrid import Box, NEG_INF, Point, as_point, point_sort_key
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


def _entry_to_json(field, x):
    if isinstance(field, PrimeField):
        return x
    frac = Fraction(x)
    return int(frac) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"


def matrix_to_json(m: Matrix) -> list:
    return [[_entry_to_json(m.field, x) for x in row] for row in m.rows]


def _check_shape(obj, shape: tuple) -> None:
    """Refuse anything but a list of ``shape[0]`` lists of ``shape[1]`` entries."""
    nrows, ncols = shape
    if not (type(obj) is list and len(obj) == nrows
            and {*map(type, obj)} <= {list} and {*map(len, obj)} <= {ncols}):
        if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
            raise InputError(f"invalid matrix {obj!r}")
        if len(obj) != nrows or any(len(r) != ncols for r in obj):
            raise InputError(f"matrix has shape ({len(obj)}, ...), expected {shape}")


def matrix_from_json(field, obj, shape: tuple) -> Matrix:
    _check_shape(obj, shape)
    try:
        return Matrix._of_rows(field, field.coerce_rows(obj), shape[1])
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid matrix entry: {exc}") from exc


def _rational(field, x) -> tuple:
    """A rational entry other than an int as (numerator, denominator) in
    lowest terms.  "p/q" and "-p/q" in decimal digits are read with no
    :class:`Fraction`; any other spelling goes through ``field.coerce``,
    which accepts what :class:`Fraction` parses and words every refusal."""
    if type(x) is str:
        num, slash, den = x.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if (slash and digits.isascii() and digits.isdigit()
                and den.isascii() and den.isdigit() and int(den)):
            num, den = int(num), int(den)
            g = math.gcd(num, den)
            return num // g, den // g
    frac = field.coerce(x)
    return frac.numerator, frac.denominator


def step_from_json(field, obj, shape: tuple, tokens: dict) -> tuple:
    """A step's matrix from a module file as ``(rows, den)``, the form
    :class:`GridModule` keeps: the reduced rows over 1 on F_p, and on Q
    integer rows over their least common denominator.  An int stays an int,
    and ``tokens`` holds every string entry of the same file read so far,
    as :func:`_rational` reads it, so each is parsed once per file.  The
    shape and error texts are those of :func:`matrix_from_json`."""
    _check_shape(obj, shape)
    if set(map(type, chain.from_iterable(obj))) <= {int}:  # plain ints, as most are written
        if field.kind == "prime":
            return [tuple(map(field.p.__rmod__, r)) for r in obj], 1
        return list(map(tuple, obj)), 1
    try:
        if field.kind == "prime":
            return field.coerce_rows(obj), 1
        parsed = []
        for r in obj:
            row = []
            for x in r:
                if type(x) is str:
                    q = tokens.get(x)
                    if q is None:
                        q = tokens[x] = _rational(field, x)
                    x = q
                elif type(x) is not int:
                    x = _rational(field, x)
                row.append(x)
            parsed.append(row)
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid matrix entry: {exc}") from exc
    den = math.lcm(*{x[1] for r in parsed for x in r if type(x) is tuple})
    return [tuple([x * den if type(x) is int else x[0] * (den // x[1]) for x in r])
            for r in parsed], den


def _dim_list(obj) -> list:
    if not isinstance(obj, list):
        raise InputError("dims must be a JSON array")
    if {*map(type, obj)} <= {int} and min(obj, default=0) >= 0:
        return obj
    for d in obj:
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise InputError(f"invalid dimension {d!r}")
    return obj


def box_from_json(obj) -> Box:
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise InputError(f"invalid box {obj!r}; expected {{\"a\": [...], \"b\": [...]}}")
    a = decode_point(obj["a"])
    b = decode_point(obj["b"], dim=len(a))
    if NEG_INF in a or NEG_INF in b:
        raise InputError("box corners must be integer points")
    if not all(map(le, a, b)):
        raise InputError(f"box corners out of order: {a!r} > {b!r}")
    return Box._checked(a, b)


def box_to_json(box: Box) -> dict:
    return {"a": list(box.a), "b": list(box.b)}


def module_to_json(module: GridModule) -> dict:
    pts, n = list(module.dims), module.box.dim
    maps = []
    for key in sorted(module.step_rows):  # the order of (point, axis)
        step = module.flat_step(key)
        if step.nrows == 0 or step.ncols == 0 or step.is_zero():
            continue
        x, axis = divmod(key, n)
        maps.append({"from": list(pts[x]), "axis": axis + 1, "matrix": matrix_to_json(step)})
    return {
        "field": field_to_json(module.field),
        "n": n,
        "box": box_to_json(module.box),
        "dims": list(module.dims.values()),
        "maps": maps,
    }


def module_from_json(obj) -> GridModule:
    """A module file read and checked in one pass over its map entries.

    Each entry's source is looked up among the box points, which gives its
    flat index (see :class:`GridModule`), and its matrix is decoded straight
    into the integer rows the module keeps (:func:`step_from_json`), with no
    :class:`Matrix`.  The checks are those of ``GridModule.__init__``, with
    the loader's own messages, and are not made again.
    """
    if not isinstance(obj, dict):
        raise InputError("module file must contain a JSON object")
    field = field_from_json(obj.get("field"))
    box = box_from_json(obj.get("box"))
    n = obj.get("n")
    if n != box.dim:
        raise InputError(f"declared dimension {n!r} does not match the box")
    pts = list(box.integer_points())
    dims_list = _dim_list(obj.get("dims"))
    if len(dims_list) != len(pts):
        raise InputError(f"dims has {len(dims_list)} entries, the box has {len(pts)} points")
    n, top, strides = box.dim, box.b, box.strides()  # n may be True for 1
    index = dict(zip(pts, range(len(pts))))
    given, tokens = {}, {}
    for entry in obj.get("maps", []):
        if not isinstance(entry, dict):
            raise InputError(f"invalid map entry {entry!r}")
        p = entry.get("from")
        # a source of plain ints in the box has its place there; any other
        # is decoded for its error text
        x = index.get(tuple(p)) if type(p) is list and {*map(type, p)} == {int} else None
        p = pts[x] if x is not None else decode_point(p, dim=n)
        axis = entry.get("axis")
        if type(axis) is not int or not 1 <= axis <= n:
            raise InputError(f"invalid axis {axis!r}; axes are 1-based")
        if x is None:
            raise InputError(f"map source {p!r} is outside the box")
        axis -= 1
        if p[axis] == top[axis]:
            raise InputError(f"map at {p!r} along axis {axis + 1} leaves the box")
        key = x * n + axis
        if key in given:
            raise InputError(f"duplicate map at {p!r} along axis {axis + 1}")
        given[key] = step_from_json(field, entry.get("matrix"),
                                    (dims_list[x + strides[axis]], dims_list[x]), tokens)
    return GridModule._checked(field, box, dict(zip(pts, dims_list)), index, given)


def diagram_to_json(diagram: PosetDiagram) -> dict:
    maps = []
    for c, d in diagram.covers():
        m = diagram.maps[(c, d)]
        if m.nrows == 0 or m.ncols == 0 or m.is_zero():
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
    if len(set(points)) != len(points):
        raise InputError("duplicate diagram points")
    dims_list = _dim_list(obj.get("dims"))
    if len(dims_list) != len(points):
        raise InputError("dims and points have different lengths")
    dims = dict(zip(points, dims_list))
    # the diagram derives its covers, and the given maps replace its zero maps
    diagram = PosetDiagram(field, points, dims, {})
    cover_set, maps = set(diagram.covers()), {}
    for entry in obj.get("maps", []):
        if not isinstance(entry, dict):
            raise InputError(f"invalid map entry {entry!r}")
        c = decode_point(entry.get("from"), dim=n)
        d = decode_point(entry.get("to"), dim=n)
        if (c, d) not in cover_set:
            raise InputError(f"map {c!r} -> {d!r} is not a covering pair of the points")
        if (c, d) in maps:
            raise InputError(f"duplicate map {c!r} -> {d!r}")
        maps[(c, d)] = matrix_from_json(field, entry.get("matrix"), (dims[d], dims[c]))
    diagram.maps.update(maps)
    return diagram


def presentation_to_json(pres: Presentation) -> dict:
    blocks = []
    for (d, b) in sorted(pres.blocks, key=lambda k: (point_sort_key(k[0]), point_sort_key(k[1]))):
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
            for b in sorted(pres.generator_images, key=point_sort_key)]
    return out


def presentation_from_json(obj) -> Presentation:
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
            out.append((decode_point(e["point"], dim=n), e["multiplicity"]))
        if len({p for p, _ in out}) != len(out):
            raise InputError(f"duplicate {label} points")
        return tuple(sorted(out, key=lambda e: point_sort_key(e[0])))

    generators = read_graded(obj.get("generators", []), "generator")
    relations = read_graded(obj.get("relations", []), "relation")
    gen_mult = dict(generators)
    rel_mult = dict(relations)
    blocks = {}
    for entry in obj.get("rel_matrix", []):
        if not isinstance(entry, dict):
            raise InputError(f"invalid rel_matrix entry {entry!r}")
        d = decode_point(entry.get("relation"), dim=n)
        b = decode_point(entry.get("generator"), dim=n)
        if d not in rel_mult or b not in gen_mult:
            raise InputError(f"rel_matrix block ({d!r}, {b!r}) has no matching points")
        if (d, b) in blocks:
            raise InputError(f"duplicate rel_matrix block ({d!r}, {b!r})")
        blocks[(d, b)] = matrix_from_json(field, entry.get("block"), (gen_mult[b], rel_mult[d]))
    images = None
    if "generator_images" in obj:
        if not isinstance(obj["generator_images"], list):
            raise InputError("generator_images must be a JSON array")
        images = {}
        for entry in obj["generator_images"]:
            if not isinstance(entry, dict) or "point" not in entry or "images" not in entry:
                raise InputError(f"invalid generator_images entry {entry!r}")
            b = decode_point(entry["point"], dim=n)
            if b not in gen_mult:
                raise InputError(f"generator image at {b!r}, which is not a generator")
            if b in images:
                raise InputError(f"duplicate generator image at {b!r}")
            rows = entry["images"]
            nrows = len(rows) if isinstance(rows, list) else 0
            images[b] = matrix_from_json(field, rows, (nrows, gen_mult[b]))
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
                for p in sorted(entries, key=point_sort_key)]
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
        if not all(isinstance(key, str) for key in obj):
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
