"""JSON serialization of points, matrices, modules, diagrams, and reports.

All formats are plain JSON.  Coordinates are integers or the string "-inf";
prime field entries are integers in [0, p); rational entries are integers or
strings "p/q" in lowest terms.  Serializers emit keys and rows in sorted
order so that identical inputs produce identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import InputError
from .extgrid import Box, NEG_INF, Point, as_point, as_product, point_sort_key
from .determinacy import DeterminacyReport
from .grid_module import GridModule
from .linalg import Matrix, PosetDiagram, PrimeField, RationalField, poset_covers
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


def matrix_from_json(field, obj, shape: tuple) -> Matrix:
    nrows, ncols = shape
    if not (type(obj) is list and len(obj) == nrows
            and all(type(r) is list and len(r) == ncols for r in obj)):
        if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
            raise InputError(f"invalid matrix {obj!r}")
        if len(obj) != nrows or any(len(r) != ncols for r in obj):
            raise InputError(f"matrix has shape ({len(obj)}, ...), expected {shape}")
    try:
        return Matrix(field, field.coerce_rows(obj), ncols=ncols, _coerce=False)
    except InputError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid matrix entry: {exc}") from exc


def _dim_list(obj) -> list:
    if not isinstance(obj, list):
        raise InputError("dims must be a JSON array")
    for d in obj:
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise InputError(f"invalid dimension {d!r}")
    return obj


def box_from_json(obj) -> Box:
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise InputError(f"invalid box {obj!r}; expected {{\"a\": [...], \"b\": [...]}}")
    a = decode_point(obj["a"])
    b = decode_point(obj["b"], dim=len(a))
    return Box(a, b)


def box_to_json(box: Box) -> dict:
    return {"a": list(box.a), "b": list(box.b)}


def module_to_json(module: GridModule) -> dict:
    pts = list(module.box.integer_points())
    maps = []
    for p in pts:
        for axis in range(module.box.dim):
            step = module.steps.get((p, axis))
            if step is None or step.nrows == 0 or step.ncols == 0 or step.is_zero():
                continue
            maps.append({"from": list(p), "axis": axis + 1, "matrix": matrix_to_json(step)})
    return {
        "field": field_to_json(module.field),
        "n": module.box.dim,
        "box": box_to_json(module.box),
        "dims": [module.dims[p] for p in pts],
        "maps": maps,
    }


def module_from_json(obj) -> GridModule:
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
    dims = dict(zip(pts, dims_list))
    steps = {}
    n = box.dim  # the declared n may be True for 1
    for entry in obj.get("maps", []):
        if not isinstance(entry, dict):
            raise InputError(f"invalid map entry {entry!r}")
        src = entry.get("from")
        if type(src) is list and len(src) == n and all(type(v) is int for v in src):
            p = tuple(src)
        else:
            p = decode_point(src, dim=n)
        axis = entry.get("axis")
        if isinstance(axis, bool) or not isinstance(axis, int) or not (1 <= axis <= n):
            raise InputError(f"invalid axis {axis!r}; axes are 1-based")
        if p not in dims:
            raise InputError(f"map source {p!r} is outside the box")
        q = p[:axis - 1] + (p[axis - 1] + 1,) + p[axis:]
        if q not in dims:
            raise InputError(f"map at {p!r} along axis {axis} leaves the box")
        if (p, axis - 1) in steps:
            raise InputError(f"duplicate map at {p!r} along axis {axis}")
        steps[(p, axis - 1)] = matrix_from_json(field, entry.get("matrix"), (dims[q], dims[p]))
    return GridModule(field, box, dims, steps)


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
    product = as_product(points)
    covers = list(product.covers()) if product is not None else poset_covers(points)
    cover_set = set(covers)
    maps = {}
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
    return PosetDiagram(field, points, dims, maps, covers=covers)


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
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


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
