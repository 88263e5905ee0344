"""Round-trips and error handling of the JSON formats."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmod import (Box, ExtendedView, GridModule, InputError, Matrix, NEG_INF, QQ,
                    build_presentation, ext_box, point_sort_key, restrict_view,
                    validate_module)
from detmod.extgrid import as_product
from detmod.io import (box_from_json, canonical_dumps, decode_point,
                       detect_kind, diagram_from_json, diagram_to_json,
                       field_from_json, module_from_json,
                       module_to_json, pointset_from_json,
                       presentation_from_json, presentation_to_json)
from helpers import F2, F5, canonical_set, corner_module, every_step, given_steps, random_module


class TestPoints:
    def test_bottom_spelled_as_string(self):
        assert decode_point([1, "-inf"]) == (1, NEG_INF)

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            decode_point([1.5, 0])

    def test_rejects_booleans(self):
        with pytest.raises(InputError):
            decode_point([True, 0])

    def test_pointset_accepts_wrapper(self):
        assert pointset_from_json({"points": [[0, 0]]}) == {(0, 0)}

    @pytest.mark.parametrize("obj,dim,message", [
        ([1, 1.5], None, 'invalid coordinate 1.5; expected an integer or "-inf"'),
        (["-inf", True], 2, 'invalid coordinate True; expected an integer or "-inf"'),
        (["inf", 0], 2, "invalid coordinate 'inf'; expected an integer or \"-inf\""),
        ([float("-inf"), 0], 2, 'invalid coordinate -inf; expected an integer or "-inf"'),
        (["-inf", 0.5], 3, 'invalid coordinate 0.5; expected an integer or "-inf"'),
        (["-inf", 0], 3, "point (-inf, 0) does not have dimension 3"),
        ([], None, "points must have dimension at least 1"),
        ((0, 1), None, "invalid point (0, 1); expected a JSON array"),
    ])
    def test_one_pass_keeps_the_error_texts(self, obj, dim, message):
        with pytest.raises(InputError) as err:
            decode_point(obj, dim=dim)
        assert str(err.value) == message

    def test_bottom_coordinates_in_one_pass(self):
        assert decode_point(["-inf", 2, "-inf"], dim=3) == (NEG_INF, 2, NEG_INF)
        assert pointset_from_json([["-inf", 1], [0, "-inf"], ["-inf", 1]], dim=2) == {
            (NEG_INF, 1), (0, NEG_INF)}


class TestFieldSpec:
    def test_prime(self):
        f = field_from_json({"kind": "prime", "p": 5})
        assert f.p == 5

    def test_non_prime_rejected(self):
        with pytest.raises(InputError):
            field_from_json({"kind": "prime", "p": 6})

    def test_rational(self):
        assert field_from_json({"kind": "rational"}) == QQ

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            field_from_json({"kind": "real"})


class TestMatrix:
    """A matrix read through a module file of one map, the step from (0,) to (1,)."""

    @staticmethod
    def one_map(field: dict, dims: list, matrix) -> GridModule:
        return module_from_json({"field": field, "n": 1, "box": {"a": [0], "b": [1]},
                                 "dims": dims, "maps": [{"from": [0], "axis": 1,
                                                         "matrix": matrix}]})

    def test_rational_strings(self):
        m = self.one_map({"kind": "rational"}, [2, 1], [["1/2", 1]]).step((0,), 0)
        assert m.entries()[0][0] * 2 == 1
        assert (m.rows, m.den) == (((1, 2),), 2)

    def test_shape_checked(self):
        """A 1 x 2 matrix for a 2 x 2 step: its row count is refused first."""
        with pytest.raises(InputError) as err:
            self.one_map({"kind": "prime", "p": 2}, [2, 2], [[1, 0]])
        assert str(err.value) == "matrix has shape (1, ...), expected (2, 2)"


class TestModuleRoundtrip:
    def test_roundtrip(self):
        rng = random.Random(3)
        for field in (F2, F5, QQ):
            for _ in range(5):
                m = random_module(field, rng)
                again = module_from_json(module_to_json(m))
                assert again.box == m.box
                assert again.dims == m.dims
                assert every_step(again) == every_step(m)
                assert validate_module(again).ok

    def test_omitted_maps_default_to_zero(self):
        obj = {"field": {"kind": "prime", "p": 2}, "n": 1,
               "box": {"a": [0], "b": [1]}, "dims": [1, 1], "maps": []}
        m = module_from_json(obj)
        assert given_steps(m) == {} and m.step((0,), 0).is_zero()

    def test_dims_length_checked(self):
        obj = {"field": {"kind": "prime", "p": 2}, "n": 2,
               "box": {"a": [0, 0], "b": [1, 1]}, "dims": [1, 0], "maps": []}
        with pytest.raises(InputError):
            module_from_json(obj)

    def test_axis_is_one_based(self):
        obj = {"field": {"kind": "prime", "p": 2}, "n": 1,
               "box": {"a": [0], "b": [1]}, "dims": [1, 1],
               "maps": [{"from": [0], "axis": 0, "matrix": [[1]]}]}
        with pytest.raises(InputError):
            module_from_json(obj)

    def test_deterministic_bytes(self):
        m = corner_module(F2)
        once = canonical_dumps(module_to_json(m))
        twice = canonical_dumps(module_to_json(module_from_json(module_to_json(m))))
        assert once == twice


class TestNoZeroFill:
    """A loaded module keeps the steps its file gives, and nothing else: each
    distinct matrix of the file is decoded once into a matrix, which every
    map entry that gives it shares, and a left-out step reads as
    ``Matrix.zeros`` of its shape, one matrix per shape, which neither
    loading nor validating makes."""

    def test_one_matrix_per_distinct_map_entry_and_one_zero_per_shape(self, monkeypatch):
        def constant_module(field, box, d):
            """The file of the constant module of dimension d, all identity steps."""
            module = GridModule(field, box, {p: d for p in box.integer_points()}, {
                (p, axis): Matrix.identity(field, d) for p in box.integer_points()
                for axis in range(box.dim) if p[axis] < box.b[axis]})
            return module_to_json(module)

        made, zeros = [], []
        of_rows, make_zeros = Matrix._of_rows, Matrix.zeros
        monkeypatch.setattr(Matrix, "_of_rows", classmethod(
            lambda cls, field, rows, *args: made.append(rows) or of_rows(field, rows, *args)))
        monkeypatch.setattr(Matrix, "zeros", classmethod(
            lambda cls, field, nrows, ncols: zeros.append((nrows, ncols))
            or make_zeros(field, nrows, ncols)))
        rng, shared_entries = random.Random(41), 0
        for field in (F2, F5, QQ):
            objs = [module_to_json(random_module(field, rng, box=box, max_summands=4))
                    for box in (Box((0,), (4,)), Box((0, -1), (2, 1)), Box((0, 0, 0), (1, 2, 1)))]
            for obj in objs + [constant_module(field, Box((0, 0), (2, 1)), 2)]:
                made.clear()
                zeros.clear()
                module = module_from_json(obj)
                by_matrix = {}
                for e in obj["maps"]:
                    source = tuple(e["from"])
                    key = module._index[source] * len(source) + e["axis"] - 1
                    by_matrix.setdefault((json.dumps(e["matrix"]), module.dims[source]),
                                         set()).add(id(module.given[key]))
                assert len(obj["maps"]) == len(module.given)
                assert len(made) == len(by_matrix) and all(len(v) == 1 for v in by_matrix.values())
                shared_entries += len(obj["maps"]) - len(by_matrix)
                assert validate_module(module).ok and zeros == []
                assert all(module.step(*e) is m for e, m in given_steps(module).items())
                shared = {}
                for key, m in every_step(module).items():
                    if key not in given_steps(module):
                        assert m.is_zero() and shared.setdefault(m.shape, m) is m
                assert sorted(shared) == sorted(set(zeros))
        assert shared_entries > 0

    def test_a_large_box_with_no_maps_stores_no_step(self):
        obj = {"field": {"kind": "prime", "p": 2}, "n": 2,
               "box": {"a": [0, 0], "b": [99, 99]}, "dims": [1] * 10_000, "maps": []}
        module = module_from_json(obj)
        assert len(given_steps(module)) == 0 and module.given == {}
        assert validate_module(module).ok
        assert module.step((5, 7), 1) is module.step((7, 5), 0) is Matrix.zeros(F2, 1, 1)
        assert module.step((5, 7), 1).is_zero()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2 ** 200, 2 ** 200)
    | st.text() | st.text(st.characters(max_codepoint=0x1f)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=25)


class TestCanonicalDumps:
    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES)
    def test_bytes_of_json_dumps(self, payload):
        assert canonical_dumps(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_empty_containers_and_escapes(self):
        payload = {"": [], "a": {}, "\u00e9\n\t\x00": [[], {}, [[]]], "z": "\"\\\u2028"}
        assert canonical_dumps(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("payload",
                             [1.5, (1, 2), {1: 2}, {"a": {"b": set()}}, [Fraction(1, 2)]],
                             ids=["float", "tuple", "int key", "set", "fraction"])
    def test_other_types_refused(self, payload):
        with pytest.raises(TypeError):
            canonical_dumps(payload)


class TestDiagramRoundtrip:
    def test_roundtrip(self):
        view = ExtendedView(corner_module(F2))
        from detmod import ext_box
        diagram = restrict_view(view, ext_box(Box((1, 1), (1, 1))).points())
        again = diagram_from_json(diagram_to_json(diagram))
        assert again.points == diagram.points
        assert again.dims == diagram.dims

    def test_non_cover_map_rejected(self):
        obj = {"field": {"kind": "prime", "p": 2}, "n": 1,
               "points": [[0], [1], [2]], "dims": [1, 1, 1],
               "maps": [{"from": [0], "to": [2], "matrix": [[1]]}]}
        with pytest.raises(InputError):
            diagram_from_json(obj)

    def test_covers_match_definition(self, monkeypatch):
        import detmod.linalg as linalg
        from helpers import poset_covers_bruteforce, random_point_set

        rng = random.Random(19)
        for _ in range(20):
            pts = sorted(random_point_set(rng, 2, max_size=8) | {(0, 0)}, key=point_sort_key)
            view = ExtendedView(random_module(F5, rng))
            for points in (pts, ext_box(Box((0, 0), (1, 2))).sorted_points()):
                obj = diagram_to_json(restrict_view(view, points))
                with monkeypatch.context() as m:
                    if as_product(points) is not None:
                        m.setattr(linalg, "poset_covers", None)  # the diagram decides its covers
                    again = diagram_from_json(obj)
                assert set(again.covers()) == set(poset_covers_bruteforce(points))
                assert diagram_to_json(again) == obj

    def test_cover_error_message_on_a_product(self):
        obj = {"field": {"kind": "prime", "p": 2}, "n": 2,
               "points": [[0, 0], [0, 1], [1, 0], [1, 1]], "dims": [1, 1, 1, 1],
               "maps": [{"from": [0, 0], "to": [1, 1], "matrix": [[1]]}]}
        with pytest.raises(InputError, match=r"map \(0, 0\) -> \(1, 1\) is not a "
                                             "covering pair of the points"):
            diagram_from_json(obj)


class TestPresentationRoundtrip:
    def test_roundtrip(self):
        rng = random.Random(7)
        view = ExtendedView(random_module(F5, rng))
        pres = build_presentation(view, canonical_set(view.module))
        again = presentation_from_json(presentation_to_json(pres))
        assert again.generators == pres.generators
        assert again.relations == pres.relations
        assert set(again.blocks) == set(pres.blocks)
        assert all(again.blocks[k] == pres.blocks[k] for k in pres.blocks)

    def test_generator_images_roundtrip(self):
        view = ExtendedView(random_module(QQ, random.Random(11), max_summands=4))
        pres = build_presentation(view, canonical_set(view.module))
        obj = presentation_to_json(pres)
        assert [e["point"] for e in obj["generator_images"]] == \
            [e["point"] for e in obj["generators"]]
        assert presentation_from_json(obj) == pres
        del obj["generator_images"]
        assert presentation_from_json(obj).generator_images is None
        assert "generator_images" not in presentation_to_json(presentation_from_json(obj))

    def test_out_of_grading_block_rejected(self):
        obj = {"field": {"kind": "prime", "p": 2}, "n": 2,
               "generators": [{"point": [1, 1], "multiplicity": 1}],
               "relations": [{"point": [0, 0], "multiplicity": 1}],
               "rel_matrix": [{"relation": [0, 0], "generator": [1, 1],
                               "block": [[1]]}]}
        with pytest.raises(InputError):
            presentation_from_json(obj)

    @pytest.mark.parametrize("key", ["generators", "relations"])
    def test_point_listed_twice_is_refused_before_its_block(self, key):
        """[0] with multiplicities 1 and 2 and a 1 x 1 block at it: the
        duplicate is named, not the block's shape."""
        graded = [{"point": [0], "multiplicity": 1}]
        obj = {"field": {"kind": "prime", "p": 2}, "n": 1,
               "generators": graded, "relations": graded,
               "rel_matrix": [{"relation": [0], "generator": [0], "block": [[1]]}]}
        obj[key] = graded + [{"point": [0], "multiplicity": 2}]
        with pytest.raises(InputError) as err:
            presentation_from_json(obj)
        assert str(err.value) == "a generator or relation point is listed twice"

    @pytest.mark.parametrize("key,value,message", [
        ("generators", None, "generators must be a JSON array"),
        ("relations", 3, "relations must be a JSON array"),
        ("rel_matrix", None, "rel_matrix must be a JSON array"),
        ("generator_images", {}, "generator_images must be a JSON array"),
        ("relations", [{"point": [0, 0], "multiplicity": []}],
         "multiplicity at (0, 0) must be a positive integer"),
    ])
    def test_malformed_arrays_and_multiplicities(self, key, value, message):
        obj = {"field": {"kind": "prime", "p": 2}, "n": 2,
               "generators": [{"point": [0, 0], "multiplicity": 1}],
               "relations": [{"point": [0, 0], "multiplicity": 1}],
               "rel_matrix": [{"relation": [0, 0], "generator": [0, 0], "block": [[1]]}],
               key: value}
        with pytest.raises(InputError) as err:
            presentation_from_json(obj)
        assert str(err.value) == message


class TestDetectKind:
    def test_kinds(self):
        assert detect_kind({"box": {}}) == "module"
        assert detect_kind({"points": []}) == "diagram"
        assert detect_kind({"generators": []}) == "presentation"
        with pytest.raises(InputError):
            detect_kind({"something": 1})

    def test_box_parse(self):
        assert box_from_json({"a": [0, 0], "b": [1, 1]}) == Box((0, 0), (1, 1))
        with pytest.raises(InputError):
            box_from_json({"a": [1, 1], "b": [0, 0]})

    @pytest.mark.parametrize("obj,message", [
        ({"a": [1, 1], "b": [0, 2]}, "box corners out of order: (1, 1) > (0, 2)"),
        ({"a": ["-inf", 0], "b": [0, 0]}, "box corners must be integer points"),
        ({"a": [0, 0], "b": [0, "-inf"]}, "box corners must be integer points"),
        ({"a": [0, 0], "b": [1]}, "point (1,) does not have dimension 2"),
        ({"a": [], "b": []}, "points must have dimension at least 1"),
        ({"a": [0]}, "invalid box {'a': [0]}; expected {\"a\": [...], \"b\": [...]}"),
    ])
    def test_box_error_texts(self, obj, message):
        with pytest.raises(InputError) as err:
            box_from_json(obj)
        assert str(err.value) == message

    def test_decoded_box_equals_the_checked_one(self):
        box, checked = box_from_json({"a": [-1, 0, 2], "b": [1, 0, 5]}), Box((-1, 0, 2), (1, 0, 5))
        assert box == checked and hash(box) == hash(checked)
        assert box.cartesian().strides == checked.cartesian().strides == (4, 4, 1)
        assert list(box.integer_points()) == list(checked.integer_points())


def _module_obj(field=None, **map_changes):
    """A valid 2 x 2 module file over F5 (or ``field``) whose first map
    takes ``map_changes``; the second map goes into a 2-dimensional space."""
    obj = {"field": field or {"kind": "prime", "p": 5}, "n": 2,
           "box": {"a": [0, 0], "b": [1, 1]}, "dims": [1, 1, 1, 2],
           "maps": [{"from": [0, 0], "axis": 1, "matrix": [[1]]},
                    {"from": [0, 1], "axis": 1, "matrix": [[1], [2]]}]}
    obj["maps"][0].update(map_changes)
    return obj


def _second_map(entry):
    obj = _module_obj()
    obj["maps"][1] = entry
    return obj


def _second_matrix(matrix):
    obj = _module_obj()
    obj["maps"][1]["matrix"] = matrix
    return obj


QQ_SPEC = {"kind": "rational"}
MALFORMED_MODULES = [
    ("bool entry", _module_obj(matrix=[[True]]), "cannot coerce True into F_5"),
    ("float entry", _module_obj(matrix=[[1.0]]), "cannot coerce 1.0 into F_5"),
    ("str entry", _module_obj(matrix=[["1"]]), "cannot coerce '1' into F_5"),
    ("bad rational", _module_obj(QQ_SPEC, matrix=[["1/0"]]), "cannot parse rational '1/0'"),
    ("rational word", _module_obj(QQ_SPEC, matrix=[["one"]]), "cannot parse rational 'one'"),
    ("rational bool", _module_obj(QQ_SPEC, matrix=[[False]]), "cannot coerce False into Q"),
    ("from -inf", _module_obj(**{"from": ["-inf", 0]}),
     "map source (-inf, 0) is outside the box"),
    ("from float", _module_obj(**{"from": [0.0, 0]}),
     'invalid coordinate 0.0; expected an integer or "-inf"'),
    ("from bool", _module_obj(**{"from": [False, 0]}),
     'invalid coordinate False; expected an integer or "-inf"'),
    ("from short", _module_obj(**{"from": [0]}), "point (0,) does not have dimension 2"),
    ("from long", _module_obj(**{"from": [0, 0, 0]}),
     "point (0, 0, 0) does not have dimension 2"),
    ("from missing", _module_obj(**{"from": None}), "invalid point None; expected a JSON array"),
    ("axis 0", _module_obj(axis=0), "invalid axis 0; axes are 1-based"),
    ("axis n+1", _module_obj(axis=3), "invalid axis 3; axes are 1-based"),
    ("axis true", _module_obj(axis=True), "invalid axis True; axes are 1-based"),
    ("duplicate map", _second_map(_module_obj()["maps"][0]),
     "duplicate map at (0, 0) along axis 1"),
    ("source outside", _module_obj(**{"from": [2, 0]}), "map source (2, 0) is outside the box"),
    ("target outside", _module_obj(**{"from": [1, 0]}),
     "map at (1, 0) along axis 1 leaves the box"),
    ("ragged rows", _second_matrix([[1], [2, 3]]), "matrix row 2 has 2 entries, expected 1"),
    ("short matrix", _second_matrix([[1]]), "matrix has shape (1, ...), expected (2, 1)"),
    ("row not a list", _second_matrix([[1], 2]), "invalid matrix [[1], 2]"),
    ("maps null", {**_module_obj(), "maps": None}, "maps must be a JSON array"),
]


class TestMalformedModules:
    """The loader's error texts, as the command line prints them."""

    @pytest.mark.parametrize("obj,message", [case[1:] for case in MALFORMED_MODULES],
                             ids=[case[0] for case in MALFORMED_MODULES])
    def test_error_text(self, obj, message):
        with pytest.raises(InputError) as err:
            module_from_json(obj)
        assert str(err.value) == message

    def test_the_valid_base_loads(self):
        for field in (None, QQ_SPEC):
            module = module_from_json(_module_obj(field))
            assert given_steps(module)[((0, 1), 0)].entries() in (((1,), (2,)),
                                                                  ((QQ.one,), (2 * QQ.one,)))
            assert validate_module(module).ok

    def test_entries_are_reduced_into_the_field(self):
        module = module_from_json(_module_obj(matrix=[[-4]]))
        assert given_steps(module)[((0, 0), 0)].rows == ((1,),)
        module = module_from_json(_module_obj(QQ_SPEC, matrix=[["-6/4"]]))
        step = given_steps(module)[((0, 0), 0)]
        assert step.entries() == ((Fraction(-3, 2),),) and (step.rows, step.den) == (((-3,),), 2)


def _padded(obj, at: int):
    """``obj``, a module file on the 2 x 2 box such as ``_module_obj`` makes,
    with its box widened to (0, 0)-(1, 67) and 200 valid map entries around
    its own: ``at`` of them before, the rest after.  The points of the old
    box keep their dimensions and no padding entry gives a step of the old
    box along axis 1, so each entry of ``obj`` means what it meant there.
    The padding repeats a few matrices, and over Q it holds strings."""
    box, top = Box((0, 0), (1, 67)), (1, 67)
    dims = {p: 2 if p[0] and p[1] else 1 for p in box.integer_points()}
    padding = []
    for p in box.integer_points():
        one = "2/2" if obj["field"] == QQ_SPEC and p[1] % 2 else 1
        for axis in (0, 1):
            q = p[:axis] + (p[axis] + 1,) + p[axis + 1:]
            if p[axis] < top[axis] and not (axis == 0 and p[1] < 2):
                padding.append({"from": list(p), "axis": axis + 1,
                                "matrix": [[one if i == j else 0 for j in range(dims[p])]
                                           for i in range(dims[q])]})
    assert len(padding) == 200
    maps = obj["maps"] if isinstance(obj["maps"], list) else []
    return {**obj, "box": {"a": [0, 0], "b": list(top)}, "dims": list(dims.values()),
            "maps": padding[:at] + maps + padding[at:]}


def _refusal(read, obj) -> str:
    with pytest.raises(InputError) as err:
        read(obj)
    return str(err.value)


def _with_faults(obj, faults):
    """A copy of ``obj`` with each ``(key, at, fault)`` of ``faults`` made:
    the entry at ``at`` of ``obj[key]`` replaced by ``fault(entry, first)``,
    where ``first`` is the first entry of ``obj[key]``."""
    obj = json.loads(json.dumps(obj))
    for key, at, fault in faults:
        obj[key][at] = fault(obj[key][at], obj[key][0])
    return obj


def _matrix_fault(key, bad):
    """A fault of the matrix under ``key`` of an entry: ``bad`` of its rows."""
    return lambda entry, first: {**entry, key: bad(entry[key])}


# faults of a matrix of any file kind, of an entry or of its shape
MATRIX_FAULTS = {
    "bad rational": lambda m: [["1/0", *m[0][1:]], *m[1:]],
    "ragged row": lambda m: [*m[:-1], m[-1] + [0]],
    "true entry": lambda m: [[True, *m[0][1:]], *m[1:]],
}
# faults of the structure of a module file's map entry
MODULE_STRUCTURE_FAULTS = {
    "bad axis": lambda e, first: {**e, "axis": 0},
    "source off the box": lambda e, first: {**e, "from": [2, e["from"][1]]},
    "duplicate map": lambda e, first: {**e, "from": first["from"], "axis": first["axis"]},
    "1.0 coordinate": lambda e, first: {**e, "from": [float(e["from"][0]), e["from"][1]]},
}


def _assert_the_earlier_refused(read, base, early, late):
    """Two faults, ``early`` in file order before ``late``: the file is
    refused as with ``early`` alone, which is not as with ``late`` alone."""
    both = _refusal(read, _with_faults(base, [early, late]))
    assert both == _refusal(read, _with_faults(base, [early]))
    assert both != _refusal(read, _with_faults(base, [late]))


class TestAmongValidEntries:
    """The refusals of ``TestMalformedModules`` with the entry at fault in
    the middle and at the end of 200 valid ones, which the file's one read
    words as it words the entry alone; with two entries at fault, the
    earlier is refused."""

    CASES = [case for case in MALFORMED_MODULES if isinstance(case[1]["maps"], list)]

    @pytest.mark.parametrize("at", [100, 200], ids=["middle", "end"])
    @pytest.mark.parametrize("obj,message", [case[1:] for case in CASES],
                             ids=[case[0] for case in CASES])
    def test_error_text(self, obj, message, at):
        with pytest.raises(InputError) as err:
            module_from_json(_padded(obj, at))
        assert str(err.value) == message

    def test_the_padded_base_loads(self):
        for field in (None, QQ_SPEC):
            for at in (0, 100, 200):
                module = module_from_json(_padded(_module_obj(field), at))
                assert len(module.given) == 202
                assert module.given[1 * 2 + 0].entries() in (((1,), (2,)),
                                                             ((QQ.one,), (2 * QQ.one,)))
                assert module.step((0, 5), 1) is module.step((0, 7), 1)

    def test_row_counts_that_make_up_for_each_other_are_refused(self):
        """Two 2 x 1 steps given with 3 rows and with 1: the rows and their
        widths add up, and the first is still refused for its shape."""
        obj = _padded(_module_obj(), 100)
        tall = [e for e in obj["maps"] if e["axis"] == 1 and e["from"][1] >= 2]
        tall[0]["matrix"], tall[1]["matrix"] = [[1], [0], [0]], [[1]]
        with pytest.raises(InputError) as err:
            module_from_json(obj)
        assert str(err.value) == "matrix has shape (3, ...), expected (2, 1)"

    @pytest.mark.parametrize("field", [None, QQ_SPEC], ids=["f5", "q"])
    @pytest.mark.parametrize("bad", [True, 1.0], ids=["true", "1.0"])
    def test_a_decoded_one_admits_no_true_or_float(self, field, bad):
        """[[1]] is decoded (and kept) for many steps before [[true]] or
        [[1.0]] comes, at a step of the same shape, and that is refused."""
        obj = _padded(_module_obj(field), 200)
        obj["maps"][-2]["matrix"] = [[bad]]  # the entry at (0, 0) along axis 1
        kind = "F_5" if field is None else "Q"
        with pytest.raises(InputError) as err:
            module_from_json(obj)
        assert str(err.value) == f"cannot coerce {bad!r} into {kind}"

    @pytest.mark.parametrize("x,residue", [(-4, 1), (-1, 4), (11, 1), (5, 0)])
    def test_entries_outside_the_field_are_reduced(self, x, residue):
        """The one entry of the file outside [0, 5), so it alone calls for
        the reduction."""
        module = module_from_json(_padded(_module_obj(matrix=[[x]]), 100))
        assert module.given[0 * 2 + 0].rows == ((residue,),)

    @pytest.mark.parametrize("field", [F2, F5, QQ], ids=["f2", "f5", "q"])
    def test_read_write_read_keeps_rows_and_denominators(self, field):
        rng = random.Random(17)
        for box in (Box((0, 0), (4, 4)), Box((0, 0, 0), (2, 2, 3))):
            obj = module_to_json(random_module(field, rng, box=box, max_summands=4))
            first = module_from_json(obj)
            again = module_from_json(json.loads(canonical_dumps(module_to_json(first))))
            assert len(obj["maps"]) > 20 and first.given.keys() == again.given.keys()
            assert all((m.rows, m.den) == (again.given[k].rows, again.given[k].den)
                       for k, m in first.given.items())
        padded = module_from_json(_padded(_module_obj(), 100))
        again = module_from_json(module_to_json(padded))
        assert all((m.rows, m.den) == (again.given[k].rows, again.given[k].den)
                   for k, m in padded.given.items())

    @pytest.mark.parametrize("matrix_first", [True, False], ids=["matrix-first", "structure-first"])
    @pytest.mark.parametrize("structure", list(MODULE_STRUCTURE_FAULTS))
    @pytest.mark.parametrize("matrix", list(MATRIX_FAULTS))
    def test_the_earlier_of_two_faults_is_refused(self, matrix, structure, matrix_first):
        """A bad matrix in one entry and a structural fault in another, 120
        entries apart: the earlier is refused, whichever kind it is."""
        bad_matrix = _matrix_fault("matrix", MATRIX_FAULTS[matrix])
        bad_structure = MODULE_STRUCTURE_FAULTS[structure]
        faults = [bad_matrix, bad_structure] if matrix_first else [bad_structure, bad_matrix]
        _assert_the_earlier_refused(module_from_json, _padded(_module_obj(QQ_SPEC), 100),
                                    ("maps", 30, faults[0]), ("maps", 150, faults[1]))


def _diagram_obj(field=None, bad=None, at: int = 0, point=None, point_at: int = 0):
    """A product diagram file on {-inf, 0} x {-inf, 0, ..., 33} with every
    dimension 1 and 100 map entries, [[1]] on every cover but the three
    into the last row, with ``bad`` among them: ``at`` valid entries before
    it and the rest after.  ``point``, when given, replaces the point at
    ``point_at``."""
    axis = ["-inf", *range(34)]
    points = [[u, v] for u in ("-inf", 0) for v in axis]
    maps = [{"from": [u, v], "to": [u, w], "matrix": [[1]]}
            for u in ("-inf", 0) for v, w in zip(axis, axis[1:34])]
    maps += [{"from": ["-inf", v], "to": [0, v], "matrix": [["2/2" if field else 1]]}
             for v in axis[:34]]
    assert len(maps) == 100
    if bad is not None:
        maps.insert(at, bad)
    if point is not None:
        points[point_at] = point
    return {"field": field or {"kind": "prime", "p": 5}, "n": 2, "points": points,
            "dims": [1] * len(points), "maps": maps}


# a map entry at fault, the field of its file, and its refusal; the cover
# (-inf, 32) -> (-inf, 33) is left out of the valid entries
MALFORMED_DIAGRAM_MAPS = [
    # a false or a float that equals a coordinate, on a cover left out: as a
    # key it would find the point
    ("to false", {"from": ["-inf", 33], "to": [False, 33], "matrix": [[1]]}, None,
     'invalid coordinate False; expected an integer or "-inf"'),
    ("from float", {"from": ["-inf", 32.0], "to": ["-inf", 33], "matrix": [[1]]}, None,
     'invalid coordinate 32.0; expected an integer or "-inf"'),
    ("from true", {"from": [True, 0], "to": [0, 1], "matrix": [[1]]}, None,
     'invalid coordinate True; expected an integer or "-inf"'),
    ("from unhashable", {"from": [[0], 0], "to": [0, 1], "matrix": [[1]]}, None,
     'invalid coordinate [0]; expected an integer or "-inf"'),
    ("to an object", {"from": ["-inf", 0], "to": {"-inf": 0}, "matrix": [[1]]}, None,
     "invalid point {'-inf': 0}; expected a JSON array"),
    ("from a string", {"from": "-inf", "to": [0, 1], "matrix": [[1]]}, None,
     "invalid point '-inf'; expected a JSON array"),
    ("from one coordinate", {"from": [0], "to": [0, 1], "matrix": [[1]]}, None,
     "point (0,) does not have dimension 2"),
    ("end off the points", {"from": [0, 32], "to": [0, 34], "matrix": [[1]]}, None,
     "map (0, 32) -> (0, 34) is not a covering pair of the points"),
    ("off a cover", {"from": ["-inf", 32], "to": [0, 33], "matrix": [[1]]}, None,
     "map (-inf, 32) -> (0, 33) is not a covering pair of the points"),
    ("duplicate map", {"from": [0, 5], "to": [0, 6], "matrix": [[1]]}, None,
     "duplicate map (0, 5) -> (0, 6)"),
    ("wrong shape", {"from": ["-inf", 32], "to": ["-inf", 33], "matrix": [[1, 0]]}, None,
     "matrix row 1 has 2 entries, expected 1"),
    ("bool entry", {"from": ["-inf", 32], "to": ["-inf", 33], "matrix": [[True]]}, None,
     "cannot coerce True into F_5"),
    ("float entry", {"from": ["-inf", 32], "to": ["-inf", 33], "matrix": [[1.0]]}, QQ_SPEC,
     "cannot coerce 1.0 into Q"),
    ("bad Q token", {"from": ["-inf", 32], "to": ["-inf", 33], "matrix": [["1/0"]]}, QQ_SPEC,
     "cannot parse rational '1/0'"),
    ("not an object", ["-inf", 32], None, "invalid map entry ['-inf', 32]"),
]


# faults of the structure of a diagram file's map entry
DIAGRAM_STRUCTURE_FAULTS = {
    "end off the points": lambda e, first: {**e, "to": [0, 40]},
    "duplicate map": lambda e, first: {**e, "from": first["from"], "to": first["to"]},
    "1.0 coordinate": lambda e, first: {**e, "from": [e["from"][0], float(e["from"][1])]},
}


class TestDiagramAmongValidEntries:
    """A diagram file's map entry at fault first, in the middle and last
    among 100 valid ones on a product: the entries are looked up by their
    raw ends, and the refusal is that of the entry alone."""

    @pytest.mark.parametrize("at", [0, 50, 100], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("name,bad,field,message", MALFORMED_DIAGRAM_MAPS,
                             ids=[case[0] for case in MALFORMED_DIAGRAM_MAPS])
    def test_error_text(self, name, bad, field, message, at):
        alone = [bad, bad] if name == "duplicate map" else [bad]
        for obj in (_diagram_obj(field, bad, at), {**_diagram_obj(field), "maps": alone}):
            with pytest.raises(InputError) as err:
                diagram_from_json(obj)
            assert str(err.value) == message

    @pytest.mark.parametrize("at", [0, 33, 69], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("point", [[True, 0], [1.0, 0]], ids=["true", "1.0"])
    def test_points_at_fault(self, point, at):
        with pytest.raises(InputError) as err:
            diagram_from_json(_diagram_obj(point=point, point_at=at))
        assert str(err.value) == f'invalid coordinate {point[0]!r}; expected an integer or "-inf"'

    @pytest.mark.parametrize("at,message", [
        (34, "duplicate points in diagram"),  # (-inf, 33), which no map entry names
        (69, "duplicate points in diagram"),  # (0, 33), likewise
        (0, "map (-inf, -inf) -> (-inf, 0) is not a covering pair of the points")],
        ids=["unnamed", "unnamed-last", "named"])
    def test_duplicate_points(self, at, message):
        """The point at ``at`` replaced by a second (0, 5): where a map
        entry names the point that is gone, that entry is refused first."""
        with pytest.raises(InputError) as err:
            diagram_from_json(_diagram_obj(point=[0, 5], point_at=at))
        assert str(err.value) == message

    @pytest.mark.parametrize("field", [None, QQ_SPEC], ids=["f5", "q"])
    def test_the_base_loads_with_shared_matrices(self, field):
        obj = _diagram_obj(field)
        diagram = diagram_from_json(obj)
        assert diagram.product is not None and len(diagram.covers()) == 103
        given = [diagram.maps[(decode_point(e["from"]), decode_point(e["to"]))]
                 for e in obj["maps"]]
        # one matrix per distinct entry text: [[1]], and over Q [["2/2"]]
        assert all(m.is_identity() for m in given)
        assert len({id(m) for m in given}) == (1 if field is None else 2)
        assert diagram.maps[((NEG_INF, 32), (NEG_INF, 33))] == Matrix.zeros(diagram.field, 1, 1)
        assert diagram_to_json(diagram_from_json(diagram_to_json(diagram))) == \
            diagram_to_json(diagram)

    def test_points_in_any_order(self):
        """The file's points out of order: each end is found by its raw
        value, and the diagram sorts its points."""
        obj = _diagram_obj()
        obj["points"].reverse()
        diagram = diagram_from_json(obj)
        assert diagram.points == tuple(sorted(diagram.points))
        assert diagram_to_json(diagram) == diagram_to_json(diagram_from_json(_diagram_obj()))

    @pytest.mark.parametrize("matrix_first", [True, False], ids=["matrix-first", "structure-first"])
    @pytest.mark.parametrize("structure", list(DIAGRAM_STRUCTURE_FAULTS))
    @pytest.mark.parametrize("matrix", list(MATRIX_FAULTS))
    def test_the_earlier_of_two_faults_is_refused(self, matrix, structure, matrix_first):
        """As for module files: entries 30 (-inf, 29) -> (-inf, 30) and 80
        (-inf, 11) -> (0, 11) of the file over Q each hold one fault."""
        bad_matrix = _matrix_fault("matrix", MATRIX_FAULTS[matrix])
        bad_structure = DIAGRAM_STRUCTURE_FAULTS[structure]
        faults = [bad_matrix, bad_structure] if matrix_first else [bad_structure, bad_matrix]
        _assert_the_earlier_refused(diagram_from_json, _diagram_obj(QQ_SPEC),
                                    ("maps", 30, faults[0]), ("maps", 80, faults[1]))


def _presentation_obj():
    """A presentation over Q on a chain: generators at 0, 1 and 2, relations
    at 3 and 4, four 1 x 1 blocks and an image of each generator."""
    return {"field": QQ_SPEC, "n": 1,
            "generators": [{"point": [t], "multiplicity": 1} for t in (0, 1, 2)],
            "relations": [{"point": [t], "multiplicity": 1} for t in (3, 4)],
            "rel_matrix": [{"relation": [d], "generator": [b], "block": [[x]]}
                           for d, b, x in ((3, 0, 1), (3, 1, -1), (4, 1, "1/2"), (4, 2, -1))],
            "generator_images": [{"point": [b], "images": [[1], [0]]} for b in (0, 1, 2)]}


# faults of the structure of a presentation file's block or generator image
BLOCK_STRUCTURE_FAULTS = {
    "no matching points": lambda e, first: {**e, "relation": [9]},
    "duplicate block": lambda e, first: {**e, "relation": first["relation"],
                                         "generator": first["generator"]},
    "1.0 coordinate": lambda e, first: {**e, "generator": [float(e["generator"][0])]},
}
IMAGE_STRUCTURE_FAULTS = {
    "not a generator": lambda e, first: {**e, "point": [9]},
    "duplicate image": lambda e, first: {**e, "point": first["point"]},
}

BLOCK_AND_IMAGE_FAULTS = ([(m, s) for m in MATRIX_FAULTS for s in IMAGE_STRUCTURE_FAULTS]
                          + [(s, m) for s in BLOCK_STRUCTURE_FAULTS for m in MATRIX_FAULTS])


class TestPresentationFaults:
    """A presentation file with two faults is refused for the earlier, as
    module and diagram files are; blocks come before generator images."""

    def test_the_base_loads(self):
        pres = presentation_from_json(_presentation_obj())
        assert len(pres.blocks) == 4 and len(pres.generator_images) == 3

    @pytest.mark.parametrize("matrix_first", [True, False], ids=["matrix-first", "structure-first"])
    @pytest.mark.parametrize("structure", list(BLOCK_STRUCTURE_FAULTS))
    @pytest.mark.parametrize("matrix", list(MATRIX_FAULTS))
    def test_two_blocks(self, matrix, structure, matrix_first):
        bad_matrix = _matrix_fault("block", MATRIX_FAULTS[matrix])
        bad_structure = BLOCK_STRUCTURE_FAULTS[structure]
        faults = [bad_matrix, bad_structure] if matrix_first else [bad_structure, bad_matrix]
        _assert_the_earlier_refused(presentation_from_json, _presentation_obj(),
                                    ("rel_matrix", 1, faults[0]), ("rel_matrix", 3, faults[1]))

    @pytest.mark.parametrize("block,image", BLOCK_AND_IMAGE_FAULTS,
                             ids=[f"{b}-{i}" for b, i in BLOCK_AND_IMAGE_FAULTS])
    def test_a_block_and_an_image(self, block, image):
        """A fault in the last block and one in the last image, one of them
        a bad matrix: the block's is refused."""
        faults = {}
        for key, name, structure in (("block", block, BLOCK_STRUCTURE_FAULTS),
                                     ("images", image, IMAGE_STRUCTURE_FAULTS)):
            faults[key] = (_matrix_fault(key, MATRIX_FAULTS[name]) if name in MATRIX_FAULTS
                           else structure[name])
        _assert_the_earlier_refused(presentation_from_json, _presentation_obj(),
                                    ("rel_matrix", 3, faults["block"]),
                                    ("generator_images", 2, faults["images"]))


def _q_module(*entries):
    """A 1 x 2 box over Q with dimensions 1 and k, whose one step is the
    k x 1 column of ``entries``."""
    return {"field": QQ_SPEC, "n": 1, "box": {"a": [0], "b": [1]},
            "dims": [1, len(entries)],
            "maps": [{"from": [0], "axis": 1, "matrix": [[x] for x in entries]}]}


class TestRationalTokens:
    """Entries over Q are decoded into integer rows over one denominator,
    each distinct string once per file, and read back as fractions."""

    @pytest.mark.parametrize("entries,column", [
        ((3, -2, 0), (3, -2, 0)),
        (("1/2", "-3/4", 5), (Fraction(1, 2), Fraction(-3, 4), 5)),
        (("2/4", "-6/4", "0/7"), (Fraction(1, 2), Fraction(-3, 2), 0)),
        (("7", "-0/3", " 1/3", "+1/6", "1.5", "2e1"),
         (7, 0, Fraction(1, 3), Fraction(1, 6), Fraction(3, 2), 20)),
    ])
    def test_accepted_spellings(self, entries, column):
        module = module_from_json(_q_module(*entries))
        step = module.step((0,), 0)
        assert step.entries() == tuple((Fraction(x),) for x in column)
        assert all(type(r[0]) is int for r in step.rows)
        assert [Fraction(r[0], step.den) for r in step.rows] == [Fraction(x) for x in column]

    def test_rows_over_the_least_common_denominator(self):
        step = module_from_json(_q_module("1/2", "-2/3", 4, "2/4")).given[0]
        assert (step.rows, step.den) == (((3,), (-4,), (24,), (3,)), 6)
        step = module_from_json(_q_module(1, -2)).given[0]
        assert (step.rows, step.den) == (((1,), (-2,)), 1)

    @pytest.mark.parametrize("entries,message", [
        (("1/0",), "cannot parse rational '1/0'"),
        (("x",), "cannot parse rational 'x'"),
        ((1.5,), "cannot coerce 1.5 into Q"),
        ((True,), "cannot coerce True into Q"),
        ((None,), "cannot coerce None into Q"),
        (([1],), "cannot coerce [1] into Q"),
        (("1/2", "1/0", 1.5), "cannot parse rational '1/0'"),
        ((1.5, "1/0"), "cannot coerce 1.5 into Q"),
    ])
    def test_error_texts(self, entries, message):
        with pytest.raises(InputError) as err:
            module_from_json(_q_module(*entries))
        assert str(err.value) == message

    def test_each_string_parsed_once_per_file(self, monkeypatch):
        import detmod.io as dio
        parsed, rational = [], dio._rational
        monkeypatch.setattr(dio, "_rational", lambda field, x: parsed.append(x)
                            or rational(field, x))
        obj = _q_module("1/2", "1/2", 3, "-1/2", "1/2")
        module_from_json(obj)
        assert parsed == ["1/2", "-1/2"]
        module_from_json(obj)  # a new file, a new table
        assert parsed == ["1/2", "-1/2"] * 2

    def test_file_round_trip_is_byte_identical(self):
        rng = random.Random(23)
        objs = [_q_module("1/2", "-3/4", 5, 0), _q_module(0, 0)]  # the zero step is not written
        objs[1]["maps"] = []
        for field in (QQ, F5):
            for box in (Box((0,), (3,)), Box((0, 0), (2, 1)), Box((-1, 0, 0), (0, 1, 1))):
                objs.append(module_to_json(random_module(field, rng, box=box, max_summands=3)))
        assert any(type(x) is str for obj in objs for e in obj["maps"]
                   for r in e["matrix"] for x in r)
        for obj in objs:
            text = canonical_dumps(obj)
            assert canonical_dumps(module_to_json(module_from_json(obj))) == text
            assert canonical_dumps(module_to_json(module_from_json(json.loads(text)))) == text


class TestLazySteps:
    """A loaded step is the :class:`Matrix` its entry decodes to, made with
    no per-entry work past the decoding and kept as it is, and a verdict
    works only on the steps it tests."""

    def test_each_map_entry_is_one_matrix(self):
        obj = module_to_json(random_module(QQ, random.Random(5), box=Box((0, 0), (2, 2))))
        module = module_from_json(obj)
        assert len(module.given) == len(obj["maps"]) > 0
        assert all(type(m) is Matrix for m in module.given.values())
        assert validate_module(module).ok

    def test_matrix_made_once_and_kept(self):
        module = module_from_json(_module_obj())
        assert module.step((0, 1), 0) is module.given[1 * 2 + 0]
        assert 1 not in module.given  # (0, 0) along axis 2 is left out

    def test_prime_matrix_shares_the_decoded_rows(self, monkeypatch):
        """Over F_p and over Q the decoded rows are the matrix's rows: neither
        the checked constructor nor a normalization runs."""
        from detmod import linalg
        decoded, of_rows = [], Matrix._of_rows

        def forbidden(*args, **kwargs):
            raise AssertionError("a loaded step was converted entry by entry")
        monkeypatch.setattr(Matrix, "__init__", forbidden)
        monkeypatch.setattr(Matrix, "_reduced", classmethod(forbidden))
        monkeypatch.setattr(linalg, "_integer_form", forbidden)
        monkeypatch.setattr(Matrix, "_of_rows", classmethod(
            lambda cls, field, rows, *args: decoded.append(rows) or of_rows(field, rows, *args)))
        for obj in (_module_obj(), _module_obj(QQ_SPEC, matrix=[["-6/4"]]),
                    _q_module("1/2", "-2/3", 4, "2/4")):
            decoded.clear()
            module = module_from_json(obj)
            assert len(decoded) == len(module.given) > 0
            assert all(any(m.rows is rows for rows in decoded) for m in module.given.values())

    def test_determinacy_tests_only_the_steps_it_needs(self, monkeypatch):
        from detmod import grid_module, is_S_determined
        from detmod.determinacy import _first_failing_step
        tested, full_row_rank = [], grid_module.full_row_rank
        monkeypatch.setattr(grid_module, "full_row_rank", lambda field, rows, ncols:
                            tested.append(rows) or full_row_rank(field, rows, ncols))
        rng = random.Random(9)
        for field in (F2, QQ):
            module = module_from_json(module_to_json(random_module(field, rng)))
            view = ExtendedView(module)
            del tested[:]
            # the canonical set holds every axis point, so no step is a candidate
            assert is_S_determined(view, canonical_set(module)).holds
            assert tested == []
            s = frozenset(p for p in canonical_set(module) if p.count(NEG_INF) != 1)
            witness = _first_failing_step(module, s)
            # only given steps, tested on their own rows
            assert all(any(rows is m.rows for m in module.given.values()) for rows in tested)
            assert is_S_determined(view, s).witness == witness
