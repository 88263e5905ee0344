"""Round-trips and error handling of the JSON formats."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmod import (Box, ExtendedView, InputError, Matrix, NEG_INF, QQ,
                    build_presentation, ext_box, point_sort_key, validate_module)
from detmod.extgrid import as_product
from detmod.io import (box_from_json, canonical_dumps, decode_point,
                       detect_kind, diagram_from_json, diagram_to_json,
                       field_from_json, matrix_from_json, module_from_json,
                       module_to_json, pointset_from_json,
                       presentation_from_json, presentation_to_json)
from helpers import F2, F5, canonical_set, corner_module, every_step, random_module


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
    def test_rational_strings(self):
        m = matrix_from_json(QQ, [["1/2", 1]], (1, 2))
        assert m.rows[0][0] * 2 == 1

    def test_shape_checked(self):
        with pytest.raises(InputError):
            matrix_from_json(F2, [[1, 0]], (2, 2))


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
        assert m.steps == {} and m.step((0,), 0).is_zero()

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
    """A loaded module keeps the steps its file gives, and nothing else: a
    left-out step is made on first use, one zero matrix per shape."""

    def test_one_matrix_per_map_entry_and_one_zero_per_shape(self, monkeypatch):
        import detmod.io as dio
        built, zeros = [], []
        from_json, make_zeros = dio.matrix_from_json, Matrix.zeros
        monkeypatch.setattr(dio, "matrix_from_json",
                            lambda *args: built.append(args[2]) or from_json(*args))
        monkeypatch.setattr(Matrix, "zeros", classmethod(
            lambda cls, field, nrows, ncols: zeros.append((nrows, ncols))
            or make_zeros(field, nrows, ncols)))
        rng = random.Random(41)
        for field in (F2, F5, QQ):
            for box in (Box((0,), (4,)), Box((0, -1), (2, 1)), Box((0, 0, 0), (1, 2, 1))):
                obj = module_to_json(random_module(field, rng, box=box, max_summands=4))
                built.clear()
                zeros.clear()
                module = module_from_json(obj)
                assert len(built) == len(obj["maps"]) == len(module.steps)
                assert validate_module(module).ok and zeros == []
                left_out = {key: m.shape for key, m in every_step(module).items()
                            if key not in module.steps}
                assert sorted(zeros) == sorted(set(left_out.values()))
                every_step(module)
                assert len(zeros) == len(set(left_out.values()))

    def test_a_large_box_with_no_maps_stores_no_step(self):
        obj = {"field": {"kind": "prime", "p": 2}, "n": 2,
               "box": {"a": [0, 0], "b": [99, 99]}, "dims": [1] * 10_000, "maps": []}
        module = module_from_json(obj)
        assert len(module.steps) == 0 and module.flat_steps == {}
        assert validate_module(module).ok
        assert module.step((5, 7), 1) is module.step((7, 5), 0)
        assert module.step((5, 7), 1).is_zero() and len(module._zero) == 1


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
        diagram = view.restrict_diagram(ext_box(Box((1, 1), (1, 1))).points())
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
        import detmod.io as dio
        from helpers import poset_covers_bruteforce, random_point_set

        rng = random.Random(19)
        for _ in range(20):
            pts = sorted(random_point_set(rng, 2, max_size=8) | {(0, 0)}, key=point_sort_key)
            view = ExtendedView(random_module(F5, rng))
            for points in (pts, ext_box(Box((0, 0), (1, 2))).sorted_points()):
                obj = diagram_to_json(view.restrict_diagram(points))
                with monkeypatch.context() as m:
                    if as_product(points) is not None:
                        m.setattr(dio, "poset_covers", None)
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
    ("ragged rows", _second_matrix([[1], [2, 3]]), "matrix has shape (2, ...), expected (2, 1)"),
    ("short matrix", _second_matrix([[1]]), "matrix has shape (1, ...), expected (2, 1)"),
    ("row not a list", _second_matrix([[1], 2]), "invalid matrix [[1], 2]"),
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
            assert module.steps[((0, 1), 0)].rows in (((1,), (2,)), ((QQ.one,), (2 * QQ.one,)))
            assert validate_module(module).ok

    def test_entries_are_reduced_into_the_field(self):
        module = module_from_json(_module_obj(matrix=[[-4]]))
        assert module.steps[((0, 0), 0)].rows == ((1,),)
        module = module_from_json(_module_obj(QQ_SPEC, matrix=[["-6/4"]]))
        assert module.steps[((0, 0), 0)].rows == ((Fraction(-3, 2),),)
