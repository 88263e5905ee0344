"""Round-trips and error handling of the JSON formats."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmod import (Box, ExtendedView, InputError, Matrix, NEG_INF, QQ,
                    build_presentation, ext_box, point_sort_key, restrict_view,
                    validate_module)
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
    """A loaded module keeps the steps its file gives, and nothing else: each
    map entry is decoded once into integer rows, its matrix is made on first
    use, and a left-out step is made on first use, one zero matrix per shape."""

    def test_one_matrix_per_map_entry_and_one_zero_per_shape(self, monkeypatch):
        import detmod.io as dio
        decoded, zeros = [], []
        from_json, make_zeros = dio.step_from_json, Matrix.zeros
        monkeypatch.setattr(dio, "step_from_json",
                            lambda *args: decoded.append(args[2]) or from_json(*args))
        monkeypatch.setattr(Matrix, "zeros", classmethod(
            lambda cls, field, nrows, ncols: zeros.append((nrows, ncols))
            or make_zeros(field, nrows, ncols)))
        rng = random.Random(41)
        for field in (F2, F5, QQ):
            for box in (Box((0,), (4,)), Box((0, -1), (2, 1)), Box((0, 0, 0), (1, 2, 1))):
                obj = module_to_json(random_module(field, rng, box=box, max_summands=4))
                decoded.clear()
                zeros.clear()
                module = module_from_json(obj)
                assert len(decoded) == len(obj["maps"]) == len(module.step_rows)
                assert validate_module(module).ok and zeros == [] and module._mats == {}
                assert len(module.steps) == len(obj["maps"]) == len(module._mats)
                left_out = {key: m.shape for key, m in every_step(module).items()
                            if key not in module.steps}
                assert sorted(zeros) == sorted(set(left_out.values()))
                every_step(module)
                assert len(zeros) == len(set(left_out.values()))
                assert len(module._mats) == len(obj["maps"])

    def test_a_large_box_with_no_maps_stores_no_step(self):
        obj = {"field": {"kind": "prime", "p": 2}, "n": 2,
               "box": {"a": [0, 0], "b": [99, 99]}, "dims": [1] * 10_000, "maps": []}
        module = module_from_json(obj)
        assert len(module.steps) == 0 and module.step_rows == {}
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
        assert box.strides() == checked.strides() == (4, 4, 1)
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
        assert module.step((0,), 0).rows == tuple((Fraction(x),) for x in column)
        rows, den = module.step_rows[0]
        assert all(type(r[0]) is int for r in rows)
        assert [Fraction(r[0], den) for r in rows] == [Fraction(x) for x in column]

    def test_rows_over_the_least_common_denominator(self):
        module = module_from_json(_q_module("1/2", "-2/3", 4, "2/4"))
        assert module.step_rows[0] == ([(3,), (-4,), (24,), (3,)], 6)
        assert module_from_json(_q_module(1, -2)).step_rows[0] == ([(1,), (-2,)], 1)

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
    """A loaded step becomes a :class:`Matrix` only when it is read."""

    def test_no_matrix_at_load_or_validation(self):
        obj = module_to_json(random_module(QQ, random.Random(5), box=Box((0, 0), (2, 2))))
        module = module_from_json(obj)
        assert len(module.step_rows) == len(obj["maps"]) > 0
        assert validate_module(module).ok and module._mats == {}

    def test_matrix_made_once_and_kept(self):
        module = module_from_json(_module_obj())
        first = module.step((0, 1), 0)
        assert module.step((0, 1), 0) is first is module.flat_step(1 * 2 + 0)
        assert module.flat_step(1) is None  # (0, 0) along axis 2 is left out

    def test_prime_matrix_shares_the_decoded_rows(self):
        module = module_from_json(_module_obj())
        key = 1 * 2 + 0  # (0, 1) along axis 1
        assert module.flat_step(key).rows[1] is module.step_rows[key][0][1]

    def test_determinacy_makes_no_matrix_it_does_not_test(self):
        from detmod import is_S_determined
        from detmod.determinacy import determinacy_report
        rng = random.Random(9)
        for field in (F2, QQ):
            module = module_from_json(module_to_json(random_module(field, rng)))
            view = ExtendedView(module)
            # the canonical set holds every axis point, so no step is a candidate
            assert is_S_determined(view, canonical_set(module)).holds
            assert module._mats == {}
            s = frozenset(p for p in canonical_set(module) if p.count(NEG_INF) != 1)
            report = determinacy_report(module, s, check_support=False)
            n = module.box.dim
            made = {(list(module.dims)[key // n], key % n) for key in module._mats}
            assert made <= set(module.steps)  # only given steps that were tested
            assert report.holds or report.witness is not None
