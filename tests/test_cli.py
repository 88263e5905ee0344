"""Command line front end: verbs, exit codes, artifacts, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmod.cli import VERBS, _parse_canonical, build_parser, main

REPO = Path(__file__).resolve().parent.parent
EXAMPLE_F2 = str(REPO / "fixtures" / "example_f2.json")
EXAMPLE_Q = str(REPO / "fixtures" / "example_q.json")
ZERO = str(REPO / "fixtures" / "zero_f2.json")
UNIT_SET = '[["-inf","-inf"],["-inf",1],[1,"-inf"],[1,1]]'
GOLDEN = REPO / "tests" / "golden"


_NAMES = sorted(VERBS) + sorted({opt.name for spec in VERBS.values() for opt in spec.options})
_VALUES = ["0", "2", "+2", " 3", "x", "", "-1", "--", UNIT_SET, "[]", "{}", "0..1",
           "a.json", EXAMPLE_F2]
_TOKENS = (_NAMES + sorted({name[:k] for name in _NAMES for k in range(2, len(name))})
           + _VALUES + ["-h", "--help", "-", "x=1", "--set=[[1,1]]"])


@st.composite
def argvs(draw):
    """Argv from a token alphabet: verbs, options, prefixes, ``=`` forms and values.

    Most draws spell out a call of some verb, each option as a canonical
    pair, as ``--name=value`` or abbreviated, and then may add a stray token
    or drop one; the rest are free sequences of tokens.
    """
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(st.sampled_from(_TOKENS), max_size=8))
    verb = draw(st.sampled_from(sorted(VERBS)))
    spec = VERBS[verb]
    argv = [verb, *spec.positionals]
    for opt in spec.options:
        if not (opt.required or draw(st.booleans())):
            continue
        spelling = draw(st.sampled_from(["pair", "pair", "equals", "prefix"]))
        name = opt.name[:draw(st.integers(3, len(opt.name)))] if spelling == "prefix" \
            else opt.name
        value = draw(st.sampled_from(_VALUES))
        if spelling == "equals":
            argv.append(f"{name}={value}")
        else:
            argv += [name] if opt.kind is bool else [name, value]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_TOKENS)))
    if draw(st.integers(0, 3)) == 0 and len(argv) > 1:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestValidate:
    def test_zero_module_ok(self, capsys):
        code, payload = run_json(capsys, "validate", ZERO)
        assert code == 0 and payload == {"ok": True}

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2 and "error" in err

    def test_non_prime_field_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"field": {"kind": "prime", "p": 4}, "n": 1,
                                   "box": {"a": [0], "b": [0]}, "dims": [1],
                                   "maps": []}), encoding="utf-8")
        code, out, err = run(capsys, "validate", str(bad))
        assert code == 2 and "prime" in err

    def test_broken_square_fails_with_witness(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "field": {"kind": "prime", "p": 2}, "n": 2,
            "box": {"a": [0, 0], "b": [1, 1]}, "dims": [1, 1, 1, 1],
            "maps": [{"from": [0, 0], "axis": 1, "matrix": [[1]]},
                     {"from": [0, 0], "axis": 2, "matrix": [[1]]},
                     {"from": [1, 0], "axis": 2, "matrix": [[1]]}],
        }), encoding="utf-8")
        code, payload = run_json(capsys, "validate", str(bad))
        assert code == 1 and payload["ok"] is False
        assert payload["square"]

    def test_stdout_matches_golden_transcripts(self, capsys):
        # a 2x2 square that does not commute, a 3-parameter module whose
        # second square fails, and a step matrix of the wrong shape
        modules = sorted((GOLDEN / "validate").glob("*.module.json"))
        assert len(modules) == 3
        for module in modules:
            code, out, err = run(capsys, "validate", str(module))
            golden = module.with_name(module.name.replace(".module.json", ".expected.json"))
            expected = json.loads(golden.read_text(encoding="utf-8"))
            assert (code, out, err) == (expected["exit_code"], expected["stdout"],
                                        expected["stderr"]), module.name


class TestDeterminacy:
    def test_fast_and_oracle_agree(self, capsys):
        code1, fast = run_json(capsys, "determinacy", EXAMPLE_F2, "--set", UNIT_SET)
        code2, slow = run_json(capsys, "determinacy", EXAMPLE_F2, "--set", UNIT_SET,
                               "--oracle")
        assert code1 == code2 == 0
        assert fast["holds"] and slow["holds"]
        assert fast["method"] == "critical-grid" and slow["method"] == "oracle"

    def test_failure_carries_witness(self, capsys):
        code, payload = run_json(capsys, "determinacy", EXAMPLE_F2, "--set",
                                 '[["-inf","-inf"]]')
        assert code == 1
        assert payload["holds"] is False
        assert payload["witness"] is not None

    def test_set_from_file(self, capsys, tmp_path):
        sfile = tmp_path / "set.json"
        sfile.write_text(UNIT_SET, encoding="utf-8")
        code, payload = run_json(capsys, "determinacy", EXAMPLE_F2,
                                 "--set", str(sfile))
        assert code == 0 and payload["holds"]

    def test_support_failure_exits_one_with_holds(self, capsys, tmp_path):
        # a constant module meets the covering condition for {(0, 0)}, but
        # it is non-zero at the bottom corner, outside the upset of the set
        steps = [{"from": p, "axis": axis, "matrix": [[1]]}
                 for p, axis in (([0, 0], 1), ([0, 0], 2), ([0, 1], 1), ([1, 0], 2))]
        module = tmp_path / "constant.json"
        module.write_text(json.dumps({"field": {"kind": "prime", "p": 2}, "n": 2,
                                      "box": {"a": [0, 0], "b": [1, 1]},
                                      "dims": [1, 1, 1, 1], "maps": steps}), encoding="utf-8")
        for extra in ([], ["--oracle"]):
            code, payload = run_json(capsys, "determinacy", str(module), "--set", "[[0,0]]",
                                     *extra)
            assert code == 1
            assert payload["holds"] is True and payload["support_ok"] is False
            assert payload["witness"] is None


class TestArtifacts:
    def test_present_worked_example(self, capsys):
        for fixture in (EXAMPLE_F2, EXAMPLE_Q):
            code, payload = run_json(capsys, "present", fixture)
            assert code == 0
            assert payload["generators"] == [{"point": ["-inf", "-inf"],
                                              "multiplicity": 1}]
            assert payload["relations"] == [
                {"point": ["-inf", 1], "multiplicity": 1},
                {"point": [1, "-inf"], "multiplicity": 1},
            ]
            assert len(payload["rel_matrix"]) == 2

    def test_present_then_verify_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "pres.json"
        code, _, _ = run(capsys, "present", EXAMPLE_F2, "--out", str(out))
        assert code == 0
        code, payload = run_json(capsys, "verify", EXAMPLE_F2,
                                 "--presentation", str(out))
        assert code == 0 and payload["ok"] is True

    def test_encode_then_verify_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "enc.json"
        code, _, _ = run(capsys, "encode", EXAMPLE_F2, "--set", UNIT_SET,
                         "--out", str(out))
        assert code == 0
        code, payload = run_json(capsys, "verify", EXAMPLE_F2,
                                 "--encoding", str(out), "--set", UNIT_SET)
        assert code == 0 and payload["ok"] is True

    def test_encode_refusal_exit_one(self, capsys):
        code, payload = run_json(capsys, "encode", EXAMPLE_F2, "--set",
                                 '[["-inf","-inf"]]')
        assert code == 1
        assert payload["holds"] is False and payload["witness"]

    def test_births_deaths_on_module(self, capsys):
        code, payload = run_json(capsys, "births-deaths", EXAMPLE_F2)
        assert code == 0
        assert payload["births"] == [{"point": ["-inf", "-inf"], "multiplicity": 1}]
        assert payload["deaths"] == [{"point": ["-inf", 1], "multiplicity": 1},
                                     {"point": [1, "-inf"], "multiplicity": 1}]

    def test_births_deaths_on_diagram_file(self, capsys, tmp_path):
        from detmod import Box, PrimeField, window_module
        from detmod.io import canonical_dumps, diagram_to_json
        from helpers import halfplane_table

        diag = window_module(PrimeField(2), Box((-2, -2), (2, 2)), halfplane_table)
        f = tmp_path / "halfplane.json"
        f.write_text(canonical_dumps(diagram_to_json(diag)), encoding="utf-8")
        code, payload = run_json(capsys, "births-deaths", str(f))
        assert code == 0
        deaths = {tuple(e["point"]) for e in payload["deaths"]}
        assert {(-1, 1), (0, 0), (1, -1)} <= deaths

    @pytest.mark.parametrize("fixture", [EXAMPLE_F2, EXAMPLE_Q, ZERO], ids=["f2", "q", "zero"])
    def test_births_deaths_of_the_encoding_file_match_the_module(self, capsys, tmp_path,
                                                                 fixture):
        """The scan of a module and the scan of the diagram file that
        ``encode`` writes print the same bytes, on the canonical set (a
        product) and on a lattice that is not one."""
        from detmod import canonical_set, join_closure, point_sort_key
        from detmod.extgrid import as_product
        from detmod.io import encode_point, module_from_json

        module = module_from_json(json.loads(Path(fixture).read_text(encoding="utf-8")))
        canonical = canonical_set(module)
        lattice = join_closure(canonical | {tuple(v + 1 for v in module.box.b)})
        assert as_product(canonical) is not None and as_product(lattice) is None
        encoding = str(tmp_path / "encoding.json")
        for s in (canonical, lattice):
            points = json.dumps([encode_point(p) for p in sorted(s, key=point_sort_key)])
            assert run(capsys, "encode", fixture, "--set", points, "--out", encoding)[0] == 0
            assert run(capsys, "births-deaths", encoding) == \
                run(capsys, "births-deaths", fixture, "--set", points)

    def test_births_deaths_on_non_commuting_diagram_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "top_square.json"
        f.write_text(json.dumps({
            "field": {"kind": "prime", "p": 2}, "n": 2,
            "points": [[0, 0], [0, 1], [1, 0], [1, 1]], "dims": [1, 1, 1, 1],
            "maps": [{"from": [0, 0], "to": [0, 1], "matrix": [[1]]},
                     {"from": [0, 0], "to": [1, 0], "matrix": [[1]]},
                     {"from": [0, 1], "to": [1, 1], "matrix": [[1]]}]}), encoding="utf-8")
        code, out, err = run(capsys, "births-deaths", str(f))
        assert code == 2 and out == ""
        assert "diagram does not validate: square does not commute" in err

    def test_chains_that_share_no_square_are_checked(self, capsys, tmp_path):
        """The chains (0,0) -> (2,0) -> (2,1) and (0,0) -> (0,1) -> (1,1) ->
        (2,1) compose to 0 and 1 but share no minimal square."""
        f = tmp_path / "square_free.json"
        f.write_text(json.dumps({
            "field": {"kind": "prime", "p": 2}, "n": 2,
            "points": [[0, 0], [2, 0], [0, 1], [1, 1], [2, 1]], "dims": [1] * 5,
            "maps": [{"from": [0, 0], "to": [2, 0], "matrix": [[1]]},
                     {"from": [0, 0], "to": [0, 1], "matrix": [[1]]},
                     {"from": [0, 1], "to": [1, 1], "matrix": [[1]]},
                     {"from": [1, 1], "to": [2, 1], "matrix": [[1]]}]}), encoding="utf-8")
        code, payload = run_json(capsys, "validate", str(f))
        assert code == 1 and payload["ok"] is False
        assert payload["square"] == [[0, 0], [1, 1], [2, 0], [2, 1]]
        code, out, err = run(capsys, "births-deaths", str(f))
        assert code == 2 and out == ""
        assert "diagram does not validate: square does not commute" in err
        code, out, err = run(capsys, "present", str(f))
        assert code == 2 and out == ""

    def test_verify_requires_exactly_one_artifact(self, capsys):
        code, out, err = run(capsys, "verify", EXAMPLE_F2)
        assert code == 2


def _present_to(capsys, module, path, change=None):
    """Run present into ``path``, then apply ``change`` to the parsed file."""
    code, _, _ = run(capsys, "present", module, "--out", str(path))
    assert code == 0
    if change is not None:
        obj = json.loads(path.read_text(encoding="utf-8"))
        change(obj)
        path.write_text(json.dumps(obj), encoding="utf-8")


class TestCertificate:
    def test_every_fixture_verifies_with_and_without_images(self, capsys, tmp_path):
        for fixture in sorted((REPO / "fixtures").glob("*.json")):
            out = tmp_path / "pres.json"
            _present_to(capsys, str(fixture), out)
            assert "generator_images" in json.loads(out.read_text(encoding="utf-8"))
            code, payload = run_json(capsys, "verify", str(fixture), "--presentation", str(out))
            assert code == 0 and payload["ok"] is True, fixture.name
            _present_to(capsys, str(fixture), out, lambda obj: obj.pop("generator_images"))
            code, payload = run_json(capsys, "verify", str(fixture), "--presentation", str(out))
            assert code == 0 and payload["ok"] is True, fixture.name

    def test_dropped_relation_with_images_kept_fails_at_a_point(self, capsys, tmp_path):
        out = tmp_path / "pres.json"

        def drop_last_relation(obj):
            dropped = obj["relations"].pop()
            obj["rel_matrix"] = [b for b in obj["rel_matrix"]
                                 if b["relation"] != dropped["point"]]
        _present_to(capsys, EXAMPLE_Q, out, drop_last_relation)
        code, payload = run_json(capsys, "verify", EXAMPLE_Q, "--presentation", str(out))
        assert code == 1 and payload["ok"] is False and payload["point"] is not None

    def test_zero_image_column_fails_at_a_point(self, capsys, tmp_path):
        out = tmp_path / "pres.json"

        def zero_first_column(obj):
            images = obj["generator_images"][0]["images"]
            for row in images:
                row[0] = 0
        _present_to(capsys, EXAMPLE_Q, out, zero_first_column)
        code, payload = run_json(capsys, "verify", EXAMPLE_Q, "--presentation", str(out))
        assert code == 1 and payload["ok"] is False
        assert payload["point"] == ["-inf", "-inf"]

    def test_stray_generator_far_outside_the_box_fails_at_its_point(self, capsys, tmp_path):
        out = tmp_path / "pres.json"

        def add_stray(obj):
            obj["generators"].append({"point": [50, 50], "multiplicity": 1})
            obj["generator_images"].append({"point": [50, 50], "images": []})
        _present_to(capsys, EXAMPLE_F2, out, add_stray)
        code, payload = run_json(capsys, "verify", EXAMPLE_F2, "--presentation", str(out))
        assert code == 1 and payload["ok"] is False and payload["point"] == [50, 50]
        assert payload["reason"] == "cokernel dimension 1 differs from module dimension 0"
        _present_to(capsys, EXAMPLE_F2, out, lambda obj: (add_stray(obj),
                                                          obj.pop("generator_images")))
        code, payload = run_json(capsys, "verify", EXAMPLE_F2, "--presentation", str(out))
        assert code == 1 and payload["point"] == [50, 50]

    def test_search_that_runs_out_is_null_and_exit_3(self, capsys, tmp_path, monkeypatch):
        import detmod.presentation

        module = tmp_path / "module.json"
        module.write_text(json.dumps({
            "field": {"kind": "rational"}, "n": 2, "box": {"a": [0, 0], "b": [1, 1]},
            "dims": [1, 1, 1, 1],
            "maps": [{"from": p, "axis": axis, "matrix": [[1]]}
                     for p, axis in (([0, 0], 1), ([0, 0], 2), ([1, 0], 2), ([0, 1], 1))]}),
            encoding="utf-8")
        pres = tmp_path / "pres.json"
        _present_to(capsys, str(module), pres, lambda obj: obj.pop("generator_images"))
        encoding = tmp_path / "enc.json"
        code, _, _ = run(capsys, "encode", str(module), "--set", UNIT_SET, "--out", str(encoding))
        assert code == 0
        obj = json.loads(encoding.read_text(encoding="utf-8"))
        for entry in obj["maps"]:  # scale the top space by 2: isomorphic, not equal
            if entry["to"] == [1, 1]:
                entry["matrix"] = [[2]]
        encoding.write_text(json.dumps(obj), encoding="utf-8")
        verify_pres = ("verify", str(module), "--presentation", str(pres))
        verify_enc = ("verify", str(module), "--encoding", str(encoding), "--set", UNIT_SET)
        for argv in (verify_pres, verify_enc):
            code, payload = run_json(capsys, *argv)
            assert code == 0 and payload["ok"] is True
        monkeypatch.setattr(detmod.presentation, "_find_isomorphism",
                            lambda *args, **kwargs: None)
        for argv in (verify_pres, verify_enc):
            code, out, err = run(capsys, *argv)
            assert code == 3 and err == "" and '"ok": null' in out
            assert json.loads(out)["ok"] is None

    def test_non_isomorphic_over_q_with_equal_dimensions_is_certified(self, capsys, tmp_path):
        """The chain [0,2]+[0,0]+[1,1]+[2,2] against [0,1]+[0,0]+[1,2]+[2,2]:
        equal dimensions and cover ranks, no exhaustive search over Q, and
        unequal Hom dimensions certify the failure (exit 1, not 3)."""
        module = tmp_path / "module.json"
        module.write_text(json.dumps({
            "field": {"kind": "rational"}, "n": 1, "box": {"a": [0], "b": [2]},
            "dims": [2, 2, 2],
            "maps": [{"from": [p], "axis": 1, "matrix": [[1, 0], [0, 0]]} for p in (0, 1)]}),
            encoding="utf-8")

        def perturb(obj):  # the relation at 2 kills the first generator, not the one at 1
            obj.pop("generator_images")
            moved = {"relation": [2], "generator": ["-inf"], "block": [[1], [0]]}
            obj["rel_matrix"] = [e for e in obj["rel_matrix"] if e["relation"] != [2]] + [moved]
        pres = tmp_path / "pres.json"
        _present_to(capsys, str(module), pres, perturb)
        chain_set = '[["-inf"],[0],[1],[2]]'
        encoding = tmp_path / "enc.json"
        code, _, _ = run(capsys, "encode", str(module), "--set", chain_set,
                         "--out", str(encoding))
        assert code == 0
        obj = json.loads(encoding.read_text(encoding="utf-8"))
        for entry in obj["maps"]:
            if entry["to"] == [2]:
                entry["matrix"] = [[0, 0], [0, 1]]
        encoding.write_text(json.dumps(obj), encoding="utf-8")
        code, payload = run_json(capsys, "verify", str(module), "--presentation", str(pres))
        assert code == 1 and payload == {
            "ok": False, "point": None, "reason": "structure maps do not match the module"}
        code, payload = run_json(capsys, "verify", str(module), "--encoding", str(encoding),
                                 "--set", chain_set)
        assert code == 1 and payload == {"ok": False}

    def test_image_at_non_generator_is_input_error(self, capsys, tmp_path):
        out = tmp_path / "pres.json"
        _present_to(capsys, EXAMPLE_F2, out, lambda obj: obj["generator_images"].append(
            {"point": [1, 1], "images": [[1]]}))
        code, _, err = run(capsys, "verify", EXAMPLE_F2, "--presentation", str(out))
        assert code == 2 and "not a generator" in err

    def test_image_with_wrong_column_count_is_input_error(self, capsys, tmp_path):
        out = tmp_path / "pres.json"

        def widen(obj):
            for row in obj["generator_images"][0]["images"]:
                row.append(0)
        _present_to(capsys, EXAMPLE_F2, out, widen)
        code, _, err = run(capsys, "verify", EXAMPLE_F2, "--presentation", str(out))
        assert code == 2 and "error" in err


class TestAdmissible:
    def test_admissible_lattice(self, capsys):
        code, payload = run_json(capsys, "admissible", EXAMPLE_F2,
                                 "--lattice", UNIT_SET)
        assert code == 0 and payload["admissible"] is True

    def test_inadmissible_lattice(self, capsys):
        code, payload = run_json(capsys, "admissible", EXAMPLE_F2,
                                 "--lattice", "[[0,0]]")
        assert code == 1 and payload["admissible"] is False


class TestProject:
    def test_worked_values(self, capsys):
        code, payload = run_json(capsys, "project",
                                 "--box", '{"a":[0,0],"b":[1,1]}',
                                 "--points", "[[-3,5]]")
        assert code == 0 and payload["identity_holds"]
        row = payload["rows"][0]
        assert row["join_below"] == ["-inf", 1]
        assert row["extended_projection"] == [0, 1]
        assert row["convex_projection"] == [0, 1]

    def test_points_in_box_are_fixed(self, capsys):
        code, payload = run_json(capsys, "project",
                                 "--box", '{"a":[0,0],"b":[1,1]}',
                                 "--points", "[[0,0],[1,1]]")
        assert code == 0
        for row in payload["rows"]:
            assert row["point"] == row["join_below"] == row["convex_projection"]

    def test_full_window_sweep(self, capsys):
        pts = [[x, y] for x in range(-3, 4) for y in range(-3, 4)]
        code, payload = run_json(capsys, "project",
                                 "--box", '{"a":[-1,0],"b":[1,1]}',
                                 "--points", json.dumps(pts))
        assert code == 0 and payload["identity_holds"]

    def test_bottom_points_have_no_clamp(self, capsys):
        code, payload = run_json(capsys, "project",
                                 "--box", '{"a":[0,0],"b":[1,1]}',
                                 "--points", '[["-inf",5]]')
        assert code == 0
        assert payload["rows"][0]["convex_projection"] is None


class TestDeterminism:
    def test_identical_bytes(self, capsys):
        _, out1, _ = run(capsys, "present", EXAMPLE_F2)
        _, out2, _ = run(capsys, "present", EXAMPLE_F2)
        assert out1 == out2
        _, out3, _ = run(capsys, "determinacy", EXAMPLE_F2, "--set", UNIT_SET)
        _, out4, _ = run(capsys, "determinacy", EXAMPLE_F2, "--set", UNIT_SET)
        assert out3 == out4

    def test_fixture_outputs_match_golden_files(self, capsys):
        for fixture in sorted((REPO / "fixtures").glob("*.json")):
            for verb in ("present", "births-deaths"):
                golden = GOLDEN / f"{fixture.stem}.{verb}.json"
                code, out, err = run(capsys, verb, str(fixture))
                assert code == 0 and err == ""
                assert out == golden.read_text(encoding="utf-8"), golden.name

    def test_determinacy_and_encode_match_golden_files(self, capsys):
        """One determining and one failing set per fixture; a failing set
        pins its witness, and the exit code follows the verdict."""
        sets = sorted((GOLDEN / "sets").glob("*.json"))
        assert [s.stem for s in sets] == ["determining", "failing"]
        witnesses = 0
        for fixture in sorted((REPO / "fixtures").glob("*.json")):
            for sfile in sets:
                for name, argv in (("determinacy", ["determinacy"]),
                                   ("determinacy-oracle", ["determinacy", "--oracle"]),
                                   ("encode", ["encode"])):
                    golden = GOLDEN / f"{fixture.stem}.{name}.{sfile.stem}.json"
                    code, out, err = run(capsys, *argv, str(fixture), "--set", str(sfile))
                    assert err == ""
                    assert out == golden.read_text(encoding="utf-8"), golden.name
                    payload = json.loads(out)
                    holds = payload.get("holds", True) and payload.get("support_ok") is not False
                    assert code == (0 if holds else 1), golden.name
                    witnesses += payload.get("witness") is not None
        assert witnesses > 0


class TestParser:
    def test_main_builds_only_the_chosen_verb(self, monkeypatch, tmp_path, capsys):
        """A canonical call builds no parser; a malformed one only its verb's."""
        import detmod.cli as cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda verb=None: built.append(verb) or real(verb))
        out = str(tmp_path / "report.json")
        assert main(["determinacy", EXAMPLE_F2, "--set", UNIT_SET, "--out", out]) == 0
        assert built == []
        with pytest.raises(SystemExit):
            main(["determinacy", EXAMPLE_F2, "--set", "--out", out])
        assert "expected one argument" in capsys.readouterr().err
        assert built == ["determinacy"]
        parser = real("determinacy")
        assert list(parser._subparsers._group_actions[0].choices) == ["determinacy"]

    def test_canonical_call_imports_no_argparse(self, tmp_path):
        """``python -m detmod.cli`` on canonical argv never imports argparse."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))

        def imported(*argv):
            proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "detmod.cli",
                                   *argv], cwd=REPO, env=env, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            return {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}

        assert "argparse" not in imported("validate", "fixtures/example_f2.json")
        out = str(tmp_path / "report.json")
        assert "argparse" in imported("validate", "fixtures/example_f2.json", f"--out={out}")

    def test_canonical_argv_is_read_off_the_table(self):
        argvs = [["validate", EXAMPLE_F2],
                 ["determinacy", EXAMPLE_F2, "--set", UNIT_SET, "--oracle"],
                 ["determinacy", "--set", "s.json", EXAMPLE_F2, "--out", "r.json"],
                 ["encode", EXAMPLE_F2, "--set", UNIT_SET],
                 ["births-deaths", EXAMPLE_F2, "--set", "a", "--set", "b"],
                 ["present", EXAMPLE_F2],
                 ["verify", EXAMPLE_F2, "--presentation", "p.json"],
                 ["verify", EXAMPLE_F2, "--encoding", "e.json", "--set", ""],
                 ["admissible", EXAMPLE_F2, "--lattice", "[]"],
                 ["project", "--box", "{}", "--points", "[]"]]
        for argv in argvs:
            args = _parse_canonical(argv)
            assert args is not None, argv
            assert vars(args) == vars(build_parser(argv[0]).parse_args(argv)), argv

    @settings(max_examples=400, deadline=None)
    @given(argv=argvs())
    def test_table_parse_agrees_with_argparse(self, argv):
        """(a) a table namespace is argparse's namespace; (b) argparse exits => None."""
        args = _parse_canonical(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                expected = build_parser(argv[0] if argv else None).parse_args(argv)
        except SystemExit:
            assert args is None
        else:
            assert args is None or vars(args) == vars(expected)

    def test_single_verb_parser_parses_like_the_full_one(self):
        argvs = [["determinacy", EXAMPLE_F2, "--set", UNIT_SET, "--oracle"],
                 ["encode", EXAMPLE_F2, "--set", UNIT_SET],
                 ["verify", EXAMPLE_F2, "--presentation", "p.json"],
                 ["project", "--box", "{}", "--points", "[]"]]
        for argv in argvs:
            assert vars(build_parser(argv[0]).parse_args(argv)) == \
                vars(build_parser().parse_args(argv))
        assert build_parser("encode").format_usage() == build_parser().format_usage()
        assert build_parser("nonsense").format_help() == build_parser().format_help()

    def test_usage_errors_read_as_with_the_full_parser(self, capsys):
        for argv in (["determinacy", EXAMPLE_F2, "--set", UNIT_SET, "--bogus"],
                     ["encode", EXAMPLE_F2]):
            messages = []
            for parser in (build_parser(argv[0]), build_parser()):
                with pytest.raises(SystemExit):
                    parser.parse_args(argv)
                messages.append(capsys.readouterr().err)
            assert messages[0] == messages[1]
        for argv in (["determinacy", EXAMPLE_F2, "--set"],
                     ["nonsense", EXAMPLE_F2],
                     ["determinacy", "--help"],
                     []):
            results = []
            for parse in (main, build_parser().parse_args):
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                results.append((exc.value.code, *capsys.readouterr()))
            assert results[0] == results[1], argv
            assert results[0][0] in (0, 2)

    def test_other_spellings_write_the_canonical_report(self, tmp_path):
        def report(*argv):
            out = tmp_path / "report.json"
            main([*argv, "--out", str(out)])
            return out.read_bytes()

        failing = str(GOLDEN / "sets" / "failing.json")
        assert report("determinacy", EXAMPLE_F2, f"--set={failing}") == \
            report("determinacy", EXAMPLE_F2, "--set", failing)
        pres = str(tmp_path / "pres.json")
        assert main(["present", EXAMPLE_F2, "--out", pres]) == 0
        assert report("verify", EXAMPLE_F2, "--pres", pres) == \
            report("verify", EXAMPLE_F2, "--presentation", pres)

    def test_options_do_not_carry_over(self, capsys):
        failing = str(GOLDEN / "sets" / "failing.json")
        plain = ["determinacy", EXAMPLE_F2, "--set", failing]
        expected = run(capsys, *plain)
        assert expected[0] == 1
        out = run(capsys, *plain, "--oracle")[1]
        assert json.loads(out)["method"] == "oracle"
        assert run(capsys, *plain) == expected


class TestIgnoredOptions:
    """An option the chosen mode would ignore is an input error naming it."""

    def refused(self, capsys, option, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"detmod: error: {option} applies only"), err

    def test_set_with_presentation(self, capsys, tmp_path):
        pres = str(tmp_path / "pres.json")
        assert run(capsys, "present", EXAMPLE_F2, "--out", pres)[0] == 0
        self.refused(capsys, "--set", "verify", EXAMPLE_F2, "--presentation", pres,
                     "--set", UNIT_SET)

    def test_set_with_diagram_file(self, capsys, tmp_path):
        enc = str(tmp_path / "enc.json")
        assert run(capsys, "encode", EXAMPLE_F2, "--set", UNIT_SET, "--out", enc)[0] == 0
        self.refused(capsys, "--set", "births-deaths", enc, "--set", UNIT_SET)
