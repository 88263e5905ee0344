"""Every reader, fed mutated input, keeps the exit-code contract.

Valid module, point-set, diagram and presentation JSON comes from the
fixtures, one twisted module with maps and fractions, and one module of one
parameter.  One input of a
call is mutated once, the call runs ``cli.main`` in process, and then: the
exit code is 0, 1 or 2 (``verify`` may also answer 3, inconclusive); exit 2
writes exactly one stderr line, starting ``detmod: error:``, and the others
write none; nothing raises; and each call takes at most ``CPU_BUDGET_S`` of
process CPU.  Some mutations keep the input well formed, so
that at least a quarter of the runs reach a verdict (exit 0 or 1).  No
mutation makes a size larger; one sets a dimension to 10^30, above the
readers' bound.
"""

import collections
import contextlib
import functools
import io
import json
import random
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detmod import (Box, QQ, build_presentation, canonical_set, encode,
                    sort_points)
from detmod import io as dio
from detmod.cli import main
from helpers import F5, random_module

REPO = Path(__file__).resolve().parent.parent
SETS = REPO / "tests" / "golden" / "sets"

# one call per reader route; the names stand for the inputs of a base
JOBS = [
    ("validate", "module"),
    ("validate", "diagram"),
    ("determinacy", "module", "--set", "set"),
    ("births-deaths", "module"),
    ("births-deaths", "module", "--set", "set"),
    ("births-deaths", "diagram"),
    ("present", "module"),
    ("present", "module", "--set", "set"),
    ("verify", "module", "--presentation", "presentation"),
    ("verify", "module", "--encoding", "diagram", "--set", "set"),
    ("determinacy", "module", "--set", "set", "--oracle"),
    ("encode", "module", "--set", "set"),
    ("admissible", "module", "--lattice", "set"),
]
RUNS = 200
# ten times the slowest of the 200 calls when the budget was set (4.2 ms of
# process CPU on Python 3.11), raised to the floor of one second
CPU_BUDGET_S = 1.0


@functools.lru_cache(maxsize=None)
def bases() -> tuple:
    """Valid inputs that go together: a module, a point set, the module's
    encoding on that set, and its presentation."""
    modules = [json.loads((REPO / "fixtures" / name).read_text(encoding="utf-8"))
               for name in ("example_f2.json", "example_q.json")]
    modules.append(dio.module_to_json(random_module(QQ, random.Random(18))))
    # one parameter: no step lies on a square, so a dropped map leaves it valid
    modules.append(dio.module_to_json(random_module(F5, random.Random(0), box=Box((0,), (3,)))))
    determining = json.loads((SETS / "determining.json").read_text(encoding="utf-8"))
    out = []
    for obj in modules:
        module = dio.module_from_json(obj)
        pts = determining if module.box.dim == 2 and module.box.a == (0, 0) \
            else [dio.encode_point(p) for p in sort_points(canonical_set(module))]
        s = dio.pointset_from_json(pts, dim=module.box.dim)
        out.append({"module": obj, "set": pts,
                    "diagram": dio.diagram_to_json(encode(module, s)),
                    "presentation": dio.presentation_to_json(build_presentation(module, s))})
    return tuple(out)


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _paths(obj, path=()):
    """The path to every value inside ``obj``, the root's included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


# a value of each JSON type; none is a large number
_VALUES = [None, True, "x", 1.5, 0, [], {}]
_SENTINEL = "\0mutated\0"
_INVALID_BYTES = [b"\xff", b"\xc3", b"\xed\xa0\x80"]


@st.composite
def mutated(draw, obj) -> bytes:
    """``obj`` as JSON bytes with one mutation: a key or an item dropped, a
    value retyped, the text truncated, bytes that are not UTF-8 inserted, a
    value nested deeper, or a value replaced by an integer of 5,000 digits.
    Or, drawn more often, one that keeps it well formed: a point of a set
    dropped or added, an entry of ``maps`` or the ``generator_images``
    dropped, or one entry of ``dims`` set to 10^30."""
    obj = json.loads(json.dumps(obj))
    kinds = ["drop", "retype", "truncate", "bytes", "deep", "digits"]
    if isinstance(obj, list):
        kinds += ["point"] * 20
    else:
        for key, weight in (("maps", 10), ("generator_images", 10), ("dims", 2)):
            kinds += [key] * weight if obj.get(key) else []
    kind = draw(st.sampled_from(kinds))
    if kind == "point":
        if draw(st.booleans()):
            del obj[draw(st.integers(0, len(obj) - 1))]
        else:
            point = list(draw(st.sampled_from(obj)))
            point[draw(st.integers(0, len(point) - 1))] = draw(
                st.sampled_from(["-inf", -1, 0, 1, 2, 3]))
            obj.append(point)
        return json.dumps(obj).encode()
    if kind == "generator_images":
        del obj[kind]
        return json.dumps(obj).encode()
    if kind in ("maps", "dims"):
        entries = obj[kind]
        at = draw(st.integers(0, len(entries) - 1))
        if kind == "maps":
            del entries[at]
        else:
            entries[at] = 10 ** 30
        return json.dumps(obj).encode()
    if kind in ("truncate", "bytes"):
        text = json.dumps(obj).encode()
        cut = draw(st.integers(0, len(text) - 1))
        return text[:cut] if kind == "truncate" else \
            text[:cut] + draw(st.sampled_from(_INVALID_BYTES)) + text[cut:]
    if kind == "drop":
        path = draw(st.sampled_from([p for p in _paths(obj)
                                     if isinstance(_at(obj, p), (dict, list)) and _at(obj, p)]))
        node = _at(obj, path)
        del node[draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                      else range(len(node))))]
        return json.dumps(obj).encode()
    path = draw(st.sampled_from(list(_paths(obj))))
    node = _at(obj, path)
    if kind == "retype":
        value = draw(st.sampled_from([v for v in _VALUES if type(v) is not type(node)]))
    else:
        value = _SENTINEL
    if path:
        _at(obj, path[:-1])[path[-1]] = value
    else:
        obj = value
    text = json.dumps(obj).encode()
    if kind == "retype":
        return text
    before, after = text.split(json.dumps(_SENTINEL).encode())
    if kind == "digits":
        return before + b"9" * 5000 + after
    depth = draw(st.sampled_from([2, 50, 100_000]))
    return before + b"[" * depth + json.dumps(node).encode() + b"]" * depth + after


@pytest.fixture(scope="module")
def tally() -> collections.Counter:
    """The exit codes of the runs, by code."""
    return collections.Counter()


@settings(max_examples=RUNS, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_contract(tally, data):
    base = data.draw(st.sampled_from(bases()))
    job = data.draw(st.sampled_from(JOBS))
    target = data.draw(st.sampled_from([t for t in job if t in base]))
    inline = data.draw(st.booleans())
    with tempfile.TemporaryDirectory() as tmp:
        argv = [job[0]]
        for i, token in enumerate(job[1:], 1):
            if token not in base:
                argv.append(token)
                continue
            blob = data.draw(mutated(base[token])) if token == target \
                else json.dumps(base[token]).encode()
            if inline and job[i - 1].startswith("--"):
                # argv carries bytes that are not UTF-8 as lone surrogates
                argv.append(blob.decode("utf-8", "surrogateescape"))
            else:
                path = Path(tmp) / f"{token}.json"
                path.write_bytes(blob)
                argv.append(str(path))
        argv += ["--out", str(Path(tmp) / "out.json")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.process_time()
            code = main(argv)
            spent = time.process_time() - start
    tally[code] += 1
    assert spent <= CPU_BUDGET_S, (argv, spent)
    assert code in ((0, 1, 2, 3) if job[0] == "verify" else (0, 1, 2))
    assert out.getvalue() == ""
    if code == 2:
        assert err.getvalue().startswith("detmod: error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


def test_a_quarter_of_the_runs_reach_a_verdict(tally):
    """The exit codes of the derandomized runs above, run again here when
    they did not all run before this test."""
    if sum(tally.values()) != RUNS:
        tally.clear()
        test_mutated_inputs_keep_the_exit_contract(tally)
    assert sum(tally.values()) == RUNS
    assert 4 * (tally[0] + tally[1]) >= RUNS, tally
