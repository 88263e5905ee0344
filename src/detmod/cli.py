"""Command line front end.

Verbs: validate, determinacy, encode, births-deaths, present, verify,
admissible, project.  Inputs are the JSON formats documented in the README;
set/lattice/box/points options accept inline JSON or a file path.  Exit codes:
0 property holds or artifact produced, 1 property fails (the report carries a
witness), 2 malformed input, 3 inconclusive (``verify`` when its isomorphism
search runs out; the report says ``"ok": null``).  Output is deterministic
byte for byte.  An option that the chosen mode would ignore (``--set`` with
a presentation or a diagram file) is malformed input.

Each verb's arguments are declared once, in ``VERBS``.  ``main`` reads argv
in the canonical spellings straight off that table; help, usage errors and
every other spelling go to the argparse parser that ``build_parser`` makes
from the same table.  So a well-formed call neither builds a parser nor
imports argparse, and argparse alone writes help and error messages.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import io as dio
from .errors import CommutativityError, InputError, NotDeterminedError
from .extgrid import NEG_INF, convex_projection, extended_projection, is_integral, \
    meet_above, sort_points
from .determinacy import (canonical_grid, check_encoding, default_oracle_window, encode,
                          is_S_determined, is_S_determined_oracle)
from .linalg import DiagramCheck, validate_diagram
from .presentation import (births_deaths, build_presentation,
                           diagram_births_deaths, is_admissible,
                           verify_presentation)

PROG = "detmod"


def _parse_json(where: str, text: str | None = None, path: str | None = None):
    """JSON from ``text``, or else from the strict UTF-8 bytes of the file at
    ``path``.  Bytes that are not UTF-8, overlong integers and nesting past
    the recursion limit are malformed input, as syntax errors are."""
    try:
        if text is None:
            with open(path, "rb", buffering=0) as fh:
                text = fh.read().decode("utf-8")
            if "\r" in text:  # so a syntax error is placed as in a text file
                text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{where}{exc}") from exc


def _read_json_arg(value: str):
    """Inline JSON when the value looks like JSON, otherwise a file path."""
    text = value.strip()
    return _parse_json(f"invalid JSON in {value!r}: ",
                       text if text.startswith(("[", "{")) else None, value)


def _read_input(path: str):
    return _parse_json(f"{path}: invalid JSON: ", path=path)


def _emit(payload, out_path: str | None) -> None:
    text = dio.canonical_dumps(payload)
    if out_path:
        with open(out_path, "wb") as fh:
            fh.write(text.encode())
    else:
        sys.stdout.write(text)


def _load_module(path: str):
    obj = _read_input(path)
    if dio.detect_kind(obj) != "module":
        raise InputError(f"{path}: expected a module file (with a \"box\" key)")
    return dio.module_from_json(obj)


def _module_and_set(args, obj=None) -> tuple:
    """The module of the file ``args.input`` (or of its JSON ``obj``, when
    read already) and the set of ``--set``: the module's ``canonical_grid``
    when the option is left out.  The module is read and checked, and then
    the set read, in that order."""
    module = _load_module(args.input) if obj is None else dio.module_from_json(obj)
    if args.set is None:
        return module, canonical_grid(module)
    return module, dio.pointset_from_json(_read_json_arg(args.set), dim=module.box.dim)


def _cmd_validate(args) -> int:
    obj = _read_input(args.input)
    kind = dio.detect_kind(obj)
    if kind == "module":
        try:
            dio.module_from_json(obj)
            check = DiagramCheck(True)
        except CommutativityError as exc:
            check = DiagramCheck(False, "square does not commute", exc.square)
    elif kind == "diagram":
        check = validate_diagram(dio.diagram_from_json(obj))
    else:
        raise InputError("validate expects a module or diagram file")
    payload = {"ok": check.ok}
    if not check.ok:
        payload["message"] = check.message
        payload["square"] = [dio.encode_point(p) for p in check.square] if check.square else None
    _emit(payload, args.out)
    return 0 if check.ok else 1


def _refuse(option: str, given: bool, mode: str) -> None:
    """An option the chosen mode would ignore is malformed input."""
    if given:
        raise InputError(f"{option} applies only {mode}")


def _cmd_determinacy(args) -> int:
    module, s = _module_and_set(args)
    if args.oracle:
        report = is_S_determined_oracle(module, s, default_oracle_window(module.box, s))
    else:
        report = is_S_determined(module, s)
    _emit(dio.determinacy_report_to_json(report), args.out)
    return 0 if report.determined else 1


def _cmd_encode(args) -> int:
    _emit(dio.diagram_to_json(encode(*_module_and_set(args))), args.out)
    return 0


def _cmd_births_deaths(args) -> int:
    obj = _read_input(args.input)
    kind = dio.detect_kind(obj)
    if kind == "diagram":
        _refuse("--set", args.set is not None, "to a module file")
        report = diagram_births_deaths(dio.diagram_from_json(obj))
    elif kind == "module":
        report = births_deaths(*_module_and_set(args, obj))
    else:
        raise InputError("births-deaths expects a module or diagram file")
    _emit(dio.birth_death_to_json(report), args.out)
    return 0


def _cmd_present(args) -> int:
    _emit(dio.presentation_to_json(build_presentation(*_module_and_set(args))), args.out)
    return 0


def _cmd_verify(args) -> int:
    module = _load_module(args.input)
    if bool(args.presentation) == bool(args.encoding):
        raise InputError("verify needs exactly one of --presentation or --encoding")
    if args.presentation:
        _refuse("--set", args.set is not None, "with --encoding")
        pres = dio.presentation_from_json(_read_json_arg(args.presentation))
        check = verify_presentation(module, pres)
        _emit(dio.presentation_check_to_json(check), args.out)
        return 3 if check.ok is None else 0 if check.ok else 1
    if args.set is None:
        raise InputError("verify --encoding also needs --set")
    diagram = dio.diagram_from_json(_read_json_arg(args.encoding))
    s = dio.pointset_from_json(_read_json_arg(args.set), dim=module.box.dim)
    ok = check_encoding(module, s, diagram)
    _emit({"ok": ok}, args.out)
    return 3 if ok is None else 0 if ok else 1


def _cmd_admissible(args) -> int:
    module = _load_module(args.input)
    lattice = dio.pointset_from_json(_read_json_arg(args.lattice), dim=module.box.dim)
    verdict = is_admissible(module, lattice)
    _emit({"admissible": verdict}, args.out)
    return 0 if verdict else 1


def _cmd_project(args) -> int:
    box = dio.box_from_json(_read_json_arg(args.box))
    points = sort_points(dio.pointset_from_json(_read_json_arg(args.points), dim=box.dim))
    rows = []
    identity_holds = True
    for c in points:
        # the join of the extended box below c, read per axis off the corners
        a = tuple(NEG_INF if v < lo else min(v, hi) for v, lo, hi in zip(c, box.a, box.b))
        ba = meet_above(box, a)
        row = {
            "point": dio.encode_point(c),
            "join_below": dio.encode_point(a),
            "extended_projection": dio.encode_point(ba),
        }
        if is_integral(c):
            pi = convex_projection(box, c)
            row["convex_projection"] = dio.encode_point(pi)
            if pi != ba or ba != extended_projection(box, c):
                identity_holds = False
        else:
            row["convex_projection"] = None
        rows.append(row)
    _emit({"rows": rows, "identity_holds": identity_holds}, args.out)
    return 0 if identity_holds else 1


class Option(NamedTuple):
    """One ``--name`` option of a verb: a string, or a flag (``bool``)."""
    name: str
    dest: str
    kind: type = str
    required: bool = False
    help: str | None = None


class Verb(NamedTuple):
    """A verb's command, help line, positional names and options, in argparse order."""
    run: Callable
    help: str
    positionals: tuple
    options: tuple


_OUT = Option("--out", "out", help="write the JSON report here instead of stdout")

# Every verb's arguments, declared once: ``build_parser`` adds them to
# argparse in this order, and ``_parse_canonical`` reads canonical argv off
# the same entries.
VERBS = {
    "validate": Verb(_cmd_validate, "check shapes and commutativity", ("input",), (_OUT,)),
    "determinacy": Verb(
        _cmd_determinacy, "decide whether a set determines the module", ("input",),
        (_OUT,
         Option("--set", "set", required=True, help="point set, inline JSON or file"),
         Option("--oracle", "oracle", bool, help="use the brute-force window method"))),
    "encode": Verb(
        _cmd_encode, "emit the finite encoding diagram", ("input",),
        (_OUT, Option("--set", "set", required=True))),
    "births-deaths": Verb(
        _cmd_births_deaths, "locate births and deaths", ("input",),
        (_OUT, Option("--set", "set"))),
    "present": Verb(
        _cmd_present, "build a finite presentation", ("input",),
        (_OUT, Option("--set", "set"))),
    "verify": Verb(
        _cmd_verify, "verify an emitted presentation or encoding", ("input",),
        (_OUT,
         Option("--presentation", "presentation"),
         Option("--encoding", "encoding"),
         Option("--set", "set"))),
    "admissible": Verb(
        _cmd_admissible, "test a join-closed lattice for admissibility", ("input",),
        (_OUT, Option("--lattice", "lattice", required=True))),
    "project": Verb(
        _cmd_project, "tabulate the projection morphisms for a box", (),
        (_OUT, Option("--box", "box", required=True),
         Option("--points", "points", required=True))),
}

# per verb, made once: its options by name, their defaults and the required ones
_TABLES = {verb: ({opt.name: opt for opt in spec.options},
                  {opt.dest: False if opt.kind is bool else None for opt in spec.options},
                  [opt.dest for opt in spec.options if opt.required])
           for verb, spec in VERBS.items()}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The argparse parser of ``VERBS``; given a known ``verb``, with its subparser only.

    ``main`` calls it only for argv that ``_parse_canonical`` leaves alone
    (help, usage errors and other spellings), so argparse is imported here.
    The usage line lists every verb either way, and an unknown or missing
    verb gets the full parser, so help and error messages do not depend on
    which verb was named.
    """
    import argparse

    # the help text is the module docstring up to its note on parsing
    parser = argparse.ArgumentParser(prog=PROG, description=__doc__.rsplit("\n\n", 1)[0])
    if verb in VERBS:
        # a single-verb parser keeps the usage line of the full one
        names, metavar = [verb], "{" + ",".join(VERBS) + "}"
    else:
        names, metavar = list(VERBS), None
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name in names:
        spec = VERBS[name]
        p = sub.add_parser(name, help=spec.help)
        p.set_defaults(fn=spec.run)
        for positional in spec.positionals:
            p.add_argument(positional)
        for opt in spec.options:
            if opt.kind is bool:
                p.add_argument(opt.name, dest=opt.dest, action="store_true", help=opt.help)
            else:
                p.add_argument(opt.name, dest=opt.dest, required=opt.required, help=opt.help)
    return parser


def _parse_canonical(argv: list):
    """The namespace argparse would return for ``argv``, read off ``VERBS``; or None.

    Only canonical spellings are read: a known verb first, then exact
    ``--name value`` pairs and ``--flag``s, values and positionals that do
    not start with ``-``, every required option, and the verb's number of
    positionals.  A repeated option keeps its last value, as in argparse.
    Anything else (help, unknown or abbreviated options, ``--name=value``,
    ``--``, missing values) returns None and is left to argparse.
    """
    spec = VERBS.get(argv[0]) if argv else None
    if spec is None:
        return None
    by_name, defaults, required = _TABLES[argv[0]]
    values = dict(defaults)
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        opt = by_name.get(token)
        if opt is None:
            return None
        if opt.kind is bool:
            values[opt.dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        values[opt.dest] = value
    if len(positionals) != len(spec.positionals) or any(values[d] is None for d in required):
        return None
    values.update(zip(spec.positionals, positionals))
    return SimpleNamespace(verb=argv[0], fn=spec.run, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_canonical(argv)
    if args is None:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.fn(args)
    except NotDeterminedError as exc:
        payload = {"holds": False,
                   "witness": [dio.encode_point(exc.witness[0]), dio.encode_point(exc.witness[1])]}
        _emit(payload, getattr(args, "out", None))
        return 1
    except (InputError, OSError) as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
