#!/usr/bin/env python3
"""End-to-end tour on the simplest interesting module.

The module is one-dimensional on every grid point below the origin and zero
elsewhere, stored on the box [(0,0),(1,1)].  The script decides determinacy
for the canonical four-point set at infinity, prints the encoding, the births
and deaths, and a verified finite presentation.

Usage: python scripts/worked_example.py [--field f2|q] [--dump-module PATH]
"""

import argparse
import json

from detmod import (Box, GridModule, PrimeField, QQ,
                    births_deaths, build_presentation, default_oracle_window,
                    encode, ext_box, is_S_determined, is_S_determined_oracle,
                    verify_presentation)
from detmod.io import (birth_death_to_json, canonical_dumps, module_to_json,
                       presentation_to_json)


def build_module(field):
    box = Box((0, 0), (1, 1))
    dims = {p: (1 if p == (0, 0) else 0) for p in box.integer_points()}
    return GridModule(field, box, dims, {})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--field", choices=("f2", "q"), default="f2")
    parser.add_argument("--dump-module", metavar="PATH",
                        help="also write the module file for use with the CLI")
    args = parser.parse_args()

    field = PrimeField(2) if args.field == "f2" else QQ
    module = build_module(field)
    if args.dump_module:
        with open(args.dump_module, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(module_to_json(module)))

    s = ext_box(Box((1, 1), (1, 1))).points()
    fast = is_S_determined(module, s)
    slow = is_S_determined_oracle(module, s, default_oracle_window(module.box, s))
    print(f"determined by the four points at infinity: {fast.determined} "
          f"(oracle agrees: {slow.determined == fast.determined})")

    diagram = encode(module, s)
    print("encoding dims:", {str(p): diagram.dims[p] for p in diagram.points})

    report = births_deaths(module, s)
    print("births/deaths:", json.dumps(birth_death_to_json(report)))

    pres = build_presentation(module, s)
    print("presentation:")
    print(canonical_dumps(presentation_to_json(pres)), end="")

    print("verified at every point of the extended grid:",
          bool(verify_presentation(module, pres)))


if __name__ == "__main__":
    main()
