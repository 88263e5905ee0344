#!/usr/bin/env python3
"""Scaling of ``births-deaths`` on identity chains and products of two of
them, and the linear algebra of ``births-deaths`` and ``present`` on swap chains.

The module is one-dimensional on every point of its box with identity
steps: the box [0, N - 1] for a chain, and for the two-parameter case a box
[0, a - 1] x [0, N // a - 1] of about N points with a = floor(sqrt(N)).
Its extension has one birth, at the bottom point, and no deaths, for every
N.  The script writes each module as a file, runs the CLI verb through
``detmod.cli.main`` in this process, checks that closed form, and prints the
CPU time of the call (the least of ``--repeat`` runs) and its ratio to the
previous size.  A linear scan grows about 2x per doubling; the check on the
output holds at any speed, so the script has no timing gate.

It also prints how many eliminations (``linalg._echelon`` calls) and matrix
products (``Matrix.__matmul__`` calls) one ``births-deaths`` call makes, how
many points its presentation walk visits (``presentation._walk``), and the
eliminations and products of one ``verify --presentation`` call on the
output of ``present``.  It fails when ``births-deaths`` makes any
elimination or product: every step is the identity, so determinacy settles
every cover without a rank and the presentation scan carries its images up
with no product and no lift elimination.  It fails when the walk visits
more than the bottom point, at any N: every coordinate above the bottom
repeats the one below it (a slab of identity steps), so the walk leaves it
out.  It fails when verify makes more than one elimination or any product:
the walk checks that the generator images span the module at the one
generator, at the bottom, and every other point has an identity step from
below and a kernel that does not grow.

Beside them it runs a swap chain of each size: two-dimensional on [0, N - 1]
with every step the swap of the two basis vectors, invertible but not the
identity.  Its extension has one birth of multiplicity two at the bottom
and no deaths.  Every step is onto, so no lift is taken above the bottom,
and no relation is born, so no evaluation map is formed: the script fails
when ``births-deaths`` or ``present`` makes any product there, or more
eliminations than the points its walk visits.  These are count gates, not
timing gates.

Usage: python scripts/chain_scaling.py [--sizes 50 100 200 400] [--fields f2 f5 q]
                                       [--repeat 3]
"""

import argparse
import json
import os
import sys
import tempfile
import time

from detmod import QQ, Box, GridModule, Matrix, PrimeField, linalg, presentation
from detmod import io as dio
from detmod.cli import main as cli_main

FIELDS = {"f2": PrimeField(2), "f5": PrimeField(5), "q": QQ}


def closed_form(nparams: int) -> dict:
    return {"births": [{"multiplicity": 1, "point": ["-inf"] * nparams}], "deaths": []}


def identity_module(field, sides: tuple) -> GridModule:
    """One-dimensional on the box [0, side - 1] per axis, every step the identity."""
    box = Box((0,) * len(sides), tuple(side - 1 for side in sides))
    dims = {p: 1 for p in box.integer_points()}
    steps = {(p, axis): Matrix.identity(field, 1) for p in dims
             for axis in range(len(sides)) if p[axis] < box.b[axis]}
    return GridModule(field, box, dims, steps)


def swap_module(field, n: int) -> GridModule:
    """Two-dimensional on the box [0, n - 1], every step the swap."""
    box = Box((0,), (n - 1,))
    swap = Matrix(field, [[0, 1], [1, 0]])
    return GridModule(field, box, {p: 2 for p in box.integer_points()},
                      {((i,), 0): swap for i in range(n - 1)})


def shapes(n: int) -> list:
    """The chain of n points and a product of two chains of about n points."""
    a = max(2, int(n ** 0.5))
    return [(n,), (a, max(2, n // a))]


def timed_births_deaths(path: str, out: str) -> float:
    start = time.process_time()
    code = cli_main(["births-deaths", path, "--out", out])
    elapsed = time.process_time() - start
    if code != 0:
        raise SystemExit(f"births-deaths exited {code} on {path}")
    return elapsed


def counted(argv: list) -> tuple:
    """(eliminations, matrix products, points walked) of one CLI call, which
    must exit 0."""
    counts = [0, 0, 0]
    echelon, matmul, walk = linalg._echelon, Matrix.__matmul__, presentation._walk

    def counted_echelon(*args, **kwargs):
        counts[0] += 1
        return echelon(*args, **kwargs)

    def counted_matmul(a, b):
        counts[1] += 1
        return matmul(a, b)

    def counted_walk(*args):
        for visit in walk(*args):
            counts[2] += 1
            yield visit
    linalg._echelon, Matrix.__matmul__ = counted_echelon, counted_matmul
    presentation._walk = counted_walk
    try:
        code = cli_main(argv)
    finally:
        linalg._echelon, Matrix.__matmul__, presentation._walk = echelon, matmul, walk
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code} on {argv[1]}")
    return tuple(counts)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 200, 400])
    parser.add_argument("--fields", nargs="+", choices=sorted(FIELDS), default=["f2", "f5"])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    if min(args.sizes) < 1 or args.repeat < 1:
        parser.error("sizes and --repeat must be positive")

    print(f"{'field':>5} {'shape':>9} {'points':>7} {'cpu_s':>8} {'ratio':>6} {'echelon':>7} "
          f"{'matmul':>6} {'walked':>6} {'verify_echelon':>14} {'verify_matmul':>13}")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        pres = os.path.join(tmp, "presentation.json")
        for name in args.fields:
            for nparams in (1, 2):
                previous = None
                for n in args.sizes:
                    sides = shapes(n)[nparams - 1]
                    label = "x".join(map(str, sides))
                    points = 1
                    for side in sides:
                        points *= side
                    path = os.path.join(tmp, f"identity_{name}_{label}.json")
                    with open(path, "w") as fh:
                        json.dump(dio.module_to_json(identity_module(FIELDS[name], sides)), fh)
                    eliminations, products, walked = counted(["births-deaths", path, "--out", out])
                    cpu = min(timed_births_deaths(path, out) for _ in range(args.repeat))
                    with open(out) as fh:
                        report = json.load(fh)
                    if report != closed_form(nparams):
                        raise SystemExit(f"{name} module on {label}: expected one birth at the "
                                         f"bottom and no deaths, got {report}")
                    counted(["present", path, "--out", pres])
                    checks, check_products, _ = counted(["verify", path, "--presentation", pres,
                                                         "--out", out])
                    ratio = f"{cpu / previous:6.2f}" if previous else f"{'':>6}"
                    print(f"{name:>5} {label:>9} {points:>7} {cpu:>8.3f} {ratio} {eliminations:>7} "
                          f"{products:>6} {walked:>6} {checks:>14} {check_products:>13}")
                    if eliminations or products:
                        raise SystemExit(f"{name} module on {label}: births-deaths made "
                                         f"{eliminations} eliminations and {products} products, "
                                         "expected none on identity steps")
                    if walked != 1:
                        raise SystemExit(f"{name} module on {label}: the presentation walk "
                                         f"visited {walked} points, expected the bottom point "
                                         "only at every size")
                    if checks > 1 or check_products:
                        raise SystemExit(f"{name} module on {label}: verify made {checks} "
                                         f"eliminations and {check_products} products, expected "
                                         "at most one elimination and no product")
                    previous = cpu
        print(f"{'field':>5} {'swap chain':>10} {'verb':>13} {'echelon':>7} {'matmul':>6} "
              f"{'walked':>6}")
        for name in args.fields:
            for n in args.sizes:
                path = os.path.join(tmp, f"swap_{name}_{n}.json")
                with open(path, "w") as fh:
                    json.dump(dio.module_to_json(swap_module(FIELDS[name], n)), fh)
                for verb, target in (("births-deaths", out), ("present", pres)):
                    eliminations, products, walked = counted([verb, path, "--out", target])
                    print(f"{name:>5} {n:>10} {verb:>13} {eliminations:>7} {products:>6} "
                          f"{walked:>6}")
                    if products or eliminations > walked:
                        raise SystemExit(f"{name} swap chain of {n} points: {verb} made "
                                         f"{eliminations} eliminations and {products} products "
                                         f"walking {walked} points, expected no product and "
                                         "at most one elimination per point")
                with open(out) as fh:
                    report = json.load(fh)
                expected = closed_form(1)
                expected["births"][0]["multiplicity"] = 2
                if report != expected:
                    raise SystemExit(f"{name} swap chain of {n} points: expected one birth of "
                                     f"multiplicity two at the bottom and no deaths, got {report}")
    print("every identity module has one birth at the bottom and no deaths, with no "
          "elimination or product and one point walked at every size; verify of its "
          "presentation makes at most one elimination and no product; every swap chain has "
          "one birth of multiplicity two at the bottom, and births-deaths and present make no "
          "product and at most one elimination per point walked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
