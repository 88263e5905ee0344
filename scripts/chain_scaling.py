#!/usr/bin/env python3
"""Scaling of ``births-deaths`` on one-parameter identity chains.

The module is one-dimensional on every point of the box [0, N - 1] with
identity steps.  Its extension has one birth, at -inf, and no deaths, for
every N.  The script writes each chain as a module file, runs the CLI verb
through ``detmod.cli.main`` in this process, checks that closed form, and
prints the CPU time of the call (the least of ``--repeat`` runs) and its
ratio to the previous size.  A linear scan grows about 2x per doubling; the
check on the output holds at any speed, so the script has no timing gate.

It also prints how many eliminations (``linalg._echelon`` calls) and matrix
products (``Matrix.__matmul__`` calls) one ``births-deaths`` call makes, and
one ``verify --presentation`` call on the output of ``present``.  It fails
when ``births-deaths`` makes any: every step of the chain is the identity,
so determinacy settles every cover without a rank and the presentation scan
carries its images up with no product and no lift elimination.  It fails
when verify makes more than one elimination or any product: the walk
checks that the generator images span the module at the one generator, at
-inf, and every other point has an identity step from below and a kernel
that does not grow.  These are count gates, not timing gates.

Usage: python scripts/chain_scaling.py [--sizes 50 100 200 400] [--fields f2 f5 q]
                                       [--repeat 3]
"""

import argparse
import json
import os
import sys
import tempfile
import time

from detmod import QQ, Box, GridModule, Matrix, PrimeField, linalg
from detmod import io as dio
from detmod.cli import main as cli_main

FIELDS = {"f2": PrimeField(2), "f5": PrimeField(5), "q": QQ}
CLOSED_FORM = {"births": [{"multiplicity": 1, "point": ["-inf"]}], "deaths": []}


def chain_module(field, n: int) -> GridModule:
    box = Box((0,), (n - 1,))
    dims = {(i,): 1 for i in range(n)}
    steps = {((i,), 0): Matrix.identity(field, 1) for i in range(n - 1)}
    return GridModule(field, box, dims, steps)


def timed_births_deaths(path: str, out: str) -> float:
    start = time.process_time()
    code = cli_main(["births-deaths", path, "--out", out])
    elapsed = time.process_time() - start
    if code != 0:
        raise SystemExit(f"births-deaths exited {code} on {path}")
    return elapsed


def counted(argv: list) -> tuple:
    """(eliminations, matrix products) of one CLI call, which must exit 0."""
    counts = [0, 0]
    echelon, matmul = linalg._echelon, Matrix.__matmul__

    def counted_echelon(*args, **kwargs):
        counts[0] += 1
        return echelon(*args, **kwargs)

    def counted_matmul(a, b):
        counts[1] += 1
        return matmul(a, b)
    linalg._echelon, Matrix.__matmul__ = counted_echelon, counted_matmul
    try:
        code = cli_main(argv)
    finally:
        linalg._echelon, Matrix.__matmul__ = echelon, matmul
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

    print(f"{'field':>5} {'points':>7} {'cpu_s':>8} {'ratio':>6} {'echelon':>7} {'matmul':>6} "
          f"{'verify_echelon':>14} {'verify_matmul':>13}")
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        pres = os.path.join(tmp, "presentation.json")
        for name in args.fields:
            previous = None
            for n in args.sizes:
                path = os.path.join(tmp, f"chain_{name}_{n}.json")
                with open(path, "w") as fh:
                    json.dump(dio.module_to_json(chain_module(FIELDS[name], n)), fh)
                eliminations, products = counted(["births-deaths", path, "--out", out])
                cpu = min(timed_births_deaths(path, out) for _ in range(args.repeat))
                with open(out) as fh:
                    report = json.load(fh)
                if report != CLOSED_FORM:
                    raise SystemExit(f"{name} chain of {n} points: expected one birth at "
                                     f"-inf and no deaths, got {report}")
                counted(["present", path, "--out", pres])
                checks, check_products = counted(["verify", path, "--presentation", pres,
                                                   "--out", out])
                ratio = f"{cpu / previous:6.2f}" if previous else f"{'':>6}"
                print(f"{name:>5} {n:>7} {cpu:>8.3f} {ratio} {eliminations:>7} {products:>6} "
                      f"{checks:>14} {check_products:>13}")
                if eliminations or products:
                    raise SystemExit(f"{name} chain of {n} points: births-deaths made "
                                     f"{eliminations} eliminations and {products} products, "
                                     "expected none on an identity chain")
                if checks > 1 or check_products:
                    raise SystemExit(f"{name} chain of {n} points: verify made {checks} "
                                     f"eliminations and {check_products} products, expected "
                                     "at most one elimination and no product")
                previous = cpu
    print("every chain has one birth at -inf and no deaths, with no elimination or product; "
          "verify of its presentation makes one elimination and no product")
    return 0


if __name__ == "__main__":
    sys.exit(main())
