#!/usr/bin/env python3
"""Stress experiment: present and re-verify random modules.

Generates random direct sums of convex indicator modules on small boxes,
builds a presentation from the canonical determining set at infinity, and
verifies it at every point of the extended grid, once through its generator
images and once with the images removed, which searches Hom out of the
presentation for an isomorphism.  Reports generator/relation statistics and
fails loudly on the first bad round trip or on two verdicts that differ.

Usage: python scripts/random_roundtrip.py [--count 50] [--seed 7] [--field f2|f5|q]
"""

import argparse
import dataclasses
import random
import time

from detmod import (Box, ExtendedView, GridModule, Matrix, PrimeField, QQ,
                    build_presentation, canonical_set, leq, verify_presentation)

FIELDS = {"f2": PrimeField(2), "f5": PrimeField(5), "q": QQ}


def random_interval_sum(field, rng):
    a = tuple(rng.randint(-1, 1) for _ in range(2))
    b = tuple(x + rng.randint(0, 2) for x in a)
    box = Box(a, b)
    summands = []
    for _ in range(rng.randint(0, 3)):
        g = tuple(rng.randint(box.a[i] - 1, box.b[i]) for i in range(2))
        d = tuple(rng.randint(g[i], box.b[i] + 1) for i in range(2))
        summands.append((g, d))

    def member(k, p):
        g, d = summands[k]
        return leq(g, p) and not leq(d, p)

    dims = {p: sum(member(k, p) for k in range(len(summands)))
            for p in box.integer_points()}
    steps = {}
    for p in box.integer_points():
        for axis in range(2):
            if p[axis] + 1 > box.b[axis]:
                continue
            q = p[:axis] + (p[axis] + 1,) + p[axis + 1:]
            rows = [[field.one if rk == ck else field.zero
                     for ck in range(len(summands)) if member(ck, p)]
                    for rk in range(len(summands)) if member(rk, q)]
            steps[(p, axis)] = Matrix(field, rows, ncols=dims[p])
    return GridModule(field, box, dims, steps)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--field", choices=sorted(FIELDS), default="f5")
    args = parser.parse_args()

    field = FIELDS[args.field]
    rng = random.Random(args.seed)
    gen_counts, rel_counts = [], []
    start = time.perf_counter()
    for trial in range(args.count):
        module = random_interval_sum(field, rng)
        view = ExtendedView(module)
        s = canonical_set(module)
        pres = build_presentation(view, s)
        check = verify_presentation(view, pres)
        if not check:
            raise SystemExit(f"round trip failed at trial {trial}: "
                             f"{check.reason} at {check.point}")
        bare = verify_presentation(view, dataclasses.replace(pres, generator_images=None))
        if bare.ok != check.ok:
            raise SystemExit(f"verdicts differ at trial {trial}: {check.ok} with the "
                             f"generator images, {bare.ok} without ({bare.reason})")
        gen_counts.append(sum(m for _, m in pres.generators))
        rel_counts.append(sum(m for _, m in pres.relations))
    elapsed = time.perf_counter() - start
    print(f"{args.count} round trips over {args.field}: all verified, with and "
          f"without generator images, in {elapsed:.2f}s")
    print(f"generators per module: min {min(gen_counts)}, "
          f"max {max(gen_counts)}, mean {sum(gen_counts) / len(gen_counts):.2f}")
    print(f"relations per module:  min {min(rel_counts)}, "
          f"max {max(rel_counts)}, mean {sum(rel_counts) / len(rel_counts):.2f}")


if __name__ == "__main__":
    main()
