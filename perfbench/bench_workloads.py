"""The three workloads: their seeded inputs, their CLI jobs and the output checks.

A workload is a pool of rounds.  A round is a list of jobs, each one call of
``detmod.cli.main(argv)`` with its output sent to an ``--out`` file, followed
by a check of that output.  A run makes whole passes over the pool.

The shapes in the pool (boxes, summands, the points of sets and lattices) are
drawn from the fixed SHAPE_SEED, and ``--seed`` draws the random basis change
at every point, which sets the entries of every matrix.  Every seed thus times
about the same amount of work: with shapes drawn from ``--seed`` as well, the
median roundtrip job moved by up to a third and the slowest query jobs by up
to 70 % from one seed to the next, more than a later change would need to show.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import bench_inputs as bi
from bench_inputs import F2, F5, QQ


@dataclass
class Job:
    verb: str                     # metric label, e.g. "verify_pres"
    argv: list                    # arguments for detmod.cli.main
    out: str                      # the --out file
    reads: tuple                  # files the job reads (for io.bytes_in)
    check: Callable               # check(rc, report, ctx) -> bool
    group: str                    # jobs of one group share a ctx dict


class Builder:
    """Writes input files as they are generated and collects the rounds.

    Files go straight to disk, so set-up holds one input in memory at a time
    and ``peak_rss_mb`` reflects the timed jobs; ``digest`` covers every
    file's name and bytes in the order written.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.rounds = []        # list of list of Job
        self.files = 0
        self._digest = hashlib.sha256()
        os.makedirs(workdir, exist_ok=True)

    def file(self, name: str, obj) -> str:
        data = json.dumps(obj, separators=(",", ":")).encode()
        path = os.path.join(self.workdir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        self._digest.update(name.encode() + b"\0" + data + b"\0")
        self.files += 1
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def digest(self) -> str:
        return self._digest.hexdigest()


SHAPE_SEED = 0


def _determined(rep) -> bool:
    return rep["holds"] is True and rep["support_ok"] is not False


def _total(entries) -> int:
    return sum(e["multiplicity"] for e in entries)


# ---------------------------------------------------------------------------
# roundtrip: emit artifacts and verify them

# (field, largest pointwise dimension, largest box side - 1).  Every round
# holds one module of each stratum.  The larger the dimension, the smaller the
# box: a module with a 3-dimensional space costs 1 to 4.5 s over Q on a 3x3
# box and 0.1 to 0.6 s over F2 on a 2x2 one, so a run would hold too few to
# give a steady figure; on a one-point box each costs the same within 10 %
# and the Q one still holds the slowest jobs.
ROUNDTRIP_STRATA = [(F2, 0, 2), (F5, 0, 2), (QQ, 0, 2),
                    (F2, 1, 2), (F5, 1, 2), (QQ, 1, 2),
                    (F2, 2, 2), (F5, 2, 2), (QQ, 2, 1),
                    (F2, 3, 0), (F5, 3, 0), (QQ, 3, 0)]


def _roundtrip_module(rng, target_dim, spread):
    """A module drawn as in acceptance criterion 9 (a box up to 3x3, up to
    three twisted convex summands) until its largest pointwise dimension is
    ``target_dim``; box sides are at most ``spread + 1``."""
    while True:
        a = tuple(rng.randint(-1, 1) for _ in range(2))
        b = tuple(x + rng.randint(0, spread) for x in a)
        summands = bi.random_summands(rng, a, b, rng.randint(0, 3))
        if bi.max_dim(a, b, summands) == target_dim:
            return a, b, summands


def roundtrip_group(bld: Builder, tag: str, shape_rng, rng, field, target_dim, spread) -> list:
    a, b, summands = _roundtrip_module(shape_rng, target_dim, spread)
    m = bld.file(f"{tag}.m.json", bi.module_json(field, a, b, summands, rng))
    s = bld.file(f"{tag}.s.json", bi.set_json(bi.canonical_set(a, b)))
    # The canonical set and one random point: a join-closed lattice on which
    # admissible runs the full isomorphism search.  Random lattices mostly fail
    # at a dimension check at once, and the few that do not cost as much as
    # the rest of the round.
    corners = bi.canonical_set(a, b) + [bi.random_ext_point(shape_rng, a, b)]
    lat = bld.file(f"{tag}.l.json", bi.set_json(bi.join_closure(corners)))
    pres, enc = bld.out(f"{tag}.p.out.json"), bld.out(f"{tag}.e.out.json")
    vp, ve = bld.out(f"{tag}.vp.out.json"), bld.out(f"{tag}.ve.out.json")
    adm, det = bld.out(f"{tag}.a.out.json"), bld.out(f"{tag}.d.out.json")

    def emitted(rc, rep, ctx):
        return rc == 0

    def verified(rc, rep, ctx):
        return rc == 0 and rep.get("ok") is True

    def admissible(rc, rep, ctx):
        ctx["admissible"] = rc
        return rc in (0, 1) and rep.get("admissible") is (rc == 0)

    def determinacy(rc, rep, ctx):
        return (rc in (0, 1) and rc == (0 if _determined(rep) else 1)
                and rc == ctx.get("admissible"))

    return [
        Job("present", ["present", m, "--out", pres], pres, (m,), emitted, tag),
        Job("verify_pres", ["verify", m, "--presentation", pres, "--out", vp], vp,
            (m, pres), verified, tag),
        Job("encode", ["encode", m, "--set", s, "--out", enc], enc, (m, s), emitted, tag),
        Job("verify_enc", ["verify", m, "--encoding", enc, "--set", s, "--out", ve], ve,
            (m, enc, s), verified, tag),
        Job("admissible", ["admissible", m, "--lattice", lat, "--out", adm], adm,
            (m, lat), admissible, tag),
        Job("determinacy", ["determinacy", m, "--set", lat, "--out", det], det,
            (m, lat), determinacy, tag),
    ]


def build_roundtrip(bld: Builder, seed: int, pool: int, strata=ROUNDTRIP_STRATA) -> None:
    shape_rng, rng = random.Random(SHAPE_SEED), random.Random(seed)
    for r in range(pool):
        jobs = []
        for field_, dim, spread in strata:
            jobs += roundtrip_group(bld, f"r{r}-{field_.name}-d{dim}", shape_rng, rng,
                                    field_, dim, spread)
        bld.rounds.append(jobs)


# ---------------------------------------------------------------------------
# census: births, deaths and presentations on large encodings

# (kind, size, field).  Every slot has a fixed field, size and shape (census
# measures how cost grows with size); the seed draws the basis changes of the
# grid modules.
# Chains over Q stay short: Fraction arithmetic makes an 80-point chain over
# Q cost about 20 s per verb.
CENSUS_SLOTS = [
    ("chain", 20, QQ),
    ("chain", 28, F5),
    ("chain", 40, F2),
    ("chain", 57, F5),
    ("chain", 80, F2),
    ("grid", (5, 5), QQ),
    ("grid", (7, 7), F5),
    ("grid", (3, 3, 3), QQ),
    ("grid", (4, 4, 4), F2),
    ("halfplane", 2, QQ),
    ("halfplane", 3, F5),
    ("halfplane", 4, F2),
]


def _births_deaths_check(closed_form):
    def check(rc, rep, ctx):
        if rc != 0:
            return False
        ctx["births"] = _total(rep["births"])
        return closed_form(rep)
    return check


def _present_check(rc, rep, ctx):
    return rc == 0 and _total(rep["generators"]) == ctx.get("births")


def _chain_closed_form(rep) -> bool:
    """One birth, at the bottom of the extended line, and no deaths."""
    return rep["births"] == [{"multiplicity": 1, "point": ["-inf"]}] and rep["deaths"] == []


def _no_closed_form(rep) -> bool:
    """Interval modules: only the present cross-check applies."""
    return True


def _halfplane_closed_form(n):
    def check(rep) -> bool:
        interior = [e["point"] for e in rep["deaths"]
                    if all(isinstance(v, int) and -n < v < n for v in e["point"])]
        return len(interior) == 2 * n - 1 and all(x == -y for x, y in interior)
    return check


def census_group(bld: Builder, tag: str, rng, kind, size, field_) -> list:
    bd, pres = bld.out(f"{tag}.bd.out.json"), bld.out(f"{tag}.p.out.json")
    if kind == "halfplane":
        d = bld.file(f"{tag}.d.json", bi.halfplane_json(field_, size))
        return [Job("births_deaths", ["births-deaths", d, "--out", bd], bd, (d,),
                    _births_deaths_check(_halfplane_closed_form(size)), tag)]
    if kind == "chain":
        obj, closed_form = bi.chain_json(field_, size), _chain_closed_form
    else:
        # The whole box [a, b] and the interval from its first third that dies
        # beyond its second third, each point twisted by a random basis change.
        a = (0,) * len(size)
        b = tuple(s - 1 for s in size)
        inner = (tuple(s // 3 for s in size), tuple(2 * s // 3 + 1 for s in size))
        obj = bi.module_json(field_, a, b, [(a, tuple(size)), inner], rng)
        closed_form = _no_closed_form
    m = bld.file(f"{tag}.m.json", obj)
    return [
        Job("births_deaths", ["births-deaths", m, "--out", bd], bd, (m,),
            _births_deaths_check(closed_form), tag),
        Job("present", ["present", m, "--out", pres], pres, (m,), _present_check, tag),
    ]


def build_census(bld: Builder, seed: int, pool: int, slots=CENSUS_SLOTS) -> None:
    rng = random.Random(seed)
    for r in range(pool):
        jobs = []
        for i, (kind, size, field_) in enumerate(slots):
            jobs += census_group(bld, f"r{r}-{i}-{kind}-{field_.name}", rng, kind, size, field_)
        bld.rounds.append(jobs)


# ---------------------------------------------------------------------------
# query: many short verdicts

def _box_sides(k: int, nparams: int, largest: int) -> tuple:
    """The k-th box shape of a fixed cycle through every shape up to ``largest``.

    The shapes do not depend on the seed, so every seed's pool has the same
    mix of box sizes, the main driver of a query's cost.
    """
    return tuple(1 + (k // largest ** i) % largest for i in range(nparams))


QUERY_SHAPES = ((2, 8), (3, 4))   # (parameters, largest box side)


def _query_set(rng, a, b, summands, kind) -> set:
    """Up to 8 points, some at -inf.

    "corner" sets determine the module, "random" sets seldom do and "gap"
    sets (corners with one point swapped for a random one) fall in between,
    so the verdicts are mixed.
    """
    if kind == "random":
        return {bi.random_ext_point(rng, a, b) for _ in range(rng.randint(1, 8))}
    pts = sorted(bi.corner_set(a, b, summands), key=bi.sort_key)
    if kind == "gap" and pts:
        pts.pop(rng.randrange(len(pts)))
    pts = set(pts)
    while len(pts) < 8 and (not pts or rng.random() < 0.5):
        pts.add(bi.random_ext_point(rng, a, b))
    return pts


def query_group(bld: Builder, tag: str, shape_rng, rng, field_, sides, set_kind) -> list:
    """The set goes inline on the command line, as a short set usually would."""
    a = tuple(shape_rng.randint(-1, 1) for _ in sides)
    b = tuple(x + side - 1 for x, side in zip(a, sides))
    summands = bi.random_summands(shape_rng, a, b, shape_rng.randint(0, 3))
    m = bld.file(f"{tag}.m.json", bi.module_json(field_, a, b, summands, rng))
    s = json.dumps(bi.set_json(_query_set(shape_rng, a, b, summands, set_kind)))
    grid, oracle, enc = (bld.out(f"{tag}.{x}.out.json") for x in ("g", "o", "e"))

    def by_grid(rc, rep, ctx):
        ctx["grid"] = (rc, rep["holds"], rep["support_ok"])
        return rc in (0, 1) and rc == (0 if _determined(rep) else 1)

    def by_oracle(rc, rep, ctx):
        return (rep["method"] == "oracle"
                and (rc, rep["holds"], rep["support_ok"]) == ctx.get("grid"))

    def encoded(rc, rep, ctx):
        holds = ctx["grid"][1]
        if holds:
            return rc == 0 and "points" in rep
        return rc == 1 and rep["holds"] is False and rep["witness"] is not None

    return [
        Job("determinacy", ["determinacy", m, "--set", s, "--out", grid], grid, (m,),
            by_grid, tag),
        Job("oracle", ["determinacy", m, "--set", s, "--oracle", "--out", oracle], oracle,
            (m,), by_oracle, tag),
        Job("encode", ["encode", m, "--set", s, "--out", enc], enc, (m,), encoded, tag),
    ]


def build_query(bld: Builder, seed: int, pool: int, shapes=QUERY_SHAPES) -> None:
    """Group k of a shape family has the k-th box shape, field k mod 3 and a set
    kind that moves on after each cycle of shapes.  Both families have 64
    shapes, so a pool of 64 rounds gives every shape once with each field and
    once with each set kind."""
    shape_rng, rng = random.Random(SHAPE_SEED), random.Random(seed)
    fields, kinds = (F2, F5, QQ), ("corner", "random", "gap")
    for r in range(pool):
        jobs = []
        for nparams, largest in shapes:
            for i in range(3):
                k = 3 * r + i
                field_ = fields[k % 3]
                kind = kinds[(k // largest ** nparams) % 3]
                tag = f"r{r}-{field_.name}-{nparams}p"
                jobs += query_group(bld, tag, shape_rng, rng, field_,
                                    _box_sides(k, nparams, largest), kind)
        bld.rounds.append(jobs)


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    build: Callable          # build(builder, seed) fills the builder
    verbs: tuple             # the per-verb latency metrics this workload reports
    trace_rounds: int        # rounds replayed by the traced run
    pass_s: float            # nominal seconds of one pass over the pool


def _tiny(build, **kwargs):
    return lambda bld, seed: build(bld, seed, pool=1, **kwargs)


# Pass times are those of Python 3.11 on a shared 2-core x86-64 machine.
WORKLOADS = {
    "roundtrip": Workload(
        lambda bld, seed: build_roundtrip(bld, seed, pool=2),
        ("present", "verify_pres", "encode", "verify_enc", "admissible", "determinacy"),
        trace_rounds=2, pass_s=11.0),
    "census": Workload(
        lambda bld, seed: build_census(bld, seed, pool=1),
        ("births_deaths", "present"),
        trace_rounds=1, pass_s=9.5),
    "query": Workload(
        lambda bld, seed: build_query(bld, seed, pool=64),
        ("determinacy", "oracle", "encode"),
        trace_rounds=40, pass_s=8.5),
}

# The same verbs and checks on inputs small enough for the benchmark's tests.
TINY = {
    "roundtrip": _tiny(build_roundtrip, strata=[(F2, 1, 2), (F5, 2, 2), (QQ, 1, 0)]),
    "census": _tiny(build_census, slots=[("chain", 4, F2), ("chain", 3, QQ),
                                         ("grid", (2, 2), F5), ("halfplane", 2, F2)]),
    "query": _tiny(build_query, shapes=((2, 3), (3, 2))),
}
