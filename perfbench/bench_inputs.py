"""Seeded input generators for the benchmark, written in detmod's JSON formats.

Nothing here imports detmod: the inputs come from a small exact linear
algebra of their own, so generating them costs the same whatever detmod
does, and a fault in detmod cannot leak into the inputs it is checked on.

Points are tuples with ``NEG_INF`` for the bottom coordinate, written to
files as "-inf".
"""

from __future__ import annotations

import itertools
from fractions import Fraction

NEG_INF = float("-inf")


class PrimeField:
    def __init__(self, p: int):
        self.p = p
        self.zero, self.one = 0, 1
        self.spec = {"kind": "prime", "p": p}
        self.name = f"f{p}"

    def random(self, rng):
        return rng.randrange(self.p)

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        return pow(x, self.p - 2, self.p)

    def to_json(self, x):
        return x


class RationalField:
    """Q with entries drawn from -2..2, as in the test suite's twisted modules."""

    def __init__(self):
        self.zero, self.one = Fraction(0), Fraction(1)
        self.spec = {"kind": "rational"}
        self.name = "q"

    def random(self, rng):
        return Fraction(rng.randint(-2, 2))

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        return 1 / x

    def to_json(self, x):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


F2, F5, QQ = PrimeField(2), PrimeField(5), RationalField()


# ---------------------------------------------------------------------------
# exact dense matrices as lists of rows

def matmul(field, x, y, inner: int) -> list:
    cols = list(zip(*y))
    out = []
    for row in x:
        out_row = []
        for col in cols:
            acc = field.zero
            for k in range(inner):
                acc = field.add(acc, field.mul(row[k], col[k]))
            out_row.append(acc)
        out.append(out_row)
    return out


def inverse(field, m: list):
    """Gauss-Jordan inverse, or None when ``m`` is singular."""
    n = len(m)
    aug = [list(row) + [field.one if i == j else field.zero for j in range(n)]
           for i, row in enumerate(m)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if aug[r][c] != field.zero), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        scale = field.inv(aug[c][c])
        aug[c] = [field.mul(scale, x) for x in aug[c]]
        for r in range(n):
            k = aug[r][c]
            if r != c and k != field.zero:
                aug[r] = [field.sub(x, field.mul(k, y)) for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def random_invertible(field, n: int, rng) -> tuple:
    """A random invertible n x n matrix and its inverse."""
    while True:
        m = [[field.random(rng) for _ in range(n)] for _ in range(n)]
        inv = inverse(field, m)
        if inv is not None:
            return m, inv


# ---------------------------------------------------------------------------
# grid modules: direct sums of convex indicators, optionally twisted

def box_points(a, b) -> list:
    """Integer points of the box [a, b] in lexicographic order (detmod's order)."""
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in zip(a, b))))


def leq(p, q) -> bool:
    return all(x <= y for x, y in zip(p, q))


def random_summands(rng, a, b, count: int) -> list:
    """Convex regions [g, not-above d) drawn as in the acceptance suite."""
    out = []
    for _ in range(count):
        g = tuple(rng.randint(lo - 1, hi) for lo, hi in zip(a, b))
        d = tuple(rng.randint(gi, hi + 1) for gi, hi in zip(g, b))
        out.append((g, d))
    return out


def _members(summands, p) -> list:
    return [k for k, (g, d) in enumerate(summands) if leq(g, p) and not leq(d, p)]


def max_dim(a, b, summands) -> int:
    return max(len(_members(summands, p)) for p in box_points(a, b))


def module_json(field, a, b, summands, rng=None) -> dict:
    """Module file of a direct sum of convex indicators on the box [a, b].

    With ``rng`` every pointwise space is conjugated by a random basis change,
    which keeps the module up to isomorphism but makes the step matrices dense.
    """
    pts = box_points(a, b)
    members = {p: _members(summands, p) for p in pts}
    basis = {}
    if rng is not None:
        basis = {p: random_invertible(field, len(members[p]), rng) for p in pts}
    maps = []
    for p in pts:
        for axis in range(len(a)):
            if p[axis] + 1 > b[axis]:
                continue
            q = p[:axis] + (p[axis] + 1,) + p[axis + 1:]
            src, dst = members[p], members[q]
            if not src or not dst:
                continue
            mat = [[field.one if r == c else field.zero for c in src] for r in dst]
            if rng is not None:
                mat = matmul(field, basis[q][0], mat, len(dst))
                mat = matmul(field, mat, basis[p][1], len(src))
            if any(x != field.zero for row in mat for x in row):
                maps.append({"from": list(p), "axis": axis + 1,
                             "matrix": [[field.to_json(x) for x in row] for row in mat]})
    return {"field": field.spec, "n": len(a), "box": {"a": list(a), "b": list(b)},
            "dims": [len(members[p]) for p in pts], "maps": maps}


def chain_json(field, length: int) -> dict:
    """1-parameter identity chain: one-dimensional on [0, length - 1]."""
    return module_json(field, (0,), (length - 1,), [((-1,), (length,))])


def halfplane_json(field, n: int) -> dict:
    """Diagram file of the open lower halfplane x + y < 0 on ({-inf} u [-n, n])^2.

    Covering maps are identities where both ends are one-dimensional and zero
    otherwise, as in ``detmod.window_module``.
    """
    axis = (NEG_INF,) + tuple(range(-n, n + 1))
    pts = list(itertools.product(axis, axis))
    dims = {p: 1 if p[0] + p[1] < 0 else 0 for p in pts}
    maps = []
    for p in pts:
        for k in range(2):
            i = axis.index(p[k])
            if i + 1 < len(axis):
                q = p[:k] + (axis[i + 1],) + p[k + 1:]
                if dims[p] and dims[q]:
                    maps.append({"from": encode_point(p), "to": encode_point(q),
                                 "matrix": [[field.to_json(field.one)]]})
    return {"field": field.spec, "n": 2, "points": [encode_point(p) for p in pts],
            "dims": [dims[p] for p in pts], "maps": maps}


# ---------------------------------------------------------------------------
# point sets

def encode_point(p) -> list:
    return ["-inf" if v == NEG_INF else v for v in p]


def join(p, q) -> tuple:
    return tuple(max(x, y) for x, y in zip(p, q))


def join_closure(points) -> set:
    closed = set(points)
    frontier = set(closed)
    while frontier:
        new = {join(p, q) for p in frontier for q in closed} - closed
        closed |= new
        frontier = new
    return closed


def extended_box(a, b) -> list:
    """Points of ({-inf} u [a_i, b_i]) x ..., like ``detmod.ext_box``."""
    return list(itertools.product(*((NEG_INF,) + tuple(range(lo, hi + 1))
                                    for lo, hi in zip(a, b))))


def canonical_set(a, b) -> list:
    """The determining set the CLI uses by default: the extension of [a + 1, b]."""
    shifted = tuple(x + 1 for x in a)
    if leq(shifted, b):
        return extended_box(shifted, b)
    return extended_box(a, b)


def random_ext_point(rng, a, b, bottom_prob: float = 0.3) -> tuple:
    return tuple(NEG_INF if rng.random() < bottom_prob else rng.randint(lo - 1, hi + 1)
                 for lo, hi in zip(a, b))


def corner_set(a, b, summands) -> set:
    """Births and deaths of the summands inside the extended box.

    Coordinates below the box read as -inf through the clamp; a death with a
    coordinate above the box never happens.  The set determines the module.
    """
    def ext(p):
        return tuple(NEG_INF if v < lo else v for v, lo in zip(p, a))

    out = set()
    for g, d in summands:
        if not any(_members([(g, d)], p) for p in box_points(a, b)):
            continue
        out.add(ext(g))
        if leq(d, b):
            out.add(ext(d))
    return out


def sort_key(p):
    return tuple((0, 0) if v == NEG_INF else (1, v) for v in p)


def set_json(points) -> list:
    return [encode_point(p) for p in sorted(points, key=sort_key)]
