"""Span tracing of detmod's public functions, installed from outside the package.

``Tracer.install`` replaces each listed function or method with a wrapper that
records a span (name, start, end, parent span, job id and two integer notes)
and rebinds the wrapper in every ``detmod`` namespace that binds the original,
so ``rank`` is traced whether it is reached as ``linalg.rank`` or through
``presentation``'s import of it.  ``Tracer.remove`` restores the originals.
Spans stay in memory in flat arrays until ``write`` saves them; ``layer_metrics``
turns them into the per-layer figures.

A layer's self time is the time of its spans minus the time of their child
spans.  A span is "outer" when no span of the same group encloses it; calls
and times of recursive or mutually calling functions count outer spans only,
so nothing is counted twice.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

LAYERS = ("cli", "io", "extgrid", "linalg", "grid_module", "determinacy", "presentation")

_FIELD_CODE = {"f2": 0, "fp": 1, "q": 2}


def _field_code(field) -> int:
    if getattr(field, "kind", None) == "prime":
        return _FIELD_CODE["f2"] if field.p == 2 else _FIELD_CODE["fp"]
    return _FIELD_CODE["q"]


def _elim_note(args, kwargs, result):
    m = args[0]
    return m.nrows * m.ncols, _field_code(m.field)


def _len_result(args, kwargs, result):
    return len(result), 0


def _len_points(args, kwargs, result):
    return len(args[-1] if args else kwargs["points"]), 0


def _colimit_note(args, kwargs, result):
    diagram = args[0]
    return len(diagram.points), sum(diagram.dims.values())


def _iso_note(args, kwargs, result):
    return (0 if result else 1), 0


def _oracle_note(args, kwargs, result):
    window = args[2] if len(args) > 2 else kwargs["window"]
    margin = args[3] if len(args) > 3 else kwargs.get("margin", 1)
    points = 1
    for lo, hi in zip(window.a, window.b):
        points *= hi - lo + 1 + 2 * margin + 1
    return points, 0


def _presentation_note(args, kwargs, result):
    return (sum(m for _, m in result.generators), sum(m for _, m in result.relations))


# (layer, module, qualified name, group, note).  Functions a single call of
# which costs less than a wrapper (leq, lt, point_sort_key) are left out.
SPECS = [
    ("cli", "cli", "main", "cli.main", None),
    ("io", "io", "module_from_json", "io.parse", None),
    ("io", "io", "diagram_from_json", "io.parse", None),
    ("io", "io", "presentation_from_json", "io.parse", None),
    ("io", "io", "pointset_from_json", "io.parse", None),
    ("io", "io", "diagram_to_json", "io.emit", None),
    ("io", "io", "presentation_to_json", "io.emit", None),
    ("io", "io", "determinacy_report_to_json", "io.emit", None),
    ("io", "io", "birth_death_to_json", "io.emit", None),
    ("io", "io", "presentation_check_to_json", "io.emit", None),
    ("io", "io", "canonical_dumps", "io.emit", None),
    ("extgrid", "extgrid", "critical_grid", "extgrid.critical_grid", _len_result),
    ("extgrid", "extgrid", "join_closure", "extgrid.join_closure", None),
    ("extgrid", "extgrid", "downset_of", "extgrid.order", None),
    ("extgrid", "extgrid", "join_below", "extgrid.order", None),
    ("extgrid", "extgrid", "in_upset", "extgrid.order", None),
    ("linalg", "linalg", "rank", "linalg.elim", _elim_note),
    ("linalg", "linalg", "kernel_basis", "linalg.elim", _elim_note),
    ("linalg", "linalg", "cokernel_projection", "linalg.elim", _elim_note),
    ("linalg", "linalg", "solve", "linalg.elim", _elim_note),
    ("linalg", "linalg", "rref", "linalg.elim", _elim_note),
    ("linalg", "linalg", "is_invertible", "linalg.elim", _elim_note),
    ("linalg", "linalg", "Matrix.__matmul__", "linalg.matmul", None),
    ("linalg", "linalg", "nat_basis", "linalg.nat_basis", _len_result),
    ("linalg", "linalg", "diagrams_isomorphic", "linalg.iso", _iso_note),
    ("linalg", "linalg", "diagram_colimit", "linalg.colimit", _colimit_note),
    ("linalg", "linalg", "PosetDiagram.path_map", "linalg.path_map", None),
    ("linalg", "linalg", "poset_covers", "linalg.poset_covers", _len_points),
    ("linalg", "linalg", "validate_diagram", "linalg.validate", None),
    ("grid_module", "grid_module", "ExtendedView.__init__", "grid_module.view_init", None),
    ("grid_module", "grid_module", "ExtendedView.eval_map", "grid_module.eval_map", None),
    ("grid_module", "grid_module", "restrict_view", "grid_module.restrict", _len_points),
    ("determinacy", "determinacy", "is_S_determined", "determinacy.grid", None),
    ("determinacy", "determinacy", "is_S_determined_oracle", "determinacy.oracle", _oracle_note),
    ("determinacy", "determinacy", "encode", "determinacy.encode", None),
    ("determinacy", "determinacy", "check_encoding", "determinacy.check_encoding", None),
    ("presentation", "presentation", "predecessor_colimit_map", "presentation.colimit_map", None),
    ("presentation", "presentation", "diagram_births_deaths", "presentation.births_deaths", None),
    ("presentation", "presentation", "births_deaths", "presentation.births_deaths", None),
    ("presentation", "presentation", "build_presentation", "presentation.build",
     _presentation_note),
    ("presentation", "presentation", "verify_presentation", "presentation.verify", None),
    ("presentation", "presentation", "is_admissible", "presentation.admissible", None),
]


class Tracer:
    def __init__(self):
        self.names = []          # span kind -> qualified name
        self.layer_of = []       # span kind -> layer
        self.group_of = []       # span kind -> group
        self.kind = array("i")
        self.parent = array("q")
        self.job = array("q")
        self.start = array("d")
        self.end = array("d")
        self.outer = array("b")
        self.note_a = array("q")
        self.note_b = array("q")
        self.job_id = -1
        self.eval_pairs = set()  # distinct (view, clamped pair) keys of the current job
        self._stack = [-1]
        self._depth = {}
        self._patches = []

    def new_job(self, job_id: int) -> None:
        self.job_id = job_id
        self.eval_pairs = set()

    # -- installing ---------------------------------------------------------

    def install(self, package: str = "detmod") -> None:
        """Bind the wrappers; the first call creates them."""
        if not self._patches:
            self._patches = self._make_patches(package)
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _make_patches(self, package: str) -> list:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == package or n.startswith(package + "."))]
        patches = []
        for layer, module, qualname, group, note in SPECS:
            owner = sys.modules[f"{package}.{module}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if qualname == "ExtendedView.eval_map":
                note = self._eval_map_note
            wrapper = self._wrap(qualname, layer, group, original, note)
            if path:
                patches.append((owner, attr, original, wrapper))
                continue
            for ns in namespaces:
                for name, value in vars(ns).items():
                    if value is original:
                        patches.append((ns, name, original, wrapper))
        return patches

    def _eval_map_note(self, args, kwargs, result):
        view, c, d = args
        key = (id(view), view.clamp(c), view.clamp(d))
        if key in self.eval_pairs:
            return 0, 0
        self.eval_pairs.add(key)
        return 1, 0

    def _wrap(self, name, layer, group, fn, note):
        kind_id = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.group_of.append(group)
        depth = self._depth
        depth.setdefault(group, 0)
        stack = self._stack
        kind, parent, job, start, end = self.kind, self.parent, self.job, self.start, self.end
        outer, note_a, note_b = self.outer, self.note_a, self.note_b
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(kind_id)
            parent.append(stack[-1])
            job.append(tracer.job_id)
            outer.append(depth[group] == 0)
            note_a.append(0)
            note_b.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                depth[group] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if note is not None:
                note_a[idx], note_b[idx] = note(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as one JSON header line followed by the raw arrays in its order."""
        arrays = [("kind", self.kind), ("parent", self.parent), ("job", self.job),
                  ("start", self.start), ("end", self.end), ("outer", self.outer),
                  ("note_a", self.note_a), ("note_b", self.note_b)]
        header = {"names": self.names, "layers": self.layer_of, "spans": len(self.kind),
                  "arrays": [[name, arr.typecode] for name, arr in arrays]}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for _, arr in arrays:
                arr.tofile(fh)


# Per-layer metrics in report order: (name, unit).  Every one is printed by a
# traced run; BENCHMARK.json lists the ones that are non-zero on every workload.
LAYER_METRICS = [
    ("cli.self_ms", "ms"),
    ("io.parse.calls", "count"), ("io.parse_ms", "ms"), ("io.emit_ms", "ms"),
    ("io.bytes_in", "bytes"), ("io.bytes_out", "bytes"),
    ("extgrid.self_ms", "ms"), ("extgrid.critical_grid.calls", "count"),
    ("extgrid.critical_grid.points", "count"), ("extgrid.join_closure_ms", "ms"),
    ("extgrid.order.calls", "count"),
    ("linalg.self_ms", "ms"), ("linalg.elim.calls", "count"), ("linalg.elim.cells", "count"),
    ("linalg.elim_ms.f2", "ms"), ("linalg.elim_ms.fp", "ms"), ("linalg.elim_ms.q", "ms"),
    ("linalg.matmul.calls", "count"), ("linalg.matmul_ms", "ms"),
    ("linalg.nat_basis.calls", "count"), ("linalg.nat_basis_ms", "ms"),
    ("linalg.nat_basis.hom_dim", "count"),
    ("linalg.iso.calls", "count"), ("linalg.iso_ms", "ms"), ("linalg.iso.false", "count"),
    ("linalg.colimit.calls", "count"), ("linalg.colimit_ms", "ms"),
    ("linalg.colimit.dim_in", "count"),
    ("linalg.path_map.calls", "count"), ("linalg.path_map_ms", "ms"),
    ("linalg.poset_covers.calls", "count"), ("linalg.poset_covers.points", "count"),
    ("linalg.poset_covers_ms", "ms"), ("linalg.validate_ms", "ms"),
    ("grid_module.self_ms", "ms"), ("grid_module.view_init_ms", "ms"),
    ("grid_module.eval_map.calls", "count"), ("grid_module.eval_map.hit_ratio", "ratio"),
    ("grid_module.restrict.calls", "count"), ("grid_module.restrict.points", "count"),
    ("grid_module.restrict_ms", "ms"),
    ("determinacy.self_ms", "ms"), ("determinacy.grid.calls", "count"),
    ("determinacy.grid.points", "count"), ("determinacy.grid_ms", "ms"),
    ("determinacy.oracle.points", "count"), ("determinacy.oracle_ms", "ms"),
    ("determinacy.encode_ms", "ms"), ("determinacy.check_encoding_ms", "ms"),
    ("presentation.self_ms", "ms"), ("presentation.colimit_map.calls", "count"),
    ("presentation.colimit_map.downset_points", "count"),
    ("presentation.colimit_map_ms", "ms"), ("presentation.build_ms", "ms"),
    ("presentation.verify_ms", "ms"), ("presentation.admissible_ms", "ms"),
    ("presentation.generators", "count"), ("presentation.relations", "count"),
]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans; keys as in ``LAYER_METRICS``."""
    n = len(tracer.kind)
    kind, parent, outer = tracer.kind, tracer.parent, tracer.outer
    note_a, note_b = tracer.note_a, tracer.note_b
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]
    group_of, name_of = tracer.group_of, tracer.names
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls, secs, sum_a, sum_b = {}, {}, {}, {}
    elim_s = [0.0, 0.0, 0.0]
    grid_points = downset_points = 0
    for i in range(n):
        k = kind[i]
        self_s[tracer.layer_of[k]] += dur[i] - child[i]
        if not outer[i]:
            continue
        g = group_of[k]
        calls[g] = calls.get(g, 0) + 1
        secs[g] = secs.get(g, 0.0) + dur[i]
        sum_a[g] = sum_a.get(g, 0) + note_a[i]
        sum_b[g] = sum_b.get(g, 0) + note_b[i]
        if g == "linalg.elim":
            elim_s[note_b[i]] += dur[i]
        p = parent[i]
        if p >= 0:
            parent_name = name_of[kind[p]]
            if g == "extgrid.critical_grid" and parent_name == "is_S_determined":
                grid_points += note_a[i]
            elif g == "linalg.colimit" and parent_name == "predecessor_colimit_map":
                downset_points += note_a[i]

    def ms(group):
        return 1000.0 * secs.get(group, 0.0)

    eval_calls = calls.get("grid_module.eval_map", 0)
    out = {f"{layer}.self_ms": 1000.0 * self_s[layer] for layer in LAYERS if layer != "io"}
    out.update({
        "io.parse.calls": calls.get("io.parse", 0), "io.parse_ms": ms("io.parse"),
        "io.emit_ms": ms("io.emit"),
        "extgrid.critical_grid.calls": calls.get("extgrid.critical_grid", 0),
        "extgrid.critical_grid.points": sum_a.get("extgrid.critical_grid", 0),
        "extgrid.join_closure_ms": ms("extgrid.join_closure"),
        "extgrid.order.calls": calls.get("extgrid.order", 0),
        "linalg.elim.calls": calls.get("linalg.elim", 0),
        "linalg.elim.cells": sum_a.get("linalg.elim", 0),
        "linalg.elim_ms.f2": 1000.0 * elim_s[_FIELD_CODE["f2"]],
        "linalg.elim_ms.fp": 1000.0 * elim_s[_FIELD_CODE["fp"]],
        "linalg.elim_ms.q": 1000.0 * elim_s[_FIELD_CODE["q"]],
        "linalg.matmul.calls": calls.get("linalg.matmul", 0), "linalg.matmul_ms": ms("linalg.matmul"),
        "linalg.nat_basis.calls": calls.get("linalg.nat_basis", 0),
        "linalg.nat_basis_ms": ms("linalg.nat_basis"),
        "linalg.nat_basis.hom_dim": sum_a.get("linalg.nat_basis", 0),
        "linalg.iso.calls": calls.get("linalg.iso", 0), "linalg.iso_ms": ms("linalg.iso"),
        "linalg.iso.false": sum_a.get("linalg.iso", 0),
        "linalg.colimit.calls": calls.get("linalg.colimit", 0),
        "linalg.colimit_ms": ms("linalg.colimit"),
        "linalg.colimit.dim_in": sum_b.get("linalg.colimit", 0),
        "linalg.path_map.calls": calls.get("linalg.path_map", 0),
        "linalg.path_map_ms": ms("linalg.path_map"),
        "linalg.poset_covers.calls": calls.get("linalg.poset_covers", 0),
        "linalg.poset_covers.points": sum_a.get("linalg.poset_covers", 0),
        "linalg.poset_covers_ms": ms("linalg.poset_covers"),
        "linalg.validate_ms": ms("linalg.validate"),
        "grid_module.view_init_ms": ms("grid_module.view_init"),
        "grid_module.eval_map.calls": eval_calls,
        "grid_module.eval_map.hit_ratio":
            1.0 - sum_a.get("grid_module.eval_map", 0) / eval_calls if eval_calls else 0.0,
        "grid_module.restrict.calls": calls.get("grid_module.restrict", 0),
        "grid_module.restrict.points": sum_a.get("grid_module.restrict", 0),
        "grid_module.restrict_ms": ms("grid_module.restrict"),
        "determinacy.grid.calls": calls.get("determinacy.grid", 0),
        "determinacy.grid.points": grid_points,
        "determinacy.grid_ms": ms("determinacy.grid"),
        "determinacy.oracle.points": sum_a.get("determinacy.oracle", 0),
        "determinacy.oracle_ms": ms("determinacy.oracle"),
        "determinacy.encode_ms": ms("determinacy.encode"),
        "determinacy.check_encoding_ms": ms("determinacy.check_encoding"),
        "presentation.colimit_map.calls": calls.get("presentation.colimit_map", 0),
        "presentation.colimit_map.downset_points": downset_points,
        "presentation.colimit_map_ms": ms("presentation.colimit_map"),
        "presentation.build_ms": ms("presentation.build"),
        "presentation.verify_ms": ms("presentation.verify"),
        "presentation.admissible_ms": ms("presentation.admissible"),
        "presentation.generators": sum_a.get("presentation.build", 0),
        "presentation.relations": sum_b.get("presentation.build", 0),
    })
    return out
