#!/usr/bin/env python3
"""Where the CPU of a small call goes: the query pool's jobs timed phase by
phase, under two checkouts in one process.

Each checkout is loaded as ``scripts/ab_cpu.py`` loads it, and the names
that ``detmod.cli`` calls for each phase of a ``determinacy`` or ``encode``
job are wrapped with a CPU timer:

- read: the module file read and parsed as JSON (``cli._read_input``);
- load: the module built and checked from its JSON (``io.module_from_json``),
  less the check below;
- check: its unit squares checked for commutativity
  (``grid_module.first_failing_square``, wherever the checkout calls it);
- set: the ``--set`` points decoded (``io.pointset_from_json``);
- verb: the decision or the encoding (``is_S_determined``,
  ``is_S_determined_oracle``, ``encode``, ``canonical_grid``);
- report: the report as JSON data (``determinacy_report_to_json``,
  ``diagram_to_json``);
- write: the report written to its ``--out`` file (``cli._emit``);
- other: the rest of ``cli.main``, the timers' own cost included.

Each phase counts its own time, less that of the timed calls made inside
it, so no time is counted twice.

Whole passes over the pool alternate between PARENT and CHANGE after one
untimed pass, as in ``scripts/ab_cpu.py``, and each ``--out`` file is
truncated before its job.  Each job's phases are replaced by their medians
over the passes.  The script prints, per phase, both sides' time on the
parent's median job (by total) and both sides' mean over all jobs, in
microseconds.  A phase whose names a checkout lacks reads 0 there.

Usage: python scripts/call_phases.py PARENT CHANGE [--seed 1] [--passes 6]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from ab_cpu import load_side  # noqa: E402

CLOCK = time.process_time
PHASES = ("read", "load", "check", "set", "verb", "report", "write")
NAMES = (("cli", "_read_input", "read"), ("io", "module_from_json", "load"),
         ("grid_module", "first_failing_square", "check"), ("io", "pointset_from_json", "set"),
         ("cli", "is_S_determined", "verb"), ("cli", "is_S_determined_oracle", "verb"),
         ("cli", "encode", "verb"), ("cli", "canonical_grid", "verb"),
         ("io", "determinacy_report_to_json", "report"), ("io", "diagram_to_json", "report"),
         ("cli", "_emit", "write"))


class Side:
    def __init__(self, label: str, checkout: str, seed: int, workdir: str):
        self.label, self.spent, self.nested = label, {}, []
        self.cli, workloads = load_side(os.path.abspath(checkout), f"detmod_phases_{label}")
        owners = {"cli": self.cli, "io": self.cli.dio,
                  "grid_module": sys.modules[f"detmod_phases_{label}.grid_module"]}
        for owner, name, phase in NAMES:
            module = owners[owner]
            if hasattr(module, name):
                setattr(module, name, self.timed(getattr(module, name), phase))
        bld = workloads.Builder(workdir)
        workloads.WORKLOADS["query"].build(bld, seed)
        self.jobs = [job for jobs in bld.rounds for job in jobs]
        self.times = [[] for _ in self.jobs]  # per job, per timed pass: phase -> seconds

    def timed(self, fn, phase: str):
        spent, nested = self.spent, self.nested  # per open timed call, its timed calls' time

        def wrapper(*args, **kwargs):
            nested.append(0.0)
            t0 = CLOCK()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = CLOCK() - t0
                spent[phase] = spent.get(phase, 0.0) + elapsed - nested.pop()
                if nested:
                    nested[-1] += elapsed
        return wrapper

    def run_pass(self, keep: bool) -> None:
        sink = io.StringIO()
        for job, times in zip(self.jobs, self.times):
            if os.path.exists(job.out):
                os.truncate(job.out, 0)
            self.spent.clear()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0 = CLOCK()
                self.cli.main(job.argv)
                total = CLOCK() - t0
            if keep:
                times.append({**self.spent, "total": total})

    def phases(self, job: int) -> dict:
        """The median over the passes of each phase of a job, and its total."""
        return {phase: statistics.median(t.get(phase, 0.0) for t in self.times[job])
                for phase in PHASES + ("total",)}


def report(sides: list) -> None:
    """Per phase, each side's time on the parent's median job (by total)
    and each side's mean over all jobs."""
    per_job = [[side.phases(j) for j in range(len(side.jobs))] for side in sides]
    totals = [times["total"] for times in per_job[0]]
    mid = sorted(range(len(totals)), key=totals.__getitem__)[len(totals) // 2]
    job = sides[0].jobs[mid]
    print(f"median job of the parent: {job.verb} {os.path.basename(job.argv[1])}")
    print(f"  {'phase':7} {'parent':>9} {'change':>9}   mean over jobs: "
          f"{'parent':>9} {'change':>9}  (microseconds)")
    for phase in PHASES + ("other", "total"):
        row = []
        for times in ([per_job[0][mid]], [per_job[1][mid]], per_job[0], per_job[1]):
            values = [t["total"] - sum(t[p] for p in PHASES) if phase == "other" else t[phase]
                      for t in times]
            row.append(1e6 * statistics.mean(values))
        print(f"  {phase:7} {row[0]:9.1f} {row[1]:9.1f}                   "
              f"{row[2]:9.1f} {row[3]:9.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=6, help="timed passes per side")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True        # nothing is written into either checkout
    with tempfile.TemporaryDirectory(prefix="call_phases_") as tmp:
        sides = [Side(label, path, args.seed, os.path.join(tmp, label))
                 for label, path in (("parent", args.parent), ("change", args.change))]
        for side in sides:
            side.run_pass(keep=False)
        for k in range(args.passes):
            for side in (sides if k % 2 == 0 else sides[::-1]):
                side.run_pass(keep=True)
        report(sides)
    return 0


if __name__ == "__main__":
    sys.exit(main())
