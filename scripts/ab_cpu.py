#!/usr/bin/env python3
"""CPU per pass of one benchmark pool under two checkouts, in one process.

Each checkout's ``src/detmod`` is imported under its own name, and its
``perfbench/bench_workloads.py`` builds the workload's pool for each seed
into its own directory (neither checkout's files are written; the pools
live in a temporary directory).  Then whole passes over the pool alternate
between the two sides, PARENT first in even pairs and CHANGE first in odd
ones, so that drifts in machine speed fall on both.  A pass is timed as the
sum of the process CPU time of its ``cli.main`` calls.

A first, untimed pass of each side checks every job's exit code and output
with the workload's own check, as ``perfbench/run.py`` does, and compares
the two sides' ``--out`` files byte for byte; it also fills each side's
caches before the timed passes.  Later passes truncate each ``--out`` file
before its job instead of deleting it, so no pass pays for creating files.

Per seed it prints the median CPU seconds of a pass on each side, their
quartiles, and in how many pairs CHANGE was faster, and per verb (the
``verb`` of the workload's jobs) each side's median CPU of that verb's jobs
in a pass.  It also prints each side's job p50 and job tail, taken as
``perfbench/run.py`` takes them: each job's CPU time replaced by its median
over the timed passes, and the tail by CHANGE's ``perfbench/run.py``
``tail()`` of those medians, each counted once per pass.  The tail of one
pass is taken the same way from that pass's job times, and it prints in
how many pairs CHANGE's pass had the lower tail.  Per side it prints the
arguments of the job at its job p50 and of the job at its job tail, so
that a claim on either can be read against the job that carries it.  The
results go to ``BENCH_<tag>.json`` in the current directory, merged into
what is there under the key ``<workload>/<seed>``, with a digest of each
side's sources.  The script exits 1 when a check fails or an
``--out`` file differs between the two sides, and prints the first such
job's arguments, and 0 otherwise; it has no timing gate.

Usage: python scripts/ab_cpu.py PARENT CHANGE --workload census --seeds 1 4242
                                [--passes 10] [--tag NAME]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import statistics
import sys
import tempfile
import time

CLOCK = time.process_time


def load_side(checkout: str, name: str):
    """(cli module, bench_workloads module) of one checkout; ``name`` tells
    the two imports of detmod apart."""
    src = os.path.join(checkout, "src", "detmod")
    spec = importlib.util.spec_from_file_location(name, os.path.join(src, "__init__.py"),
                                                  submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    cli = importlib.import_module(f"{name}.cli")
    # bench_workloads imports bench_inputs by its plain name: each checkout's
    # pair is imported afresh and then taken out of sys.modules again
    sys.path.insert(0, os.path.join(checkout, "perfbench"))
    try:
        for plain in ("bench_inputs", "bench_workloads"):
            sys.modules.pop(plain, None)
        workloads = importlib.import_module("bench_workloads")
    finally:
        sys.path.pop(0)
        for plain in ("bench_inputs", "bench_workloads"):
            sys.modules.pop(plain, None)
    return cli, workloads


def load_tail(checkout: str):
    """``tail`` of the checkout's ``perfbench/run.py``, the job tail of the benchmark."""
    spec = importlib.util.spec_from_file_location("detmod_ab_run",
                                                  os.path.join(checkout, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.tail


class Side:
    def __init__(self, label: str, cli, workloads, workload: str, seed: int, workdir: str):
        self.label, self.cli = label, cli
        bld = workloads.Builder(workdir)
        workloads.WORKLOADS[workload].build(bld, seed)
        self.rounds, self.digest = bld.rounds, bld.digest()
        self.pass_s = []
        self.job_s = []  # per timed pass, the CPU seconds of each job in order
        self.failures = []

    def run_pass(self, check: bool = False) -> None:
        """One pass over the pool: checked and untimed, or timed."""
        seconds, job_s = 0.0, []
        sink = io.StringIO()
        for jobs in self.rounds:
            contexts = {}
            for job in jobs:
                if os.path.exists(job.out):
                    os.truncate(job.out, 0)
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    t0 = CLOCK()
                    rc = self.cli.main(job.argv)
                    job_s.append(CLOCK() - t0)
                    seconds += job_s[-1]
                if check and not self.passes_check(job, rc, contexts.setdefault(job.group, {})):
                    self.failures.append(f"{self.label}: {' '.join(job.argv)} (exit {rc})")
        if not check:
            self.pass_s.append(seconds)
            self.job_s.append(job_s)

    @staticmethod
    def passes_check(job, rc, ctx) -> bool:
        if rc not in (0, 1):
            return False
        try:
            with open(job.out, "r", encoding="utf-8") as fh:
                return bool(job.check(rc, json.load(fh), ctx))
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            return False

    def outputs(self) -> list:
        out = []
        for jobs in self.rounds:
            for job in jobs:
                with open(job.out, "rb") as fh:
                    out.append(fh.read())
        return out


def source_digest(checkout: str) -> str:
    """sha256 over the names and bytes of a checkout's ``src/detmod/*.py``."""
    src = os.path.join(checkout, "src", "detmod")
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + fh.read() + b"\0")
    return digest.hexdigest()


def quartiles(xs: list) -> tuple:
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]


def job_metrics(side, tail) -> tuple:
    """(job p50, job tail, the tail of each pass, the job at the p50, the job
    at the tail) of a side, times in seconds, as ``perfbench/run.py`` takes
    them: every job's median over the passes, and the tail of those medians,
    each counted once per pass.  The job at the p50 is the one whose median
    lies nearest to it (of an even number of jobs the p50 lies between two),
    and the job at the tail the one whose median it is."""
    passes = len(side.job_s)
    medians = list(map(statistics.median, zip(*side.job_s)))
    p50 = statistics.median(medians)
    job_tail = tail([m for m in medians for _ in range(passes)])[0]
    jobs = [job for jobs in side.rounds for job in jobs]
    at_p50 = min(range(len(medians)), key=lambda j: abs(medians[j] - p50))
    return (p50, job_tail,
            [tail([t for t in job_s for _ in range(passes)])[0] for job_s in side.job_s],
            jobs[at_p50], jobs[medians.index(job_tail)])


def verb_metrics(side) -> dict:
    """Per verb, the median over the timed passes of the CPU milliseconds
    of that verb's jobs in a pass."""
    verbs = [job.verb for jobs in side.rounds for job in jobs]
    per_pass = []
    for job_s in side.job_s:
        sums = dict.fromkeys(verbs, 0.0)
        for verb, s in zip(verbs, job_s):
            sums[verb] += s
        per_pass.append(sums)
    return {verb: 1000 * statistics.median(p[verb] for p in per_pass)
            for verb in dict.fromkeys(verbs)}


def run_seed(sides: list, passes: int, tail) -> dict:
    parent, change = sides
    for side in sides:
        side.run_pass(check=True)
    jobs = [job for jobs in change.rounds for job in jobs]
    differing = [job for job, a, b in zip(jobs, parent.outputs(), change.outputs()) if a != b]
    for k in range(passes):
        for side in (sides if k % 2 == 0 else sides[::-1]):
            side.run_pass()
    won = sum(c < p for p, c in zip(parent.pass_s, change.pass_s))
    result = {"passes": passes, "jobs_per_pass": sum(map(len, change.rounds)),
              "inputs_identical": parent.digest == change.digest,
              "outputs_differing": len(differing), "change_won": won}
    if differing:
        result["first_differing"] = differing[0].argv
    for side in sides:
        q1, med, q3 = quartiles(side.pass_s)
        p50, job_tail, pass_tail, at_p50, at_tail = job_metrics(side, tail)
        result[side.label] = {"median_s": med, "q1_s": q1, "q3_s": q3, "pass_s": side.pass_s,
                              "job_p50_ms": 1000 * p50, "job_tail_ms": 1000 * job_tail,
                              "pass_tail_ms": [1000 * t for t in pass_tail],
                              "verb_ms": verb_metrics(side),
                              "job_at_p50": at_p50.argv, "job_at_tail": at_tail.argv}
    result["change_won_tail"] = sum(c < p for p, c in zip(result["parent"]["pass_tail_ms"],
                                                         result["change"]["pass_tail_ms"]))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--passes", type=int, default=10, help="passes per side (default 10)")
    parser.add_argument("--tag", default="ab", help="writes BENCH_<tag>.json (default ab)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    sys.dont_write_bytecode = True        # nothing is written into either checkout
    loaded = [load_side(os.path.abspath(path), f"detmod_ab_{label}")
              for path, label in ((args.parent, "parent"), (args.change, "change"))]
    if args.workload not in loaded[1][1].WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(loaded[1][1].WORKLOADS)}")
    tail = load_tail(os.path.abspath(args.change))
    path = f"BENCH_{args.tag}.json"
    report = {"parent_src_sha256": source_digest(args.parent),
              "change_src_sha256": source_digest(args.change),
              "python": sys.version.split()[0], "runs": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            report["runs"] = json.load(fh).get("runs", {})
    failed = False
    for seed in args.seeds:
        with tempfile.TemporaryDirectory(prefix="ab_cpu_") as tmp:
            sides = [Side(label, cli, workloads, args.workload, seed, os.path.join(tmp, label))
                     for label, (cli, workloads) in zip(("parent", "change"), loaded)]
            result = run_seed(sides, args.passes, tail)
        for side in sides:
            for line in side.failures[:5]:
                print(f"failed job: {line}", file=sys.stderr)
            failed = failed or bool(side.failures)
        if result["outputs_differing"]:
            print(f"first differing --out file: {' '.join(result['first_differing'])}",
                  file=sys.stderr)
            failed = True
        report["runs"][f"{args.workload}/{seed}"] = result
        p, c = result["parent"], result["change"]
        print(f"{args.workload} seed {seed}: {result['passes']} passes of "
              f"{result['jobs_per_pass']} jobs per side, outputs differing: "
              f"{result['outputs_differing']}, inputs identical: {result['inputs_identical']}")
        for label, r in (("parent", p), ("change", c)):
            print(f"  {label:6} CPU per pass median {1000 * r['median_s']:9.2f} ms, "
                  f"quartiles {1000 * r['q1_s']:.2f} - {1000 * r['q3_s']:.2f} ms; "
                  f"job p50 {r['job_p50_ms']:.4f} ms, job tail {r['job_tail_ms']:.4f} ms")
            print(f"    job at p50: {' '.join(r['job_at_p50'])}")
            print(f"    job at tail: {' '.join(r['job_at_tail'])}")
        print(f"  change faster in {result['change_won']} of {result['passes']} pairs; "
              f"median change / parent {c['median_s'] / p['median_s']:.3f}")
        print(f"  change tail lower in {result['change_won_tail']} of {result['passes']} pairs; "
              f"job p50 change / parent {c['job_p50_ms'] / p['job_p50_ms']:.3f}, "
              f"job tail change / parent {c['job_tail_ms'] / p['job_tail_ms']:.3f}")
        for verb, ms in c["verb_ms"].items():
            print(f"  {verb:16} CPU per pass median: parent {p['verb_ms'][verb]:9.2f} ms, "
                  f"change {ms:9.2f} ms, change / parent {ms / p['verb_ms'][verb]:.3f}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
