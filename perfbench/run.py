#!/usr/bin/env python3
"""detmod benchmark: seeded CLI workloads, end-to-end metrics and a traced run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed as JSON files under
``.perfbench_work/``, then runs its pool of jobs one after another through
``detmod.cli.main(argv)`` in this process (one client, closed loop), in whole
passes over the pool.  The number of passes is ``--seconds`` divided by the
workload's nominal pass time, so it is the same in every run and a run lasts
about ``--seconds`` on the machine the pass times were taken on.  Every job's
``--out`` file is checked.  ``--trace 1`` instead runs a fixed number of
rounds with every job done twice in a row, untraced and then with every
public detmod function wrapped in a span, and reports the per-layer metrics
and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
list every metric by name with its unit.  The detmod under test is the one in
``src/`` of the checkout this file sits in; without it the run exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

sys.dont_write_bytecode = True  # leave no __pycache__ behind in the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 5

# Every time the benchmark measures is CPU time of this process (user plus
# system).  detmod runs single-threaded on files in the page cache, so on an
# unshared machine a job's CPU time is its wall time; on a shared virtual
# machine wall time also holds the bursts in which the host runs another
# guest on our CPU (the steal time the kernel reports).
CLOCK = time.process_time

# The speed of a shared CPU also drifts: the median of a fixed loop moved by
# up to 30 % from one half-minute to the next, and that drift, not the
# program, set most of the spread between runs.  So the untraced run also times a fixed loop of the benchmark's own
# (``reference``) before a job whenever REF_EVERY_S of CPU time have passed
# since the last sample, and reports every time scaled by
# REF_NOMINAL_S / (median reference time of the run): times on a machine on
# which the loop takes REF_NOMINAL_S.  Across ten runs of one census pool the
# scaled total job time spread 0.06 where the raw one spread 0.15.
REF_EVERY_S = 0.025
REF_NOMINAL_S = 0.002
END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms",
                    "job_tail_ms": "ms", "failed_frac": "ratio", "peak_rss_mb": "MB"}


def reference() -> float:
    """CPU time of a fixed pure-Python loop that never touches detmod."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        raise SystemExit("error: a trace or profile hook is installed; "
                         "it would slow the speed reference and hide its cost")
    t0 = CLOCK()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return CLOCK() - t0


def load_benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_detmod():
    """Import detmod from the checkout's own ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "detmod", "__init__.py")):
        raise SystemExit(f"error: no detmod sources under {SRC}")
    sys.path.insert(0, SRC)
    import detmod
    import detmod.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(detmod.__file__))) != SRC:
        raise SystemExit(f"error: imported detmod from {detmod.__file__}, not {SRC}")
    return detmod.cli


# ---------------------------------------------------------------------------
# set-up

def set_up(build, seed: int, workdir: str):
    """Generate and write the inputs ``SETUP_REPEATS`` times, each time into a
    fresh directory, and keep the last copy.

    Returns the builder holding the rounds and the median time of one set-up.
    """
    from bench_workloads import Builder
    shutil.rmtree(workdir, ignore_errors=True)
    times, builders = [], []
    for k in range(SETUP_REPEATS):
        t0 = CLOCK()
        bld = Builder(os.path.join(workdir, f"setup{k}"))
        build(bld, seed)
        times.append(CLOCK() - t0)
        builders.append(bld)
    for bld in builders[:-1]:
        shutil.rmtree(bld.workdir)
    if len({bld.digest() for bld in builders}) != 1:
        raise SystemExit("error: the same seed generated different inputs")
    return builders[-1], statistics.median(times)


# ---------------------------------------------------------------------------
# running jobs

class Runner:
    """Runs jobs through the CLI entry point and checks their outputs.

    ``cli.main`` is looked up at each call, so a traced run goes through the
    tracer's wrapper of it.  With ``ref_every`` it samples the speed
    reference between jobs into ``ref_times``.
    """

    def __init__(self, cli, tracer=None, ref_every=None):
        self.cli = cli
        self.tracer = tracer
        self.ref_every = ref_every
        self.ref_times = []
        self._last_ref = float("-inf")
        self.records = []        # (verb, seconds, ok)
        self.bytes_in = 0
        self.bytes_out = 0
        self.failures_shown = 0

    def run_round(self, jobs) -> None:
        contexts = {}
        for job in jobs:
            self.run_job(job, contexts)

    def run_job(self, job, contexts: dict) -> None:
        """Run one job; ``contexts`` holds the shared check state per group."""
        ctx = contexts.setdefault(job.group, {})
        if os.path.exists(job.out):
            os.remove(job.out)
        if self.tracer is not None:
            self.tracer.new_job(len(self.records))
            self.bytes_in += sum(os.path.getsize(p) for p in job.reads)
        if self.ref_every is not None and CLOCK() - self._last_ref >= self.ref_every:
            self.ref_times.append(reference())
            self._last_ref = CLOCK()
        rc, error = None, None
        t0 = CLOCK()
        try:
            rc = self.cli.main(job.argv)
        except SystemExit as exc:          # argparse rejected the arguments
            error = f"exit {exc.code}"
        except Exception:                  # a crash fails the job, not the run
            error = traceback.format_exc(limit=3)
        seconds = CLOCK() - t0
        ok = error is None and self._check(job, rc, ctx)
        if self.tracer is not None and os.path.exists(job.out):
            self.bytes_out += os.path.getsize(job.out)
        if not ok:
            self._show_failure(job, rc, error)
        self.records.append((job.verb, seconds, ok))

    @staticmethod
    def _check(job, rc, ctx) -> bool:
        if rc not in (0, 1):
            return False
        try:
            with open(job.out, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            return bool(job.check(rc, report, ctx))
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            return False

    def _show_failure(self, job, rc, error) -> None:
        if self.failures_shown < 5:
            self.failures_shown += 1
            print(f"failed job: {' '.join(job.argv)} (exit {rc}) {error or ''}".rstrip(),
                  file=sys.stderr)


def run_passes(runner, rounds, passes: int, cap_s: float) -> list:
    """``passes`` passes over the whole pool; returns the summed job time of each.

    Every run of a workload times the same jobs the same number of times, so
    its medians and tail do not depend on how far a faster or slower run got.
    After ``cap_s`` the run stops at the end of the pass in progress.
    """
    times = []
    t0 = time.perf_counter()
    while len(times) < passes:
        first = len(runner.records)
        for jobs in rounds:
            runner.run_round(jobs)
        times.append(sum(s for _, s, _ in runner.records[first:]))
        if time.perf_counter() - t0 >= cap_s:
            break
    return times


def run_traced(cli, tracer, rounds, count: int) -> tuple:
    """Each job of ``count`` rounds twice in a row: untraced, then traced.

    Running the pair back to back keeps drifts in machine speed out of the
    overhead, which is the difference of the two sums of job times.
    """
    plain, traced = Runner(cli), Runner(cli, tracer)
    for i in range(count):
        plain_ctx, traced_ctx = {}, {}
        for job in rounds[i % len(rounds)]:
            plain.run_job(job, plain_ctx)
            tracer.install()
            try:
                traced.run_job(job, traced_ctx)
            finally:
                tracer.remove()
    return plain, traced


# ---------------------------------------------------------------------------
# metrics

def tail(latencies: list) -> tuple:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer the
    maximum stands in.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(records, pass_times: list, setup_s: float, verbs, scale: float = 1.0) -> dict:
    """``records`` come from ``len(pass_times)`` passes over the same jobs in
    the same order, and ``pass_times`` are the passes' job times.  Every time
    is multiplied by ``scale``.

    Throughput is taken over the median pass, and each job's timings are
    replaced by their median before the percentiles are taken, so a pass or a
    job slowed by the machine moves neither; the percentiles still count every
    timing, so the tail is the one of the N x passes samples.
    """
    passes = len(pass_times)
    n = len(records) // passes
    medians = [scale * statistics.median(s for _, s, _ in records[j::n]) for j in range(n)]
    latencies = [m for m in medians for _ in range(passes)]
    failed = sum(1 for _, _, ok in records if not ok)
    tail_s, _, _ = tail(latencies)
    out = {
        "setup_s": scale * setup_s,
        "jobs_per_s": n / (scale * statistics.median(pass_times)),
        "job_p50_ms": 1000.0 * statistics.median(latencies),
        "job_tail_ms": 1000.0 * tail_s,
        "failed_frac": failed / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for verb in verbs:
        times = [m for (v, _, _), m in zip(records, medians) if v == verb]
        out[f"{verb}_p50_ms"] = 1000.0 * statistics.median(times)
    return out


def print_table(metrics: dict, units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one traced round, for the benchmark's tests")
    args = parser.parse_args(argv)

    cli = import_detmod()
    import_s = CLOCK()          # from process start, interpreter start-up included
    sys.path.insert(0, HERE)
    import bench_trace
    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(bench_workloads.WORKLOADS)}")
    workload = bench_workloads.WORKLOADS[args.workload]
    build = bench_workloads.TINY[args.workload] if args.tiny else workload.build
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    bld, gen_s = set_up(build, args.seed, workdir)
    setup_s = import_s + gen_s
    rounds = bld.rounds
    spec = load_benchmark_spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"workload {args.workload}: {why.get(args.workload, '')}")
    print(f"  seed {args.seed}, {bld.files} input files, sha256 {bld.digest()}")

    if args.trace == 0:
        runner = Runner(cli, ref_every=REF_EVERY_S)
        passes = max(1, round(args.seconds / workload.pass_s))
        pass_times = run_passes(runner, rounds, passes, cap_s=3 * args.seconds)
        records = runner.records
        ref_s = statistics.median(runner.ref_times)
        metrics = end_to_end(records, pass_times, setup_s, workload.verbs, REF_NOMINAL_S / ref_s)
        _, pct, count = tail([s for _, s, _ in records])
        print(f"  untraced: {len(pass_times)} passes of {len(records) // len(pass_times)} "
              f"jobs, {sum(pass_times):.3f} s of job CPU time; job_tail_ms is p{pct:.2f} "
              f"of {count} samples")
        print(f"  speed reference: median {1000 * ref_s:.4f} ms over {len(runner.ref_times)} "
              f"samples; times below are scaled by {1000 * REF_NOMINAL_S:g} ms / that")
        units = dict(END_TO_END_UNITS, **{f"{v}_p50_ms": "ms" for v in workload.verbs})
        print_table(metrics, units)
        wanted = spec["end_to_end"]
    else:
        count = 1 if args.tiny else workload.trace_rounds
        tracer = bench_trace.Tracer()
        plain, traced = run_traced(cli, tracer, rounds, count)
        tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.spans"))
        records = plain.records + traced.records
        untraced_s = sum(s for _, s, _ in plain.records)
        traced_s = sum(s for _, s, _ in traced.records)
        metrics = bench_trace.layer_metrics(tracer)
        metrics["io.bytes_in"] = traced.bytes_in
        metrics["io.bytes_out"] = traced.bytes_out
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
        print(f"  traced: {count} rounds, {len(traced.records)} jobs, {len(tracer.kind)} spans; "
              f"jobs take {untraced_s:.3f} s untraced and {traced_s:.3f} s traced")
        units = dict(bench_trace.LAYER_METRICS, **{"trace.overhead_s": "s",
                                                     "trace.overhead_pct": "%"})
        print_table({name: metrics[name] for name in units}, units)
        wanted = spec["per_layer"]

    failed = sum(1 for _, _, ok in records if not ok)
    shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
