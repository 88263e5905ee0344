"""Tests of the benchmark itself: python3 -m pytest perfbench

The smoke tests run ``run.py`` on tiny inputs in a subprocess; the negative
tests feed the output checks a corrupted artifact and a wrong verdict and
assert that both are counted as failed jobs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run as bench_run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _printed_units(stdout: str) -> dict:
    """Metric name -> unit from the table lines above the result line."""
    units = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            units[parts[0]] = parts[2]
    return units


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_end_to_end_metric_is_printed(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0",
                "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    units = _printed_units(proc.stdout)
    expected = dict(bench_run.END_TO_END_UNITS)
    expected.update({f"{verb}_p50_ms": "ms" for verb in bw.WORKLOADS[workload].verbs})
    assert units == expected
    assert units["failed_frac"] == "ratio"


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_traced_run_prints_every_layer_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "1",
                "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    units = _printed_units(proc.stdout)
    expected = dict(bench_trace.LAYER_METRICS)
    expected.update({"trace.overhead_s": "s", "trace.overhead_pct": "%"})
    assert units == expected


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "query",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs(tmp_path):
    def digest(seed, folder):
        bld = bw.Builder(str(tmp_path / folder))
        bw.TINY["query"](bld, seed)
        return bld.digest()
    assert digest(5, "a") == digest(5, "b")
    assert digest(5, "a") != digest(6, "c")


@pytest.fixture(scope="module")
def cli():
    return bench_run.import_detmod()


def _jobs(group):
    return {job.verb: job for job in group}


def _rewrite(path, change):
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    change(obj)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def test_corrupted_presentation_is_a_failed_job(cli, tmp_path):
    import random
    bld = bw.Builder(str(tmp_path))
    group = bw.roundtrip_group(bld, "m", random.Random(4), random.Random(5), bw.F5, 2, 2)
    jobs = _jobs(group)
    runner = bench_run.Runner(cli)
    runner.run_round([jobs["present"]])

    def drop_everything(pres):
        pres["generators"], pres["relations"], pres["rel_matrix"] = [], [], []
    _rewrite(jobs["present"].out, drop_everything)
    runner.run_round([jobs["verify_pres"]])
    assert [ok for _, _, ok in runner.records] == [True, False]
    metrics = bench_run.end_to_end(runner.records, [1.0], 1.0, ())
    assert metrics["failed_frac"] == 0.5


class _FlipOracle:
    """The CLI with the --oracle verdict inverted, as a faulty build would give."""

    def __init__(self, cli):
        self.cli = cli

    def main(self, argv):
        rc = self.cli.main(argv)
        if "--oracle" in argv:
            out = argv[argv.index("--out") + 1]
            _rewrite(out, lambda rep: rep.update(holds=not rep["holds"]))
            rc = 1 - rc
        return rc


def test_wrong_verdict_is_a_failed_job(cli, tmp_path):
    import random
    bld = bw.Builder(str(tmp_path))
    group = bw.query_group(bld, "m", random.Random(2), random.Random(3), bw.F2, (3, 3), "corner")
    honest = bench_run.Runner(cli)
    honest.run_round(group)
    assert all(ok for _, _, ok in honest.records)
    faulty = bench_run.Runner(_FlipOracle(cli))
    faulty.run_round(group)
    assert [verb for verb, _, ok in faulty.records if not ok] == ["oracle"]
    metrics = bench_run.end_to_end(faulty.records, [1.0], 1.0, ())
    assert metrics["failed_frac"] == pytest.approx(1 / 3)


def test_end_to_end_takes_per_job_medians_and_scales():
    # Two jobs over three passes; the machine slowed the second pass.
    records = [("a", 1.0, True), ("b", 3.0, True),
               ("a", 9.0, True), ("b", 9.0, True),
               ("a", 1.2, True), ("b", 3.2, True)]
    metrics = bench_run.end_to_end(records, [4.0, 18.0, 4.4], 0.5, ("a", "b"), scale=2.0)
    assert metrics["a_p50_ms"] == pytest.approx(2400.0)
    assert metrics["b_p50_ms"] == pytest.approx(6400.0)
    assert metrics["job_p50_ms"] == pytest.approx(4400.0)
    assert metrics["jobs_per_s"] == pytest.approx(2 / (2.0 * 4.4))
    assert metrics["setup_s"] == pytest.approx(1.0)


def test_tracer_wraps_every_namespace_and_restores_it(cli):
    import detmod.linalg
    import detmod.presentation
    rank = detmod.linalg.rank
    assert detmod.presentation.rank is rank
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert detmod.linalg.rank is not rank
        assert detmod.presentation.rank is detmod.linalg.rank
        assert detmod.rank is detmod.linalg.rank
        detmod.presentation.rank(detmod.Matrix.identity(detmod.PrimeField(2), 2))
    finally:
        tracer.remove()
    assert detmod.linalg.rank is rank and detmod.presentation.rank is rank
    assert list(tracer.names[k] for k in tracer.kind) == ["rank"]
    assert bench_trace.layer_metrics(tracer)["linalg.elim.cells"] == 4
