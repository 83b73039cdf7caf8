"""Tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest v2dbench/test_counts.py

The counts a run reports (``RunReport.counters`` and the BiCGSTAB
iteration tally) must repeat exactly for the same seed at the same BLAS
setting; the benchmark's metric lists must match ``BENCHMARK.json``; and
without the program's sources the benchmark must fail, not report.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run


def _job(workload: str, nsteps: int, **flags) -> dict:
    spec = run.load_workloads()[workload]
    job = run.make_job(spec, run.pulse_for_seed(7), **flags)
    job["config"]["nsteps"] = nsteps
    return job


@pytest.mark.parametrize(
    "workload,nsteps",
    [("paper", 1), ("krylov", 2), ("krylov_threads2", 2), ("krylov_mp2", 1)],
)
def test_counts_repeat_for_the_same_seed(workload, nsteps):
    first, second = (
        run.run_worker(_job(workload, nsteps, traced=True), 120.0) for _ in range(2)
    )
    assert "error" not in first and "error" not in second
    assert first["counters"] == second["counters"]
    assert first["iterations"] == second["iterations"]
    assert [r["iterations"] for r in first["ranks"]] == [
        r["iterations"] for r in second["ranks"]
    ]


def test_traced_layers_add_up_and_match_the_counters():
    nsteps = 2
    traced = run.run_worker(_job("krylov", nsteps, traced=True), 120.0)
    plain = run.run_worker(_job("krylov", nsteps), 120.0)
    values, _notes = run.per_layer_metrics([traced], [plain])
    layer_sum = sum(
        values[name]
        for name in (
            "transport.build_s", "precond.setup_s", "precond.apply_s",
            "operators.matvec_s", "bicgstab.self_s",
            "parallel.halo_s.rank0", "parallel.reduce_s.rank0",
        )
    )
    assert values["v2d.untracked_s"] >= 0.0
    assert layer_sum + values["v2d.untracked_s"] == pytest.approx(values["trace.wall_s"])
    counters = traced["counters"]
    assert values["operators.matvec_calls"] == counters["matvecs"]
    assert values["bicgstab.iterations"] == counters["solver_iterations"]
    assert values["bicgstab.solves"] == values["transport.build_calls"] == 3 * nsteps
    assert values["precond.setup_calls"] == 3 * nsteps


def test_checks_count_failed_solves():
    spec = run.load_workloads()["krylov_mp2"]
    good = {"converged": 9, "finite": True, "rel_err": 0.18}
    assert run.check(good, spec, 9, 0.18) == (0, [])
    assert run.check({**good, "converged": 7}, spec, 9, 0.18)[0] == 2
    assert run.check({**good, "finite": False}, spec, 9, 0.18)[0] == 9
    assert run.check({**good, "rel_err": 0.5}, spec, 9, 0.5)[0] == 9
    assert run.check({**good, "rel_err": 0.1801}, spec, 9, 0.18)[0] == 9
    assert run.check(good, spec, 9, None)[0] == 9
    assert run.check({"error": "boom"}, spec, 9, 0.18)[0] == 9


def test_tail_percentile_leaves_ten_samples_above():
    samples = [float(i) for i in range(40)]
    value, pct = run.tail_percentile(samples)
    assert sum(s > value for s in samples) == 10
    assert pct == 75.0
    assert run.tail_percentile([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_metric_lists_match_benchmark_json():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    ] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        run.PER_LAYER
    )
    workloads = run.load_workloads()
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (name, spec["why"]) for name, spec in workloads.items() if "dropped" not in spec
    ]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "krylov",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
