"""Fused-kernel hot path — whole-application timing and launch counts.

BiCGSTAB runs one loop whose Matvecs carry their ganged dots, whose
true residuals pair DSCAL with the norm, and whose solution update is
one DDAXPY, all drawing scratch vectors from a reusable workspace.
Whether each pairing fuses at register level is a backend capability
(``native_fused_ops``), not a solver mode, so there is no unfused run
to compare against; the bitwise native==composed, launch and reduction
contracts live in ``tests/test_fused.py``.  This benchmark runs the
scaled Gaussian-pulse problem on the vector (SVE-proxy) backend and
records:

* whole-app wall and CPU seconds over repeated runs with the garbage
  collector off (median, with the MAD and the samples);
* kernel launches, fused-op count, reduction rounds and iterations.

A jit row records the same run on the compiled tier wherever numba is
installed.  Besides the rendered text report it records ledger entries
through the :mod:`repro.perf` harness; the suite snapshot
``BENCH_fused.json`` is the machine-readable artifact CI archives for
trend tracking.
"""

import gc
import time

import numpy as np

from repro.problems import GaussianPulseProblem
from repro.v2d import Simulation, V2DConfig

REPEATS = 9
#: A deliberately solver-dominant configuration: the large timestep
#: needs ~13 BiCGSTAB iterations per solve, so >80% of the wall time
#: sits in the solver loop (at the default timestep the system build
#: dilutes it -- the same Amdahl dilution the paper reports for
#: whole-app SVE speedup).
CFG = dict(
    scale=1,
    nx1=120,
    nx2=90,
    nsteps=3,
    dt=2e-2,
    precond="jacobi",
    solver_tol=1e-8,
    profile=False,
)


def make_sim(backend: str = "vector") -> Simulation:
    cfg = V2DConfig.scaled_test_problem(backend=backend, **CFG)
    return Simulation(cfg, GaussianPulseProblem())


def run_once():
    sim = make_sim()
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    c0 = time.process_time()
    sim.run()
    cpu = time.process_time() - c0
    wall = time.perf_counter() - t0
    gc.enable()
    solves = [s for rep in sim.step_reports for s in rep.solves]
    return {
        "wall": wall,
        "cpu": cpu,
        "E": sim.integrator.E.interior.copy(),
        "kernel_calls": sim.counters.kernel_calls,
        "fused_ops": sim.counters.fused_ops,
        "iterations": sum(s.iterations for s in solves),
        "reduction_rounds": sum(s.reductions for s in solves),
        "converged": all(s.converged for s in solves),
    }


class TestFusedBenchmark:
    # NOTE: the repeated timing must run before the single-shot app
    # benchmarks.  The ``benchmark`` fixture keeps its target
    # simulations alive for the session report, and that retained
    # memory measurably skews the timing if it is already resident
    # (pytest runs tests in definition order).
    def test_fused_app(self, bench_record, write_report):
        run_once()                               # warm-up
        runs = [run_once() for _ in range(REPEATS)]
        last = runs[-1]
        walls = [r["wall"] for r in runs]
        cpus = [r["cpu"] for r in runs]

        # Every run is the same computation: same bits, same counts.
        for r in runs:
            assert r["converged"]
            np.testing.assert_array_equal(r["E"], last["E"])
            for key in ("kernel_calls", "fused_ops", "iterations",
                        "reduction_rounds"):
                assert r[key] == last[key], key
        assert last["fused_ops"] > 0

        # The suite snapshot BENCH_fused.json is the CI trend artifact.
        from repro.perf import Metric, mad, median

        config = {**CFG, "backend": "vector", "repeats": REPEATS}
        bench_record.record(
            "fused_app",
            {
                "wall_seconds": Metric(
                    value=median(walls), kind="time", unit="s",
                    repeats=len(walls), mad=mad(walls), samples=sorted(walls),
                ),
                "cpu_seconds": Metric(
                    value=median(cpus), kind="time", unit="s",
                    repeats=len(cpus), mad=mad(cpus), samples=sorted(cpus),
                ),
                "kernel_launches": (float(last["kernel_calls"]), "count"),
                "fused_ops": (float(last["fused_ops"]), "count"),
                "reduction_rounds": (float(last["reduction_rounds"]), "count"),
                "solver_iterations": (float(last["iterations"]), "count"),
            },
            config=config,
            backend="vector",
        )
        json_path = bench_record.ledger.suite_path(bench_record.suite)

        write_report(
            "fused",
            "\n".join(
                [
                    "FUSED KERNELS — whole-app wall time, vector backend",
                    f"  wall   : {median(walls):.4f} s  "
                    f"(median of {REPEATS} runs; CPU {median(cpus):.4f} s)",
                    f"  counts : {last['kernel_calls']} launches, "
                    f"{last['fused_ops']} fused ops, "
                    f"{last['reduction_rounds']} reduction rounds, "
                    f"{last['iterations']} iterations",
                    f"[json written to {json_path.name}]",
                ]
            ),
        )

    def test_bench_fused_app(self, benchmark):
        sim = make_sim()
        benchmark.pedantic(sim.run, rounds=1, iterations=1)

    def test_bench_fused_app_jit(self, benchmark, bench_record):
        # The jit row: the same solver-dominant fused run on the
        # compiled tier, recorded beside the vector row so the ledger
        # carries the comparison wherever numba is installed.
        # A full warm-up run (not just one call) precedes the timed
        # round so every kernel the app touches is compiled up front.
        import pytest

        pytest.importorskip("numba")
        make_sim(backend="jit").run()
        sim = make_sim(backend="jit")
        benchmark.pedantic(sim.run, rounds=1, iterations=1)
        solves = [s for rep in sim.step_reports for s in rep.solves]
        assert all(s.converged for s in solves)
        assert sim.counters.fused_ops > 0  # the capability gate held
        bench_record.record(
            "fused_app_jit",
            {
                "kernel_launches": (float(sim.counters.kernel_calls), "count"),
                "fused_ops": (float(sim.counters.fused_ops), "count"),
                "solver_iterations": (
                    float(sum(s.iterations for s in solves)), "count",
                ),
            },
            config={**CFG, "backend": "jit"},
            backend="jit",
        )
