"""One repetition of a benchmark workload, in a fresh process.

Usage::

    PYTHONPATH=src python3 v2dbench/worker.py '<job JSON>'

The job names the :meth:`V2DConfig.paper_test_problem` overrides, the
Gaussian-pulse parameters, whether to record per-layer spans
(``traced``) and whether to stop after set-up (``setup_only``).  The
last line of standard output is one JSON object with the repetition's
timings, checks and counters; a run that raises reports ``error``
instead of aborting the caller.

Set-up is timed from building the config to the moment every rank
holds a constructed :class:`Simulation` (with several ranks this
includes launching them); the run is timed from there until every rank
has finished its steps.  Imports come before the clock starts.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

import numpy as np
import scipy.linalg  # noqa: F401 - third-party import cost stays outside the clock
import scipy.sparse  # noqa: F401

from repro.parallel.cart import CartComm
from repro.parallel.runtime import run_spmd
from repro.problems import GaussianPulseProblem
from repro.v2d import Simulation, V2DConfig

#: Deadlock watchdog for blocking mp operations, in seconds.
RANK_TIMEOUT_S = 150.0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rank_run(cfg, problem, cart, tracer, setup_only: bool) -> dict:
    """Build and run one rank's Simulation; plain data for the launcher."""
    sim = Simulation(cfg, problem, cart=cart)
    t_ready = time.perf_counter()
    out = {"t_ready": t_ready}
    if setup_only:
        return out
    step_ends: list[float] = []
    cpu0 = time.process_time()
    report = sim.run(step_callback=lambda _sim, _rep: step_ends.append(time.perf_counter()))
    t_done = time.perf_counter()
    it = sim.integrator
    out.update(
        t_done=t_done,
        pid=os.getpid(),
        cpu=(cpu0, time.process_time()),
        step_ends=step_ends,
        peak_rss_mb=_peak_rss_mb(),
        solves=report.total_solves,
        converged=sum(s.converged for step in report.steps for s in step.solves),
        iterations=report.total_iterations,
        finite=bool(np.isfinite(it.E.interior).all() and np.isfinite(it.temp).all()),
        rel_err=report.solution_error,
        counters=report.counters.snapshot(),
    )
    if tracer is not None:
        out["layers"] = tracer.snapshot()
        out["own_wall_s"] = t_done - t_ready
    return out


def _cpu_seconds(ranks: list[dict]) -> float:
    """CPU time of the run over every process that hosts a rank.

    Process CPU time covers all of a process's threads, BLAS threads
    included; ranks that share a process (``threads``) count it once.
    """
    spans: dict[int, tuple[float, float]] = {}
    for r in ranks:
        lo, hi = spans.get(r["pid"], r["cpu"])
        spans[r["pid"]] = (min(lo, r["cpu"][0]), max(hi, r["cpu"][1]))
    return sum(hi - lo for lo, hi in spans.values())


def _rank_body(comm, cfg, problem, tracer, setup_only):
    cart = CartComm.create(
        comm, nx1=cfg.nx1, nx2=cfg.nx2, nprx1=cfg.nprx1, nprx2=cfg.nprx2
    )
    return _rank_run(cfg, problem, cart, tracer, setup_only)


def run_job(job: dict) -> dict:
    """Execute one repetition described by ``job``."""
    tracer = None
    if job.get("traced"):
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    setup_only = bool(job.get("setup_only"))
    pulse = job["pulse"]

    t0 = time.perf_counter()
    cfg = V2DConfig.paper_test_problem(**job["config"])
    problem = GaussianPulseProblem(
        center=tuple(pulse["center"]), amplitude_ratio=pulse["amplitude_ratio"]
    )
    if cfg.nranks == 1:
        ranks = [_rank_run(cfg, problem, None, tracer, setup_only)]
    else:
        ranks = run_spmd(
            cfg.nranks, _rank_body, cfg, problem, tracer, setup_only,
            timeout=RANK_TIMEOUT_S, transport=cfg.transport or None,
        )
    start = max(r["t_ready"] for r in ranks)
    result = {"setup_s": start - t0, "planned_solves": 3 * cfg.nsteps}
    if setup_only:
        return result

    lead = ranks[0]
    counters: dict[str, int] = {}
    for r in ranks:
        for key, val in r["counters"].items():
            counters[key] = counters.get(key, 0) + val
    result.update(
        wall_s=max(r["t_done"] for r in ranks) - start,
        cpu_s=_cpu_seconds(ranks),
        peak_rss_mb=max([_peak_rss_mb()] + [r["peak_rss_mb"] for r in ranks]),
        step_s=np.diff([start] + lead["step_ends"]).tolist(),
        solves=lead["solves"],
        converged=min(r["converged"] for r in ranks),
        iterations=lead["iterations"],
        finite=all(r["finite"] for r in ranks),
        rel_err=lead["rel_err"],
        counters=counters,
    )
    if tracer is not None:
        result["ranks"] = [
            {"wall_s": r["own_wall_s"], **r["layers"]} for r in ranks
        ]
    return result


def main(argv: list[str]) -> int:
    job = json.loads(argv[1])
    try:
        result = run_job(job)
    except Exception as exc:  # a failed run is a measured outcome
        traceback.print_exc(file=sys.stderr)
        result = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
