"""End-to-end benchmark of V2D's radiation solve, timed layer by layer.

Usage (from the repository root)::

    python3 v2dbench/run.py --workload paper --seed 0 --seconds 30 --trace 0

Workloads are defined in ``workloads.json``: each is a
:meth:`V2DConfig.paper_test_problem` variant on the paper grid (200x100
zones x 2 species) with the config defaults ``repro run`` uses: vector
backend, ganged+fused BiCGSTAB, profiler on, tracer and telemetry off.
The seed picks the Gaussian pulse's centre and species amplitude ratio;
seed 0 is the pulse ``repro run`` uses.

Every repetition runs in a fresh worker process (``worker.py``) so that
set-up, memory and CPU time are those of one run.  Repetitions repeat
until ``--seconds`` of measuring have passed, and each is checked: all
solves converged, the fields are finite, the relative L2 error against
the analytic solution is within the workload's ``rel_err_max`` and, for
a decomposed workload, agrees with the same run on one rank to
``agree_rtol``.  A failed check counts the repetition's solves as
failed; it never stops the measurement.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced repetitions with traced ones, whose per-layer self times come
from wrappers installed by ``layers.py``, and prints the per-layer
metrics.  The last line of standard output is the JSON result; the
lines before it are a readable report and the environment record.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: Seconds after start by which every worker has been stopped.
DEADLINE_S = 170.0
#: No repetition starts that is expected to end past this many seconds.
HARD_BUDGET_S = 150.0
#: Set-up samples per invocation; set-up-only workers make up the count.
SETUP_SAMPLES = 5
#: Pulse parameters of seed 0 (``GaussianPulseProblem()`` defaults).
PAPER_PULSE = {"center": [0.5, 0.5], "amplitude_ratio": 0.5}

#: (name, unit, better, bound) of the metrics printed with --trace 0.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("step_p50_s", "s", "lower", 0.25),
    ("step_tail_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("rel_err", "1", "lower", 0.1),
)

#: Layers reported as ``<layer>_s`` (self time) and ``<layer>_calls``.
_TIMED_LAYERS = ("transport.build", "precond.setup", "precond.apply", "operators.matvec")
#: Parallel-layer values are reported for rank 0 and over all ranks.
_RANKS = ("rank0", "min", "max")

#: (name, unit, better) of the metrics printed with --trace 1.
PER_LAYER = (
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "1", "higher"),
    ("trace.overhead", "1", "lower"),
    ("v2d.untracked_s", "s", "lower"),
    *(
        item
        for layer in _TIMED_LAYERS
        for item in ((f"{layer}_s", "s", "lower"), (f"{layer}_calls", "count", "lower"))
    ),
    ("bicgstab.self_s", "s", "lower"),
    ("bicgstab.iterations", "count", "lower"),
    ("bicgstab.iters_per_solve", "count", "lower"),
    ("bicgstab.solves", "count", "lower"),
    *(
        (f"parallel.{kind}_{what}.{who}", unit, "lower")
        for kind in ("halo", "reduce")
        for what, unit in (("s", "s"), ("calls", "count"))
        for who in _RANKS
    ),
    ("parallel.messages", "count", "lower"),
    ("parallel.bytes_sent", "B", "lower"),
    ("kernels.flops", "flop", "lower"),
    ("kernels.bytes_computed", "B", "lower"),
    ("kernels.flops_per_byte", "flop/B", "higher"),
    ("blas.cpu_per_wall", "1", "lower"),
)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def load_workloads() -> dict:
    with open(BENCH_DIR / "workloads.json") as fh:
        return json.load(fh)


def pulse_for_seed(seed: int) -> dict:
    """Gaussian-pulse parameters drawn from ``seed`` (0: the paper's)."""
    if seed == 0:
        return dict(PAPER_PULSE)
    import numpy as np

    rng = np.random.default_rng(seed)
    # Keep the pulse a few widths from the zero-Dirichlet walls of the
    # [0, 2] x [0, 1] domain so the analytic solution still applies.
    return {
        "center": [float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.45, 0.55))],
        "amplitude_ratio": float(rng.uniform(0.25, 1.0)),
    }


def make_job(spec: dict, pulse: dict, **flags) -> dict:
    return {"config": dict(spec["config"]), "pulse": pulse, **flags}


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------
def _worker_env() -> dict:
    # The program's own switches (transport, telemetry) come from the
    # workload, not the caller's shell; BLAS variables pass untouched.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(job: dict, timeout: float) -> dict:
    """Run one repetition in a fresh process group; its JSON result.

    The group is killed afterwards, so forked ranks of a worker that
    timed out or crashed cannot outlive it.
    """
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), json.dumps(job)],
        cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"worker timed out after {timeout:.0f} s"}
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": f"worker gave no result: {tail[0]}"}


class Clock:
    """Time budget of one invocation: measuring window and deadline."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.start = time.monotonic()
        self.measure_start = self.start
        self.durations: list[float] = []

    def run(self, job: dict) -> dict:
        """A worker that must end by the deadline."""
        return run_worker(job, self.start + DEADLINE_S - time.monotonic())

    def timed(self, job: dict) -> dict:
        """A measured repetition."""
        if not self.durations:
            self.measure_start = time.monotonic()
        t0 = time.monotonic()
        rep = self.run(job)
        self.durations.append(time.monotonic() - t0)
        return rep

    def more(self, satisfied: bool = True) -> bool:
        """Whether to start another repetition.

        Measuring stops once ``seconds`` have passed and the caller is
        ``satisfied``, or when the next repetition would run past the
        hard budget.
        """
        if not self.durations:
            return True
        now = time.monotonic()
        if now - self.start + statistics.median(self.durations) >= HARD_BUDGET_S:
            return False
        return now - self.measure_start < self.seconds or not satisfied


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------
def check(rep: dict, spec: dict, planned: int, reference: float | None) -> tuple[int, list[str]]:
    """Failed solves of one repetition and the reasons."""
    if "error" in rep:
        return planned, [f"aborted: {rep['error']}"]
    failed = planned - rep["converged"]
    problems = [f"{failed} of {planned} solves did not converge"] if failed else []
    # A wrong output makes every solve of the repetition a failure.
    wrong = []
    if not rep["finite"]:
        wrong.append("non-finite radiation field or temperature")
    err = rep["rel_err"]
    if err is None or not err <= spec["rel_err_max"]:
        wrong.append(f"rel_err {err} above {spec['rel_err_max']}")
    elif "agree_rtol" in spec and (
        reference is None or not abs(err - reference) <= spec["agree_rtol"] * reference
    ):
        wrong.append(f"rel_err {err!r} disagrees with 1-rank {reference!r}")
    if wrong:
        failed = planned
    return failed, problems + wrong


def reference_error(spec: dict, pulse: dict, clock: Clock) -> float | None:
    """``rel_err`` of the same workload on one rank, for agreement."""
    if "agree_rtol" not in spec:
        return None
    job = make_job(spec, pulse)
    job["config"].update(nprx1=1, nprx2=1, transport="")
    return clock.run(job).get("rel_err")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it.

    Returns ``(value, percentile)``; with ten samples or fewer there is
    no such percentile and the maximum is returned as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def _median_rep(reps: list[dict]) -> dict:
    """The repetition with the median wall time (lower middle)."""
    ordered = sorted(reps, key=lambda r: r["wall_s"])
    return ordered[(len(ordered) - 1) // 2]


def end_to_end_metrics(reps: list[dict], setups: list[float]) -> tuple[dict, list[str]]:
    steps = [s for r in reps for s in r["step_s"]]
    tail, pct = tail_percentile(steps)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "step_p50_s": statistics.median(steps),
        "step_tail_s": tail,
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "rel_err": statistics.median(r["rel_err"] for r in reps),
    }
    notes = [
        f"repetitions: {len(reps)}, set-up samples: {len(setups)}, steps: {len(steps)}",
        *(
            f"{name} quartiles over its samples: "
            + ", ".join(f"{q:.6g}" for q in statistics.quantiles(samples, n=4))
            for name, samples in (
                ("wall_s", [r["wall_s"] for r in reps]),
                ("cpu_s", [r["cpu_s"] for r in reps]),
                ("setup_s", setups),
            )
            if len(samples) >= 2
        ),
        f"step_tail_s is the p{pct:.1f} step time ({len(steps)} steps)",
        f"cpu_s / wall_s: {values['cpu_s'] / values['wall_s']:.2f}",
    ]
    return values, notes


def per_layer_metrics(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    rep = _median_rep(traced)
    ranks = rep["ranks"]
    lead = ranks[0]
    layers = lead["layers"]
    values: dict[str, float] = {}
    for layer in _TIMED_LAYERS:
        values[f"{layer}_s"] = layers[layer]["self_s"]
        values[f"{layer}_calls"] = layers[layer]["calls"]
    solves = layers["bicgstab"]["calls"]
    values.update({
        "bicgstab.self_s": layers["bicgstab"]["self_s"],
        "bicgstab.iterations": lead["iterations"],
        "bicgstab.iters_per_solve": lead["iterations"] / solves if solves else 0.0,
        "bicgstab.solves": solves,
    })
    per_rank_notes = []
    for kind in ("halo", "reduce"):
        for what, key in (("s", "self_s"), ("calls", "calls")):
            per_rank = [r["layers"][f"parallel.{kind}"][key] for r in ranks]
            values[f"parallel.{kind}_{what}.rank0"] = per_rank[0]
            values[f"parallel.{kind}_{what}.min"] = min(per_rank)
            values[f"parallel.{kind}_{what}.max"] = max(per_rank)
            per_rank_notes.append(
                f"parallel.{kind}_{what} per rank: " + ", ".join(f"{v:.6g}" for v in per_rank)
            )
    tracked = sum(t["self_s"] for t in layers.values())
    counters = rep["counters"]
    values.update({
        "trace.wall_s": lead["wall_s"],
        "trace.coverage": tracked / lead["wall_s"],
        "trace.overhead": rep["wall_s"] / statistics.median(r["wall_s"] for r in plain),
        "v2d.untracked_s": lead["wall_s"] - tracked,
        "parallel.messages": counters["messages_sent"],
        "parallel.bytes_sent": counters["bytes_sent"],
        "kernels.flops": counters["flops"],
        "kernels.bytes_computed": counters["bytes_loaded"] + counters["bytes_stored"],
        "blas.cpu_per_wall": statistics.median(r["cpu_s"] / r["wall_s"] for r in plain),
    })
    values["kernels.flops_per_byte"] = (
        values["kernels.flops"] / values["kernels.bytes_computed"]
    )
    largest = max(layers, key=lambda name: layers[name]["self_s"])
    notes = [
        f"traced repetitions: {len(traced)}, untraced: {len(plain)}",
        f"rank-0 self times + untracked = {tracked + values['v2d.untracked_s']:.6f} s"
        f" = trace.wall_s {lead['wall_s']:.6f} s",
        f"largest layer by self time: {largest}",
        "kernels.bytes_computed is the kernels' own traffic count, not a measurement",
        *per_rank_notes,
    ]
    return values, notes


# ---------------------------------------------------------------------------
def measure(spec: dict, pulse: dict, seconds: float, traced: bool) -> dict:
    """Run repetitions for ``seconds`` and fold them into the result."""
    clock = Clock(seconds)
    reference = reference_error(spec, pulse, clock)
    planned = 3 * spec["config"]["nsteps"]
    good: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    log: list[str] = []
    next_traced = False
    # A traced result needs one good repetition of each kind.
    while clock.more(satisfied=not traced or bool(good[True] and good[False])):
        rep = clock.timed(make_job(spec, pulse, traced=next_traced))
        n_failed, problems = check(rep, spec, planned, reference)
        attempted += planned
        failed += n_failed
        log.extend(problems)
        if not problems:
            good[next_traced].append(rep)
        next_traced = traced and not next_traced

    metrics: dict[str, float] = {}
    notes: list[str] = []
    if traced and good[True] and good[False]:
        metrics, notes = per_layer_metrics(good[True], good[False])
    elif not traced and good[False]:
        setups = [r["setup_s"] for r in good[False]]
        while len(setups) < SETUP_SAMPLES and time.monotonic() - clock.start < HARD_BUDGET_S:
            rep = clock.run(make_job(spec, pulse, setup_only=True))
            if "setup_s" in rep:
                setups.append(rep["setup_s"])
        metrics, notes = end_to_end_metrics(good[False], setups)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "problems": log,
        "reference_rel_err": reference,
    }


def main(argv: list[str] | None = None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"v2dbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from envinfo import environment

    spec = workloads[args.workload]
    pulse = pulse_for_seed(args.seed)
    traced = bool(args.trace)
    result = measure(spec, pulse, args.seconds, traced)
    specs = PER_LAYER if traced else END_TO_END
    metrics = result["metrics"]
    correct = result["failed"] == 0 and len(metrics) == len(specs)

    print(f"workload {args.workload} seed {args.seed}: config {spec['config']}, pulse {pulse}")
    for line in result["notes"] + [f"FAILED CHECK: {p}" for p in result["problems"]]:
        print(line)
    if result["reference_rel_err"] is not None:
        print(f"1-rank reference rel_err: {result['reference_rel_err']!r}")
    for name, unit, *_ in specs:
        if name in metrics:
            print(f"{name:32s} {metrics[name]:.6g} {unit}")
    print(f"solve_fail_ratio: {result['failed'] / max(result['attempted'], 1):.4g} "
          f"({result['failed']} of {result['attempted']} solves)")
    print("environment: " + json.dumps(environment(ROOT)))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, *_ in specs
            if name in metrics
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
