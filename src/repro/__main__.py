"""Command-line interface: ``python -m repro <command>``.

Commands regenerate the paper's artifacts or run the simulator:

* ``table1``      -- Table I (paper vs calibrated model)
* ``table2``      -- Table II (paper vs kernel model)
* ``breakdown``   -- the Sec. II-E time attributions
* ``dilution``    -- the kernel-vs-application SVE summary
* ``fig1``        -- the sparsity-pattern report
* ``calibration`` -- the Table-I fit coefficients and residuals
* ``scaling``     -- the future-work projection (larger problem, more ranks)
* ``run``         -- run the Gaussian-pulse problem at a chosen scale
* ``trace``       -- traced run exporting a Perfetto-loadable timeline
* ``chaos``       -- seeded fault-injection sweep against a clean baseline
* ``driver``      -- the Sec. II-F kernel driver on this substrate
* ``campaign``    -- sharded scaling-study runner with a result cache
* ``perf``        -- performance ledger: run / report / check / baseline
* ``serve``       -- simulation-as-a-service job server (asyncio TCP)
* ``submit``      -- client for a running ``serve`` instance
* ``top``         -- live telemetry view (serve scrape or sampler file)

Every command also accepts ``--log-level``/``--log-json`` (structured
logging to stderr) -- the flags are attached globally in :func:`main`.
"""

from __future__ import annotations

import argparse
import sys


def _parse_inject(spec: str | None) -> dict[str, float]:
    """Parse ``--inject "numeric=0.001,comm=0.01,io=0.2"`` into rates."""
    rates = {"numeric": 0.0, "comm": 0.0, "io": 0.0}
    if not spec:
        return rates
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            site, value = part.split("=")
            rates[site.strip()]  # KeyError on unknown site
            rates[site.strip()] = float(value)
        except (ValueError, KeyError):
            raise SystemExit(
                f"bad --inject entry {part!r}; expected site=rate with site "
                f"in {sorted(rates)}"
            ) from None
        if not 0.0 <= rates[site.strip()] <= 1.0:
            raise SystemExit(
                f"bad --inject entry {part!r}: rate must be a probability "
                f"in [0, 1], got {rates[site.strip()]}"
            )
    return rates


def _make_resilience(args: argparse.Namespace):
    """Build a ResilienceConfig from CLI flags, or None when inert."""
    from repro.resilience import ResilienceConfig, RetryPolicy

    rates = _parse_inject(getattr(args, "inject", None))
    if not any(rates.values()) and not getattr(args, "resilient", False):
        return None
    return ResilienceConfig(
        seed=args.inject_seed,
        numeric_rate=rates["numeric"],
        comm_rate=rates["comm"],
        io_rate=rates["io"],
        retry=RetryPolicy(
            max_attempts=args.retry_attempts,
            backoff=args.retry_backoff,
            dt_floor=args.dt_floor,
        ),
        max_rollbacks=args.max_rollbacks,
    )


def _transport_name(value: str) -> str:
    """Validate ``--transport`` against the links registry at parse time.

    Registry-driven (not a hardcoded ``choices=``) so plugged-in
    transports are accepted and the error names what actually exists.
    """
    from repro.parallel.links import registered_transports

    if value not in registered_transports():
        raise argparse.ArgumentTypeError(
            f"unknown transport {value!r}; registered transports: "
            f"{', '.join(registered_transports())}"
        )
    return value


def _backend_name(value: str) -> str:
    """Validate ``--backend`` against the backend registry at parse time.

    Registry-driven (not a hardcoded ``choices=``) so plugged-in
    backends -- the optional ``jit`` tier today, a GPU tier tomorrow --
    are accepted without CLI edits and the error names what exists.
    """
    from repro.backend import available_backends

    if value not in available_backends():
        raise argparse.ArgumentTypeError(
            f"unknown backend {value!r}; registered backends: "
            f"{', '.join(available_backends())}"
        )
    return value


def _add_backend_flag(p: argparse.ArgumentParser, default: str = "vector") -> None:
    p.add_argument("--backend", type=_backend_name, default=default,
                   metavar="NAME",
                   help="execution backend: vector (SVE analogue, default), "
                        "scalar (no-SVE), or jit (compiled fused loops; "
                        f"needs numba) [default: {default}]")


def _add_transport_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--transport", type=_transport_name, default=None,
                   metavar="NAME",
                   help="comm transport: in-process threads (default) or "
                        "one forked process per rank over shared memory; "
                        "unset falls back to $REPRO_TRANSPORT "
                        "(registered: threads, mp)")


def _resolve_transport(args: argparse.Namespace) -> str:
    from repro.parallel.links import (
        TRANSPORT_ENV,
        TransportUnavailableError,
        get_transport,
        registered_transports,
    )

    try:
        return get_transport(getattr(args, "transport", None)).name
    except TransportUnavailableError as exc:
        # An explicit flag was validated at parse time, so reaching
        # here means a bad $REPRO_TRANSPORT (or a platform without the
        # requested transport) -- fail at the front door, not inside
        # run_spmd.
        raise SystemExit(
            f"repro: {exc} (check --transport / ${TRANSPORT_ENV}; "
            f"registered transports: {', '.join(registered_transports())})"
        ) from None


def _add_resilience_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--inject", metavar="SITE=RATE[,...]", default=None,
                   help='fault rates, e.g. "numeric=0.001,comm=0.01,io=0.2"')
    p.add_argument("--inject-seed", type=int, default=0,
                   help="chaos seed (replays exactly per seed+rank)")
    p.add_argument("--resilient", action="store_true",
                   help="arm recovery layers even with no injection")
    p.add_argument("--retry-attempts", type=int, default=3,
                   help="step attempts before escalating to rollback")
    p.add_argument("--retry-backoff", type=float, default=0.5,
                   help="dt multiplier per step retry")
    p.add_argument("--dt-floor", type=float, default=1e-12,
                   help="smallest dt the backoff may reach")
    p.add_argument("--max-rollbacks", type=int, default=2,
                   help="checkpoint-rollback budget for the whole run")


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.problems import GaussianPulseProblem
    from repro.v2d import Simulation, V2DConfig, run_parallel

    cfg = V2DConfig(
        nx1=args.nx1, nx2=args.nx2, nsteps=args.nsteps, dt=args.dt,
        nprx1=args.nprx1, nprx2=args.nprx2,
        backend=args.backend, precond=args.precond,
        ganged=not args.classic,
        solver_tol=args.tol,
        checkpoint_path=args.checkpoint_path,
        checkpoint_interval=args.checkpoint_interval,
        resilience=_make_resilience(args),
        trace=bool(getattr(args, "trace", None)),
        transport=_resolve_transport(args),
    )
    problem = GaussianPulseProblem()
    with _run_sampler(args):
        if cfg.nranks == 1:
            reports = [Simulation(cfg, problem).run()]
        else:
            reports = run_parallel(cfg, problem)
    report = reports[0]
    print(report.summary())
    if args.profile:
        print()
        print(report.flat_profile())
    if getattr(args, "trace", None):
        code = _export_run_trace(reports, args.trace, problem.name)
        if code != 0:
            return code
    return 0 if report.all_converged else 1


def _run_sampler(args: argparse.Namespace):
    """``--telemetry PATH``: arm the gate and sample OpenMetrics to PATH.

    Returns a context manager wrapping the run; a no-op when the flag
    is unset so the default path stays bitwise-identical.
    """
    from contextlib import nullcontext

    path = getattr(args, "telemetry", None)
    if not path:
        return nullcontext()
    from repro.monitor import telemetry

    telemetry.set_enabled(True)
    return telemetry.Telemetry(path, interval=1.0)


def _export_run_trace(reports, path: str, problem_name: str) -> int:
    """Merge per-rank tracers, validate, write; 0 on a clean trace."""
    import sys as _sys

    from repro.monitor.trace import merged_payload, validate_trace, write_trace

    tracers = [rep.tracer for rep in reports if rep.tracer is not None]
    if not tracers:
        print("repro: no tracer attached to any rank report", file=_sys.stderr)
        return 1
    payload = merged_payload(
        tracers,
        metadata={"problem": problem_name, "nranks": len(reports)},
    )
    problems = validate_trace(payload)
    out = write_trace(payload, path)
    nevents = sum(len(t) for t in tracers)
    print(f"wrote {out}: {nevents} events over {len(tracers)} rank track(s)")
    if problems:
        print(f"trace validation failed ({len(problems)} problem(s)):",
              file=_sys.stderr)
        for msg in problems[:10]:
            print(f"  {msg}", file=_sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run the Gaussian pulse with tracing armed and export the timeline."""
    from repro.monitor.trace import merge_summaries
    from repro.problems import GaussianPulseProblem
    from repro.v2d import Simulation, V2DConfig, run_parallel

    cfg = V2DConfig(
        nx1=args.nx1, nx2=args.nx2, nsteps=args.nsteps, dt=args.dt,
        nprx1=args.nprx1, nprx2=args.nprx2,
        backend=args.backend, precond=args.precond,
        solver_tol=args.tol,
        trace=True,
        transport=_resolve_transport(args),
    )
    problem = GaussianPulseProblem()
    if cfg.nranks == 1:
        reports = [Simulation(cfg, problem).run()]
    else:
        reports = run_parallel(cfg, problem)
    code = _export_run_trace(reports, args.output, problem.name)

    tracers = [rep.tracer for rep in reports if rep.tracer is not None]
    summary = merge_summaries([t.summary() for t in tracers])
    spans = sorted(summary["spans"].items(), key=lambda kv: -kv[1]["us"])
    if spans:
        print(f"  {'span':<16} {'count':>8} {'total ms':>10}")
        for name, agg in spans[:12]:
            print(f"  {name:<16} {int(agg['count']):>8} "
                  f"{agg['us'] / 1000.0:>10.2f}")
    if summary["instants"]:
        marks = ", ".join(
            f"{name} x{n}" for name, n in sorted(summary["instants"].items())
        )
        print(f"  instants: {marks}")
    if code != 0:
        return code
    return 0 if reports[0].all_converged else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos sweep: clean baseline, then the same run under faults.

    Exits 0 only when the faulted run completes, the recovery machinery
    demonstrably engaged, and the final solution stays within tolerance
    of the fault-free baseline.
    """
    import tempfile

    from repro.problems import GaussianPulseProblem
    from repro.resilience import ResilienceReport
    from repro.v2d import Simulation, V2DConfig, run_parallel

    problem = GaussianPulseProblem()
    common = dict(
        nx1=args.nx1, nx2=args.nx2, nsteps=args.nsteps, dt=args.dt,
        nprx1=args.nprx1, nprx2=args.nprx2, precond=args.precond,
        backend=args.backend, solver_tol=args.tol, profile=False,
        transport=_resolve_transport(args),
    )

    def execute(cfg: V2DConfig):
        if cfg.nranks == 1:
            return [Simulation(cfg, problem).run()]
        return run_parallel(cfg, problem)

    baseline = execute(V2DConfig(**common))[0]
    err_ref = baseline.solution_error
    print(f"baseline: error {err_ref:.6e}, "
          f"energy {baseline.final_energy:.6e}")

    rc = _make_resilience(args)
    if rc is None:
        print("chaos: no fault rates given (--inject) -- nothing to sweep")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        cfg = V2DConfig(
            **common,
            checkpoint_path=f"{tmp}/chaos-ck",
            checkpoint_interval=max(1, args.nsteps // 4),
            resilience=rc,
        )
        reports = execute(cfg)

    merged = ResilienceReport()
    for rep in reports:
        if rep.resilience is not None:
            merged.merge(rep.resilience)
    chaos = reports[0]
    err = chaos.solution_error
    print(f"chaos:    error {err:.6e}, energy {chaos.final_energy:.6e}")
    print(merged.summary())

    import numpy as np

    tol = max(2.0 * err_ref, err_ref + args.error_margin)
    completed = chaos.nsteps >= args.nsteps
    recovered = merged.total_recoveries > 0
    accurate = err is not None and np.isfinite(err) and err <= tol
    print(
        f"verdict: completed={completed} recoveries={merged.total_recoveries} "
        f"error-ok={accurate} (tolerance {tol:.3e})"
    )
    return 0 if (completed and recovered and accurate) else 1


def _cmd_driver(args: argparse.Namespace) -> int:
    from repro.kernels import KernelDriver
    from repro.kernels.driver import format_table2, run_driver_spmd

    if args.ranks > 1:
        result = run_driver_spmd(
            args.ranks, n=args.n, reps=args.reps, backend=args.backend,
            transport=getattr(args, "transport", None),
            band_offset=min(200, args.n - 1),
        )
        print(result.table())
        return 0
    driver = KernelDriver(n=args.n, reps=args.reps,
                          band_offset=min(200, args.n - 1))
    no_sve, sve, _ratios = driver.compare()
    print(format_table2(no_sve, sve))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    from repro.perfmodel import CostModel

    model = CostModel()
    print(
        f"Future-work projection: problem scaled {args.scale}x per "
        f"direction ({200 * args.scale}x{100 * args.scale} zones)"
    )
    print(f"{'Np':>4} {'topology':>10} {'fujitsu':>9} {'cray-opt':>9}")
    fu = model.scaling_study("fujitsu", scale=args.scale)
    cr = model.scaling_study("cray-opt", scale=args.scale)
    for f, c in zip(fu, cr):
        print(
            f"{f.np_:>4} {f.nprx1:>5}x{f.nprx2:<4} {f.total:>9.2f} {c.total:>9.2f}"
        )
    return 0


def _report_cmd(name: str):
    def run(_args: argparse.Namespace) -> int:
        from repro.perfmodel import (
            breakdown_report,
            dilution_report,
            table1_report,
            table2_report,
        )
        from repro.perfmodel.calibrate import calibration_report

        if name == "fig1":
            from repro.linalg import pattern_report

            print(pattern_report(200, 100, 2))
            return 0
        if name == "roofline":
            from repro.perfmodel import RooflineModel

            print(RooflineModel().report())
            return 0
        fn = {
            "table1": table1_report,
            "table2": table2_report,
            "breakdown": breakdown_report,
            "dilution": dilution_report,
            "calibration": calibration_report,
        }[name]
        print(fn())
        return 0

    return run


class _VersionAction(argparse.Action):
    """``--version`` with the git fingerprint resolved only on demand
    (running git on every CLI invocation would be wasted work)."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from repro.perf.schema import version_string

        print(f"{parser.prog} {version_string()}")
        parser.exit()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="V2D / SVE study reproduction"
    )
    parser.add_argument(
        "--version", action=_VersionAction,
        help="show version, git revision and dirty flag",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("table1", "table2", "breakdown", "dilution", "calibration",
                 "fig1", "roofline"):
        p = sub.add_parser(name, help=f"print the {name} report")
        p.set_defaults(fn=_report_cmd(name))

    p = sub.add_parser("scaling", help="future-work scaling projection")
    p.add_argument("--scale", type=int, default=2)
    p.set_defaults(fn=_cmd_scaling)

    p = sub.add_parser("run", help="run the Gaussian-pulse problem")
    p.add_argument("--nx1", type=int, default=48)
    p.add_argument("--nx2", type=int, default=48)
    p.add_argument("--nsteps", type=int, default=5)
    p.add_argument("--dt", type=float, default=2e-4)
    p.add_argument("--nprx1", type=int, default=1)
    p.add_argument("--nprx2", type=int, default=1)
    _add_backend_flag(p)
    p.add_argument("--precond", choices=("spai", "jacobi", "none"), default="spai")
    p.add_argument("--classic", action="store_true",
                   help="textbook BiCGSTAB instead of ganged reductions")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--profile", action="store_true")
    p.add_argument("--checkpoint-path", default=None)
    p.add_argument("--checkpoint-interval", type=int, default=0)
    p.add_argument("--trace", metavar="PATH", default=None,
                   help="arm the tracer and write the merged per-rank "
                        "timeline (Chrome trace-event JSON) to PATH")
    p.add_argument("--telemetry", metavar="PATH", default=None,
                   help="arm live telemetry and sample OpenMetrics to "
                        "PATH every second (poll with `repro top --file`)")
    _add_transport_flag(p)
    _add_resilience_flags(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "trace",
        help="traced Gaussian-pulse run exporting a Perfetto timeline",
    )
    p.add_argument("--nx1", type=int, default=48)
    p.add_argument("--nx2", type=int, default=48)
    p.add_argument("--nsteps", type=int, default=5)
    p.add_argument("--dt", type=float, default=2e-4)
    p.add_argument("--nprx1", type=int, default=1)
    p.add_argument("--nprx2", type=int, default=1)
    _add_backend_flag(p)
    p.add_argument("--precond", choices=("spai", "jacobi", "none"), default="spai")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--output", default="trace.json",
                   help="trace artifact path (default: trace.json)")
    _add_transport_flag(p)
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser(
        "chaos", help="seeded fault-injection sweep vs a clean baseline"
    )
    p.add_argument("--nx1", type=int, default=32)
    p.add_argument("--nx2", type=int, default=16)
    p.add_argument("--nsteps", type=int, default=6)
    p.add_argument("--dt", type=float, default=2e-4)
    p.add_argument("--nprx1", type=int, default=1)
    p.add_argument("--nprx2", type=int, default=1)
    p.add_argument("--precond", choices=("spai", "jacobi", "none"),
                   default="jacobi")
    _add_backend_flag(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--error-margin", type=float, default=1e-3,
                   help="absolute slack allowed over the baseline error")
    _add_transport_flag(p)
    _add_resilience_flags(p)
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("driver", help="the Sec. II-F kernel driver")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--reps", type=int, default=50)
    p.add_argument("--ranks", type=int, default=1,
                   help="run the driver on an SPMD job of this many ranks")
    _add_backend_flag(p, default="scalar")
    _add_transport_flag(p)
    p.set_defaults(fn=_cmd_driver)

    from repro.campaign.cli import add_campaign_parser
    from repro.monitor.log import add_logging_flags, configure_from_args
    from repro.monitor.top import add_top_parser
    from repro.perf.cli import add_perf_parser
    from repro.serve.cli import add_serve_parser, add_submit_parser

    add_campaign_parser(sub)
    add_perf_parser(sub)
    add_serve_parser(sub)
    add_submit_parser(sub)
    add_top_parser(sub)

    # Structured-logging flags ride on every verb (aliases share parser
    # objects, so dedupe by identity before attaching).
    seen: set[int] = set()
    for verb in sub.choices.values():
        if id(verb) not in seen:
            seen.add(id(verb))
            add_logging_flags(verb)

    args = parser.parse_args(argv)
    configure_from_args(args)
    try:
        return args.fn(args)
    except KeyError as exc:
        from repro.backend.jit import NUMBA_HINT

        # The backend *name* validates at parse time; whether the jit
        # tier can actually run is decided when the backend is built.
        # Surface that one failure as a front-door message, not a
        # traceback.
        if exc.args and exc.args[0] == NUMBA_HINT:
            raise SystemExit(f"repro: {NUMBA_HINT}") from None
        raise


if __name__ == "__main__":
    sys.exit(main())
