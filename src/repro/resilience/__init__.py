"""Fault injection + layered recovery.

Long campaigns on A64FX-class machines contend with transient faults,
solver breakdowns and interrupted jobs; production radiation-hydro
studies treat checkpoint/restart discipline and failure handling as
prerequisites, not afterthoughts.  This package gives the reproduction
both halves of that story:

* a deterministic, seedable **fault-injection harness**
  (:class:`FaultInjector`) with three sites -- kernel-level numeric
  corruption (:class:`FaultyBackend`), message-level comm faults
  (:class:`FaultyCommunicator`), and checkpoint-write io faults -- and
* a **layered recovery policy**: BiCGSTAB breakdown restarts, the
  solver escalation ladder (BiCGSTAB -> restarted BiCGSTAB -> GMRES,
  :func:`solve_with_escalation`), step-level dt backoff
  (:class:`RetryPolicy`), and run-level checkpoint rollback, each
  observable through :class:`ResilienceReport`.

Arm everything by attaching a :class:`ResilienceConfig` to the run
configuration; with none attached the hooks are inert and results are
bit-identical to an unwired build.
"""

from repro.resilience.config import ResilienceConfig
from repro.resilience.comm import FaultyCommunicator
from repro.resilience.errors import (
    NonFiniteStateError,
    ResilienceError,
    RollbackExhaustedError,
    StepRetryExhaustedError,
)
from repro.resilience.escalation import (
    SolveAttempt,
    SolveStats,
    solution_ok,
    solve_with_escalation,
)
from repro.resilience.faults import (
    COMM_KINDS,
    IO_KINDS,
    NUMERIC_KINDS,
    FaultInjector,
    FaultyBackend,
)
from repro.resilience.report import ResilienceReport
from repro.resilience.retry import RetryPolicy

__all__ = [
    "COMM_KINDS",
    "IO_KINDS",
    "NUMERIC_KINDS",
    "FaultInjector",
    "FaultyBackend",
    "FaultyCommunicator",
    "NonFiniteStateError",
    "ResilienceConfig",
    "ResilienceError",
    "ResilienceReport",
    "RetryPolicy",
    "RollbackExhaustedError",
    "SolveAttempt",
    "SolveStats",
    "StepRetryExhaustedError",
    "solution_ok",
    "solve_with_escalation",
]
