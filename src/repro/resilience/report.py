"""Resilience observability: injected faults and recoveries by layer.

Everything the harness does is counted -- injections by site,
recoveries at the transport, solver, step and run layers, and the wall
time spent past the first BiCGSTAB attempt -- so a chaos sweep can
assert "the run completed *and* the machinery actually worked" rather
than "nothing happened to fail".
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.monitor.counters import Counters


@dataclass
class ResilienceReport:
    """Per-run (or rank-merged) resilience accounting."""

    faults_numeric: int = 0
    faults_comm: int = 0
    faults_io: int = 0
    comm_retransmits: int = 0
    solver_escalations: int = 0
    solver_fallbacks: int = 0
    step_retries: int = 0
    rollbacks: int = 0
    io_recoveries: int = 0
    degraded_solves: int = 0
    degraded_seconds: float = 0.0

    # ------------------------------------------------------------------
    @classmethod
    def from_counters(
        cls,
        counters: Counters,
        degraded_solves: int = 0,
        degraded_seconds: float = 0.0,
    ) -> "ResilienceReport":
        return cls(
            faults_numeric=counters.faults_numeric,
            faults_comm=counters.faults_comm,
            faults_io=counters.faults_io,
            comm_retransmits=counters.comm_retransmits,
            solver_escalations=counters.solver_escalations,
            solver_fallbacks=counters.solver_fallbacks,
            step_retries=counters.step_retries,
            rollbacks=counters.rollbacks,
            io_recoveries=counters.io_recoveries,
            degraded_solves=degraded_solves,
            degraded_seconds=degraded_seconds,
        )

    @property
    def total_injected(self) -> int:
        return self.faults_numeric + self.faults_comm + self.faults_io

    @property
    def total_recoveries(self) -> int:
        """Recovery actions across every layer.

        In decomposed runs, lockstep events (retries, rollbacks,
        escalations) are counted once per participating rank, the same
        sum-over-ranks convention as the other merged counters.
        """
        return (
            self.comm_retransmits
            + self.solver_escalations
            + self.solver_fallbacks
            + self.step_retries
            + self.rollbacks
            + self.io_recoveries
        )

    # ------------------------------------------------------------------
    def merge(self, other: "ResilienceReport") -> None:
        """Accumulate ``other`` into ``self`` (e.g. across ranks)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["total_injected"] = self.total_injected
        out["total_recoveries"] = self.total_recoveries
        return out

    def summary(self) -> str:
        lines = [
            "resilience:",
            f"  injected faults: {self.total_injected} "
            f"(numeric {self.faults_numeric}, comm {self.faults_comm}, "
            f"io {self.faults_io})",
            f"  recoveries: {self.total_recoveries} "
            f"(transport {self.comm_retransmits}, "
            f"solver {self.solver_escalations}+{self.solver_fallbacks}, "
            f"step {self.step_retries}, rollback {self.rollbacks}, "
            f"io {self.io_recoveries})",
        ]
        if self.degraded_solves:
            lines.append(
                f"  degraded mode: {self.degraded_solves} solves, "
                f"{self.degraded_seconds:.3f} s past the first solver attempt"
            )
        return "\n".join(lines)
