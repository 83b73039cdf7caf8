"""Resilience configuration: what to inject, how to recover.

Attaching a :class:`ResilienceConfig` to a
:class:`~repro.v2d.config.V2DConfig` arms the whole stack: numeric
faults wrap the execution backend, comm faults wrap the communicator,
io faults strike checkpoint writes, and the three recovery layers
(solver escalation, step retry, run rollback) come online.  With no
resilience config attached (the default) every hook is inert and the
run is bit-identical to an unwired build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.monitor.counters import Counters
from repro.resilience.faults import NUMERIC_KINDS, FaultInjector
from repro.resilience.retry import RetryPolicy


@dataclass
class ResilienceConfig:
    """Fault-injection rates and recovery-policy knobs.

    Parameters
    ----------
    seed:
        Chaos seed; together with the rank it fixes every fault draw.
    numeric_rate, comm_rate, io_rate:
        Per-event injection probabilities (0 disables a site).
    numeric_kinds:
        Corruption styles for numeric/comm payload faults.
    escalation:
        Arm the solver-level ladder (BiCGSTAB -> restarted BiCGSTAB ->
        GMRES).
    retry:
        Step-level dt-backoff policy.
    max_rollbacks:
        Run-level checkpoint-rollback budget (0 disables rollback).
    """

    seed: int = 0
    numeric_rate: float = 0.0
    comm_rate: float = 0.0
    io_rate: float = 0.0
    numeric_kinds: tuple[str, ...] = NUMERIC_KINDS
    escalation: bool = True
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_rollbacks: int = 2

    def __post_init__(self) -> None:
        for name in ("numeric_rate", "comm_rate", "io_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.max_rollbacks < 0:
            raise ValueError("max_rollbacks must be non-negative")
        self.numeric_kinds = tuple(self.numeric_kinds)
        unknown = set(self.numeric_kinds) - set(NUMERIC_KINDS)
        if unknown or not self.numeric_kinds:
            raise ValueError(
                f"numeric_kinds must be a non-empty subset of {NUMERIC_KINDS}"
            )

    # ------------------------------------------------------------------
    @property
    def injection_enabled(self) -> bool:
        return self.numeric_rate > 0 or self.comm_rate > 0 or self.io_rate > 0

    def make_injector(
        self, rank: int = 0, counters: Counters | None = None
    ) -> FaultInjector | None:
        """This rank's seeded injector; ``None`` when nothing injects."""
        if not self.injection_enabled:
            return None
        return FaultInjector(
            seed=self.seed,
            rank=rank,
            numeric_rate=self.numeric_rate,
            comm_rate=self.comm_rate,
            io_rate=self.io_rate,
            numeric_kinds=self.numeric_kinds,
            counters=counters,
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "numeric_rate": self.numeric_rate,
            "comm_rate": self.comm_rate,
            "io_rate": self.io_rate,
            "numeric_kinds": list(self.numeric_kinds),
            "escalation": self.escalation,
            "retry": self.retry.to_dict(),
            "max_rollbacks": self.max_rollbacks,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResilienceConfig":
        kw = dict(data)
        if "numeric_kinds" in kw:
            kw["numeric_kinds"] = tuple(kw["numeric_kinds"])
        if "retry" in kw and not isinstance(kw["retry"], RetryPolicy):
            kw["retry"] = RetryPolicy.from_dict(kw["retry"])
        return cls(**kw)
