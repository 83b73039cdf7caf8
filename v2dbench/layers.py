"""Per-layer timing of a V2D run, recorded from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer with a
span that adds its *self* time (its duration minus the time of spans
opened inside it) and its call count to a per-layer tally.  Spans and
tallies are kept per thread, and a rank is a process (serial, ``mp``)
or a thread (``threads``), so each rank's tallies add up: the sum of
every layer's self time plus the untracked remainder is the rank's
wall time.

A call that re-enters the layer already on top of the stack (for
example ``StencilOperator.fill_ghosts`` calling
``HaloExchanger.exchange``) is part of that span and is not counted
again.  Nested calls into another layer are split off:
``SPAIPreconditioner.apply`` applies its inverse through
``StencilOperator.apply``, so that time is Matvec time and the
preconditioner keeps only its own share.

Two layers are wider than one module so that they exist on one rank
too.  ``parallel.halo`` is every ghost fill: the physical-boundary fill
on one rank, plus the exchange through ``HaloExchanger`` when
decomposed (the program's own ``halo_exchange`` profiler region covers
the same calls).  ``parallel.reduce`` is every global inner product:
the local DPROD of ``DotContext`` plus ``Communicator.allreduce`` and
``allreduce_batch``, where a rank waits for the slowest one.

Wrappers are installed on the classes and on the names that
``repro.transport.integrator`` imported (it binds
``build_radiation_system`` and ``bicgstab`` at import time).  Under the
``mp`` transport they must be installed before ranks fork; each forked
rank then tallies into its own copy of the tracer.  Each rank reads its
own tallies with :meth:`LayerTracer.snapshot`.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass

#: Layers in report order; each name is the prefix of its metrics.
LAYERS = (
    "transport.build",
    "precond.setup",
    "precond.apply",
    "operators.matvec",
    "bicgstab",
    "parallel.halo",
    "parallel.reduce",
)


@dataclass
class Tally:
    self_s: float = 0.0
    calls: int = 0


class _RankState:
    def __init__(self) -> None:
        self.tallies = {name: Tally() for name in LAYERS}
        self.iterations = 0
        # Open spans: [layer, start time, time covered by child spans].
        self.stack: list[list] = []


class LayerTracer:
    """Per-thread span stacks and per-layer tallies."""

    def __init__(self) -> None:
        self._local = threading.local()

    def _state(self) -> _RankState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _RankState()
        return state

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn, count: bool = True, count_iterations: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            tally = state.tallies[layer]
            frame = [layer, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                duration = time.perf_counter() - frame[1]
                tally.self_s += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if count:
                tally.calls += 1
            if count_iterations:
                state.iterations += result.iterations
            return result

        return wrapper

    def _patch(self, owner, name: str, layer: str, **kw) -> None:
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(layer, original.__func__, **kw))
        else:
            wrapped = self._wrap(layer, original, **kw)
        setattr(owner, name, wrapped)

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point, for the rest of the process."""
        from repro.linalg.bicgstab import DotContext
        from repro.linalg.operators import StencilOperator
        from repro.linalg.spai import JacobiPreconditioner, SPAIPreconditioner
        from repro.parallel.comm import Communicator
        from repro.parallel.halo import HaloExchanger, PendingExchange
        from repro.transport import integrator

        self._patch(integrator, "build_radiation_system", "transport.build")
        self._patch(integrator, "bicgstab", "bicgstab", count_iterations=True)
        for cls in (SPAIPreconditioner, JacobiPreconditioner):
            self._patch(cls, "from_stencil", "precond.setup")
            self._patch(cls, "apply", "precond.apply")
        self._patch(StencilOperator, "apply", "operators.matvec")
        self._patch(StencilOperator, "apply_dots", "operators.matvec")
        self._patch(StencilOperator, "fill_ghosts", "parallel.halo")
        self._patch(integrator.RadiationIntegrator, "_fill_ghosts", "parallel.halo")
        self._patch(HaloExchanger, "exchange", "parallel.halo")
        self._patch(HaloExchanger, "start", "parallel.halo")
        # Waiting for neighbour strips is halo time, but finishing is
        # part of the exchange already counted when it was started.
        self._patch(PendingExchange, "finish", "parallel.halo", count=False)
        for name in ("dot", "gang", "gang_matvec", "reduce_scalar"):
            self._patch(DotContext, name, "parallel.reduce")
        self._patch(Communicator, "allreduce", "parallel.reduce")
        self._patch(Communicator, "allreduce_batch", "parallel.reduce")

    def snapshot(self) -> dict:
        """The calling rank's tallies as plain data (its return value)."""
        state = self._state()
        return {
            "layers": {
                name: {"self_s": t.self_s, "calls": t.calls}
                for name, t in state.tallies.items()
            },
            "iterations": state.iterations,
        }
