"""Solver workspace: preallocated BiCGSTAB scratch vectors.

:class:`SolverWorkspace` is a bundle of preallocated, shape-checked
scratch vectors the solver reuses across iterations *and* across
solves, making the vector backend's inner loop allocation-free (the
Python-level analogue of hoisting temporaries out of the loop).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

Array = np.ndarray

#: Scratch vectors the BiCGSTAB loop needs (direction, matvec results,
#: intermediate residuals, preconditioned vectors, one aliasing buffer).
WORKSPACE_NAMES: tuple[str, ...] = ("p", "v", "s", "t", "phat", "shat", "work")


class SolverWorkspace:
    """Preallocated solver scratch space, reused across solves.

    ``ensure(shape)`` (re)allocates the named buffers only when the
    operand shape changes; repeated solves on the same grid reuse the
    same memory.  ``allocations`` / ``reuses`` expose the hit rate so
    tests can assert the inner loop really is allocation-free.
    """

    def __init__(self, names: Sequence[str] = WORKSPACE_NAMES) -> None:
        self.names = tuple(names)
        self._arrays: dict[str, Array] = {}
        self.shape: tuple[int, ...] | None = None
        self.allocations = 0
        self.reuses = 0

    def ensure(self, shape: tuple[int, ...], dtype: type = np.float64) -> None:
        """Guarantee every named buffer exists with ``shape``."""
        shape = tuple(shape)
        if self.shape == shape and self._arrays:
            self.reuses += 1
            return
        self._arrays = {name: np.empty(shape, dtype=dtype) for name in self.names}
        self.shape = shape
        self.allocations += 1

    def array(self, name: str) -> Array:
        """The named scratch buffer (``ensure`` must have run)."""
        if not self._arrays:
            raise RuntimeError("SolverWorkspace.ensure() has not been called")
        return self._arrays[name]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverWorkspace(shape={self.shape}, "
            f"allocations={self.allocations}, reuses={self.reuses})"
        )

