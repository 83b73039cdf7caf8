"""Multi-species grid-shaped Matvec.

V2D never stores the sparse system matrix.  The operator is kept as
five stencil-coefficient arrays per species (plus a pointwise
species-coupling block) with the same spatial shape as the 2-D grid,
and the Krylov solver's Matvec applies the finite-difference operator
directly to grid-shaped vectors.  This module implements exactly that
representation.

Index conventions
-----------------
Fields are ``(ns, nx1, nx2)`` arrays: species index first, then the x1
and x2 zone indices.  Ghost-padded work fields are
``(ns, nx1 + 2, nx2 + 2)``.  With dictionary ordering (x1 fastest, then
x2, species slowest) the equivalent assembled matrix is the five-banded
structure of the paper's Fig. 1: bands at offsets ``0``, ``+/-1`` (x1
neighbours) and ``+/-x1`` (x2 neighbours), with pointwise
species-coupling entries appearing at offset ``+/- nx1*nx2`` blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend.base import Array, Backend
from repro.backend.dispatch import native_fused_ops
from repro.kernels.suite import KernelSuite


@dataclass
class StencilCoefficients:
    """Coefficients of the matrix-free operator.

    Attributes
    ----------
    diag, west, east, south, north:
        ``(ns, nx1, nx2)`` stencil coefficients per species.  ``west`` /
        ``east`` couple along x1 (``i-1`` / ``i+1``), ``south`` /
        ``north`` along x2 (``j-1`` / ``j+1``).
    coupling:
        Optional ``(ns, ns, nx1, nx2)`` pointwise inter-species
        coupling; entry ``[s, sp]`` multiplies species ``sp`` in the
        equation for species ``s``.  The ``[s, s]`` diagonal must be
        zero (self coupling belongs in ``diag``).
    """

    diag: Array
    west: Array
    east: Array
    south: Array
    north: Array
    coupling: Array | None = None

    def __post_init__(self) -> None:
        shape = self.diag.shape
        if self.diag.ndim != 3:
            raise ValueError(f"coefficients must be (ns, nx1, nx2), got {shape}")
        for name in ("west", "east", "south", "north"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} != diag shape {shape}")
        if self.coupling is not None:
            ns = shape[0]
            want = (ns, ns, shape[1], shape[2])
            if self.coupling.shape != want:
                raise ValueError(
                    f"coupling shape {self.coupling.shape} != {want}"
                )
            for s in range(ns):
                if np.any(self.coupling[s, s] != 0.0):
                    raise ValueError(
                        "coupling diagonal must be zero (fold it into diag)"
                    )

    @property
    def nspec(self) -> int:
        return self.diag.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """Interior grid shape ``(nx1, nx2)``."""
        return self.diag.shape[1], self.diag.shape[2]

    @property
    def nunknowns(self) -> int:
        return self.diag.size

    @classmethod
    def zeros(cls, ns: int, nx1: int, nx2: int, coupled: bool = False) -> "StencilCoefficients":
        """All-zero coefficients (coupling block allocated iff ``coupled``)."""
        mk = lambda: np.zeros((ns, nx1, nx2))  # noqa: E731
        coupling = np.zeros((ns, ns, nx1, nx2)) if coupled else None
        return cls(diag=mk(), west=mk(), east=mk(), south=mk(), north=mk(), coupling=coupling)

    def copy(self) -> "StencilCoefficients":
        return StencilCoefficients(
            diag=self.diag.copy(),
            west=self.west.copy(),
            east=self.east.copy(),
            south=self.south.copy(),
            north=self.north.copy(),
            coupling=None if self.coupling is None else self.coupling.copy(),
        )


@dataclass
class MultiSpeciesStencil:
    """Applies :class:`StencilCoefficients` to ghost-padded fields.

    The caller (usually :class:`repro.linalg.operators.StencilOperator`)
    is responsible for filling ghost zones (physical boundary conditions
    and/or halo exchange) *before* :meth:`apply`.
    """

    coeffs: StencilCoefficients
    suite: KernelSuite = field(default_factory=KernelSuite)
    #: Interior-shaped scratch reused across fused applies, so the
    #: fused hot path allocates nothing after the first call.
    _scratch: Array | None = field(default=None, init=False, repr=False)

    @property
    def backend(self) -> Backend:
        return self.suite.backend

    def _work(self) -> Array:
        if self._scratch is None or self._scratch.shape != self.coeffs.shape:
            self._scratch = np.empty(self.coeffs.shape)
        return self._scratch

    def apply(self, xpad: Array, out: Array | None = None) -> Array:
        """``out = A @ x`` with ``xpad`` a ghost-padded ``(ns, nx1+2, nx2+2)`` field.

        Returns an interior-shaped ``(ns, nx1, nx2)`` array.
        """
        c = self.coeffs
        ns, (n1, n2) = c.nspec, c.shape
        if xpad.shape != (ns, n1 + 2, n2 + 2):
            raise ValueError(
                f"expected padded field {(ns, n1 + 2, n2 + 2)}, got {xpad.shape}"
            )
        if out is None:
            out = np.empty((ns, n1, n2))
        elif out.shape != (ns, n1, n2):
            raise ValueError(f"out shape {out.shape} != {(ns, n1, n2)}")

        npts = n1 * n2
        for s in range(ns):
            self.backend.stencil_apply(
                c.diag[s], c.west[s], c.east[s], c.south[s], c.north[s],
                xpad[s], out=out[s],
            )
        # 9 flops/point/species for the 5-point stencil; traffic: five
        # coefficient streams + field + result.
        if self.suite.counters is not None:
            self.suite._account(ns * npts, 9, 48, 8)
            self.suite.counters.matvecs += 1

        if c.coupling is not None:
            interior = xpad[:, 1:-1, 1:-1]
            bk = self.backend
            for s in range(ns):
                for sp in range(ns):
                    if s == sp:
                        continue
                    coup = c.coupling[s, sp]
                    if not coup.any():
                        continue
                    # out[s] += coupling[s,sp] * x[sp]  (pointwise)
                    tmp = bk.mul(coup, interior[sp])
                    bk.add(out[s], tmp, out=out[s])
                    if self.suite.counters is not None:
                        self.suite._account(npts, 2, 24, 8)
        return out

    def apply_dots(
        self,
        xpad: Array,
        dots: list,
        out: Array | None = None,
    ) -> tuple[Array, np.ndarray]:
        """Fused ``A @ x`` plus ganged inner products against the result.

        ``dots`` entries follow the backend dot-spec forms (``None`` ->
        ``<out, out>``; interior-shaped array ``w`` -> ``<out, w>``; an
        ``(a, b)`` tuple -> an independent pair ganged along).  Returns
        ``(out, values)`` with the inner products local to this rank.

        Results are bit-identical to :meth:`apply` followed by a ganged
        DPROD over the same pairs, on both backends.
        """
        c = self.coeffs
        ns, (n1, n2) = c.nspec, c.shape
        npts = n1 * n2

        if c.coupling is not None:
            # Coupled systems: the dots must see the post-coupling
            # result, so fall back to apply() + ganged DPROD.
            out = self.apply(xpad, out=out)
            vals = self.suite.dprod_gang(Backend._resolve_dot_pairs(out, dots))
            return out, vals

        if xpad.shape != (ns, n1 + 2, n2 + 2):
            raise ValueError(
                f"expected padded field {(ns, n1 + 2, n2 + 2)}, got {xpad.shape}"
            )
        if out is None:
            out = np.empty((ns, n1, n2))
        elif out.shape != (ns, n1, n2):
            raise ValueError(f"out shape {out.shape} != {(ns, n1, n2)}")

        bk = self.backend
        if ns == 1 and "stencil_apply_dots" in native_fused_ops(bk):
            # Single species on a backend with native in-loop fusion
            # (scalar's element loop, jit's compiled sweep): hand it
            # the whole sweep.  The gate is capability-based rather
            # than ``not bk.vectorized`` so the jit tier's fused kernel
            # is actually exercised.  Row-major accumulation order
            # equals the flattened order of the unfused multi_dot, so
            # the values are bit-identical.
            specs = []
            for spec in dots:
                if spec is None:
                    specs.append(None)
                elif isinstance(spec, tuple):
                    specs.append((spec[0][0], spec[1][0]))
                else:
                    specs.append(spec[0])
            _, vals = bk.stencil_apply_dots(
                c.diag[0], c.west[0], c.east[0], c.south[0], c.north[0],
                xpad[0], specs, out=out[0],
            )
        else:
            # Whole-array backends cannot fuse at register level, and
            # per-species partial sums would reassociate the scalar
            # backend's continuous accumulation: apply the stencil per
            # species, then one ganged multi_dot over the full arrays
            # -- exactly the unfused composition, hence bit-identical.
            # The persistent scratch keeps the band products out of
            # fresh temporaries (same values, zero allocations).
            work = self._work()
            for s in range(ns):
                bk.stencil_apply(
                    c.diag[s], c.west[s], c.east[s], c.south[s], c.north[s],
                    xpad[s], out=out[s], work=work,
                )
            vals = bk.multi_dot(Backend._resolve_dot_pairs(out, dots))

        if self.suite.counters is not None:
            # One fused launch, but the event counts are exactly those
            # of the unfused composition (apply + ganged DPROD over the
            # same pairs): native and composed backends must report
            # identical flops/bytes or their efficiency ratios stop
            # comparing.
            self.suite._account(ns * npts, 9, 48, 8)
            self.suite._account(ns * npts * len(dots), 2, 16, 0, launches=0)
            self.suite.counters.matvecs += 1
            self.suite.counters.dot_products += len(dots)
            self.suite.counters.fused_ops += 1
        return out, vals
