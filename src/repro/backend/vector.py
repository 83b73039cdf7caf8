"""Vectorized backend: the SVE proxy.

Every primitive executes as whole-array NumPy operations, in place
where an ``out`` buffer is supplied -- the analogue of the compiler
turning the same loops into packed-SIMD SVE code.  The configurable
``vector_bits`` models the Armv8-A vector-length-agnostic range
(128-2048 bits; the A64FX implements 512): it does not change results,
only the SIMD-instruction accounting exposed via
:meth:`~repro.backend.base.Backend.vector_op_count`, which the machine
model in :mod:`repro.perfmodel` consumes.

Reductions accumulate lane-wise (NumPy pairwise/BLAS order), as a real
SVE horizontal reduction does, so they agree with the scalar backend to
within floating-point reassociation error, not necessarily bitwise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backend.base import Array, Backend


class VectorBackend(Backend):
    """Whole-array (packed SIMD) execution."""

    name = "vector"
    vectorized = True

    def __init__(self, vector_bits: int = 512) -> None:
        if vector_bits % 128 != 0 or not 128 <= vector_bits <= 2048:
            raise ValueError(
                "SVE vector length must be a multiple of 128 in [128, 2048], "
                f"got {vector_bits}"
            )
        super().__init__(vector_bits=vector_bits)

    # -- reductions -----------------------------------------------------
    def dot(self, x: Array, y: Array) -> float:
        self._check_same_shape(x, y)
        return float(np.dot(x.ravel(), y.ravel()))

    def multi_dot(self, pairs: Sequence[tuple[Array, Array]]) -> Array:
        if not pairs:
            return np.zeros(0)
        n = pairs[0][0].size
        out = np.empty(len(pairs))
        for k, (x, y) in enumerate(pairs):
            self._check_same_shape(x, y)
            if x.size != n:
                raise ValueError("ganged dot products require equal-length operands")
            out[k] = np.dot(x.ravel(), y.ravel())
        return out

    def norm2(self, x: Array) -> float:
        return float(np.linalg.norm(x.ravel()))

    # -- BLAS-1 updates --------------------------------------------------
    # A caller-supplied ``work`` buffer replaces the temporaries the
    # aliased-``out`` paths would otherwise allocate, making the solver
    # inner loop allocation-free.  Every work path performs the same
    # operations in the same order as the allocating path it replaces,
    # so results are bit-identical with and without ``work``.
    def axpy(
        self,
        a: float,
        x: Array,
        y: Array,
        out: Array | None = None,
        work: Array | None = None,
    ) -> Array:
        self._check_same_shape(x, y)
        out = self._out_like(x, out)
        if out is y:
            # out aliases y: scale x into a temporary, then accumulate.
            tmp = work if work is not None else np.empty_like(out)
            np.multiply(x, a, out=tmp)
            np.add(tmp, y, out=out)
        else:
            np.multiply(x, a, out=out)  # safe when out aliases x
            np.add(out, y, out=out)
        return out

    def dscal(
        self,
        c: Array,
        d: float,
        y: Array,
        out: Array | None = None,
        work: Array | None = None,
    ) -> Array:
        self._check_same_shape(c, y)
        out = self._out_like(c, out)
        if out is c:
            tmp = work if work is not None else np.empty_like(out)
            np.multiply(y, d, out=tmp)
            np.subtract(c, tmp, out=out)
        else:
            np.multiply(y, d, out=out)  # safe when out aliases y
            np.subtract(c, out, out=out)
        return out

    def ddaxpy(
        self,
        a: float,
        x: Array,
        b: float,
        y: Array,
        z: Array,
        out: Array | None = None,
        work: Array | None = None,
    ) -> Array:
        self._check_same_shape(x, y, z)
        out = self._out_like(x, out)
        if out is y or out is z:
            if work is not None:
                # b*y + (a*x + z), allocation-free: z is read into the
                # work buffer and y is read by the multiply before out
                # overwrites either.  This association equals the
                # two-DAXPY composition axpy(b, y, axpy(a, x, z)), so
                # the solver's one-launch x-update is bit-identical to
                # two DAXPYs.
                np.multiply(x, a, out=work)
                np.add(work, z, out=work)
                np.multiply(y, b, out=out)
                np.add(out, work, out=out)
            else:
                tmp = np.multiply(x, a)
                tmp += np.multiply(y, b)
                tmp += z
                np.copyto(out, tmp)
        else:
            np.multiply(x, a, out=out)  # safe when out aliases x
            if work is not None:
                np.multiply(y, b, out=work)
                out += work
            else:
                out += np.multiply(y, b)
            out += z
        return out

    def scale(self, alpha: float, x: Array, out: Array | None = None) -> Array:
        out = self._out_like(x, out)
        np.multiply(x, alpha, out=out)
        return out

    def copy(self, x: Array, out: Array | None = None) -> Array:
        out = self._out_like(x, out)
        np.copyto(out, x)
        return out

    def fill(self, x: Array, value: float) -> Array:
        x.fill(value)
        return x

    def add(self, x: Array, y: Array, out: Array | None = None) -> Array:
        self._check_same_shape(x, y)
        out = self._out_like(x, out)
        np.add(x, y, out=out)
        return out

    def sub(self, x: Array, y: Array, out: Array | None = None) -> Array:
        self._check_same_shape(x, y)
        out = self._out_like(x, out)
        np.subtract(x, y, out=out)
        return out

    def mul(self, x: Array, y: Array, out: Array | None = None) -> Array:
        self._check_same_shape(x, y)
        out = self._out_like(x, out)
        np.multiply(x, y, out=out)
        return out

    # -- matrix-free operators --------------------------------------------
    def stencil_apply(
        self,
        diag: Array,
        west: Array,
        east: Array,
        south: Array,
        north: Array,
        x: Array,
        out: Array | None = None,
        work: Array | None = None,
    ) -> Array:
        self._check_same_shape(diag, west, east, south, north)
        n1, n2 = diag.shape
        if x.shape != (n1 + 2, n2 + 2):
            raise ValueError(
                f"ghost-padded field must be {(n1 + 2, n2 + 2)}, got {x.shape}"
            )
        out = self._out_like(diag, out)
        # Shifted views of the padded field -- no copies (guide: "use
        # views, and not copies"); five fused multiply-adds.  Each
        # ``band * view`` product lands in ``work`` when supplied
        # (identical values and association, no per-call temporaries).
        c = x[1:-1, 1:-1]
        w = x[:-2, 1:-1]
        e = x[2:, 1:-1]
        s = x[1:-1, :-2]
        n = x[1:-1, 2:]
        np.multiply(diag, c, out=out)
        if work is not None:
            for band, view in ((west, w), (east, e), (south, s), (north, n)):
                np.multiply(band, view, out=work)
                out += work
        else:
            out += west * w
            out += east * e
            out += south * s
            out += north * n
        return out

    def banded_matvec(
        self,
        offsets: Sequence[int],
        bands: Sequence[Array],
        x: Array,
        out: Array | None = None,
    ) -> Array:
        if len(offsets) != len(bands):
            raise ValueError("offsets and bands must pair up")
        if out is x:
            raise ValueError("banded_matvec cannot write its result over x")
        n = x.shape[0]
        out = self._out_like(x, out)
        out.fill(0.0)
        for off, band in zip(offsets, bands):
            if off >= 0:
                hi = n - off
                if hi > 0:
                    out[:hi] += band[:hi] * x[off:]
            else:
                lo = -off
                if lo < n:
                    out[lo:] += band[lo:] * x[:n - lo]
        return out
