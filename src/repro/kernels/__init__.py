"""The V2D sparse linear-algebra kernels (paper Table II).

Five routines dominate V2D's BiCGSTAB solver and are the subject of the
paper's stand-alone driver study:

* ``MATVEC`` -- matrix-vector product, matrix-free (5-band stencil)
* ``DPROD`` -- dot product (with ganged multi-dot variant)
* ``DAXPY`` -- ``a*x + y``
* ``DSCAL`` -- ``c - d*y``
* ``DDAXPY`` -- ``a*x + b*y + z``

:class:`~repro.kernels.suite.KernelSuite` exposes them over a chosen
execution backend with PAPI-style flop/byte/SIMD accounting;
:mod:`repro.kernels.stencil` provides the multi-species grid-shaped
Matvec used by the full code; :mod:`repro.kernels.driver` is the
single-processor driver program of Sec. II-F.
"""

from repro.kernels.stencil import MultiSpeciesStencil, StencilCoefficients
from repro.kernels.suite import KernelSuite
from repro.kernels.workspace import SolverWorkspace
from repro.kernels.driver import (
    DriverResult,
    KernelDriver,
    SpmdDriverResult,
    run_driver_spmd,
)

__all__ = [
    "KernelSuite",
    "StencilCoefficients",
    "MultiSpeciesStencil",
    "KernelDriver",
    "DriverResult",
    "SpmdDriverResult",
    "run_driver_spmd",
    "SolverWorkspace",
]
