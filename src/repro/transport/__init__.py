"""Multigroup flux-limited diffusion (MFLD) radiation transport.

V2D "solves the equations of Eulerian hydrodynamics and multi-species
flux-limited diffusive radiation transport in two spatial dimensions"
(paper Sec. I-C); the radiation test problem evolves the radiation
energy density of 2 species on a 200 x 100 grid, with three implicit
linear solves per timestep.

* :mod:`repro.transport.groups` -- energy-group and species bookkeeping
  (the "multigroup / multi-species" structure; components are the
  leading axis of every radiation field).
* :mod:`repro.transport.opacity` -- absorption/scattering opacity
  models (constant, power-law, tabulated).
* :mod:`repro.transport.fld` -- flux limiters (Levermore-Pomraning,
  Larsen, plain diffusion) bridging the diffusion and free-streaming
  limits.
* :mod:`repro.transport.system` -- assembles the backward-Euler MFLD
  linear system as matrix-free stencil coefficients + right-hand side.
* :mod:`repro.transport.integrator` -- the implicit time integrator
  performing the paper's three BiCGSTAB solves per step.
"""

from repro.transport.fld import FluxLimiter, knudsen_number, limiter_lambda
from repro.transport.groups import EnergyGroups, RadiationBasis
from repro.transport.integrator import RadiationIntegrator, StepReport
from repro.transport.opacity import (
    ConstantOpacity,
    OpacityModel,
    PowerLawOpacity,
    TabulatedOpacity,
)
from repro.transport.system import build_radiation_system, radiation_rhs
from repro.transport.timestep import TimestepController

__all__ = [
    "EnergyGroups",
    "RadiationBasis",
    "OpacityModel",
    "ConstantOpacity",
    "PowerLawOpacity",
    "TabulatedOpacity",
    "FluxLimiter",
    "limiter_lambda",
    "knudsen_number",
    "build_radiation_system",
    "radiation_rhs",
    "RadiationIntegrator",
    "StepReport",
    "TimestepController",
]
