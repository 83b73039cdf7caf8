"""Assembly of the implicit MFLD linear system.

Backward-Euler discretization of the multigroup flux-limited diffusion
equation for each radiation component ``u`` (species x group)::

    dE_u/dt = div( D_u grad E_u ) - c kappa_a,u (E_u - B_u(T))
              + sum_u' C[u,u'] (E_u' - E_u)

with the FLD diffusion coefficient ``D_u = c lambda(R_u) / kappa_t,u``.
One implicit step of size ``dt`` yields, per zone ``(i, j)``::

    [1 + dt c kappa_a + dt sum_u' C[u,u']] E_u
      - dt/V_ij [ A D (E_nb - E_u) / d  over the four faces ]
      - dt sum_{u' != u} C[u,u'] E_u'
    = E_u^n + dt c kappa_a B_u(T)

which is exactly the five-banded (plus pointwise coupling) system of
the paper's Fig. 1: ``x1 * x2 * ncomp`` coupled equations.  The
coefficients are produced directly as
:class:`~repro.kernels.stencil.StencilCoefficients` -- the matrix is
never assembled (Sec. I-C).

Face diffusion coefficients use the harmonic mean of the adjacent zone
values (continuity of flux across material discontinuities); physical
boundary faces reuse the boundary-zone value, so that a REFLECT ghost
yields exact zero-flux and a DIRICHLET0 ghost a vacuum sink at one zone
spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.grid.mesh import Mesh2D
from repro.kernels.stencil import StencilCoefficients
from repro.transport.fld import FluxLimiter, knudsen_number, limiter_lambda
from repro.transport.groups import RadiationBasis
from repro.transport.opacity import OpacityModel

Array = np.ndarray


@dataclass(frozen=True)
class RadiationSystem:
    """One implicit radiation step's linear system ``A E = rhs``."""

    coeffs: StencilCoefficients
    rhs: Array
    dt: float
    c_light: float

    @property
    def ncomp(self) -> int:
        return self.coeffs.nspec

    @property
    def shape(self) -> tuple[int, int]:
        return self.coeffs.shape

    @property
    def nunknowns(self) -> int:
        return self.coeffs.nunknowns


def _harmonic(a: Array, b: Array, floor: float = 1e-300) -> Array:
    """Harmonic mean, safe at zero."""
    return 2.0 * a * b / np.maximum(a + b, floor)


def diffusion_coefficient(
    epad: Array,
    kappa_t: Array,
    mesh: Mesh2D,
    limiter: FluxLimiter | str = FluxLimiter.LEVERMORE_POMRANING,
    c_light: float = 1.0,
) -> Array:
    """Zone-centred FLD coefficient ``D = c lambda(R) / kappa_t``.

    ``kappa_t`` is ``(ncomp, nx1, nx2)``.  Under ``DIFFUSION``
    (``lambda = 1/3``) the Knudsen ratio ``R`` is not computed.
    """
    if FluxLimiter(limiter) is FluxLimiter.DIFFUSION:
        return c_light * (1.0 / 3.0) / kappa_t
    R = knudsen_number(epad, kappa_t, mesh.dx1, mesh.dx2)
    lam = limiter_lambda(limiter, R)
    return c_light * lam / kappa_t


def build_radiation_system(
    mesh: Mesh2D,
    epad: Array,
    rho: Array,
    temp: Array,
    dt: float,
    basis: RadiationBasis,
    opacity: OpacityModel,
    limiter: FluxLimiter | str = FluxLimiter.LEVERMORE_POMRANING,
    coupling: Array | None = None,
    c_light: float = 1.0,
    a_rad: float = 1.0,
    emission: bool = True,
    t_ref: float = 1.0,
    e_rhs: Array | None = None,
) -> RadiationSystem:
    """Build the backward-Euler MFLD system for one step.

    Parameters
    ----------
    mesh:
        This tile's mesh (geometry factors).
    epad:
        Ghost-filled radiation energy density ``(ncomp, nx1+2, nx2+2)``
        at the old time level (used for the FLD nonlinearity and the
        right-hand side).
    rho, temp:
        Material density and temperature, ``(nx1, nx2)``.
    dt:
        Timestep.
    basis:
        Species/group structure; ``basis.ncomp`` must match ``epad``.
    opacity:
        Opacity model.
    coupling:
        Optional ``(ncomp, ncomp)`` inter-component exchange-rate
        matrix (zero diagonal); see
        :meth:`RadiationBasis.pair_coupling_matrix`.
    c_light, a_rad:
        Speed of light and radiation constant (problem units).
    emission:
        Include the thermal emission source ``dt c kappa_a B(T)``.
    t_ref:
        Reference temperature for the group Planck fractions.
    e_rhs:
        Old-time radiation field for the right-hand side
        ``(ncomp, nx1, nx2)``.  Defaults to the interior of ``epad``;
        pass it explicitly when ``epad`` holds a *predictor* state used
        only to evaluate the flux-limiter nonlinearity (otherwise the
        corrector would advance from the predicted state, double
        stepping).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n1, n2 = mesh.shape
    ncomp = basis.ncomp
    if epad.shape != (ncomp, n1 + 2, n2 + 2):
        raise ValueError(
            f"epad shape {epad.shape} != {(ncomp, n1 + 2, n2 + 2)}"
        )
    if rho.shape != (n1, n2) or temp.shape != (n1, n2):
        raise ValueError("rho/temp must be interior-shaped")
    if coupling is not None:
        if coupling.shape != (ncomp, ncomp):
            raise ValueError(f"coupling must be ({ncomp},{ncomp})")
        if np.any(np.diag(coupling) != 0.0):
            raise ValueError("coupling matrix must have zero diagonal")

    kappa_a = opacity.absorption(rho, temp, basis)
    kappa_t = opacity.total(rho, temp, basis)
    D = diffusion_coefficient(epad, kappa_t, mesh, limiter, c_light)

    vol = mesh.volumes                       # (n1, n2)
    a1 = mesh.areas_x1                       # (n1+1, n2)
    a2 = mesh.areas_x2                       # (n1, n2+1)

    # Centre-to-centre distances across each face (+ ghost mirrors at
    # the physical boundary).
    d1 = np.concatenate([[mesh.dx1[0]], np.diff(mesh.x1c), [mesh.dx1[-1]]])  # (n1+1,)
    d2 = np.concatenate([[mesh.dx2[0]], np.diff(mesh.x2c), [mesh.dx2[-1]]])  # (n2+1,)

    # Face diffusion coefficients per component.
    df1 = np.empty((ncomp, n1 + 1, n2))
    df1[:, 1:-1, :] = _harmonic(D[:, :-1, :], D[:, 1:, :])
    df1[:, 0, :] = D[:, 0, :]
    df1[:, -1, :] = D[:, -1, :]
    df2 = np.empty((ncomp, n1, n2 + 1))
    df2[:, :, 1:-1] = _harmonic(D[:, :, :-1], D[:, :, 1:])
    df2[:, :, 0] = D[:, :, 0]
    df2[:, :, -1] = D[:, :, -1]

    # Transmissibilities dt * A * D / (d * V) per face, per component.
    tw = dt * a1[None, :-1, :] * df1[:, :-1, :] / (d1[None, :-1, None] * vol[None])
    te = dt * a1[None, 1:, :] * df1[:, 1:, :] / (d1[None, 1:, None] * vol[None])
    ts = dt * a2[None, :, :-1] * df2[:, :, :-1] / (d2[None, None, :-1] * vol[None])
    tn = dt * a2[None, :, 1:] * df2[:, :, 1:] / (d2[None, None, 1:] * vol[None])

    diag = 1.0 + dt * c_light * kappa_a + tw + te + ts + tn
    coup = None
    if coupling is not None and coupling.any():
        coup = np.zeros((ncomp, ncomp, n1, n2))
        for u in range(ncomp):
            row_sum = 0.0
            for up in range(ncomp):
                if up == u or coupling[u, up] == 0.0:
                    continue
                coup[u, up] = -dt * coupling[u, up]
                row_sum += dt * coupling[u, up]
            diag[u] += row_sum

    coeffs = StencilCoefficients(
        diag=diag, west=-tw, east=-te, south=-ts, north=-tn, coupling=coup
    )

    if e_rhs is None:
        rhs = epad[:, 1:-1, 1:-1].copy()
    else:
        if e_rhs.shape != (ncomp, n1, n2):
            raise ValueError(f"e_rhs shape {e_rhs.shape} != {(ncomp, n1, n2)}")
        rhs = e_rhs.copy()
    if emission:
        fracs = basis.groups.planck_fractions_field(temp, t_ref=t_ref)  # (ng, n1, n2)
        b_field = a_rad * temp[None] ** 4 * fracs                       # per group
        for u in range(ncomp):
            _s, g = basis.unpack(u)
            rhs[u] += dt * c_light * kappa_a[u] * b_field[g]

    return RadiationSystem(coeffs=coeffs, rhs=rhs, dt=dt, c_light=c_light)
