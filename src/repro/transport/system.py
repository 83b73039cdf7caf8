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

import numpy as np

from repro.grid.mesh import Mesh2D
from repro.kernels.stencil import StencilCoefficients
from repro.transport.fld import (
    FluxLimiter,
    knudsen_number,
    limiter_lambda,
    limiter_reads_energy,
)
from repro.transport.groups import RadiationBasis

Array = np.ndarray


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
    if not limiter_reads_energy(limiter):
        return c_light * (1.0 / 3.0) / kappa_t
    R = knudsen_number(epad, kappa_t, mesh.dx1, mesh.dx2)
    lam = limiter_lambda(limiter, R)
    return c_light * lam / kappa_t


def build_radiation_system(
    mesh: Mesh2D,
    epad: Array,
    kappa_a: Array,
    kappa_t: Array,
    dt: float,
    limiter: FluxLimiter | str = FluxLimiter.LEVERMORE_POMRANING,
    coupling: Array | None = None,
    c_light: float = 1.0,
) -> StencilCoefficients:
    """The backward-Euler MFLD operator for one step.

    Parameters
    ----------
    mesh:
        This tile's mesh (geometry factors).
    epad:
        Ghost-filled radiation energy density ``(ncomp, nx1+2, nx2+2)``
        at which the flux-limiter nonlinearity is evaluated (not read
        by the ``DIFFUSION`` limiter).
    kappa_a, kappa_t:
        Absorption and total opacity ``(ncomp, nx1, nx2)`` from the
        opacity model at this step's material state.
    dt:
        Timestep.
    coupling:
        Optional ``(ncomp, ncomp)`` inter-component exchange-rate
        matrix (zero diagonal); see
        :meth:`RadiationBasis.pair_coupling_matrix`.
    c_light:
        Speed of light (problem units).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n1, n2 = mesh.shape
    ncomp = epad.shape[0]
    if epad.shape != (ncomp, n1 + 2, n2 + 2):
        raise ValueError(
            f"epad shape {epad.shape} != {(ncomp, n1 + 2, n2 + 2)}"
        )
    if kappa_a.shape != (ncomp, n1, n2) or kappa_t.shape != (ncomp, n1, n2):
        raise ValueError("kappa_a/kappa_t must be (ncomp, nx1, nx2)")
    if coupling is not None:
        if coupling.shape != (ncomp, ncomp):
            raise ValueError(f"coupling must be ({ncomp},{ncomp})")
        if np.any(np.diag(coupling) != 0.0):
            raise ValueError("coupling matrix must have zero diagonal")

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

    return StencilCoefficients(
        diag=diag, west=-tw, east=-te, south=-ts, north=-tn, coupling=coup
    )


def radiation_rhs(
    e_old: Array,
    temp: Array,
    kappa_a: Array,
    dt: float,
    basis: RadiationBasis,
    c_light: float = 1.0,
    a_rad: float = 1.0,
    emission: bool = True,
    t_ref: float = 1.0,
) -> Array:
    """Right-hand side ``E^n + dt c kappa_a B(T)`` of one step's system.

    ``e_old`` is the old-time field ``(ncomp, nx1, nx2)``: the corrector
    and matter-coupling solves pass ``E^n`` here while their operator
    is evaluated at a predicted state (otherwise they would advance
    from the predicted state, double stepping).  ``emission`` adds the
    thermal source at ``temp``; ``t_ref`` is the reference temperature
    of the group Planck fractions.
    """
    if e_old.shape != kappa_a.shape:
        raise ValueError(f"e_old shape {e_old.shape} != {kappa_a.shape}")
    rhs = e_old.copy()
    if emission:
        fracs = basis.groups.planck_fractions_field(temp, t_ref=t_ref)  # (ng, n1, n2)
        b_field = a_rad * temp[None] ** 4 * fracs                       # per group
        for u in range(basis.ncomp):
            _s, g = basis.unpack(u)
            rhs[u] += dt * c_light * kappa_a[u] * b_field[g]
    return rhs
