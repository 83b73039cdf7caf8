"""Flux limiters for flux-limited diffusion.

Pure diffusion (``D = c / 3 kappa_t``) violates causality in optically
thin regions, letting radiation propagate faster than ``c``.  FLD
repairs this with a limiter ``lambda(R)`` interpolating between the
diffusion limit (``lambda -> 1/3`` as ``R -> 0``) and free streaming
(``lambda -> 1/R`` as ``R -> inf``), where ``R = |grad E| / (kappa_t E)``
is the local Knudsen-like ratio::

    D = c * lambda(R) / kappa_t      (flux F = -D grad E, |F| <= c E)

Implemented limiters:

* ``LEVERMORE_POMRANING`` -- the rational approximation
  ``lambda = (2 + R) / (6 + 3R + R^2)`` to Levermore & Pomraning (1981),
  the limiter family V2D's methods paper uses.
* ``LARSEN2`` -- Larsen's n=2 limiter ``lambda = (9 + R^2)^(-1/2)``.
* ``DIFFUSION`` -- no limiting, ``lambda = 1/3`` (the linear limit the
  Gaussian-pulse analytic solution lives in).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

Array = np.ndarray


class FluxLimiter(Enum):
    DIFFUSION = "diffusion"
    LEVERMORE_POMRANING = "levermore-pomraning"
    LARSEN2 = "larsen2"


def limiter_reads_energy(limiter: FluxLimiter | str) -> bool:
    """Whether ``lambda`` depends on ``E`` (through ``R``); only
    ``DIFFUSION`` does not."""
    return FluxLimiter(limiter) is not FluxLimiter.DIFFUSION


def limiter_lambda(limiter: FluxLimiter | str, R: Array) -> Array:
    """Evaluate ``lambda(R)`` elementwise (R must be non-negative)."""
    if isinstance(limiter, str):
        limiter = FluxLimiter(limiter)
    R = np.asarray(R, dtype=float)
    if np.any(R < 0):
        raise ValueError("Knudsen ratio R must be non-negative")
    if limiter is FluxLimiter.DIFFUSION:
        return np.full_like(R, 1.0 / 3.0)
    if limiter is FluxLimiter.LEVERMORE_POMRANING:
        return (2.0 + R) / (6.0 + 3.0 * R + R * R)
    if limiter is FluxLimiter.LARSEN2:
        return 1.0 / np.sqrt(9.0 + R * R)
    raise ValueError(f"unknown limiter {limiter!r}")  # pragma: no cover


def knudsen_number(
    epad: Array, kappa_t: Array, dx1: Array, dx2: Array, floor: float = 1e-30
) -> Array:
    """Zone-centred ``R = |grad E| / (kappa_t * E)`` per component.

    Parameters
    ----------
    epad:
        Ghost-filled radiation field ``(ncomp, nx1+2, nx2+2)``.
    kappa_t:
        Total opacity (inverse length), ``(ncomp, nx1, nx2)``.
    dx1, dx2:
        Zone widths, broadcastable to ``(nx1, nx2)`` (1-D per-direction
        arrays are reshaped).
    floor:
        Energy floor preventing division blow-up in empty zones.
    """
    interior = epad[:, 1:-1, 1:-1]
    d1 = np.asarray(dx1, dtype=float)
    d2 = np.asarray(dx2, dtype=float)
    if d1.ndim == 1:
        d1 = d1[:, None]
    if d2.ndim == 1:
        d2 = d2[None, :]
    ge1 = (epad[:, 2:, 1:-1] - epad[:, :-2, 1:-1]) / (2.0 * d1)
    ge2 = (epad[:, 1:-1, 2:] - epad[:, 1:-1, :-2]) / (2.0 * d2)
    grad = np.sqrt(ge1 * ge1 + ge2 * ge2)
    return grad / (kappa_t * np.maximum(interior, floor))
