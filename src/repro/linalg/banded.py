"""Assembled (banded / CSR / dense) forms of the stencil operator.

The production solver never stores the matrix; these assembly routines
exist for three purposes:

1. *Validation* -- tests assert the matrix-free Matvec agrees with the
   assembled matrix to machine precision.
2. *Fig. 1* -- the paper shows the sparsity pattern of the would-be
   matrix: with dictionary ordering it is five-banded, "on either side
   of the diagonal are two adjacent diagonals with two outlying
   diagonals spaced farther from the diagonal.  The x1 parameter
   indicates the distance of the two outlying diagonals".
3. *SPAI setup* -- the preconditioner works from the banded form of the
   (tile-local) operator.

Dictionary ordering: flat index ``p = i + j*nx1 + s*nx1*nx2`` (x1
fastest, species slowest), so x1 neighbours sit at offsets ``+/-1``,
x2 neighbours at ``+/-nx1`` -- the paper's five bands -- and pointwise
species coupling at ``+/-k*nx1*nx2``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.kernels.stencil import StencilCoefficients
from repro.parallel.halo import BoundaryCondition

Array = np.ndarray

#: The four sides with (coefficient name, boundary predicate builder).
_SIDES = ("west", "east", "south", "north")


def band_offsets(ns: int, nx1: int, nx2: int, coupled: bool = False) -> list[int]:
    """Offsets of every band of the assembled system, sorted.

    The five spatial bands ``0, +/-1, +/-nx1`` always; species-coupling
    bands ``+/-k*nx1*nx2`` for ``k = 1..ns-1`` when ``coupled``.
    """
    offs = [0, -1, 1, -nx1, nx1]
    if coupled:
        blk = nx1 * nx2
        for k in range(1, ns):
            offs += [-k * blk, k * blk]
    return sorted(offs)


def _fold_reflect(coeffs: StencilCoefficients, bc) -> StencilCoefficients:
    """Fold reflecting boundaries into the diagonal.

    A REFLECT ghost equals the adjacent interior value, so the boundary
    stencil coefficient moves onto the diagonal of the same row.
    """
    def bc_for(side: str) -> BoundaryCondition:
        return bc if isinstance(bc, BoundaryCondition) else bc[side]

    c = coeffs.copy()
    if bc_for("west") is BoundaryCondition.REFLECT:
        c.diag[:, 0, :] += c.west[:, 0, :]
    if bc_for("east") is BoundaryCondition.REFLECT:
        c.diag[:, -1, :] += c.east[:, -1, :]
    if bc_for("south") is BoundaryCondition.REFLECT:
        c.diag[:, :, 0] += c.south[:, :, 0]
    if bc_for("north") is BoundaryCondition.REFLECT:
        c.diag[:, :, -1] += c.north[:, :, -1]
    return c


def stencil_to_bands(
    coeffs: StencilCoefficients,
    bc: BoundaryCondition | dict[str, BoundaryCondition] = BoundaryCondition.DIRICHLET0,
) -> tuple[list[int], list[Array]]:
    """Exact banded form of the operator-with-boundary-conditions.

    Returns ``(offsets, bands)`` with the row-indexed convention
    ``band[k][p] = A[p, p + offsets[k]]`` and full-length (``N``) band
    arrays.  Entries that would cross a grid edge (and therefore a
    species-block edge) are structurally zero.
    """
    c = _fold_reflect(coeffs, bc)
    ns, (n1, n2) = c.nspec, c.shape
    blk = n1 * n2
    n = ns * blk

    def flatten(a: Array) -> Array:
        # (ns, nx1, nx2) -> flat with x1 fastest: transpose to
        # (ns, nx2, nx1) then ravel C-order.
        return np.ascontiguousarray(a.transpose(0, 2, 1)).reshape(-1)

    west = c.west.copy()
    east = c.east.copy()
    south = c.south.copy()
    north = c.north.copy()
    # Grid-edge entries are structural zeros in the matrix: under
    # DIRICHLET0 the ghost is zero; under REFLECT the coefficient was
    # folded into the diagonal above (the off-diagonal entry vanishes).
    west[:, 0, :] = 0.0
    east[:, -1, :] = 0.0
    south[:, :, 0] = 0.0
    north[:, :, -1] = 0.0

    offsets = [0, -1, 1, -n1, n1]
    bands = [flatten(c.diag), flatten(west), flatten(east), flatten(south), flatten(north)]

    if c.coupling is not None:
        for s in range(ns):
            for sp in range(ns):
                if s == sp or not c.coupling[s, sp].any():
                    continue
                off = (sp - s) * blk
                band = np.zeros(n)
                band[s * blk : (s + 1) * blk] = flatten(c.coupling[s, sp][None])[:blk]
                offsets.append(off)
                bands.append(band)

    # Merge duplicate coupling offsets (e.g. ns=3: s=0->1 and s=1->2
    # both have offset +blk but live in disjoint row ranges).
    merged: dict[int, Array] = {}
    for off, band in zip(offsets, bands):
        if off in merged:
            merged[off] = merged[off] + band
        else:
            merged[off] = band.copy()
    offs = sorted(merged)
    return offs, [merged[o] for o in offs]


def assemble_csr(
    coeffs: StencilCoefficients,
    bc: BoundaryCondition | dict[str, BoundaryCondition] = BoundaryCondition.DIRICHLET0,
) -> sp.csr_matrix:
    """Assemble the full sparse matrix (validation / SPAI setup)."""
    offsets, bands = stencil_to_bands(coeffs, bc)
    n = bands[0].shape[0]
    diags = []
    for off, band in zip(offsets, bands):
        if off >= 0:
            diags.append(band[: n - off])
        else:
            diags.append(band[-off:])
    return sp.diags(diags, offsets, shape=(n, n), format="csr")


def assemble_dense(
    coeffs: StencilCoefficients,
    bc: BoundaryCondition | dict[str, BoundaryCondition] = BoundaryCondition.DIRICHLET0,
) -> Array:
    """Dense equivalent (small validation problems only)."""
    return assemble_csr(coeffs, bc).toarray()


def sparsity_block(
    nx1: int, nx2: int, ns: int = 2, block: int = 400, coupled: bool = False
) -> Array:
    """Boolean sparsity pattern of the upper-left ``block x block``
    corner of the would-be matrix (the view the paper's Fig. 1 shows:
    the upper-left 400 x 400 of the 40,000 x 40,000 system).

    Built analytically from the band structure -- the full matrix is
    never formed, matching how one would draw the figure.
    """
    n = ns * nx1 * nx2
    block = min(block, n)
    pat = np.zeros((block, block), dtype=bool)
    rows = np.arange(block)
    for off in band_offsets(ns, nx1, nx2, coupled=coupled):
        cols = rows + off
        ok = (cols >= 0) & (cols < block)
        r, cvals = rows[ok], cols[ok]
        if abs(off) == 1:
            # x1-neighbour band: zero where the row sits on an x1 edge.
            i = r % nx1
            keep = (i != nx1 - 1) if off > 0 else (i != 0)
            r, cvals = r[keep], cvals[keep]
        elif abs(off) == nx1:
            j = (r % (nx1 * nx2)) // nx1
            keep = (j != nx2 - 1) if off > 0 else (j != 0)
            r, cvals = r[keep], cvals[keep]
        pat[r, cvals] = True
    return pat


def pattern_report(nx1: int, nx2: int, ns: int = 2) -> str:
    """Text summary of the Fig. 1 structure for a given grid."""
    n = ns * nx1 * nx2
    offs = band_offsets(ns, nx1, nx2)
    lines = [
        f"System: {nx1} x {nx2} zones x {ns} species = {n:,} equations",
        f"Banded structure ({len(offs)} bands, dictionary ordering, x1 fastest):",
        f"  band offsets: {offs}",
        f"  adjacent diagonals at +/-1 (x1 neighbours)",
        f"  outlying diagonals at +/-{nx1} (x2 neighbours; distance = x1 zones)",
    ]
    return "\n".join(lines)
