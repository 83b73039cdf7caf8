"""Preconditioning: sparse approximate inverse (SPAI) and baselines.

"Preconditioning of the linear system is accomplished using a sparse
approximate inverse preconditioner" (paper Sec. I-C, citing Swesty,
Smolarski & Saylor 2004).

SPAI chooses M with a prescribed sparsity pattern (here: the pattern of
A itself) minimizing ``||A M - I||_F`` column by column.  Each column
is a tiny least-squares problem over the pattern; for a banded operator
the normal equations are identical small dense systems gathered from
the diagonals of ``S = A^T A``.  Every diagonal of ``S`` and every
entry of the Gram systems is a contiguous shifted slice of the bands,
and the systems are symmetric positive definite, so the whole
construction vectorizes as one in-place Cholesky factorization and
solve unrolled over ``m`` (the number of bands) and batched over the
``n`` columns: each step is a length-``n`` vector operation.

Crucially, the resulting M has the *same banded/stencil structure as
A*, so applying the preconditioner is just another matrix-free stencil
Matvec -- the paper observed SVE speedup "in the routines that applied
the preconditioner to the system matrix" precisely because those
routines are the same vectorizable kernels.

In decomposed runs SPAI is built from the tile-local (block-diagonal)
part of the operator, the standard parallel SPAI practice: the
preconditioner application then needs no halo exchange.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.kernels.stencil import StencilCoefficients
from repro.kernels.suite import KernelSuite
from repro.linalg.banded import stencil_to_bands
from repro.linalg.operators import BandedOperator, StencilOperator
from repro.parallel.halo import BoundaryCondition

Array = np.ndarray


class Preconditioner(ABC):
    """Applies ``M ~= A^-1`` to a vector (right preconditioning)."""

    @abstractmethod
    def apply(self, x: Array, out: Array | None = None) -> Array:
        """Compute ``M x``."""


class IdentityPreconditioner(Preconditioner):
    """No preconditioning (baseline)."""

    def apply(self, x: Array, out: Array | None = None) -> Array:
        if out is None:
            return x.copy()
        out[...] = x
        return out


class JacobiPreconditioner(Preconditioner):
    """``M = diag(A)^-1`` (point-Jacobi / SPAI-0 baseline).

    Parameters
    ----------
    diagonal:
        The operator's main diagonal, operand-shaped.  Zero entries are
        rejected (a singular Jacobi preconditioner).
    """

    def __init__(self, diagonal: Array, suite: KernelSuite | None = None) -> None:
        if np.any(diagonal == 0.0):
            raise ValueError("Jacobi preconditioner requires a nonzero diagonal")
        self._inv = 1.0 / diagonal
        self.suite = suite if suite is not None else KernelSuite()

    @classmethod
    def from_stencil(
        cls, coeffs: StencilCoefficients, suite: KernelSuite | None = None
    ) -> "JacobiPreconditioner":
        return cls(coeffs.diag, suite=suite)

    @classmethod
    def from_banded(
        cls, op: BandedOperator, suite: KernelSuite | None = None
    ) -> "JacobiPreconditioner":
        return cls(op.diagonal(), suite=suite)

    def apply(self, x: Array, out: Array | None = None) -> Array:
        return self.suite.backend.mul(self._inv, x, out=out)


# ---------------------------------------------------------------------------
# Banded SPAI construction
# ---------------------------------------------------------------------------
def _rows(d: int, n: int) -> tuple[int, int]:
    """Rows ``[lo, hi)`` of an ``n x n`` matrix whose band-``d`` entry
    ``A[i, i + d]`` lies inside the matrix (empty: ``lo == hi``)."""
    lo = min(max(0, -d), n)
    return lo, max(lo, min(n, n - d))


def _overlap(ra: tuple[int, int], rb: tuple[int, int]) -> tuple[int, int]:
    lo = max(ra[0], rb[0])
    return lo, max(lo, min(ra[1], rb[1]))


def _cholesky_solve(G: Array, f: Array) -> bool:
    """Solve ``n`` small SPD systems at once, in place.

    ``G`` is ``(m, m, n)`` with the lower triangles of the ``n``
    matrices (batch axis last); it is overwritten by their Cholesky
    factors.  ``f`` is ``(m, n)`` and receives the solutions.  Every
    loop runs over ``m`` and every body is a length-``n`` vector
    operation.  Returns False if a pivot is not ``> 0`` (a matrix is
    not numerically SPD).
    """
    m = f.shape[0]
    for k in range(m):
        for p in range(k):
            G[k:, k] -= G[k:, p] * G[k, p]
        pivot = G[k, k]
        if not pivot.min() > 0.0:
            return False
        np.sqrt(pivot, out=pivot)
        G[k + 1 :, k] /= pivot
    for k in range(m):  # L y = f
        for p in range(k):
            f[k] -= G[k, p] * f[p]
        f[k] /= G[k, k]
    for k in reversed(range(m)):  # L^T x = y
        for p in range(k + 1, m):
            f[k] -= G[p, k] * f[p]
        f[k] /= G[k, k]
    return True


def spai_bands(
    offsets: Sequence[int], bands: Sequence[Array], ridge: float = 0.0
) -> tuple[list[int], list[Array]]:
    """SPAI of a banded matrix, on the same banded pattern.

    Parameters
    ----------
    offsets, bands:
        Row-indexed banded form (``band[k][i] = A[i, i + offsets[k]]``)
        in any order.  Entries that fall outside the matrix do not
        enter the result.  The offset set must be symmetric (``-d``
        present for every ``d``) -- true for every operator in this
        package -- so that M's pattern equals A's.
    ridge:
        Optional Tikhonov term added to the normal equations (used as a
        retry when a column's little Gram matrix is singular).

    Returns
    -------
    (offsets, mbands):
        The banded form of M minimizing ``||A M - I||_F`` columnwise
        over the pattern, in the caller's offset order.

    Raises
    ------
    numpy.linalg.LinAlgError
        If a band is not finite, or a Gram matrix stays singular after
        the ridge retry.
    """
    offs = [int(o) for o in offsets]
    if sorted(offs) != sorted(-o for o in offs):
        raise ValueError("SPAI pattern requires a symmetric offset set")
    bmap = {o: np.asarray(b, dtype=float) for o, b in zip(offs, bands)}
    if not all(np.isfinite(b).all() for b in bmap.values()):
        raise np.linalg.LinAlgError("SPAI input bands are not finite")
    d = sorted(bmap)
    m = len(d)
    n = bands[0].shape[0]
    rows = [_rows(o, n) for o in d]

    # S = A^T A as its diagonals S_e[u] = S[u, u + e], e >= 0 only (S is
    # symmetric).  Row i adds A[i, i + d_a] A[i, i + d_b] to S[i + d_a,
    # i + d_b]: one contiguous shifted range per pair of bands.
    sdiag: dict[int, Array] = {}
    for a in range(m):
        for b in range(a, m):
            lo, hi = _overlap(rows[a], rows[b])
            s = sdiag.setdefault(d[b] - d[a], np.zeros(n))
            s[lo + d[a] : hi + d[a]] += bmap[d[a]][lo:hi] * bmap[d[b]][lo:hi]

    # Normal equations of every column j, batch axis last.  Unknown a is
    # M[j + d_a, j], inside the matrix for j in rows[a]; then
    # G[a, b, j] = S[j + d_b, j + d_a] (lower triangle, d_a >= d_b) and
    # f[a, j] = A[j, j + d_a].  Unknowns outside the matrix are pinned
    # to zero by identity rows.
    G = np.zeros((m, m, n))
    f = np.zeros((m, n))
    for a in range(m):
        lo, hi = rows[a]
        G[a, a, :lo] = 1.0
        G[a, a, hi:] = 1.0
        f[a, lo:hi] = bmap[d[a]][lo:hi]
        for b in range(a + 1):
            lo, hi = _overlap(rows[a], rows[b])
            G[a, b, lo:hi] = sdiag[d[a] - d[b]][lo + d[b] : hi + d[b]]
        if ridge > 0.0:
            G[a, a] += ridge

    if not _cholesky_solve(G, f):
        if ridge > 0.0:
            raise np.linalg.LinAlgError("SPAI Gram matrix singular after the ridge retry")
        scale = float(np.mean(np.abs(bmap[0]))) if 0 in bmap else 1.0
        return spai_bands(offsets, bands, ridge=1e-10 * max(scale, 1.0) ** 2)

    # Unknown a of column j is entry u = j + d_a of M's band at -d_a.
    mbands: dict[int, Array] = {}
    for a in range(m):
        lo, hi = rows[a]
        band = np.zeros(n)
        band[lo + d[a] : hi + d[a]] = f[a, lo:hi]
        mbands[-d[a]] = band
    return offs, [mbands[o] for o in offs]


def bands_to_stencil(
    offsets: Sequence[int],
    bands: Sequence[Array],
    ns: int,
    nx1: int,
    nx2: int,
) -> StencilCoefficients:
    """Inverse of :func:`repro.linalg.banded.stencil_to_bands`.

    Only the stencil offsets ``0, +/-1, +/-nx1`` and species-coupling
    offsets ``+/-k*nx1*nx2`` are representable; anything else raises.
    """
    blk = nx1 * nx2

    def unflatten(flat: Array) -> Array:
        return flat.reshape(ns, nx2, nx1).transpose(0, 2, 1).copy()

    coupled = any(abs(o) >= blk and o != 0 for o in offsets)
    c = StencilCoefficients.zeros(ns, nx1, nx2, coupled=coupled)
    for off, band in zip(offsets, bands):
        if off == 0:
            c.diag[...] = unflatten(band)
        elif off == -1:
            c.west[...] = unflatten(band)
        elif off == 1:
            c.east[...] = unflatten(band)
        elif off == -nx1:
            c.south[...] = unflatten(band)
        elif off == nx1:
            c.north[...] = unflatten(band)
        elif off % blk == 0 and abs(off) // blk < ns:
            k = off // blk
            full = unflatten(band)
            for s in range(ns):
                sp = s + k
                if 0 <= sp < ns:
                    c.coupling[s, sp] = full[s]
        else:
            raise ValueError(f"band offset {off} is not stencil-representable")
    return c


class SPAIPreconditioner(Preconditioner):
    """Stencil-pattern SPAI applied as a matrix-free stencil Matvec."""

    def __init__(self, mcoeffs: StencilCoefficients, suite: KernelSuite | None = None) -> None:
        self.suite = suite if suite is not None else KernelSuite()
        self._op = StencilOperator(
            mcoeffs, suite=self.suite, bc=BoundaryCondition.DIRICHLET0, cart=None
        )
        self.mcoeffs = mcoeffs

    @classmethod
    def from_stencil(
        cls,
        coeffs: StencilCoefficients,
        bc: BoundaryCondition | dict[str, BoundaryCondition] = BoundaryCondition.DIRICHLET0,
        suite: KernelSuite | None = None,
    ) -> "SPAIPreconditioner":
        """Build SPAI for the (tile-local) operator-with-BCs."""
        offsets, bands = stencil_to_bands(coeffs, bc)
        moffs, mbands = spai_bands(offsets, bands)
        ns, (n1, n2) = coeffs.nspec, coeffs.shape
        mcoeffs = bands_to_stencil(moffs, mbands, ns, n1, n2)
        return cls(mcoeffs, suite=suite)

    def apply(self, x: Array, out: Array | None = None) -> Array:
        return self._op.apply(x, out=out)


class BandedSPAIPreconditioner(Preconditioner):
    """SPAI for 1-D banded systems (the Table-II driver path)."""

    def __init__(self, op: BandedOperator, suite: KernelSuite | None = None) -> None:
        self.suite = suite if suite is not None else op.suite
        moffs, mbands = spai_bands(op.offsets, op.bands)
        self._mop = BandedOperator(moffs, mbands, suite=self.suite)

    def apply(self, x: Array, out: Array | None = None) -> Array:
        return self._mop.apply(x, out=out)
