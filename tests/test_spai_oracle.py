"""Differential tests of the banded SPAI construction against oracles.

``spai_bands`` builds every Gram system from shifted slices and solves
them with a batched in-place Cholesky.  Two references check it:

* ``lapack_spai_bands`` -- the earlier construction, kept verbatim:
  index-array assembly of ``S = A^T A`` and one batched
  ``np.linalg.solve`` (LAPACK LU).  Same normal equations, different
  arithmetic order, so agreement is to a relative ``1e-12``.
* a dense least-squares fit per column (``np.linalg.lstsq`` of
  ``A[:, J] m ~= e_j`` over the pattern ``J``), which shares no code
  with either.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from repro.linalg import BandedOperator, spai_bands, stencil_to_bands
from repro.linalg import spai as spai_module
from repro.parallel import BoundaryCondition
from repro.problems import GaussianPulseProblem
from repro.testing import diffusion_coeffs
from repro.v2d import Simulation, V2DConfig

RTOL = 1e-12


def lapack_spai_bands(
    offsets: Sequence[int], bands: Sequence[np.ndarray], ridge: float = 0.0
) -> tuple[list[int], list[np.ndarray]]:
    """The LAPACK-solve SPAI construction (reference only)."""
    offs = [int(o) for o in offsets]
    if sorted(offs) != sorted(-o for o in offs):
        raise ValueError("SPAI pattern requires a symmetric offset set")
    m = len(offs)
    n = bands[0].shape[0]
    bmap = {o: np.asarray(b, dtype=float) for o, b in zip(offs, bands)}

    # S = A^T A, as diagonals at every pairwise offset difference.
    idx = np.arange(n)
    sdiags: dict[int, np.ndarray] = {}
    for da, ba in bmap.items():
        for db, bb in bmap.items():
            e = db - da
            u = idx + da
            valid = (u >= 0) & (u < n)
            contrib = ba[idx[valid]] * bb[idx[valid]]
            sdiags.setdefault(e, np.zeros(n))
            np.add.at(sdiags[e], u[valid], contrib)

    # Batched normal equations: for column j, unknowns are the pattern
    # entries m_a at rows j + d_a.  Missing unknowns (rows outside the
    # matrix) are pinned to zero via identity rows.
    G = np.tile(np.eye(m), (n, 1, 1))
    f = np.zeros((n, m))
    j = np.arange(n)
    valid = {a: (j + offs[a] >= 0) & (j + offs[a] < n) for a in range(m)}
    for a in range(m):
        f[valid[a], a] = bmap[offs[a]][j[valid[a]]]
        for b in range(m):
            e = offs[b] - offs[a]
            mask = valid[a] & valid[b]
            u = j[mask] + offs[a]
            vals = sdiags[e][u]
            G[mask, a, b] = vals

    if ridge > 0.0:
        G += ridge * np.eye(m)

    try:
        sol = np.linalg.solve(G, f[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if ridge > 0.0:
            raise
        scale = float(np.mean(np.abs(bmap[0]))) if 0 in bmap else 1.0
        return lapack_spai_bands(offsets, bands, ridge=1e-10 * max(scale, 1.0) ** 2)

    # Scatter columns of M back into bands: M[u, u+o] with o = -d_a,
    # column j = u + o, value sol[j, a].
    mbands: list[np.ndarray] = []
    for o in offs:
        a = offs.index(-o)
        band = np.zeros(n)
        u = j - o
        ok = (u >= 0) & (u < n)
        band[u[ok]] = sol[j[ok], a]
        mbands.append(band)
    return offs, mbands


def lstsq_spai_dense(offsets: Sequence[int], bands: Sequence[np.ndarray]) -> np.ndarray:
    """Dense M whose column j is the least-squares fit of
    ``A[:, J] m ~= e_j`` over the pattern ``J = {j + d}``."""
    A = BandedOperator(offsets, bands).to_dense()
    n = A.shape[0]
    M = np.zeros((n, n))
    for j in range(n):
        J = [j + d for d in offsets if 0 <= j + d < n]
        M[J, j] = np.linalg.lstsq(A[:, J], np.eye(n)[:, j], rcond=None)[0]
    return M


def rel_diff(got: list[np.ndarray], want: list[np.ndarray]) -> float:
    scale = max(float(np.max(np.abs(w))) for w in want)
    return max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)) / scale


def assert_matches_oracle(offsets, bands) -> None:
    offs, got = spai_bands(offsets, bands)
    ref_offs, want = lapack_spai_bands(offsets, bands)
    assert offs == ref_offs == [int(o) for o in offsets]
    assert rel_diff(got, want) <= RTOL


def random_banded(n: int, offsets: Sequence[int], seed: int) -> list[np.ndarray]:
    r = np.random.default_rng(seed)
    bands = [r.uniform(-0.5, 0.5, n) for _ in offsets]
    bands[list(offsets).index(0)] = np.abs(r.standard_normal(n)) + 2.5
    return BandedOperator(offsets, bands).bands


@pytest.fixture(scope="module")
def paper_bands() -> tuple[list[int], list[np.ndarray]]:
    """The first SPAI input of the paper problem at quarter size."""
    captured = []
    original = spai_module.spai_bands

    def capture(offsets, bands, ridge=0.0):
        captured.append(([int(o) for o in offsets], [b.copy() for b in bands]))
        return original(offsets, bands, ridge)

    spai_module.spai_bands = capture
    try:
        Simulation(
            V2DConfig.scaled_test_problem(scale=4, nsteps=1), GaussianPulseProblem()
        ).run()
    finally:
        spai_module.spai_bands = original
    return captured[0]


class TestLapackOracle:
    def test_paper_shaped_system(self, paper_bands):
        offsets, bands = paper_bands
        assert len(offsets) >= 5 and bands[0].shape == (2 * 50 * 25,)
        assert_matches_oracle(offsets, bands)

    @pytest.mark.parametrize("ns", [2, 3])
    def test_coupled_species(self, ns):
        offsets, bands = stencil_to_bands(diffusion_coeffs(ns=ns, n1=7, n2=6))
        blk = 7 * 6
        assert {k * blk for k in range(1, ns)} <= set(offsets)
        assert len(offsets) == 5 + 2 * (ns - 1)
        assert_matches_oracle(offsets, bands)

    @pytest.mark.parametrize(
        "offsets", [[0, -1, 1, -4, 4], [4, -1, 0, -4, 1], [-4, 4, 1, -1, 0]]
    )
    def test_unsorted_offsets(self, offsets):
        bands = random_banded(30, offsets, seed=11)
        assert_matches_oracle(offsets, bands)

    def test_unsorted_coupled_offsets(self):
        offsets, bands = stencil_to_bands(diffusion_coeffs(ns=3, n1=5, n2=4))
        order = np.random.default_rng(2).permutation(len(offsets))
        assert_matches_oracle([offsets[k] for k in order], [bands[k] for k in order])

    @pytest.mark.parametrize(
        "bc",
        [
            BoundaryCondition.DIRICHLET0,
            BoundaryCondition.REFLECT,
            {
                "west": BoundaryCondition.REFLECT,
                "east": BoundaryCondition.DIRICHLET0,
                "south": BoundaryCondition.DIRICHLET0,
                "north": BoundaryCondition.REFLECT,
            },
        ],
        ids=["dirichlet0", "reflect", "mixed"],
    )
    def test_boundary_conditions(self, bc):
        offsets, bands = stencil_to_bands(diffusion_coeffs(ns=2, n1=6, n2=5), bc)
        assert_matches_oracle(offsets, bands)

    def test_offsets_wider_than_matrix(self):
        # On a one-line grid (nx2 = 1, one species) the +/-nx1 bands
        # lie entirely outside the matrix.
        offsets = [0, -1, 1, -5, 5]
        bands = random_banded(5, offsets, seed=4)
        assert_matches_oracle(offsets, bands)


class TestLstsqOracle:
    @pytest.mark.parametrize("ns,n1,n2", [(1, 5, 4), (2, 4, 3), (3, 3, 3)])
    def test_columns_are_least_squares_fits(self, ns, n1, n2):
        coeffs = diffusion_coeffs(ns=ns, n1=n1, n2=n2)
        offsets, bands = stencil_to_bands(coeffs)
        moffs, mbands = spai_bands(offsets, bands)
        M = BandedOperator(moffs, mbands).to_dense()
        want = lstsq_spai_dense(offsets, bands)
        np.testing.assert_allclose(M, want, rtol=0, atol=RTOL * np.abs(want).max())

    def test_random_banded(self):
        offsets = [0, -1, 1, -3, 3]
        bands = random_banded(17, offsets, seed=8)
        moffs, mbands = spai_bands(offsets, bands)
        M = BandedOperator(moffs, mbands).to_dense()
        want = lstsq_spai_dense(offsets, bands)
        np.testing.assert_allclose(M, want, rtol=0, atol=RTOL * np.abs(want).max())


class TestFailures:
    @pytest.mark.parametrize("band", [0, 2], ids=["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_band_raises(self, bad, band):
        offsets = [0, -1, 1]
        bands = random_banded(20, offsets, seed=1)
        bands[band][7] = bad
        with pytest.raises(np.linalg.LinAlgError):
            spai_bands(offsets, bands)

    def test_zero_column_takes_the_ridge_retry(self, monkeypatch):
        offsets = [0, -1, 1, -3, 3]
        bands = random_banded(16, offsets, seed=5)
        A = BandedOperator(offsets, bands).to_dense()
        A[:, 6] = 0.0
        rows = np.arange(16)
        bands = [np.where((rows + d >= 0) & (rows + d < 16), A[rows, (rows + d) % 16], 0.0)
                 for d in offsets]
        ridges = []
        original = spai_module.spai_bands

        def spy(offsets, bands, ridge=0.0):
            ridges.append(ridge)
            return original(offsets, bands, ridge)

        monkeypatch.setattr(spai_module, "spai_bands", spy)
        offs, got = spai_module.spai_bands(offsets, bands)
        assert ridges[0] == 0.0 and len(ridges) == 2 and ridges[1] > 0.0
        _, want = lapack_spai_bands(offsets, bands)
        assert rel_diff(got, want) <= RTOL
        assert all(np.isfinite(b).all() for b in got)
        # the unknown on the zero column is zero: M's row 6 is empty
        M = BandedOperator(offs, got).to_dense()
        assert not M[6].any()

    def test_failed_retry_raises(self):
        # Zero diagonal (ridge 1e-10) and parallel columns 0 and 2 of
        # norm 1e6: the ridge is below the rounding of the 1e12 Gram
        # entries, so column 1's system stays singular after the retry.
        offsets = [0, -1, 1]
        q = r = 1e6
        bands = [np.zeros(3), np.array([0.0, q, 3.0]), np.array([2.0, r, 0.0])]
        with pytest.raises(np.linalg.LinAlgError):
            lapack_spai_bands(offsets, bands)
        with pytest.raises(np.linalg.LinAlgError):
            spai_bands(offsets, bands)
        # the retry's own call: a failure with a ridge raises at once
        with pytest.raises(np.linalg.LinAlgError):
            spai_bands(offsets, bands, ridge=1e-10)
