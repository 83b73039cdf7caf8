"""Ablation — SPAI vs Jacobi vs no preconditioner.

V2D preconditions with a sparse approximate inverse (ref. [7] compared
solver/preconditioner combinations for exactly these systems).  This
ablation measures iteration counts and wall time on a representative
radiation system for the three preconditioning choices, asserting the
quality ordering SPAI <= Jacobi <= none (iterations).
"""

import numpy as np
import pytest

from repro.grid import Mesh2D
from repro.linalg import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    SPAIPreconditioner,
    StencilOperator,
    bicgstab,
)
from repro.transport import (
    ConstantOpacity,
    RadiationBasis,
    build_radiation_system,
    radiation_rhs,
)

# A stiff radiation step (large dt * D / dx^2) where preconditioning
# actually matters.
MESH = Mesh2D.uniform(32, 24, extent1=(0, 1), extent2=(0, 1))
BASIS = RadiationBasis()
_rng = np.random.default_rng(2)
_EPAD = np.abs(_rng.standard_normal((2, 34, 26))) + 0.1
_OPACITY = ConstantOpacity(kappa_a=0.01, kappa_s=0.05)
_ONES = np.ones(MESH.shape)
_KAPPA_A = _OPACITY.absorption(_ONES, _ONES, BASIS)
COEFFS = build_radiation_system(
    MESH, _EPAD, _KAPPA_A, _OPACITY.total(_ONES, _ONES, BASIS), dt=0.5
)
RHS = radiation_rhs(_EPAD[:, 1:-1, 1:-1], _ONES, _KAPPA_A, 0.5, BASIS)


def make_preconditioner(kind: str):
    if kind == "spai":
        return SPAIPreconditioner.from_stencil(COEFFS)
    if kind == "jacobi":
        return JacobiPreconditioner.from_stencil(COEFFS)
    return IdentityPreconditioner()


def solve(kind: str):
    op = StencilOperator(COEFFS)
    return bicgstab(op, RHS, tol=1e-10, M=make_preconditioner(kind))


class TestPrecondAblation:
    @pytest.mark.parametrize("kind", ["none", "jacobi", "spai"])
    def test_bench_solve(self, benchmark, kind):
        res = benchmark(solve, kind)
        assert res.converged

    def test_bench_spai_setup(self, benchmark):
        M = benchmark(SPAIPreconditioner.from_stencil, COEFFS)
        assert M.mcoeffs.shape == MESH.shape

    def test_iteration_ordering(self, bench_record, write_report):
        iters = {k: solve(k).iterations for k in ("none", "jacobi", "spai")}
        bench_record.record(
            "iterations",
            {f"iters_{k}": (float(v), "count") for k, v in iters.items()},
            config={"nunknowns": COEFFS.nunknowns, "tol": 1e-10},
        )
        report = "\n".join(
            [
                "ABLATION — preconditioner quality (BiCGSTAB iterations)",
                f"  system: {COEFFS.nunknowns} unknowns, stiff dt",
                *(f"  {k:<8}: {v} iterations" for k, v in iters.items()),
            ]
        )
        write_report("ablation_precond", report)
        assert iters["spai"] <= iters["jacobi"] <= iters["none"]
        assert iters["spai"] < iters["none"]

    def test_all_reach_same_answer(self):
        xs = {k: solve(k).x for k in ("none", "jacobi", "spai")}
        np.testing.assert_allclose(xs["spai"], xs["none"], rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(xs["jacobi"], xs["none"], rtol=1e-6, atol=1e-9)
