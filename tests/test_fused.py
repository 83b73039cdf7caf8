"""Regression suite for the fused-kernel solver hot path.

Fusion is a backend capability (:func:`native_fused_ops`), not a
solver mode: ``bicgstab`` runs one loop on every backend.  Four
contracts are pinned here:

1. **Native == composed primitive.**  Every fused backend primitive
   (``axpy_dot``, ``dscal_dot``, ``stencil_apply_dots``) computes
   exactly what the base-class composition ``Backend.<op>`` computes
   -- bit-identical in float64 on every backend, since the scalar and
   jit backends' in-loop accumulation preserves element order and the
   vector backend's whole-array path is the composition.  Property
   tests (hypothesis) sweep shapes, values and dtypes.
2. **Native solver == composed solver.**  A solve on each backend
   reproduces, bit for bit, the same solve on a test-only subclass
   that inherits every fused primitive from :class:`Backend`, for
   both the ganged and the classic iteration.
3. **Fused launches, fewer reductions.**  Every solver Matvec is one
   launch carrying its dots, and the ganged path performs
   ``REDUCTIONS_PER_ITER_GANGED`` (2) reduction rounds per iteration
   against the textbook's 6 -- counted both serially and as actual
   allreduce rounds in an SPMD run.
4. **Bit-reproducibility under decomposition.**  The fused matvec
   path produces bit-identical local results on any process topology,
   with reduction values identical on every rank; whole timesteps
   agree with the single-rank run to tight tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.backend import (
    FUSED_PRIMITIVES,
    Backend,
    JitBackend,
    ScalarBackend,
    VectorBackend,
    native_fused_ops,
    numba_available,
)
from repro.kernels import KernelSuite, SolverWorkspace
from repro.kernels.workspace import WORKSPACE_NAMES
from repro.linalg import StencilOperator, bicgstab
from repro.linalg.bicgstab import (
    REDUCTIONS_PER_ITER_CLASSIC,
    REDUCTIONS_PER_ITER_GANGED,
)
from repro.monitor import Counters
from repro.parallel import CartComm, ReduceOp, run_spmd
from repro.problems import GaussianPulseProblem
from repro.testing import diffusion_coeffs
from repro.v2d import Simulation, V2DConfig

SCALAR, VECTOR = ScalarBackend(), VectorBackend()

#: The jit tier joins the primitive-level native==composed sweeps via its
#: pure-Python kernel mode (same loop bodies, no numba needed); a
#: compiled instance is added whenever numba is actually installed so
#: the njit code paths get the identical property coverage.
JIT_PY = JitBackend(force_python=True)
PRIM_BACKENDS = [SCALAR, VECTOR, JIT_PY]
PRIM_IDS = ["scalar", "vector", "jit-py"]
if numba_available():
    PRIM_BACKENDS.append(JitBackend())
    PRIM_IDS.append("jit")

#: Every decomposed test runs under both comm transports: the threaded
#: in-process fabric and the multi-process shared-memory fabric must be
#: indistinguishable down to the bit pattern of fields and reductions.
TRANSPORTS = ("threads", "mp")

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


def vecs(k, n_min=1, n_max=48, dtype=np.float64):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.tuples(*(arrays(dtype, n, elements=finite) for _ in range(k)))
    )


# ---------------------------------------------------------------------------
# 1. Native fused primitives == base-class compositions (property tests).
# ---------------------------------------------------------------------------
class TestFusedPrimitiveProperties:
    @pytest.mark.parametrize("bk", PRIM_BACKENDS, ids=PRIM_IDS)
    @given(xy=vecs(2), a=finite)
    def test_axpy_dot_norm_form(self, bk, xy, a):
        x, y = xy
        out_f, dot_f = bk.axpy_dot(a, x, y)
        out_u, dot_u = Backend.axpy_dot(bk, a, x, y)
        np.testing.assert_array_equal(out_f, out_u)
        assert dot_f == dot_u  # float64: bitwise

    @pytest.mark.parametrize("bk", PRIM_BACKENDS, ids=PRIM_IDS)
    @given(xyw=vecs(3), a=finite)
    def test_axpy_dot_weighted_form(self, bk, xyw, a):
        x, y, w = xyw
        out_f, dot_f = bk.axpy_dot(a, x, y, w=w)
        out_u, dot_u = Backend.axpy_dot(bk, a, x, y, w=w)
        np.testing.assert_array_equal(out_f, out_u)
        assert dot_f == dot_u

    @pytest.mark.parametrize("bk", PRIM_BACKENDS, ids=PRIM_IDS)
    @given(cyw=vecs(3), d=finite)
    def test_dscal_dot_both_forms(self, bk, cyw, d):
        c, y, w = cyw
        for kw in ({}, {"w": w}):
            out_f, dot_f = bk.dscal_dot(c, d, y, **kw)
            out_u, dot_u = Backend.dscal_dot(bk, c, d, y, **kw)
            np.testing.assert_array_equal(out_f, out_u)
            assert dot_f == dot_u

    @given(xy=vecs(2, dtype=np.float32), a=st.floats(-1e3, 1e3))
    def test_axpy_dot_float32_matches_to_rounding(self, xy, a):
        # In float32 the fused scalar loop accumulates the unrounded
        # update (register value); the composition re-reads the rounded
        # store.  Outputs stay bitwise; dots agree to float32 rounding.
        x, y = xy
        out_f, dot_f = SCALAR.axpy_dot(a, x, y)
        out_u, dot_u = Backend.axpy_dot(SCALAR, a, x, y)
        assert out_f.dtype == np.float32
        np.testing.assert_array_equal(out_f, out_u)
        assert dot_f == pytest.approx(dot_u, rel=1e-4, abs=1e-10)

    @pytest.mark.parametrize("bk", PRIM_BACKENDS, ids=PRIM_IDS)
    @given(
        n1=st.integers(1, 6),
        n2=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
        which=st.lists(st.sampled_from(["norm", "weighted", "pair"]),
                       min_size=1, max_size=4),
    )
    @settings(deadline=None)
    def test_stencil_apply_dots_matches_composition(self, bk, n1, n2, seed, which):
        rng = np.random.default_rng(seed)
        bands = [rng.standard_normal((n1, n2)) for _ in range(5)]
        xpad = rng.standard_normal((n1 + 2, n2 + 2))
        w = rng.standard_normal((n1, n2))
        p, q = rng.standard_normal((2, n1, n2))
        spec = {"norm": None, "weighted": w, "pair": (p, q)}
        dots = [spec[name] for name in which]
        out_f, dots_f = bk.stencil_apply_dots(*bands, xpad, dots)
        out_u, dots_u = Backend.stencil_apply_dots(bk, *bands, xpad, dots)
        np.testing.assert_array_equal(out_f, out_u)
        np.testing.assert_array_equal(dots_f, dots_u)

    @given(xyz=vecs(3), a=finite, b=finite)
    def test_work_buffer_does_not_change_results(self, xyz, a, b):
        # The allocation-free aliased-out paths must be bit-identical
        # to the paths they replace: plain aliasing for AXPY, and the
        # two-DAXPY composition axpy(b, y, axpy(a, x, z)) for the
        # solver's fused x-update (DDAXPY with out aliased to z).
        x, y, z = xyz
        work = np.empty_like(x)
        for bk in (SCALAR, VECTOR):
            base = bk.axpy(a, x, y, out=None)
            y1 = y.copy()
            bk.axpy(a, x, y1, out=y1, work=work)
            np.testing.assert_array_equal(y1, base)
        # Vector backend, aliased out + work: equals the two-DAXPY
        # composition it substitutes for in the solver.
        two_daxpy = VECTOR.axpy(b, y, VECTOR.axpy(a, x, z))
        z1 = z.copy()
        VECTOR.ddaxpy(a, x, b, y, z1, out=z1, work=work)
        np.testing.assert_array_equal(z1, two_daxpy)
        # Aliased out without work: same association as the fresh-out
        # single pass, on both backends (scalar loops never need work).
        for bk in (SCALAR, VECTOR):
            base = bk.ddaxpy(a, x, b, y, z)
            z2 = z.copy()
            bk.ddaxpy(a, x, b, y, z2, out=z2)
            np.testing.assert_array_equal(z2, base)
            z3 = z.copy()
            bk.ddaxpy(a, x, b, y, z3, out=z3,
                      work=work if bk is SCALAR else None)
            if bk is SCALAR:
                np.testing.assert_array_equal(z3, base)


class TestFusedRegistry:
    def test_scalar_backend_fuses_natively(self):
        # The no-SVE proxy carries true single-pass loop fusions ...
        assert native_fused_ops(SCALAR) == FUSED_PRIMITIVES

    def test_vector_backend_uses_reference_compositions(self):
        # ... while whole-array NumPy cannot express register-level
        # fusion, so the vector backend inherits the compositions
        # (making native==composed trivially bitwise there).
        assert native_fused_ops(VECTOR) == ()

    def test_composed_subclasses_have_no_native_ops(self):
        # The reference side of the solver-level comparisons below.
        for _, ref in NATIVE_VS_COMPOSED.values():
            assert native_fused_ops(ref) == ()

    def test_jit_backend_fuses_all_three_primitives(self):
        # The jit tier is the one backend that fuses at compiled
        # register level: all three primitives are native overrides,
        # in both its compiled and pure-Python kernel modes.
        assert native_fused_ops(JIT_PY) == FUSED_PRIMITIVES


class TestSolverWorkspace:
    def test_lazy_allocation_and_reuse(self):
        ws = SolverWorkspace()
        with pytest.raises(RuntimeError):
            ws.array("p")
        ws.ensure((3, 4))
        first = {name: ws.array(name) for name in WORKSPACE_NAMES}
        assert all(a.shape == (3, 4) for a in first.values())
        ws.ensure((3, 4))          # same shape: no new memory
        assert all(ws.array(n) is first[n] for n in WORKSPACE_NAMES)
        assert (ws.allocations, ws.reuses) == (1, 1)
        ws.ensure((5,))            # shape change: reallocate
        assert ws.array("p").shape == (5,)
        assert ws.allocations == 2

    def test_solver_reuses_workspace_across_solves(self):
        # Both variants draw their scratch from the one workspace.
        coeffs = diffusion_coeffs(ns=1, n1=10, n2=8, coupled=False, seed=2)
        rhs = np.random.default_rng(2).standard_normal((1, 10, 8))
        ws = SolverWorkspace()
        for ganged in (True, True, True, False, False):
            res = bicgstab(
                StencilOperator(coeffs), rhs, tol=1e-10, ganged=ganged,
                workspace=ws,
            )
            assert res.converged
        assert ws.allocations == 1
        assert ws.reuses == 4


# ---------------------------------------------------------------------------
# 2 & 3. Whole-solver equivalence and launch/reduction counting.
# ---------------------------------------------------------------------------
def _composed(cls):
    """Test-only subclass of ``cls`` that inherits every fused
    primitive from :class:`Backend`, i.e. runs the reference
    compositions wherever ``cls`` fuses natively."""
    return type(
        f"Composed{cls.__name__}",
        (cls,),
        {name: getattr(Backend, name) for name in FUSED_PRIMITIVES},
    )


#: id -> (native backend, composed twin) for the solver-level comparison.
NATIVE_VS_COMPOSED = {
    "vector": (VECTOR, _composed(VectorBackend)()),
    "scalar": (SCALAR, _composed(ScalarBackend)()),
    "jit-py": (JIT_PY, _composed(JitBackend)(force_python=True)),
}

#: Operator cases: two species (the stencil's per-species path), two
#: coupled species (apply + ganged DPROD), and one species (the whole
#: sweep handed to a backend's native ``stencil_apply_dots``).
CASES = {"uncoupled": (2, False), "coupled": (2, True), "single-species": (1, False)}


def _solve(backend, *, ganged=True, case="uncoupled", x0=None):
    ns, coupled = CASES[case]
    coeffs = diffusion_coeffs(ns=ns, n1=12, n2=9, coupled=coupled, seed=5)
    rhs = np.random.default_rng(11).standard_normal((ns, 12, 9))
    counters = Counters()
    suite = KernelSuite(backend, counters=counters)
    op = StencilOperator(coeffs, suite=suite)
    res = bicgstab(op, rhs, x0=x0, tol=1e-10, suite=suite, ganged=ganged)
    assert res.converged
    return res, counters


def _assert_native_equals_composed(label, case):
    native, composed = NATIVE_VS_COMPOSED[label]
    for ganged in (True, False):
        res_n, cn = _solve(native, ganged=ganged, case=case)
        res_c, cc = _solve(composed, ganged=ganged, case=case)
        assert res_n.iterations == res_c.iterations
        assert res_n.reductions == res_c.reductions
        np.testing.assert_array_equal(res_n.x, res_c.x)
        assert res_n.residual_norm == res_c.residual_norm
        assert res_n.history == res_c.history
        # Accounting is a work model: where a primitive runs natively
        # must not change a single event count.
        assert cn.snapshot() == cc.snapshot()


class TestFusedSolverEquivalence:
    @pytest.mark.parametrize("case", list(CASES))
    def test_vector_fused_is_bitwise_identical(self, case):
        _assert_native_equals_composed("vector", case)

    @pytest.mark.parametrize("case", list(CASES))
    def test_scalar_fused_is_bitwise_identical(self, case):
        _assert_native_equals_composed("scalar", case)

    @pytest.mark.parametrize("case", list(CASES))
    def test_jit_fused_is_bitwise_identical(self, case):
        _assert_native_equals_composed("jit-py", case)

    @pytest.mark.parametrize("ganged", [True, False], ids=["ganged", "classic"])
    def test_every_matvec_is_one_fused_launch(self, ganged):
        # Each loop Matvec carries its dots (apply_dots) and each true
        # residual is one DSCAL+norm launch, so with x0 = None every
        # Matvec the solver counts pairs with exactly one fused launch.
        res, c = _solve("vector", ganged=ganged)
        assert c.matvecs == res.matvecs
        assert c.fused_ops == res.matvecs

    def test_fused_setup_saves_a_reduction(self):
        # The setup takes ||b|| and (r, r) in one reduction in both
        # variants: with x0 = None r is b, otherwise the two ride one
        # gang.  A zero x0 costs one Matvec more and no reduction more.
        for ganged in (True, False):
            cold, _ = _solve("vector", ganged=ganged)
            warm, _ = _solve("vector", ganged=ganged, x0=np.zeros((2, 12, 9)))
            assert warm.iterations == cold.iterations
            assert warm.reductions == cold.reductions
            assert warm.matvecs == cold.matvecs + 1


class TestReductionCounts:
    def test_ganged_two_rounds_per_iteration_classic_six(self):
        ganged, _ = _solve("vector", ganged=True)
        classic, _ = _solve("vector", ganged=False)
        # Setup costs 1 round in both (||b|| with (r,r)); the ganged
        # loop adds the final true-residual check, while the classic
        # loop's last iteration trades its rho dot for that check.
        assert ganged.reductions == (
            REDUCTIONS_PER_ITER_GANGED * ganged.iterations + 2
        )
        assert classic.reductions == (
            REDUCTIONS_PER_ITER_CLASSIC * classic.iterations + 1
        )
        np.testing.assert_allclose(ganged.x, classic.x, rtol=1e-8, atol=1e-9)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("nprx1,nprx2", [(2, 1), (2, 2)])
    def test_decomposed_ganged_fewer_allreduce_rounds(self, nprx1, nprx2, transport):
        # The acceptance criterion: in a real SPMD run the ganged,
        # batched solver issues strictly fewer allreduce rounds per
        # iteration than the textbook loop, for the same solution.
        ns, nx1, nx2 = 1, 12, 8
        coeffs = diffusion_coeffs(ns=ns, n1=nx1, n2=nx2, coupled=False, seed=9)
        rhs = np.random.default_rng(9).standard_normal((ns, nx1, nx2))

        def prog(comm):
            cart = CartComm.create(comm, nx1, nx2, nprx1, nprx2)
            t = cart.tile
            local = type(coeffs)(
                diag=coeffs.diag[:, t.slice1, t.slice2].copy(),
                west=coeffs.west[:, t.slice1, t.slice2].copy(),
                east=coeffs.east[:, t.slice1, t.slice2].copy(),
                south=coeffs.south[:, t.slice1, t.slice2].copy(),
                north=coeffs.north[:, t.slice1, t.slice2].copy(),
            )
            out = {}
            for label, ganged in (("ganged", True), ("classic", False)):
                before = comm.counters.reductions
                res = bicgstab(
                    StencilOperator(local, cart=cart),
                    rhs[:, t.slice1, t.slice2],
                    tol=1e-10, comm=comm, ganged=ganged,
                )
                out[label] = (
                    t, res.x, res.iterations,
                    comm.counters.reductions - before,
                )
            return out

        results = run_spmd(nprx1 * nprx2, prog, timeout=60.0, transport=transport)
        for r in results:
            t, _, iters_g, rounds_g = r["ganged"]
            _, _, iters_c, rounds_c = r["classic"]
            per_g = rounds_g / iters_g
            per_c = rounds_c / iters_c
            assert per_g < per_c
            assert per_g <= REDUCTIONS_PER_ITER_GANGED + 1   # + setup share
            # The classic loop pays close to its 6 rounds/iteration
            # (short final iterations shave a fraction off), leaving a
            # gap of >= 3 rounds/iteration over the ganged solver.
            assert per_c > REDUCTIONS_PER_ITER_CLASSIC - 1
            assert per_c - per_g >= 3
        x_g = np.empty_like(rhs)
        x_c = np.empty_like(rhs)
        for r in results:
            t = r["ganged"][0]
            x_g[:, t.slice1, t.slice2] = r["ganged"][1]
            x_c[:, t.slice1, t.slice2] = r["classic"][1]
        np.testing.assert_allclose(x_g, x_c, rtol=1e-8, atol=1e-9)

    def test_timestep_extrema_ride_one_batched_round(self):
        def prog(comm):
            lo, hi = comm.allreduce_batch(
                [float(comm.rank + 1), float(comm.rank + 1)],
                ops=[ReduceOp.MIN, ReduceOp.MAX],
            )
            return lo, hi, comm.counters.reductions

        for lo, hi, rounds in run_spmd(3, prog, timeout=30.0):
            assert (lo, hi) == (1.0, 3.0)
            assert rounds == 1   # two logical reductions, one round


# ---------------------------------------------------------------------------
# 4. Bit-reproducibility of the solver path under decomposition.
# ---------------------------------------------------------------------------
TOPOLOGIES = [(1, 2), (2, 1), (2, 2)]


def _subset(coeffs, t):
    return type(coeffs)(
        diag=coeffs.diag[:, t.slice1, t.slice2].copy(),
        west=coeffs.west[:, t.slice1, t.slice2].copy(),
        east=coeffs.east[:, t.slice1, t.slice2].copy(),
        south=coeffs.south[:, t.slice1, t.slice2].copy(),
        north=coeffs.north[:, t.slice1, t.slice2].copy(),
    )


class TestDecomposedBitReproducibility:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("nprx1,nprx2", TOPOLOGIES)
    def test_fused_matvec_path_bit_reproduces_serial(self, nprx1, nprx2, transport):
        ns, nx1, nx2 = 2, 12, 8
        coeffs = diffusion_coeffs(ns=ns, n1=nx1, n2=nx2, coupled=False, seed=21)
        x = np.random.default_rng(3).standard_normal((ns, nx1, nx2))
        w = np.random.default_rng(4).standard_normal((ns, nx1, nx2))
        out_serial, dots_serial = StencilOperator(coeffs).apply_dots(
            x, [None, w, (w, x)]
        )

        def prog(comm):
            cart = CartComm.create(comm, nx1, nx2, nprx1, nprx2)
            t = cart.tile
            op = StencilOperator(_subset(coeffs, t), cart=cart)
            out, local = op.apply_dots(
                x[:, t.slice1, t.slice2],
                [None, w[:, t.slice1, t.slice2],
                 (w[:, t.slice1, t.slice2], x[:, t.slice1, t.slice2])],
            )
            return t, out, np.asarray(comm.allreduce(local))

        results = run_spmd(nprx1 * nprx2, prog, timeout=60.0, transport=transport)
        assembled = np.empty_like(out_serial)
        for t, out, _ in results:
            assembled[:, t.slice1, t.slice2] = out
        # Halo-exchanged matvec: bit-identical to the serial sweep.
        np.testing.assert_array_equal(assembled, out_serial)
        # Rank-ordered allreduce: every rank sees the same bits ...
        for _, _, dots in results[1:]:
            np.testing.assert_array_equal(dots, results[0][2])
        # ... and the values match serial to reassociation error.
        np.testing.assert_allclose(results[0][2], dots_serial, rtol=1e-13)

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("nprx1,nprx2", TOPOLOGIES)
    def test_full_timestep_matches_serial(self, nprx1, nprx2, transport):
        def run(nprx1, nprx2):
            cfg = V2DConfig(
                nx1=16, nx2=12, nsteps=1, dt=2e-4, precond="jacobi",
                solver_tol=1e-10, nprx1=nprx1, nprx2=nprx2,
                profile=False, transport=transport,
            )
            if cfg.nranks == 1:
                sim = Simulation(cfg, GaussianPulseProblem())
                sim.run()
                return sim.integrator.E.interior.copy()

            def prog(comm):
                cart = CartComm.create(comm, 16, 12, nprx1, nprx2)
                sim = Simulation(cfg, GaussianPulseProblem(), cart=cart)
                sim.run()
                return cart.tile, sim.integrator.E.interior.copy()

            E = None
            for t, tile_E in run_spmd(
                cfg.nranks, prog, timeout=120.0, transport=transport
            ):
                if E is None:
                    E = np.empty((tile_E.shape[0], 16, 12))
                E[:, t.slice1, t.slice2] = tile_E
            return E

        serial = run(1, 1)
        decomposed = run(nprx1, nprx2)
        # Against the single-rank run only the cross-rank reduction
        # order differs: tight-tolerance agreement.
        np.testing.assert_allclose(decomposed, serial, rtol=1e-12, atol=1e-15)
