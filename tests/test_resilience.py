"""Tests for the fault-injection harness and the layered recovery stack.

Covers the injector (determinism, stream independence, corruption
styles), the kernel/comm/io injection sites, the solver escalation
ladder, BiCGSTAB breakdown handling, step-level dt-backoff retry,
run-level checkpoint rollback, and the end-to-end seeded chaos
acceptance runs the CI smoke job relies on.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.backend.dispatch import (
    fault_wrapper,
    faulty_backends,
    install_fault_wrapper,
)
from repro.io import (
    CheckpointCorruptError,
    CheckpointFormatError,
    CheckpointNotFoundError,
    CheckpointWriteError,
    load_checkpoint,
    save_checkpoint,
)
from repro.kernels.suite import KernelSuite
from repro.kernels.workspace import SolverWorkspace
from repro.linalg.bicgstab import SolveResult, _norm_from_sq, bicgstab
from repro.linalg.gmres import gmres
from repro.linalg.operators import BandedOperator, LinearOperator
from repro.monitor import Counters
from repro.parallel import run_spmd
from repro.problems import GaussianPulseProblem
from repro.resilience import (
    FaultInjector,
    FaultyBackend,
    FaultyCommunicator,
    NonFiniteStateError,
    ResilienceConfig,
    ResilienceReport,
    RetryPolicy,
    RollbackExhaustedError,
    SolveStats,
    StepRetryExhaustedError,
    solution_ok,
    solve_with_escalation,
)
from repro.v2d import Simulation, V2DConfig, run_parallel

TIMEOUT = 30.0


def small_config(**kw):
    args = dict(
        nx1=16, nx2=8, extent1=(0.0, 1.0), extent2=(0.0, 1.0),
        nsteps=3, dt=2e-4, solver_tol=1e-9, precond="jacobi",
    )
    args.update(kw)
    return V2DConfig(**args)


# ----------------------------------------------------------------------
# FaultInjector: determinism, stream independence, corruption styles
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_replays_exactly(self):
        def draws(inj):
            return [inj.fire("numeric") for _ in range(200)]

        a = FaultInjector(seed=7, rank=0, numeric_rate=0.3)
        b = FaultInjector(seed=7, rank=0, numeric_rate=0.3)
        assert draws(a) == draws(b)
        assert a.injected == b.injected

    def test_rank_decorrelates_streams(self):
        a = FaultInjector(seed=7, rank=0, numeric_rate=0.3)
        b = FaultInjector(seed=7, rank=1, numeric_rate=0.3)
        assert [a.fire("numeric") for _ in range(200)] != [
            b.fire("numeric") for _ in range(200)
        ]

    def test_sites_have_independent_streams(self):
        # Comm draws must not depend on how many kernel launches
        # happened in between -- each site owns its own PCG64 stream.
        a = FaultInjector(seed=3, rank=0, numeric_rate=0.5, comm_rate=0.5)
        b = FaultInjector(seed=3, rank=0, numeric_rate=0.5, comm_rate=0.5)
        for _ in range(500):
            a.fire("numeric")
        assert [a.fire("comm") for _ in range(100)] == [
            b.fire("comm") for _ in range(100)
        ]

    def test_disarmed_site_never_fires(self):
        inj = FaultInjector(seed=0, rank=0, numeric_rate=0.0)
        assert not inj.armed("numeric")
        assert all(inj.fire("numeric") is None for _ in range(100))
        assert inj.injected["numeric"] == 0

    def test_fire_updates_counters(self):
        c = Counters()
        inj = FaultInjector(seed=0, rank=0, io_rate=1.0, counters=c)
        kinds = {inj.fire("io") for _ in range(50)}
        assert kinds <= {"fail", "truncate"}
        assert c.faults_injected == 50
        assert c.faults_io == 50
        assert inj.injected["io"] == 50

    def test_rate_validation(self):
        with pytest.raises(ValueError, match="rate"):
            FaultInjector(numeric_rate=1.5)
        with pytest.raises(ValueError, match="numeric_kinds"):
            FaultInjector(numeric_kinds=("gamma-ray",))

    def test_corrupt_value_styles(self):
        inj = FaultInjector(seed=1, rank=0, numeric_rate=1.0)
        assert np.isnan(inj.corrupt_value(2.0, "nan"))
        assert np.isinf(inj.corrupt_value(2.0, "inf"))
        perturbed = inj.corrupt_value(2.0, "perturb")
        assert np.isfinite(perturbed) and perturbed != 2.0
        flipped = inj.corrupt_value(2.0, "bitflip")
        assert np.float64(flipped).tobytes() != np.float64(2.0).tobytes()
        with pytest.raises(ValueError, match="unknown"):
            inj.corrupt_value(2.0, "cosmic")

    def test_corrupt_array_touches_one_element(self):
        inj = FaultInjector(seed=1, rank=0, numeric_rate=1.0)
        arr = np.ones((4, 5))
        inj.corrupt_array(arr, "nan")
        assert np.count_nonzero(~np.isfinite(arr)) == 1

    def test_corrupt_array_skips_non_float(self):
        inj = FaultInjector(seed=1, rank=0, numeric_rate=1.0)
        arr = np.arange(6)
        inj.corrupt_array(arr, "nan")
        np.testing.assert_array_equal(arr, np.arange(6))


# ----------------------------------------------------------------------
# FaultyBackend: kernel-level site
# ----------------------------------------------------------------------
class TestFaultyBackend:
    def _always_nan(self, counters=None):
        inj = FaultInjector(
            seed=0, rank=0, numeric_rate=1.0, numeric_kinds=("nan",),
            counters=counters,
        )
        return FaultyBackend(get_backend("vector"), inj)

    def test_compute_primitives_are_corrupted(self):
        c = Counters()
        be = self._always_nan(c)
        x = np.ones(8)
        assert np.isnan(be.dot(x, x))
        assert not np.all(np.isfinite(be.axpy(1.0, x, x)))
        assert not np.all(np.isfinite(be.dscal(x.copy(), 1.0, x)))
        assert c.faults_numeric == 3

    def test_data_movement_stays_clean(self):
        be = self._always_nan()
        x = np.arange(8.0)
        np.testing.assert_array_equal(be.copy(x), x)
        np.testing.assert_array_equal(be.add(x, x), 2 * x)
        np.testing.assert_array_equal(be.scale(3.0, x), 3 * x)

    def test_zero_rate_is_bitwise_transparent(self):
        inner = get_backend("vector")
        be = FaultyBackend(inner, FaultInjector(seed=0, numeric_rate=0.0))
        x = np.linspace(0.0, 1.0, 32)
        y = np.linspace(1.0, 2.0, 32)
        assert be.dot(x, y) == inner.dot(x, y)
        np.testing.assert_array_equal(be.axpy(0.5, x, y), inner.axpy(0.5, x, y))

    def test_name_marks_injection(self):
        assert self._always_nan().name.endswith("+faults")


class TestDispatchHook:
    def test_install_and_restore(self):
        wrap_calls = []

        def wrapper(be):
            wrap_calls.append(be.name)
            return be

        assert fault_wrapper() is None
        install_fault_wrapper(wrapper)
        try:
            get_backend("vector")
            assert wrap_calls == ["vector"]
        finally:
            install_fault_wrapper(None)
        assert fault_wrapper() is None
        get_backend("vector")
        assert wrap_calls == ["vector"]

    def test_context_manager_scopes_wrapper(self):
        inj = FaultInjector(seed=0, numeric_rate=1.0, numeric_kinds=("nan",))
        with faulty_backends(lambda be: FaultyBackend(be, inj)):
            assert get_backend("vector").name == "vector+faults"
        assert get_backend("vector").name == "vector"

    def test_backend_instances_pass_through_unwrapped(self):
        inner = get_backend("vector")
        with faulty_backends(lambda be: FaultyBackend(be, FaultInjector())):
            assert get_backend(inner) is inner


# ----------------------------------------------------------------------
# FaultyCommunicator: wire-level site
# ----------------------------------------------------------------------
class TestFaultyCommunicator:
    def _wrap(self, comm, **kw):
        return FaultyCommunicator(comm, FaultInjector(rank=comm.rank, **kw))

    def test_control_payloads_always_arrive_intact(self):
        # Non-numeric payloads can only be dropped (then retransmitted)
        # or delayed -- never corrupted -- so every message arrives
        # exactly as sent and blocking receives never deadlock.
        def prog(comm):
            fc = self._wrap(comm, seed=5, comm_rate=1.0)
            if comm.rank == 0:
                for i in range(40):
                    fc.send({"i": i}, dest=1, tag=3)
                return fc.injector.injected["comm"]
            return [fc.recv(source=0, tag=3) for i in range(40)]

        results = run_spmd(2, prog, timeout=TIMEOUT)
        assert results[0] == 40  # every send drew a fault...
        assert results[1] == [{"i": i} for i in range(40)]  # ...none garbled

    def test_drop_counts_retransmit(self):
        def prog(comm):
            c = Counters()
            comm.counters = c
            fc = self._wrap(comm, seed=5, comm_rate=1.0)
            if comm.rank == 0:
                for i in range(60):
                    fc.send(i, dest=1)
                return c.comm_retransmits
            for _ in range(60):
                fc.recv(source=0)
            return 0

        assert run_spmd(2, prog, timeout=TIMEOUT)[0] > 0

    def test_numeric_p2p_payloads_get_corrupted(self):
        def prog(comm):
            fc = self._wrap(comm, seed=5, comm_rate=1.0)
            original = np.ones(16)
            if comm.rank == 0:
                for _ in range(60):
                    fc.send(original, dest=1, tag=0)
                # corruption copies; the sender's buffer is untouched
                return float(original.sum())
            received = [fc.recv(source=0, tag=0) for _ in range(60)]
            return sum(
                1 for r in received if not np.array_equal(r, np.ones(16))
            )

        results = run_spmd(2, prog, timeout=TIMEOUT)
        assert results[0] == 16.0
        assert results[1] > 0

    def test_allreduce_completes_under_full_fault_rate(self):
        # Collectives ride the same faulty wire; drops retransmit and
        # only root-bound contributions may corrupt, so the collective
        # always completes and every rank agrees on the result.
        def prog(comm):
            fc = self._wrap(comm, seed=9, comm_rate=1.0)
            return fc.allreduce(float(comm.rank + 1))

        results = run_spmd(2, prog, timeout=TIMEOUT)
        assert results[0] == results[1]

    def test_zero_rate_is_transparent(self):
        def prog(comm):
            fc = self._wrap(comm, seed=0, comm_rate=0.0)
            return fc.allreduce(float(comm.rank + 1))

        assert run_spmd(2, prog, timeout=TIMEOUT) == [3.0, 3.0]


# ----------------------------------------------------------------------
# Crash-safe checkpointing (satellites a + c)
# ----------------------------------------------------------------------
class TestCheckpointSafety:
    def _state(self, seed=0):
        rng = np.random.default_rng(seed)
        E = rng.random((2, 6, 4))
        rho = rng.random((6, 4))
        temp = rng.random((6, 4))
        return E, rho, temp

    def _save(self, path, seed=0, **kw):
        E, rho, temp = self._state(seed)
        save_checkpoint(path, E, rho, temp, time=0.5, step=7, **kw)
        return E, rho, temp

    def test_roundtrip_with_checksum(self, tmp_path):
        path = tmp_path / "ck.npz"
        E, rho, temp = self._save(path, meta={"run": "chaos"})
        ck = load_checkpoint(path)
        np.testing.assert_array_equal(ck.E, E)
        np.testing.assert_array_equal(ck.rho, rho)
        np.testing.assert_array_equal(ck.temp, temp)
        assert (ck.time, ck.step) == (0.5, 7)
        assert ck.meta == {"run": "chaos"}
        with np.load(path) as z:
            assert "checksum" in z.files

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError) as exc:
            load_checkpoint(tmp_path / "nope.npz")
        assert isinstance(exc.value, FileNotFoundError)

    def test_unreadable_archive_is_corrupt(self, tmp_path):
        path = tmp_path / "ck.npz"
        path.write_bytes(b"this is not an archive")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_truncated_archive_is_corrupt(self, tmp_path):
        path = tmp_path / "ck.npz"
        self._save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path)

    def test_checksum_mismatch_is_corrupt(self, tmp_path):
        path = tmp_path / "ck.npz"
        E, rho, temp = self._state()
        np.savez(
            path, format_version=2, E=E, rho=rho, temp=temp,
            time=0.5, step=7, checksum=np.uint32(0xDEADBEEF),
        )
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            load_checkpoint(path)

    def test_missing_fields_are_format_errors(self, tmp_path):
        path = tmp_path / "ck.npz"
        np.savez(path, format_version=2, E=np.zeros((2, 3, 4)))
        with pytest.raises(CheckpointFormatError, match="missing"):
            load_checkpoint(path)

    def test_ill_shaped_fields_are_format_errors(self, tmp_path):
        E, rho, temp = self._state()
        path = tmp_path / "flat.npz"
        np.savez(path, format_version=2, E=np.zeros((3, 4)), rho=rho,
                 temp=temp, time=0.0, step=0)
        with pytest.raises(CheckpointFormatError, match="E must be"):
            load_checkpoint(path)
        path = tmp_path / "mismatch.npz"
        np.savez(path, format_version=2, E=E, rho=np.zeros((9, 9)),
                 temp=temp, time=0.0, step=0)
        with pytest.raises(CheckpointFormatError, match="rho"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        E, rho, temp = self._state()
        path = tmp_path / "ck.npz"
        np.savez(path, format_version=99, E=E, rho=rho, temp=temp,
                 time=0.0, step=0)
        with pytest.raises(CheckpointFormatError, match="version") as exc:
            load_checkpoint(path)
        assert isinstance(exc.value, ValueError)

    def test_legacy_v1_without_checksum_loads(self, tmp_path):
        E, rho, temp = self._state()
        path = tmp_path / "v1.npz"
        np.savez(path, format_version=1, E=E, rho=rho, temp=temp,
                 time=0.25, step=3)
        ck = load_checkpoint(path)
        np.testing.assert_array_equal(ck.E, E)
        assert (ck.time, ck.step) == (0.25, 3)

    def test_injected_write_fault_leaves_previous_checkpoint(self, tmp_path):
        path = tmp_path / "ck.npz"
        E, rho, temp = self._save(path, seed=0)
        inj = FaultInjector(seed=4, rank=0, io_rate=1.0)
        for _ in range(6):  # both "fail" and "truncate" kinds land here
            with pytest.raises(CheckpointWriteError):
                self._save(path, seed=1, injector=inj)
            ck = load_checkpoint(path)  # old archive intact + verifiable
            np.testing.assert_array_equal(ck.E, E)
        assert inj.injected["io"] == 6
        assert list(tmp_path.iterdir()) == [path]  # no .tmp litter

    def test_uninjected_save_with_injector_is_clean(self, tmp_path):
        path = tmp_path / "ck.npz"
        inj = FaultInjector(seed=4, rank=0, io_rate=0.0)
        E, _, _ = self._save(path, injector=inj)
        np.testing.assert_array_equal(load_checkpoint(path).E, E)


# ----------------------------------------------------------------------
# BiCGSTAB breakdown handling (satellite d) + non-finite guards
# ----------------------------------------------------------------------
def rotation_operator(suite=None):
    """A = [[0, 1], [-1, 0]]: orthogonal, and (r0, A r0) = 0 for
    r0 = b = e1, so BiCGSTAB breaks down (rho-orthogonality) on every
    restart while GMRES solves the system exactly in two steps."""
    return BandedOperator(
        offsets=[1, -1],
        bands=[np.array([1.0, 0.0]), np.array([0.0, -1.0])],
        suite=suite,
    )


class FlakyOperator(LinearOperator):
    """SPD diagonal operator that poisons chosen ``apply`` calls."""

    def __init__(self, diag, poison_applies=()):
        self.diag = np.asarray(diag, dtype=float)
        self.poison = set(poison_applies)
        self.applies = 0
        self.suite = KernelSuite()

    @property
    def operand_shape(self):
        return self.diag.shape

    def apply(self, x, out=None):
        idx = self.applies
        self.applies += 1
        y = self.diag * x
        if idx in self.poison:
            y = y.copy()
            y.flat[0] = np.nan
        if out is not None:
            out[...] = y
            return out
        return y


class TestBicgstabBreakdown:
    def test_norm_from_sq_poisons_negative_reductions(self):
        # A corrupted all-reduce can hand back a negative (x, x).
        # Clamping it to zero once faked a zero RHS and committed x = 0
        # as "converged"; the helper must poison it to NaN instead.
        assert _norm_from_sq(4.0) == 2.0
        assert _norm_from_sq(0.0) == 0.0
        assert np.isnan(_norm_from_sq(-1e-30))
        assert np.isnan(_norm_from_sq(float("nan")))

    @pytest.mark.parametrize("ganged", [True, False])
    def test_persistent_breakdown_gives_up_after_budget(self, ganged):
        op = rotation_operator()
        b = np.array([1.0, 0.0])
        res = bicgstab(op, b, max_restarts=3, ganged=ganged)
        assert not res.converged
        assert res.breakdowns == 4  # initial attempt + 3 restarts
        assert np.all(np.isfinite(res.x))

    def test_transient_corruption_recovers_via_restart(self):
        op = FlakyOperator(np.arange(2.0, 10.0), poison_applies={1})
        b = np.ones(8)
        res = bicgstab(op, b, tol=1e-12)
        assert res.converged
        assert res.breakdowns >= 1
        np.testing.assert_allclose(op.diag * res.x, b, atol=1e-9)

    def test_nonfinite_rhs_returns_cleanly(self):
        op = FlakyOperator(np.arange(2.0, 10.0))
        b = np.ones(8)
        b[3] = np.nan
        res = bicgstab(op, b)
        assert not res.converged
        assert res.iterations == 0

    def test_gmres_nonfinite_rhs_returns_cleanly(self):
        op = FlakyOperator(np.arange(2.0, 10.0))
        b = np.ones(8)
        b[3] = np.inf
        res = gmres(op, b)
        assert not res.converged
        assert res.iterations == 0


# ----------------------------------------------------------------------
# Solver-level recovery: the escalation ladder
# ----------------------------------------------------------------------
class TestEscalation:
    def _result(self, x, converged=True):
        return SolveResult(
            x=np.asarray(x, dtype=float), converged=converged, iterations=1,
            residual_norm=0.0, relative_residual=0.0, reductions=0,
            matvecs=1, precond_applies=0,
        )

    def test_solution_ok_local(self):
        assert solution_ok(self._result([1.0, 2.0]))
        assert not solution_ok(self._result([1.0, np.nan]))
        assert not solution_ok(self._result([1.0, 2.0], converged=False))

    def test_solution_ok_global_is_lockstep(self):
        def prog(comm):
            x = [1.0, np.nan] if comm.rank == 1 else [1.0, 2.0]
            return solution_ok(self._result(x), comm, global_check=True)

        # One rank's poisoned iterate fails the MIN-reduced flag on
        # every rank alike -- no divergence in the escalation decision.
        assert run_spmd(2, prog, timeout=TIMEOUT) == [False, False]

    def test_ladder_degrades_to_gmres(self):
        c = Counters()
        op = rotation_operator()
        b = np.array([1.0, 0.0])
        stats = solve_with_escalation(op, b, tol=1e-10, counters=c)
        assert stats.ok
        assert stats.methods == ("bicgstab", "bicgstab-restart", "gmres")
        assert stats.escalations == 2 and stats.degraded
        assert stats.degraded_seconds >= 0.0
        assert c.solver_escalations == 1 and c.solver_fallbacks == 1
        np.testing.assert_allclose(stats.final.x, [0.0, 1.0], atol=1e-10)

    def test_classic_takes_restart_rung_before_gmres(self):
        c = Counters()
        stats = solve_with_escalation(
            rotation_operator(), np.array([1.0, 0.0]), tol=1e-10,
            ganged=False, counters=c,
        )
        assert stats.ok
        assert stats.methods == ("bicgstab", "bicgstab-restart", "gmres")
        assert c.solver_escalations == 1 and c.solver_fallbacks == 1

    def test_restart_rung_uses_a_fresh_workspace(self):
        # The restart must not reuse the failed rung's scratch vectors.
        ws = SolverWorkspace()
        solve_with_escalation(
            rotation_operator(), np.array([1.0, 0.0]), tol=1e-10, workspace=ws,
        )
        assert (ws.allocations, ws.reuses) == (1, 0)

    def test_healthy_solve_stays_on_first_rung(self):
        c = Counters()
        op = FlakyOperator(np.arange(2.0, 10.0))
        stats = solve_with_escalation(op, np.ones(8), tol=1e-10, counters=c)
        assert stats.ok and not stats.degraded
        assert stats.methods == ("bicgstab",)
        assert c.solver_escalations == 0 and c.solver_fallbacks == 0

    def test_pristine_x0_survives_failed_rungs(self):
        x0 = np.array([0.25, -0.5])
        solve_with_escalation(rotation_operator(), np.array([1.0, 0.0]), x0=x0)
        np.testing.assert_array_equal(x0, [0.25, -0.5])


# ----------------------------------------------------------------------
# Step-level retry and run-level rollback
# ----------------------------------------------------------------------
def resilient_config(**kw):
    rc_kw = dict(seed=0, escalation=False,
                 retry=RetryPolicy(max_attempts=3, backoff=0.5))
    rc_kw.update(kw.pop("rc", {}))
    return small_config(resilience=ResilienceConfig(**rc_kw), **kw)


class FailPlan:
    """Wraps ``Simulation._step_once`` to fail scripted attempts."""

    def __init__(self, sim, fail_attempts):
        self.fail = set(fail_attempts)
        self.attempt = 0
        self.dts = []
        self._orig = sim._step_once
        sim._step_once = self.__call__

    def __call__(self, dt):
        idx = self.attempt
        self.attempt += 1
        self.dts.append(dt)
        if idx in self.fail:
            raise NonFiniteStateError("scripted failure", step=idx)
        return self._orig(dt)


class TestStepRetry:
    def test_transient_failure_backs_off_dt(self):
        sim = Simulation(resilient_config(), GaussianPulseProblem())
        plan = FailPlan(sim, fail_attempts={0, 1})
        report = sim.step()
        assert report.retries == 2
        assert sim.counters.step_retries == 2
        dt = sim.config.dt
        assert plan.dts == [dt, dt / 2, dt / 4]
        assert sim.integrator.step_count == 1

    def test_failed_attempts_do_not_leak_state(self):
        clean = Simulation(small_config(), GaussianPulseProblem())
        clean.step()
        sim = Simulation(
            resilient_config(rc=dict(retry=RetryPolicy(max_attempts=3,
                                                       backoff=1.0))),
            GaussianPulseProblem(),
        )
        FailPlan(sim, fail_attempts={0})
        sim.step()
        # backoff=1.0 retries at the same dt, and the snapshot restore
        # makes the successful attempt bitwise-identical to a clean step
        np.testing.assert_array_equal(sim.integrator.E.data,
                                      clean.integrator.E.data)

    def test_retry_budget_exhaustion_raises(self):
        sim = Simulation(resilient_config(), GaussianPulseProblem())
        FailPlan(sim, fail_attempts=set(range(10)))
        with pytest.raises(StepRetryExhaustedError):
            sim.step()
        assert sim.integrator.step_count == 0  # state rolled back

    def test_without_resilience_failures_propagate(self):
        sim = Simulation(small_config(), GaussianPulseProblem())
        FailPlan(sim, fail_attempts={0})
        with pytest.raises(NonFiniteStateError):
            sim.step()

    def test_retry_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(dt_floor=-1.0)
        assert RetryPolicy(backoff=0.5, dt_floor=1e-3).next_dt(1e-3) == 1e-3


class TestRollback:
    def _sim(self, tmp_path, max_rollbacks=2, nsteps=4):
        cfg = resilient_config(
            nsteps=nsteps,
            checkpoint_path=str(tmp_path / "ck.npz"),
            checkpoint_interval=1,
            rc=dict(max_rollbacks=max_rollbacks),
        )
        return Simulation(cfg, GaussianPulseProblem())

    def test_rollback_recovers_and_completes_the_run(self, tmp_path):
        sim = self._sim(tmp_path)
        # Step 2's first 3 attempts all fail -> retry budget exhausts
        # -> rollback to the step-1 checkpoint -> the rerun succeeds.
        FailPlan(sim, fail_attempts={1, 2, 3})
        report = sim.run()
        assert report.nsteps == 4
        assert sim.integrator.step_count == 4
        assert report.counters.rollbacks == 1
        assert report.counters.step_retries == 2
        assert report.resilience is not None
        assert report.resilience.rollbacks == 1
        assert report.resilience.total_recoveries == 3

    def test_rollback_budget_exhaustion_raises(self, tmp_path):
        sim = self._sim(tmp_path, max_rollbacks=2)
        FailPlan(sim, fail_attempts=set(range(100)))
        with pytest.raises(RollbackExhaustedError):
            sim.run()
        assert sim.counters.rollbacks == 2

    def test_no_checkpoint_budget_means_no_rollback(self, tmp_path):
        cfg = resilient_config(rc=dict(max_rollbacks=0))
        sim = Simulation(cfg, GaussianPulseProblem())
        FailPlan(sim, fail_attempts=set(range(100)))
        with pytest.raises(StepRetryExhaustedError):
            sim.run()


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestResilienceConfig:
    def test_roundtrip(self):
        rc = ResilienceConfig(
            seed=11, numeric_rate=0.01, comm_rate=0.02, io_rate=0.3,
            numeric_kinds=("nan", "bitflip"), escalation=False,
            retry=RetryPolicy(max_attempts=5, backoff=0.25, dt_floor=1e-9),
            max_rollbacks=7,
        )
        assert ResilienceConfig.from_dict(rc.to_dict()) == rc

    def test_v2d_config_roundtrip(self):
        cfg = small_config(resilience=ResilienceConfig(seed=3, io_rate=0.5))
        clone = V2DConfig.from_dict(cfg.to_dict())
        assert clone.resilience == cfg.resilience
        assert V2DConfig.from_dict(small_config().to_dict()).resilience is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(numeric_rate=2.0)
        with pytest.raises(ValueError):
            ResilienceConfig(max_rollbacks=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(numeric_kinds=())

    def test_injector_only_when_rates_set(self):
        assert ResilienceConfig().make_injector(0) is None
        inj = ResilienceConfig(seed=9, numeric_rate=0.1).make_injector(rank=2)
        assert inj is not None and inj.rank == 2 and inj.seed == 9

    def test_report_merge_and_summary(self):
        a = ResilienceReport(faults_numeric=2, step_retries=1)
        b = ResilienceReport(faults_io=1, io_recoveries=1, rollbacks=1)
        a.merge(b)
        assert a.total_injected == 3
        assert a.total_recoveries == 3
        assert "injected faults: 3" in a.summary()
        assert a.to_dict()["total_recoveries"] == 3


# ----------------------------------------------------------------------
# End-to-end chaos acceptance (the CI smoke contract)
# ----------------------------------------------------------------------
class TestChaosAcceptance:
    def test_transport_boundary_guard_raises_typed_error(self):
        sim = Simulation(small_config(), GaussianPulseProblem())
        bad = SolveResult(
            x=np.full(sim.integrator.E.interior.shape, np.nan),
            converged=True, iterations=1, residual_norm=0.0,
            relative_residual=0.0, reductions=0, matvecs=1,
            precond_applies=0,
        )
        with pytest.raises(NonFiniteStateError) as exc:
            sim.integrator._guard_solution(bad, site=2)
        assert exc.value.site == 2

    def test_serial_chaos_run_completes_within_tolerance(self, tmp_path):
        problem = GaussianPulseProblem()
        baseline = Simulation(small_config(), problem).run()
        rc = ResilienceConfig(seed=42, numeric_rate=0.05, io_rate=0.5)
        cfg = small_config(
            resilience=rc,
            checkpoint_path=str(tmp_path / "ck.npz"),
            checkpoint_interval=1,
        )
        chaos = Simulation(cfg, problem).run()
        assert chaos.nsteps == cfg.nsteps
        rep = chaos.resilience
        assert rep is not None and rep.total_injected > 0
        err_ref = baseline.solution_error
        err = chaos.solution_error
        assert np.isfinite(err)
        assert err <= max(2.0 * err_ref, err_ref + 1e-3)

    def test_decomposed_chaos_run_exercises_comm_faults(self, tmp_path):
        problem = GaussianPulseProblem()
        rc = ResilienceConfig(seed=1234, numeric_rate=0.05, comm_rate=0.02,
                              io_rate=0.5)
        cfg = small_config(
            nprx2=2, resilience=rc,
            checkpoint_path=str(tmp_path / "ck.npz"),
            checkpoint_interval=1,
        )
        reports = run_parallel(cfg, problem)
        merged = ResilienceReport()
        for rep in reports:
            assert rep.resilience is not None
            merged.merge(rep.resilience)
        assert merged.faults_comm > 0
        assert merged.total_injected > 0
        assert reports[0].nsteps == cfg.nsteps
        assert np.isfinite(reports[0].solution_error)

    def test_armed_but_quiet_resilience_is_bitwise_invariant(self):
        problem = GaussianPulseProblem()
        baseline = Simulation(small_config(), problem)
        base_report = baseline.run()
        quiet = Simulation(
            small_config(resilience=ResilienceConfig(escalation=False)),
            problem,
        )
        quiet_report = quiet.run()
        np.testing.assert_array_equal(baseline.integrator.E.data,
                                      quiet.integrator.E.data)
        assert base_report.final_energy == quiet_report.final_energy
        assert quiet_report.resilience.total_injected == 0
        assert quiet_report.resilience.total_recoveries == 0
