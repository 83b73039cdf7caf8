"""Implicit radiation time integrator: three solves per step.

"Each time step requires the solution of three unique x1 x x2 x 2
linear systems via the BiCGSTAB algorithm" (paper Sec. II-D).  We
realize those three systems as the standard treatment of FLD's two
nonlinearities (the limiter and the matter coupling):

1. **Predictor** -- diffusion coefficients frozen at ``E^n``; solve for
   a provisional ``E*``.
2. **Corrector** -- diffusion coefficients re-evaluated at ``E*`` (the
   flux-limiter nonlinearity); solve again from the same explicit
   state.
3. **Matter-coupling** -- the material temperature is advanced by a
   linearized implicit emission-absorption balance using the corrected
   field, and the radiation system is re-solved with the updated
   emission source.

Each solve applies the same matrix-free stencil operator (with halo
exchange in decomposed runs), so a run of ``nsteps`` steps performs
``3 * nsteps`` BiCGSTAB solves -- the paper's 100-step problem is 300
linear systems.

Every phase is instrumented with the TAU-style profiler under the
region names the Sec. II-E breakdown uses (``MATVEC``, ``PRECOND``,
``BiCGSTAB``, ``build_system``, ``halo_exchange``, ``matter_update``).

The SPAI preconditioner is built once per distinct operator.  The
integrator keeps the last ``M`` together with the coefficient arrays it
was built from (``diag/west/east/south/north`` and ``coupling``), marked
read-only so an in-place write raises instead of serving a stale ``M``.
A solve whose coefficients are ``np.array_equal`` to those (``coupling``
``None`` matching only ``None``) reuses ``M``; any other solve rebuilds
it.  ``M`` is a deterministic function of the coefficients, so reuse is
bitwise invisible.  Under the ``DIFFUSION`` limiter with frozen matter
at a fixed ``dt`` every solve sees the same operator, so the paper's
run builds SPAI once; limited or matter-coupled runs rebuild on every
solve.  Jacobi is cheaper to build than to compare and is rebuilt on
every solve.
"""

from __future__ import annotations

from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field as dc_field

import numpy as np

from repro.grid.field import Field
from repro.grid.mesh import Mesh2D
from repro.kernels.stencil import StencilCoefficients
from repro.kernels.suite import KernelSuite
from repro.kernels.workspace import SolverWorkspace
from repro.linalg.bicgstab import SolveResult, bicgstab
from repro.linalg.operators import LinearOperator, StencilOperator
from repro.linalg.spai import (
    IdentityPreconditioner,
    JacobiPreconditioner,
    Preconditioner,
    SPAIPreconditioner,
)
from repro.monitor.profiler import Profiler
from repro.monitor.trace import Tracer
from repro.parallel.cart import CartComm
from repro.parallel.halo import BoundaryCondition, HaloExchanger
from repro.resilience.errors import NonFiniteStateError
from repro.resilience.escalation import SolveStats, solve_with_escalation
from repro.transport.fld import FluxLimiter
from repro.transport.groups import RadiationBasis
from repro.transport.opacity import OpacityModel
from repro.transport.system import RadiationSystem, build_radiation_system

Array = np.ndarray

#: Preconditioner choices by config name.
PRECONDITIONERS = ("spai", "jacobi", "none")


def _coefficient_arrays(coeffs: StencilCoefficients) -> tuple[Array | None, ...]:
    """The arrays that define a stencil operator (and hence its SPAI)."""
    return tuple(
        getattr(coeffs, name)
        for name in ("diag", "west", "east", "south", "north", "coupling")
    )


def _same_arrays(kept: tuple[Array | None, ...], coeffs: StencilCoefficients) -> bool:
    """True iff ``coeffs`` holds bitwise the arrays in ``kept``."""
    return all(
        a is b if a is None or b is None else np.array_equal(a, b)
        for a, b in zip(kept, _coefficient_arrays(coeffs))
    )


def _instrument_scope(
    name: str,
    rank: int,
    profiler: Profiler | None,
    tracer: Tracer | None,
    cat: str = "integrator",
):
    """Context manager entering the profiler region and/or tracer span."""
    if profiler is None and tracer is None:
        return nullcontext()
    stack = ExitStack()
    if profiler is not None:
        stack.enter_context(profiler.region(name, rank=rank))
    if tracer is not None:
        stack.enter_context(tracer.span(name, rank=rank, cat=cat))
    return stack


class _ProfiledOperator(LinearOperator):
    """Wrap an operator so every apply lands in a profiler region
    and/or a tracer span."""

    def __init__(
        self,
        op: LinearOperator,
        profiler: Profiler | None,
        name: str,
        rank: int,
        tracer: Tracer | None = None,
    ) -> None:
        self._op = op
        self._profiler = profiler
        self._name = name
        self._rank = rank
        self._tracer = tracer

    @property
    def operand_shape(self) -> tuple[int, ...]:
        return self._op.operand_shape

    def _scope(self):
        return _instrument_scope(
            self._name, self._rank, self._profiler, self._tracer, cat="kernel"
        )

    def apply(self, x: Array, out: Array | None = None) -> Array:
        with self._scope():
            return self._op.apply(x, out=out)

    def apply_dots(self, x, dots, out: Array | None = None):
        with self._scope():
            return self._op.apply_dots(x, dots, out=out)


class _ProfiledPreconditioner(Preconditioner):
    def __init__(
        self,
        M: Preconditioner,
        profiler: Profiler | None,
        rank: int,
        tracer: Tracer | None = None,
    ) -> None:
        self._M = M
        self._profiler = profiler
        self._rank = rank
        self._tracer = tracer

    def apply(self, x: Array, out: Array | None = None) -> Array:
        with _instrument_scope(
            "PRECOND", self._rank, self._profiler, self._tracer, cat="kernel"
        ):
            return self._M.apply(x, out=out)


@dataclass
class StepReport:
    """Diagnostics for one radiation step."""

    step: int
    time: float
    dt: float
    solves: list[SolveResult] = dc_field(default_factory=list)
    total_energy: float = 0.0
    temp_min: float = 0.0
    temp_max: float = 0.0
    retries: int = 0              # step-level dt-backoff retries taken

    @property
    def iterations(self) -> int:
        return sum(s.iterations for s in self.solves)

    @property
    def converged(self) -> bool:
        return all(s.converged for s in self.solves)


class RadiationIntegrator:
    """Advances the MFLD radiation field (and matter temperature).

    Parameters
    ----------
    mesh:
        This rank's tile mesh.
    basis:
        Species/group structure.
    opacity:
        Opacity model.
    limiter:
        Flux limiter.
    bc:
        Physical-boundary condition (all sides or per-side dict).
    cart:
        Optional Cartesian topology for decomposed runs.
    suite:
        Kernel suite (execution backend).
    precond:
        ``"spai"`` (paper default), ``"jacobi"`` or ``"none"``.
    coupling_rate:
        Inter-species exchange rate (0 decouples the species blocks).
    couple_matter:
        Evolve the material temperature via emission-absorption
        exchange (solve 3 still runs with a frozen-T source otherwise).
    tracer:
        Optional :class:`~repro.monitor.trace.Tracer`; mirrors the
        profiler regions as timeline spans (and threads through to the
        halo exchanger, solver and escalation ladder).  ``None`` keeps
        every hot path on its uninstrumented branch.
    escalate:
        Arm solver-level recovery: a failed or non-finite solve walks
        the escalation ladder (BiCGSTAB -> restarted BiCGSTAB -> GMRES)
        and each
        step's committed state passes a global validity gate.  Off by
        default -- the un-armed integrator is bit-identical to one
        without the resilience machinery.
    """

    def __init__(
        self,
        mesh: Mesh2D,
        basis: RadiationBasis,
        opacity: OpacityModel,
        limiter: FluxLimiter | str = FluxLimiter.LEVERMORE_POMRANING,
        bc: BoundaryCondition | dict[str, BoundaryCondition] = BoundaryCondition.DIRICHLET0,
        cart: CartComm | None = None,
        suite: KernelSuite | None = None,
        precond: str = "spai",
        solver_tol: float = 1e-8,
        solver_maxiter: int = 500,
        ganged: bool = True,
        coupling_rate: float = 0.0,
        couple_matter: bool = False,
        c_light: float = 1.0,
        a_rad: float = 1.0,
        cv: float = 1.0,
        emission: bool = False,
        profiler: Profiler | None = None,
        tracer: Tracer | None = None,
        escalate: bool = False,
    ) -> None:
        if precond not in PRECONDITIONERS:
            raise ValueError(f"precond must be one of {PRECONDITIONERS}")
        self.mesh = mesh
        self.basis = basis
        self.opacity = opacity
        self.limiter = limiter
        self.bc = bc
        self.cart = cart
        self.suite = suite if suite is not None else KernelSuite()
        self.precond_name = precond
        self.solver_tol = solver_tol
        self.solver_maxiter = solver_maxiter
        self.ganged = ganged
        # One workspace for every solve of every step: the solver reuses
        # its scratch vectors instead of reallocating them.
        self._workspace = SolverWorkspace()
        # The last SPAI and the (read-only) coefficient arrays it was
        # built from; see the module docstring.
        self._spai: tuple[tuple[Array | None, ...], SPAIPreconditioner] | None = None
        self.coupling = (
            basis.pair_coupling_matrix(coupling_rate) if coupling_rate > 0 else None
        )
        self.couple_matter = couple_matter
        self.c_light = c_light
        self.a_rad = a_rad
        self.cv = cv
        self.emission = emission
        self.profiler = profiler
        self.tracer = tracer
        # Solver-level recovery: restart BiCGSTAB, then fall back to
        # GMRES, instead of committing a failed solve.
        self.escalate = escalate
        self.solve_stats: list[SolveStats] = []
        self.degraded_solves = 0
        self.degraded_seconds = 0.0
        self.rank = cart.rank if cart is not None else 0

        n1, n2 = mesh.shape
        self.E = Field(basis.ncomp, (n1, n2), nghost=1)
        self.rho = np.ones((n1, n2))
        self.temp = np.ones((n1, n2))
        self.time = 0.0
        self.step_count = 0
        self._halo = (
            HaloExchanger(cart, bc, tracer=tracer) if cart is not None else None
        )

    # ------------------------------------------------------------------
    @property
    def comm(self):
        return self.cart.comm if self.cart is not None else None

    def set_state(
        self, E: Array, rho: Array | None = None, temp: Array | None = None
    ) -> None:
        """Load the initial radiation field and material state."""
        if E.shape != self.E.interior.shape:
            raise ValueError(f"E shape {E.shape} != {self.E.interior.shape}")
        self.E.interior = E
        if rho is not None:
            self.rho[...] = rho
        if temp is not None:
            self.temp[...] = temp

    def _fill_ghosts(self, fld: Field) -> None:
        with _instrument_scope(
            "halo_exchange", self.rank, self.profiler, self.tracer, cat="halo"
        ):
            if self._halo is not None:
                self._halo.exchange(fld)
            else:
                for side in ("west", "east", "south", "north"):
                    bc = self.bc if isinstance(self.bc, BoundaryCondition) else self.bc[side]
                    if bc is BoundaryCondition.DIRICHLET0:
                        fld.zero_side(side)
                    else:
                        fld.reflect_side(side)

    def _build(
        self, epad: Array, dt: float, temp: Array, e_rhs: Array | None = None
    ) -> RadiationSystem:
        with _instrument_scope(
            "build_system", self.rank, self.profiler, self.tracer
        ):
            return self._build_inner(epad, dt, temp, e_rhs)

    def _build_inner(
        self, epad: Array, dt: float, temp: Array, e_rhs: Array | None
    ) -> RadiationSystem:
        return build_radiation_system(
            self.mesh,
            epad,
            self.rho,
            temp,
            dt,
            self.basis,
            self.opacity,
            limiter=self.limiter,
            coupling=self.coupling,
            c_light=self.c_light,
            a_rad=self.a_rad,
            emission=self.emission,
            e_rhs=e_rhs,
        )

    def _spai_for(self, coeffs: StencilCoefficients) -> SPAIPreconditioner:
        """The kept SPAI if ``coeffs`` equal its operator's, else a new one."""
        if self._spai is not None and _same_arrays(self._spai[0], coeffs):
            return self._spai[1]
        M = SPAIPreconditioner.from_stencil(
            coeffs, bc=BoundaryCondition.DIRICHLET0, suite=self.suite
        )
        kept = _coefficient_arrays(coeffs)
        for arr in kept:
            if arr is not None:
                arr.flags.writeable = False
        self._spai = (kept, M)
        return M

    def _make_preconditioner(self, system: RadiationSystem) -> Preconditioner:
        if self.precond_name == "spai":
            M: Preconditioner = self._spai_for(system.coeffs)
        elif self.precond_name == "jacobi":
            M = JacobiPreconditioner.from_stencil(system.coeffs, suite=self.suite)
        else:
            M = IdentityPreconditioner()
        if self.profiler is not None or self.tracer is not None:
            M = _ProfiledPreconditioner(
                M, self.profiler, self.rank, tracer=self.tracer
            )
        return M

    def _solve(self, system: RadiationSystem, x0: Array, site: int) -> SolveResult:
        op: LinearOperator = StencilOperator(
            system.coeffs, suite=self.suite, bc=self.bc, cart=self.cart,
            tracer=self.tracer,
        )
        if self.profiler is not None or self.tracer is not None:
            op = _ProfiledOperator(
                op, self.profiler, "MATVEC", self.rank, tracer=self.tracer
            )
        M = self._make_preconditioner(system)

        def run() -> SolveResult:
            if self.escalate:
                stats = solve_with_escalation(
                    op,
                    system.rhs,
                    x0=x0,
                    tol=self.solver_tol,
                    maxiter=self.solver_maxiter,
                    M=M,
                    suite=self.suite,
                    comm=self.comm,
                    ganged=self.ganged,
                    workspace=self._workspace,
                    counters=self.suite.counters,
                    site=site,
                    tracer=self.tracer,
                    trace_rank=self.rank,
                )
                self.solve_stats.append(stats)
                if stats.degraded:
                    self.degraded_solves += 1
                    self.degraded_seconds += stats.degraded_seconds
                if not stats.ok:
                    raise NonFiniteStateError(
                        f"solve site {site} failed after escalation through "
                        f"{'/'.join(stats.methods)}",
                        site=site,
                        step=self.step_count + 1,
                    )
                return stats.final
            return bicgstab(
                op,
                system.rhs,
                x0=x0,
                tol=self.solver_tol,
                maxiter=self.solver_maxiter,
                M=M,
                suite=self.suite,
                comm=self.comm,
                ganged=self.ganged,
                workspace=self._workspace,
                tracer=self.tracer,
                trace_rank=self.rank,
            )

        if self.profiler is not None or self.tracer is not None:
            # Distinct call-site regions: the paper's Arm MAP run
            # attributed 31-33% of total time to each of the three
            # BiCGSTAB call sites; the shared inner "BiCGSTAB" region
            # still merges them in the TAU-style flat profile.
            with _instrument_scope(
                f"solve_site_{site}", self.rank, self.profiler, self.tracer,
                cat="solver",
            ):
                with _instrument_scope(
                    "BiCGSTAB", self.rank, self.profiler, self.tracer,
                    cat="solver",
                ):
                    return run()
        return run()

    # ------------------------------------------------------------------
    def _guard_solution(self, res: SolveResult, site: int) -> Array:
        """Reject a non-finite solve before it reaches the state.

        This is the always-on boundary check between the linear solver
        and the transport state: a NaN/Inf iterate never propagates
        into ``E``/``temp`` regardless of whether any resilience
        machinery is armed.  Finite solutions pass through untouched.
        """
        if not np.all(np.isfinite(res.x)):
            raise NonFiniteStateError(
                f"solve site {site} produced a non-finite radiation field "
                f"(iterations={res.iterations}, converged={res.converged})",
                site=site,
                step=self.step_count + 1,
            )
        return res.x

    def _validate_step(self, e_new: Array, temp_new: Array) -> None:
        """Physical-validity gate before committing a step.

        Only armed in ``escalate`` mode (it costs one batched global
        reduction in decomposed runs).  The flag is combined by a MIN
        all-reduce so every rank accepts or retries in lockstep; any
        non-finite contribution fails the comparison conservatively.
        """
        emin = float(e_new.min())
        escale = float(np.abs(e_new).max())
        ok = (
            bool(np.all(np.isfinite(temp_new)))
            and np.isfinite(emin)
            and np.isfinite(escale)
            and emin >= -1e-8 * max(1.0, escale)
        )
        if self.comm is not None and self.comm.size > 1:
            from repro.parallel.comm import ReduceOp

            flag = self.comm.allreduce(1.0 if ok else 0.0, op=ReduceOp.MIN)
            ok = bool(flag >= 1.0)
        if not ok:
            raise NonFiniteStateError(
                f"step {self.step_count + 1} failed validation: "
                f"min(E) = {emin:.3e} against scale {escale:.3e}",
                step=self.step_count + 1,
            )

    # ------------------------------------------------------------------
    def _matter_update(self, E: Array, dt: float) -> Array:
        """Linearized implicit temperature update; returns new T.

        Solves, pointwise, ``rho cv dT/dt = sum_u c kappa_a (E_u - B_u(T))``
        with ``B(T^{n+1})`` linearized about ``T^n``:
        ``B(T+dT) ~ B(T) + 4 a T^3 dT``.
        """
        kappa_a = self.opacity.absorption(self.rho, self.temp, self.basis)
        fracs = self.basis.groups.planck_fractions_field(self.temp)
        heating = np.zeros_like(self.temp)
        dBdT_sum = np.zeros_like(self.temp)
        for u in range(self.basis.ncomp):
            _s, g = self.basis.unpack(u)
            b_u = self.a_rad * self.temp**4 * fracs[g]
            heating += self.c_light * kappa_a[u] * (E[u] - b_u)
            dBdT_sum += self.c_light * kappa_a[u] * 4.0 * self.a_rad * self.temp**3
        denom = self.rho * self.cv + dt * dBdT_sum
        dT = dt * heating / denom
        return np.maximum(self.temp + dT, 1e-12)

    def step(self, dt: float) -> StepReport:
        """Advance one timestep (three BiCGSTAB solves)."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        report = StepReport(step=self.step_count + 1, time=self.time + dt, dt=dt)
        e_old = self.E.interior.copy()

        # --- Solve 1: predictor (D from E^n) --------------------------
        self._fill_ghosts(self.E)
        sys1 = self._build(self.E.data, dt, self.temp)
        res1 = self._solve(sys1, x0=e_old, site=1)
        report.solves.append(res1)
        e_star = self._guard_solution(res1, site=1)

        # --- Solve 2: corrector (D from E*, RHS still from E^n) -------
        work = Field(self.basis.ncomp, self.mesh.shape, nghost=1)
        work.interior = e_star
        self._fill_ghosts(work)
        sys2 = self._build(work.data, dt, self.temp, e_rhs=e_old)
        res2 = self._solve(sys2, x0=e_star, site=2)
        report.solves.append(res2)
        e_corr = self._guard_solution(res2, site=2)

        # --- Matter update + Solve 3 (emission at T^{n+1}) ------------
        with _instrument_scope(
            "matter_update", self.rank, self.profiler, self.tracer
        ):
            new_temp = (
                self._matter_update(e_corr, dt) if self.couple_matter else self.temp
            )

        work.interior = e_corr
        self._fill_ghosts(work)
        sys3 = self._build(work.data, dt, new_temp, e_rhs=e_old)
        res3 = self._solve(sys3, x0=e_corr, site=3)
        report.solves.append(res3)
        e_new = self._guard_solution(res3, site=3)
        if self.escalate:
            self._validate_step(e_new, new_temp)

        # Commit.
        self.E.interior = e_new
        self.temp = new_temp
        self.time += dt
        self.step_count += 1

        report.total_energy = self.total_energy()
        tmin, tmax = float(self.temp.min()), float(self.temp.max())
        if self.comm is not None and self.comm.size > 1:
            from repro.parallel.comm import ReduceOp

            # One batched reduction round carries both extrema.
            tmin, tmax = self.comm.allreduce_batch(
                [tmin, tmax], ops=[ReduceOp.MIN, ReduceOp.MAX]
            )
        report.temp_min, report.temp_max = float(tmin), float(tmax)
        return report

    def total_energy(self) -> float:
        """Volume-integrated radiation energy (global in decomposed runs)."""
        local = float(np.sum(self.E.interior * self.mesh.volumes[None]))
        if self.comm is not None and self.comm.size > 1:
            return float(self.comm.allreduce(local))
        return local
