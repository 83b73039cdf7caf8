"""Each distinct radiation operator is built once and reused bitwise.

``RadiationIntegrator`` keeps the last operator -- stencil
coefficients, Matvec operator and preconditioner -- with the inputs it
was built from (``dt``, ``kappa_a``, ``kappa_t``, ``coupling``,
``c_light``) and reuses it while the limiter does not read ``E`` and
every input is unchanged.  Each test counts coefficient builds (calls
of ``build_radiation_system``), SPAI and Jacobi builds with spies and
compares a run against the same run with reuse defeated (the kept
operator is dropped before every solve), which must agree bitwise.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from repro.linalg import assemble_csr
from repro.linalg.spai import JacobiPreconditioner, SPAIPreconditioner
from repro.parallel import CartComm, run_spmd
from repro.problems import GaussianPulseProblem, RadiativeShockProblem
from repro.resilience import NonFiniteStateError, ResilienceConfig, RetryPolicy
from repro.transport import (
    ConstantOpacity,
    FluxLimiter,
    OpacityModel,
    PowerLawOpacity,
    RadiationIntegrator,
    integrator as integrator_module,
)
from repro.v2d import Simulation, V2DConfig


class _AbsorbingPulse(GaussianPulseProblem):
    """The pulse with enough absorption for matter coupling to move T."""

    def opacity(self):
        return ConstantOpacity(kappa_a=1.0, kappa_s=9.0)


class _StatePulse(GaussianPulseProblem):
    """The pulse with an opacity that depends on ``rho`` and ``T``."""

    def opacity(self):
        return PowerLawOpacity(k0=10.0, a_rho=1.0, a_t=-1.0, scatter_fraction=0.9)


class _RhoScattering(OpacityModel):
    """Fixed absorption, scattering proportional to ``rho``: a density
    change moves ``kappa_t`` alone, a temperature change moves nothing."""

    def absorption(self, rho, temp, basis):
        return self._broadcast(0.1, rho, basis.ncomp)

    def scattering(self, rho, temp, basis):
        return self._broadcast(10.0 * rho, rho, basis.ncomp)


class _ScatteringPulse(GaussianPulseProblem):
    def opacity(self):
        return _RhoScattering()


def _spy(m) -> dict[str, list]:
    """Record every coefficient, SPAI and Jacobi build (and its thread)."""
    calls: dict[str, list] = {"coeffs": [], "spai": [], "jacobi": [], "rhs": []}
    for key, name in (("coeffs", "build_radiation_system"), ("rhs", "radiation_rhs")):
        original = getattr(integrator_module, name)

        def spy(*args, _key=key, _original=original, **kwargs):
            calls[_key].append(threading.get_ident())
            return _original(*args, **kwargs)

        m.setattr(integrator_module, name, spy)
    for key, cls in (("spai", SPAIPreconditioner), ("jacobi", JacobiPreconditioner)):
        original = cls.from_stencil.__func__

        def spy(klass, coeffs, *args, _key=key, _original=original, **kwargs):
            calls[_key].append((threading.get_ident(), coeffs))
            return _original(klass, coeffs, *args, **kwargs)

        m.setattr(cls, "from_stencil", classmethod(spy))
    return calls


def _defeat_reuse(m) -> None:
    original = RadiationIntegrator._operator

    def rebuild_always(self, *args, **kwargs):
        self._kept = None
        return original(self, *args, **kwargs)

    m.setattr(RadiationIntegrator, "_operator", rebuild_always)


def _fail_solve(m, at_calls: set[int]) -> None:
    """Reject the solves with these (0-based, run-wide) indices."""
    original = RadiationIntegrator._guard_solution
    count = itertools.count()

    def guard(self, res, site):
        if next(count) in at_calls:
            raise NonFiniteStateError("scripted failure", site=site)
        return original(self, res, site)

    m.setattr(RadiationIntegrator, "_guard_solution", guard)


def _outcome(sim: Simulation) -> dict:
    it = sim.integrator
    return {
        "E": it.E.interior.copy(),
        "temp": it.temp.copy(),
        "iterations": [s.iterations for r in sim.step_reports for s in r.solves],
        "histories": [s.history for r in sim.step_reports for s in r.solves],
        "counters": sim.counters.snapshot(),
    }


def _run_sim(sim: Simulation) -> None:
    assert sim.run().all_converged


def _run(
    monkeypatch, cfg: V2DConfig, defeat: bool = False, problem=None,
    drive=_run_sim, patch=None,
) -> tuple[dict, dict[str, int]]:
    """Run ``cfg`` (through ``drive``); the outcome and build counts."""
    with monkeypatch.context() as m:
        calls = _spy(m)
        if defeat:
            _defeat_reuse(m)
        if patch is not None:
            patch(m)
        sim = Simulation(cfg, problem if problem is not None else GaussianPulseProblem())
        drive(sim)
    return _outcome(sim), {key: len(v) for key, v in calls.items()}


def _assert_bitwise(a: dict, b: dict) -> None:
    np.testing.assert_array_equal(a["E"], b["E"])
    np.testing.assert_array_equal(a["temp"], b["temp"])
    assert a["iterations"] == b["iterations"]
    assert a["histories"] == b["histories"]
    assert a["counters"] == b["counters"]


def _paper_shaped(**kw) -> V2DConfig:
    """The paper problem at quarter size (DIFFUSION limiter, frozen T)."""
    return V2DConfig.scaled_test_problem(scale=4, **{"nsteps": 3, **kw})


def _limited_coupled(**kw) -> V2DConfig:
    """A scaled-down serial breakdown bench: LP limiter, matter coupling."""
    args = dict(
        nx1=24, nx2=12, extent1=(0.0, 2.0), extent2=(0.0, 1.0),
        nsteps=2, dt=1e-3, precond="spai", solver_tol=1e-9, backend="vector",
        limiter=FluxLimiter.LEVERMORE_POMRANING, emission=True, couple_matter=True,
    )
    args.update(kw)
    return V2DConfig(**args)


def _reuse_and_defeat(monkeypatch, cfg, **kw):
    reused, n = _run(monkeypatch, cfg, **kw)
    rebuilt, r = _run(monkeypatch, cfg, defeat=True, **kw)
    _assert_bitwise(reused, rebuilt)
    return reused, n, r


def test_diffusion_run_builds_spai_once(monkeypatch):
    cfg = _paper_shaped()
    _, n, r = _reuse_and_defeat(monkeypatch, cfg)
    solves = 3 * cfg.nsteps
    assert n == {"coeffs": 1, "spai": 1, "jacobi": 0, "rhs": solves}
    assert r == {"coeffs": solves, "spai": solves, "jacobi": 0, "rhs": solves}


def test_limited_coupled_run_rebuilds_every_solve(monkeypatch):
    cfg = _limited_coupled()
    _, n, r = _reuse_and_defeat(monkeypatch, cfg)
    assert n["coeffs"] == n["spai"] == r["coeffs"] == r["spai"] == 3 * cfg.nsteps


def test_lp_limiter_never_reuses(monkeypatch):
    # Frozen T and constant opacity: every input repeats, but the
    # limiter reads E, so the operator is rebuilt on every solve.
    cfg = _paper_shaped(limiter=FluxLimiter.LEVERMORE_POMRANING)
    _, n, _ = _reuse_and_defeat(monkeypatch, cfg)
    assert n["coeffs"] == n["spai"] == 3 * cfg.nsteps


def test_emission_reuses_coefficients_and_recomputes_rhs(monkeypatch):
    cfg = _paper_shaped(emission=True)
    _, n, _ = _reuse_and_defeat(monkeypatch, cfg, problem=_AbsorbingPulse())
    assert n["coeffs"] == n["spai"] == 1
    assert n["rhs"] == 3 * cfg.nsteps


def test_diffusion_couple_matter_still_reuses(monkeypatch):
    # T moves every step, but at constant opacity the operator does not.
    cfg = _paper_shaped(emission=True, couple_matter=True)
    reused, n, _ = _reuse_and_defeat(monkeypatch, cfg, problem=_AbsorbingPulse())
    assert n["coeffs"] == n["spai"] == 1
    assert not np.array_equal(reused["temp"], np.ones_like(reused["temp"]))


def test_dt_change_forces_a_rebuild(monkeypatch):
    calls = _spy(monkeypatch)
    sim = Simulation(_paper_shaped(), GaussianPulseProblem())
    it = sim.integrator
    dt = sim.config.dt
    for step_dt, builds in ((dt, 1), (dt, 1), (2.0 * dt, 2), (dt, 3)):
        it.step(step_dt)
        assert len(calls["coeffs"]) == len(calls["spai"]) == builds


def test_dt_backoff_retry_misses(monkeypatch):
    # Step 2's second solve fails; the retry at dt/2 must not reuse the
    # operator built for dt, and step 3 (back at dt) must not reuse the
    # retry's.
    rc = ResilienceConfig(
        seed=0, escalation=False, retry=RetryPolicy(max_attempts=3, backoff=0.5)
    )
    cfg = _paper_shaped(resilience=rc)
    _, n, r = _reuse_and_defeat(
        monkeypatch, cfg, patch=lambda m: _fail_solve(m, {4})
    )
    assert n["coeffs"] == n["spai"] == 3
    assert r["coeffs"] == 3 * cfg.nsteps + 2


@pytest.mark.parametrize(
    "problem,builds",
    # The temperature write misses only where the opacity reads T.
    [(_StatePulse(), 3), (_ScatteringPulse(), 2)],
    ids=["rho-and-T-opacity", "rho-scattering"],
)
def test_set_state_in_place_misses(monkeypatch, problem, builds):
    def drive(sim):
        it = sim.integrator
        sim.step()
        sim.step()
        it.set_state(it.E.interior.copy(), rho=1.5 * it.rho)
        sim.step()
        it.set_state(it.E.interior.copy(), temp=1.2 * it.temp)
        sim.step()

    cfg = _paper_shaped()
    _, n, r = _reuse_and_defeat(monkeypatch, cfg, problem=problem, drive=drive)
    assert n["coeffs"] == n["spai"] == builds
    assert r["coeffs"] == 12


def test_hydro_coupled_run_misses_each_step(monkeypatch):
    # Hydro rewrites rho (in place) and T before every radiation step.
    cfg = V2DConfig(
        nx1=16, nx2=8, nsteps=3, dt=2e-3, precond="spai",
        limiter=FluxLimiter.DIFFUSION,
    )
    _, n, r = _reuse_and_defeat(monkeypatch, cfg, problem=RadiativeShockProblem())
    assert n["coeffs"] == n["spai"] == cfg.nsteps
    assert r["coeffs"] == 3 * cfg.nsteps


def test_checkpoint_rollback_misses(monkeypatch, tmp_path):
    # T-dependent opacity with matter coupling: solve 3 of each step
    # builds the operator solves 1-2 of the next step reuse.  Step 4
    # fails every retry, so the run rolls back to the step-2
    # checkpoint, whose T is older than the kept operator's.
    rc = ResilienceConfig(
        seed=0, escalation=False, max_rollbacks=1,
        retry=RetryPolicy(max_attempts=3, backoff=0.5),
    )
    cfg = _paper_shaped(
        nsteps=4, emission=True, couple_matter=True, resilience=rc,
        checkpoint_path=str(tmp_path / "ck.npz"), checkpoint_interval=2,
    )

    def drive(sim):
        original = sim._step_once
        attempts = itertools.count()

        def step_once(dt):
            if next(attempts) in {3, 4, 5}:
                raise NonFiniteStateError("scripted failure")
            return original(dt)

        sim._step_once = step_once
        report = sim.run()
        assert report.all_converged and report.counters.rollbacks == 1

    _, n, r = _reuse_and_defeat(monkeypatch, cfg, problem=_StatePulse(), drive=drive)
    # Steps 1, 2, 3, then 3 again (at T2, then T3) and 4.
    assert n["coeffs"] == n["spai"] == 2 + 1 + 1 + 2 + 1
    assert r["coeffs"] == 3 * 5


def _threads_2x1(monkeypatch, defeat: bool) -> tuple[np.ndarray, dict]:
    cfg = _paper_shaped(nprx1=2, transport="threads", nsteps=2)

    def prog(comm):
        cart = CartComm.create(comm, cfg.nx1, cfg.nx2, cfg.nprx1, cfg.nprx2)
        sim = Simulation(cfg, GaussianPulseProblem(), cart=cart)
        assert sim.run().all_converged
        return cart.tile, sim.integrator.E.interior.copy()

    with monkeypatch.context() as m:
        calls = _spy(m)
        if defeat:
            _defeat_reuse(m)
        out = run_spmd(cfg.nranks, prog, timeout=120.0, transport="threads")
    E = np.empty((out[0][1].shape[0], cfg.nx1, cfg.nx2))
    for tile, tile_E in out:
        E[:, tile.slice1, tile.slice2] = tile_E
    return E, calls


def test_threads_2x1_builds_once_per_rank(monkeypatch):
    E, calls = _threads_2x1(monkeypatch, defeat=False)
    assert len(calls["coeffs"]) == len(calls["spai"]) == 2
    assert len(set(calls["coeffs"])) == len({t for t, _ in calls["spai"]}) == 2
    E_rebuilt, rebuilt_calls = _threads_2x1(monkeypatch, defeat=True)
    assert len(rebuilt_calls["coeffs"]) == len(rebuilt_calls["spai"]) == 2 * 3 * 2
    np.testing.assert_array_equal(E, E_rebuilt)

    serial = Simulation(_paper_shaped(nsteps=2), GaussianPulseProblem())
    serial.run()
    want = serial.integrator.E.interior
    # Tile-local SPAI is not the serial SPAI, so the ranks agree with
    # the serial run to rounding, not bitwise.
    assert np.linalg.norm(E - want) <= 1e-12 * np.linalg.norm(want)


def test_kept_coefficients_are_read_only(monkeypatch):
    calls = _spy(monkeypatch)
    sim = Simulation(_paper_shaped(nsteps=1, coupling_rate=0.5), GaussianPulseProblem())
    sim.run()
    assert len(calls["spai"]) == 1
    coeffs = calls["spai"][0][1]
    assert coeffs is sim.integrator._kept.coeffs
    assert coeffs.coupling is not None
    kept = [getattr(coeffs, name) for name in ("diag", "west", "east", "south", "north", "coupling")]
    kept += [a for a in sim.integrator._kept.inputs if isinstance(a, np.ndarray)]
    assert len(kept) == 6 + 3       # kappa_a, kappa_t and the coupling matrix
    for arr in kept:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1.0


def test_coupling_none_matches_only_none(monkeypatch):
    calls = _spy(monkeypatch)
    sim = Simulation(_paper_shaped(nsteps=1), GaussianPulseProblem())
    it = sim.integrator
    dt = sim.config.dt
    assert it.coupling is None
    # A zero matrix builds the same operator as None, but is not None.
    for coupling, builds in ((None, 1), (np.zeros((2, 2)), 2), (None, 3), (None, 3)):
        it.coupling = coupling
        it.step(dt)
        assert len(calls["coeffs"]) == len(calls["spai"]) == builds


def test_jacobi_is_built_once_per_operator(monkeypatch):
    cfg = _paper_shaped(nsteps=2, precond="jacobi")
    _, n, r = _reuse_and_defeat(monkeypatch, cfg)
    assert n["jacobi"] == n["coeffs"] == 1
    assert r["jacobi"] == 3 * cfg.nsteps
    assert n["spai"] == 0


def test_reused_operators_solve_the_right_system(monkeypatch):
    """Independent oracle: every solve of a reusing run against a sparse
    direct solve of the matrix assembled from its coefficients."""
    cfg = _paper_shaped(nsteps=2)
    solves: list = []
    original = RadiationIntegrator._solve

    def record(self, operator, rhs, x0, site):
        res = original(self, operator, rhs, x0, site)
        solves.append((operator.coeffs, rhs.copy(), res.x.copy(), self.bc))
        return res

    calls = _spy(monkeypatch)
    monkeypatch.setattr(RadiationIntegrator, "_solve", record)
    sim = Simulation(cfg, GaussianPulseProblem())
    assert sim.run().all_converged
    assert len(calls["coeffs"]) == 1 and len(solves) == 3 * cfg.nsteps

    def flat(a):  # the unknown ordering of assemble_csr: x1 fastest
        return a.transpose(0, 2, 1).ravel()

    for coeffs, rhs, x, bc in solves:
        A = assemble_csr(coeffs, bc)
        want = spsolve(A.tocsc(), flat(rhs))
        b_norm = np.linalg.norm(flat(rhs))
        assert np.linalg.norm(A @ flat(x) - flat(rhs)) <= cfg.solver_tol * b_norm
        assert np.linalg.norm(flat(x) - want) <= 10 * cfg.solver_tol * np.linalg.norm(want)
