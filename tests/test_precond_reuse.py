"""SPAI is built once per distinct operator and reused bitwise.

``RadiationIntegrator`` keeps the last SPAI preconditioner with the
(read-only) coefficient arrays it was built from and reuses it while a
solve's coefficients are ``np.array_equal`` to those.  Each test counts
builds with a spy on ``SPAIPreconditioner.from_stencil`` and compares a
run against the same run with reuse defeated (the kept preconditioner
is dropped before every solve), which must agree bitwise.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.linalg.spai import JacobiPreconditioner, SPAIPreconditioner
from repro.parallel import CartComm, run_spmd
from repro.problems import GaussianPulseProblem
from repro.transport import FluxLimiter, RadiationIntegrator
from repro.v2d import Simulation, V2DConfig


def _spy(monkeypatch, cls) -> list:
    """Record the coefficients (and calling thread) of every build."""
    calls: list = []
    original = cls.from_stencil.__func__

    def spy(klass, coeffs, *args, **kwargs):
        calls.append((threading.get_ident(), coeffs))
        return original(klass, coeffs, *args, **kwargs)

    monkeypatch.setattr(cls, "from_stencil", classmethod(spy))
    return calls


def _defeat_reuse(monkeypatch) -> None:
    original = RadiationIntegrator._make_preconditioner

    def rebuild_always(self, system):
        self._spai = None
        return original(self, system)

    monkeypatch.setattr(RadiationIntegrator, "_make_preconditioner", rebuild_always)


def _outcome(sim: Simulation) -> dict:
    it = sim.integrator
    return {
        "E": it.E.interior.copy(),
        "temp": it.temp.copy(),
        "iterations": [s.iterations for r in sim.step_reports for s in r.solves],
        "histories": [s.history for r in sim.step_reports for s in r.solves],
        "counters": sim.counters.snapshot(),
    }


def _run(monkeypatch, cfg: V2DConfig, defeat: bool = False) -> tuple[dict, int]:
    with monkeypatch.context() as m:
        calls = _spy(m, SPAIPreconditioner)
        if defeat:
            _defeat_reuse(m)
        sim = Simulation(cfg, GaussianPulseProblem())
        report = sim.run()
    assert report.all_converged
    return _outcome(sim), len(calls)


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


def test_diffusion_run_builds_spai_once(monkeypatch):
    cfg = _paper_shaped()
    reused, builds = _run(monkeypatch, cfg)
    rebuilt, rebuilds = _run(monkeypatch, cfg, defeat=True)
    assert builds == 1
    assert rebuilds == 3 * cfg.nsteps
    _assert_bitwise(reused, rebuilt)


def test_limited_coupled_run_rebuilds_every_solve(monkeypatch):
    cfg = _limited_coupled()
    reused, builds = _run(monkeypatch, cfg)
    rebuilt, rebuilds = _run(monkeypatch, cfg, defeat=True)
    assert builds == rebuilds == 3 * cfg.nsteps
    _assert_bitwise(reused, rebuilt)


def test_dt_change_forces_a_rebuild(monkeypatch):
    calls = _spy(monkeypatch, SPAIPreconditioner)
    sim = Simulation(_paper_shaped(), GaussianPulseProblem())
    it = sim.integrator
    dt = sim.config.dt
    it.step(dt)
    it.step(dt)
    assert len(calls) == 1
    it.step(2.0 * dt)
    assert len(calls) == 2
    it.step(dt)
    assert len(calls) == 3


def _threads_2x1(monkeypatch, defeat: bool) -> tuple[np.ndarray, list]:
    cfg = _paper_shaped(nprx1=2, transport="threads", nsteps=2)

    def prog(comm):
        cart = CartComm.create(comm, cfg.nx1, cfg.nx2, cfg.nprx1, cfg.nprx2)
        sim = Simulation(cfg, GaussianPulseProblem(), cart=cart)
        assert sim.run().all_converged
        return cart.tile, sim.integrator.E.interior.copy()

    with monkeypatch.context() as m:
        calls = _spy(m, SPAIPreconditioner)
        if defeat:
            _defeat_reuse(m)
        out = run_spmd(cfg.nranks, prog, timeout=120.0, transport="threads")
    E = np.empty((out[0][1].shape[0], cfg.nx1, cfg.nx2))
    for tile, tile_E in out:
        E[:, tile.slice1, tile.slice2] = tile_E
    return E, calls


def test_threads_2x1_builds_once_per_rank(monkeypatch):
    E, calls = _threads_2x1(monkeypatch, defeat=False)
    assert len(calls) == 2
    assert len({thread for thread, _ in calls}) == 2
    E_rebuilt, rebuilt_calls = _threads_2x1(monkeypatch, defeat=True)
    assert len(rebuilt_calls) == 2 * 3 * 2
    np.testing.assert_array_equal(E, E_rebuilt)

    serial = Simulation(_paper_shaped(nsteps=2), GaussianPulseProblem())
    serial.run()
    want = serial.integrator.E.interior
    # Tile-local SPAI is not the serial SPAI, so the ranks agree with
    # the serial run to rounding, not bitwise.
    assert np.linalg.norm(E - want) <= 1e-12 * np.linalg.norm(want)


def test_kept_coefficients_are_read_only(monkeypatch):
    calls = _spy(monkeypatch, SPAIPreconditioner)
    sim = Simulation(_paper_shaped(nsteps=1, coupling_rate=0.5), GaussianPulseProblem())
    sim.run()
    assert len(calls) == 1
    coeffs = calls[0][1]
    assert coeffs.coupling is not None
    for name in ("diag", "west", "east", "south", "north", "coupling"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(coeffs, name)[(0,) * getattr(coeffs, name).ndim] = 1.0


def test_coupling_none_matches_only_none(monkeypatch):
    calls = _spy(monkeypatch, SPAIPreconditioner)
    sim = Simulation(_paper_shaped(nsteps=1), GaussianPulseProblem())
    it = sim.integrator
    it._fill_ghosts(it.E)
    system = it._build(it.E.data, sim.config.dt, it.temp)
    assert system.coeffs.coupling is None
    it._make_preconditioner(system)
    it._make_preconditioner(system)
    assert len(calls) == 1

    coeffs = system.coeffs
    ns, (n1, n2) = coeffs.nspec, coeffs.shape
    zero_coupling = type(coeffs)(
        diag=coeffs.diag, west=coeffs.west, east=coeffs.east, south=coeffs.south,
        north=coeffs.north, coupling=np.zeros((ns, ns, n1, n2)),
    )
    it._make_preconditioner(type(system)(zero_coupling, system.rhs, system.dt, 1.0))
    assert len(calls) == 2


def test_jacobi_is_built_every_solve(monkeypatch):
    calls = _spy(monkeypatch, JacobiPreconditioner)
    cfg = _paper_shaped(nsteps=2, precond="jacobi")
    Simulation(cfg, GaussianPulseProblem()).run()
    assert len(calls) == 3 * cfg.nsteps

