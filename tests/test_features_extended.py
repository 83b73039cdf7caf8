"""Tests for stretched meshes, config serialization, overlapped halo
exchange, and the scaling-efficiency view of Table I."""

import numpy as np
import pytest

from repro.grid import Field, Mesh2D
from repro.parallel import BoundaryCondition, CartComm, HaloExchanger, run_spmd
from repro.perfmodel import CostModel
from repro.problems import GaussianPulseProblem
from repro.transport import ConstantOpacity, FluxLimiter, RadiationBasis, RadiationIntegrator
from repro.v2d import Simulation, V2DConfig


class TestStretchedMesh:
    def test_ratio_one_is_uniform(self):
        a = Mesh2D.stretched(10, 6, ratio1=1.0, ratio2=1.0)
        b = Mesh2D.uniform(10, 6)
        np.testing.assert_allclose(a.x1f, b.x1f)
        np.testing.assert_allclose(a.x2f, b.x2f)

    def test_last_to_first_width_ratio(self):
        m = Mesh2D.stretched(20, 4, ratio1=8.0)
        assert m.dx1[-1] / m.dx1[0] == pytest.approx(8.0, rel=1e-10)
        # widths grow monotonically and cover the extent exactly
        assert np.all(np.diff(m.dx1) > 0)
        assert m.x1f[0] == 0.0 and m.x1f[-1] == pytest.approx(1.0)

    def test_shrinking_ratio(self):
        m = Mesh2D.stretched(16, 4, ratio1=0.25)
        assert m.dx1[-1] / m.dx1[0] == pytest.approx(0.25, rel=1e-10)
        assert np.all(np.diff(m.dx1) < 0)

    def test_single_zone_direction(self):
        m = Mesh2D.stretched(1, 4, ratio1=5.0)
        assert m.nx1 == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            Mesh2D.stretched(4, 4, ratio1=-1.0)
        with pytest.raises(ValueError):
            Mesh2D.stretched(0, 4)
        with pytest.raises(ValueError):
            Mesh2D.stretched(4, 4, extent1=(1.0, 0.0))

    def test_radiation_on_stretched_grid_conserves(self):
        # The FD system builder uses per-face distances, so energy
        # conservation must hold on nonuniform grids too.
        mesh = Mesh2D.stretched(24, 8, ratio1=4.0)
        basis = RadiationBasis(species=("nu",))
        integ = RadiationIntegrator(
            mesh, basis, ConstantOpacity(kappa_a=1e-12, kappa_s=2.0),
            bc=BoundaryCondition.REFLECT, limiter=FluxLimiter.DIFFUSION,
            precond="jacobi", solver_tol=1e-11,
        )
        x1, _ = mesh.centers()
        integ.set_state(np.exp(-((x1 - 0.3) ** 2) / 0.01)[None] + 1e-8)
        e0 = integ.total_energy()
        for _ in range(4):
            r = integ.step(5e-3)
            assert r.converged
        assert integ.total_energy() == pytest.approx(e0, rel=1e-8)

    def test_stretched_diffusion_still_flattens(self):
        mesh = Mesh2D.stretched(24, 6, ratio1=3.0)
        basis = RadiationBasis(species=("nu",))
        integ = RadiationIntegrator(
            mesh, basis, ConstantOpacity(kappa_a=1e-12, kappa_s=2.0),
            bc=BoundaryCondition.REFLECT, limiter=FluxLimiter.DIFFUSION,
            precond="jacobi", solver_tol=1e-11,
        )
        x1, _ = mesh.centers()
        E0 = np.exp(-((x1 - 0.3) ** 2) / 0.01)[None] + 1e-8
        integ.set_state(E0.copy())
        for _ in range(5):
            integ.step(1e-2)
        assert integ.E.interior.max() < E0.max()


class TestConfigSerialization:
    def test_roundtrip_dict(self):
        cfg = V2DConfig(
            nx1=20, nx2=10, nsteps=3, limiter=FluxLimiter.LARSEN2,
            species=("a", "b", "c"), coupling_rate=0.5,
        )
        back = V2DConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_roundtrip_json(self, tmp_path):
        cfg = V2DConfig.paper_test_problem(nprx1=5, nprx2=4)
        path = tmp_path / "cfg.json"
        cfg.to_json(str(path))
        back = V2DConfig.from_json(str(path))
        assert back == cfg
        assert back.nunknowns == 40_000

    def test_unknown_keys_rejected(self):
        # Fusion is a backend capability, not a config key: a wire or
        # JSON config that carries "fused" fails loudly.
        for key in ("frobnicate", "fused"):
            with pytest.raises(ValueError, match=f"unknown config keys: \\['{key}'\\]"):
                V2DConfig.from_dict({"nx1": 4, "nx2": 4, key: True})

    def test_limiter_none_roundtrip(self):
        cfg = V2DConfig(nx1=8, nx2=8)
        assert V2DConfig.from_dict(cfg.to_dict()).limiter is None

    def test_serialized_config_actually_runs(self, tmp_path):
        cfg = V2DConfig(nx1=10, nx2=8, nsteps=1, precond="jacobi")
        path = tmp_path / "c.json"
        cfg.to_json(str(path))
        sim = Simulation(V2DConfig.from_json(str(path)), GaussianPulseProblem())
        assert sim.run().all_converged


class TestOverlappedHaloExchange:
    @pytest.mark.parametrize("nprx1,nprx2", [(2, 1), (2, 2)])
    def test_overlap_equals_blocking(self, nprx1, nprx2):
        nx1, nx2 = 8, 8
        global_f = np.arange(nx1 * nx2, dtype=float).reshape(nx1, nx2)

        def prog(comm):
            cart = CartComm.create(comm, nx1, nx2, nprx1, nprx2)
            tile = cart.tile
            h = HaloExchanger(cart, BoundaryCondition.REFLECT)

            fa = Field(1, tile.shape)
            fa.interior = global_f[tile.slice1, tile.slice2][None]
            h.exchange(fa)

            fb = Field(1, tile.shape)
            fb.interior = global_f[tile.slice1, tile.slice2][None]
            pending = h.start(fb)
            # "compute" on the interior while messages fly
            interior_sum = float(fb.interior.sum())
            pending.finish()
            pending.finish()  # idempotent
            assert pending.test()
            return (fa.data.copy(), fb.data.copy(), interior_sum)

        for fa, fb, _s in run_spmd(nprx1 * nprx2, prog, timeout=30.0):
            np.testing.assert_array_equal(fa, fb)

    def test_counter_incremented_once(self):
        from repro.monitor import Counters

        counters = [Counters() for _ in range(2)]

        def prog(comm):
            cart = CartComm.create(comm, 4, 4, 2, 1)
            f = Field(1, cart.tile.shape)
            p = HaloExchanger(cart).start(f)
            p.finish()
            p.finish()

        run_spmd(2, prog, timeout=10.0, counters=counters)
        assert counters[0].halo_exchanges == 1


class TestScalingEfficiency:
    def test_efficiency_profile_matches_paper_shape(self):
        model = CostModel()
        # Strong-scaling efficiency E(Np) = T1 / (Np * T(Np)).
        eff = {
            key: {
                np_: model.speedup(key, *model.best_topology(key, np_)) / np_
                for np_ in (10, 20, 40, 50)
            }
            for key in ("gnu", "fujitsu", "cray-opt")
        }
        for key in eff:
            vals = [eff[key][n] for n in (10, 20, 40, 50)]
            assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:])), key
        # Fujitsu retains the best efficiency at 50 ranks.
        assert eff["fujitsu"][50] == max(e[50] for e in eff.values())
        # And everyone is below ~90% at 50 (communication is real).
        assert all(e[50] < 0.9 for e in eff.values())
