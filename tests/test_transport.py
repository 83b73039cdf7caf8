"""Unit tests for the MFLD transport substrate."""

import numpy as np
import pytest

from repro.grid import Mesh2D
from repro.linalg import StencilOperator, assemble_dense, bicgstab
from repro.monitor import Profiler
from repro.parallel import BoundaryCondition
from repro.transport import (
    ConstantOpacity,
    EnergyGroups,
    FluxLimiter,
    PowerLawOpacity,
    RadiationBasis,
    RadiationIntegrator,
    TabulatedOpacity,
    build_radiation_system,
    knudsen_number,
    limiter_lambda,
)
from repro.transport.groups import planck_cdf, planck_integral
from repro.transport.system import diffusion_coefficient


class TestEnergyGroups:
    def test_grey(self):
        g = EnergyGroups.grey()
        assert g.ngroups == 1
        assert g.planck_fractions()[0] == pytest.approx(1.0, abs=1e-3)

    def test_logarithmic(self):
        g = EnergyGroups.logarithmic(8)
        assert g.ngroups == 8
        assert np.all(np.diff(g.edges) > 0)
        assert g.centers.shape == (8,) and g.widths.shape == (8,)

    def test_fractions_sum_to_one(self):
        g = EnergyGroups.logarithmic(12, lo=1e-3, hi=50)
        assert g.planck_fractions().sum() == pytest.approx(1.0, abs=2e-3)

    def test_fractions_shift_with_temperature(self):
        g = EnergyGroups.logarithmic(4, lo=0.1, hi=20)
        cold = g.planck_fractions(t_ratio=0.5)
        hot = g.planck_fractions(t_ratio=2.0)
        # hotter spectrum puts more energy in the top group
        assert hot[-1] > cold[-1]
        assert cold[0] > hot[0]

    def test_fractions_field_matches_scalar(self):
        g = EnergyGroups.logarithmic(3)
        temp = np.array([[0.7, 1.3]])
        fld = g.planck_fractions_field(temp)
        assert fld.shape == (3, 1, 2)
        for k, t in enumerate([0.7, 1.3]):
            np.testing.assert_allclose(
                fld[:, 0, k], g.planck_fractions(t_ratio=t), atol=2e-3
            )

    def test_planck_cdf_properties(self):
        x = np.array([0.0, 1.0, 5.0, 60.0])
        cdf = planck_cdf(x)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[-1] == pytest.approx(1.0, abs=1e-3)

    def test_planck_integral_validation(self):
        with pytest.raises(ValueError):
            planck_integral(2.0, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyGroups(edges=(1.0,))
        with pytest.raises(ValueError):
            EnergyGroups(edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            EnergyGroups.logarithmic(0)


class TestRadiationBasis:
    def test_paper_basis(self):
        b = RadiationBasis()
        assert b.nspecies == 2 and b.ngroups == 1 and b.ncomp == 2

    def test_index_unpack_roundtrip(self):
        b = RadiationBasis(species=("a", "b", "c"), groups=EnergyGroups.logarithmic(4))
        assert b.ncomp == 12
        for u in range(b.ncomp):
            s, g = b.unpack(u)
            assert b.index(s, g) == u
        assert b.index("b", 2) == 6

    def test_component_names(self):
        b = RadiationBasis(species=("x", "y"))
        assert b.component_names() == ["x[g0]", "y[g0]"]

    def test_coupling_matrix(self):
        b = RadiationBasis(species=("a", "b"), groups=EnergyGroups.logarithmic(2))
        C = b.pair_coupling_matrix(0.5)
        assert C.shape == (4, 4)
        assert np.all(np.diag(C) == 0.0)
        assert C[b.index(0, 1), b.index(1, 1)] == 0.5
        assert C[b.index(0, 0), b.index(1, 1)] == 0.0  # groups don't mix

    def test_validation(self):
        with pytest.raises(ValueError):
            RadiationBasis(species=())
        with pytest.raises(ValueError):
            RadiationBasis(species=("a", "a"))
        b = RadiationBasis()
        with pytest.raises(ValueError):
            b.index(5)
        with pytest.raises(ValueError):
            b.unpack(99)
        with pytest.raises(ValueError):
            b.pair_coupling_matrix(-1.0)


class TestOpacity:
    def setup_method(self):
        self.basis = RadiationBasis()
        self.rho = np.full((3, 4), 2.0)
        self.temp = np.full((3, 4), 1.5)

    def test_constant(self):
        op = ConstantOpacity(kappa_a=2.0, kappa_s=1.0)
        ka = op.absorption(self.rho, self.temp, self.basis)
        assert ka.shape == (2, 3, 4)
        assert np.all(ka == 2.0)
        assert np.all(op.total(self.rho, self.temp, self.basis) == 3.0)

    def test_constant_validation(self):
        with pytest.raises(ValueError):
            ConstantOpacity(kappa_a=-1.0)
        with pytest.raises(ValueError):
            ConstantOpacity(kappa_a=0.0, kappa_s=0.0)

    def test_power_law_scalings(self):
        op = PowerLawOpacity(k0=1.0, a_rho=1.0, a_t=-3.5)
        k1 = op.total(self.rho, self.temp, self.basis)
        k2 = op.total(2 * self.rho, self.temp, self.basis)
        np.testing.assert_allclose(k2, 2 * k1)
        k3 = op.total(self.rho, 2 * self.temp, self.basis)
        np.testing.assert_allclose(k3, k1 * 2.0**-3.5)

    def test_power_law_group_dependence(self):
        basis = RadiationBasis(species=("nu",), groups=EnergyGroups.logarithmic(3))
        op = PowerLawOpacity(k0=1.0, a_eps=2.0)
        k = op.total(self.rho, self.temp, basis)
        centers = basis.groups.centers
        np.testing.assert_allclose(k[1] / k[0], (centers[1] / centers[0]) ** 2)

    def test_power_law_scatter_split(self):
        op = PowerLawOpacity(k0=4.0, scatter_fraction=0.25)
        ka = op.absorption(self.rho, self.temp, self.basis)
        ks = op.scattering(self.rho, self.temp, self.basis)
        np.testing.assert_allclose(ka, 3.0)
        np.testing.assert_allclose(ks, 1.0)

    def test_power_law_validation(self):
        with pytest.raises(ValueError):
            PowerLawOpacity(scatter_fraction=1.5)
        with pytest.raises(ValueError):
            PowerLawOpacity(k0=0.0)

    def test_tabulated_interpolates_at_nodes(self):
        tab = TabulatedOpacity(temps=(0.5, 1.0, 2.0), kappa_a_table=(4.0, 2.0, 1.0))
        ka = tab.absorption(self.rho, np.full((3, 4), 1.0), self.basis)
        np.testing.assert_allclose(ka, 2.0)

    def test_tabulated_loglog_midpoint(self):
        tab = TabulatedOpacity(temps=(1.0, 4.0), kappa_a_table=(1.0, 16.0))
        ka = tab.absorption(self.rho, np.full((3, 4), 2.0), self.basis)
        np.testing.assert_allclose(ka, 4.0, rtol=1e-6)  # log-log straight line

    def test_tabulated_scattering_defaults_zero(self):
        tab = TabulatedOpacity(temps=(1.0, 2.0), kappa_a_table=(1.0, 1.0))
        ks = tab.scattering(self.rho, self.temp, self.basis)
        assert np.all(ks == 0.0)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedOpacity(temps=(1.0,), kappa_a_table=(1.0,))
        with pytest.raises(ValueError):
            TabulatedOpacity(temps=(2.0, 1.0), kappa_a_table=(1.0, 1.0))
        with pytest.raises(ValueError):
            TabulatedOpacity(temps=(1.0, 2.0), kappa_a_table=(0.0, 1.0))


class TestFluxLimiters:
    def test_diffusion_limit_small_R(self):
        R = np.array([0.0, 1e-8])
        for lim in FluxLimiter:
            lam = limiter_lambda(lim, R)
            np.testing.assert_allclose(lam, 1.0 / 3.0, rtol=1e-6)

    def test_free_streaming_limit(self):
        # lambda -> 1/R as R -> inf keeps |F| <= c E.
        R = np.array([1e4])
        for lim in (FluxLimiter.LEVERMORE_POMRANING, FluxLimiter.LARSEN2):
            lam = limiter_lambda(lim, R)
            assert lam[0] * R[0] == pytest.approx(1.0, rel=2e-3)

    def test_monotone_decreasing(self):
        R = np.geomspace(1e-3, 1e3, 50)
        for lim in (FluxLimiter.LEVERMORE_POMRANING, FluxLimiter.LARSEN2):
            lam = limiter_lambda(lim, R)
            assert np.all(np.diff(lam) < 0)

    def test_string_lookup_and_validation(self):
        np.testing.assert_allclose(limiter_lambda("diffusion", np.array([3.0])), 1 / 3)
        with pytest.raises(ValueError):
            limiter_lambda(FluxLimiter.DIFFUSION, np.array([-1.0]))

    def test_knudsen_number(self):
        # Uniform field -> zero gradient -> R = 0.
        epad = np.ones((1, 5, 5))
        kap = np.ones((1, 3, 3))
        R = knudsen_number(epad, kap, np.ones(3), np.ones(3))
        np.testing.assert_allclose(R, 0.0)
        # Linear field: E = x -> |grad| = 1, R = 1/(kappa E).
        x = np.arange(5, dtype=float)
        epad2 = np.broadcast_to(x[:, None], (5, 5))[None].copy()
        R2 = knudsen_number(epad2, kap, np.ones(3), np.ones(3))
        interior = epad2[0, 1:-1, 1:-1]
        np.testing.assert_allclose(R2[0], 1.0 / interior)

    @pytest.mark.parametrize("limiter", [FluxLimiter.DIFFUSION, "diffusion"])
    def test_diffusion_coefficient_skips_knudsen_bitwise(self, limiter):
        mesh = Mesh2D.uniform(7, 5, extent1=(0, 1), extent2=(0, 2))
        rng = np.random.default_rng(11)
        epad = np.abs(rng.standard_normal((2, 9, 7))) + 0.1
        kappa_t = rng.uniform(0.5, 4.0, (2, 7, 5))
        R = knudsen_number(epad, kappa_t, mesh.dx1, mesh.dx2)
        want = 2.5 * limiter_lambda(FluxLimiter.DIFFUSION, R) / kappa_t
        got = diffusion_coefficient(epad, kappa_t, mesh, limiter, c_light=2.5)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)

    def test_limited_diffusion_coefficient_still_checks_knudsen(self):
        mesh = Mesh2D.uniform(3, 3, extent1=(0, 1), extent2=(0, 1))
        epad = np.arange(25.0).reshape(1, 5, 5) + 1.0
        with pytest.raises(ValueError, match="non-negative"):
            diffusion_coefficient(epad, -np.ones((1, 3, 3)), mesh, "levermore-pomraning")


class TestBuildSystem:
    def setup_method(self):
        self.mesh = Mesh2D.uniform(6, 5, extent1=(0, 1), extent2=(0, 1))
        self.basis = RadiationBasis()
        self.opacity = ConstantOpacity(kappa_a=1.0, kappa_s=0.5)
        n1, n2 = self.mesh.shape
        rng = np.random.default_rng(5)
        self.epad = np.abs(rng.standard_normal((2, n1 + 2, n2 + 2))) + 0.5
        self.rho = np.ones((n1, n2))
        self.temp = np.ones((n1, n2))

    def _build(self, **kw):
        args = dict(
            mesh=self.mesh, epad=self.epad, rho=self.rho, temp=self.temp,
            dt=0.01, basis=self.basis, opacity=self.opacity,
        )
        args.update(kw)
        return build_radiation_system(**args)

    def test_shapes(self):
        sys_ = self._build()
        assert sys_.coeffs.shape == (6, 5)
        assert sys_.ncomp == 2
        assert sys_.rhs.shape == (2, 6, 5)
        assert sys_.nunknowns == 60

    def test_diagonally_dominant_m_matrix(self):
        sys_ = self._build()
        c = sys_.coeffs
        offsum = np.abs(c.west) + np.abs(c.east) + np.abs(c.south) + np.abs(c.north)
        assert np.all(c.diag > offsum)          # strict: the dt*c*kappa_a term
        assert np.all(c.west <= 0) and np.all(c.east <= 0)
        assert np.all(c.south <= 0) and np.all(c.north <= 0)

    def test_symmetric_without_coupling(self):
        # Backward-Euler FD diffusion on a uniform mesh gives a
        # symmetric matrix (harmonic-mean face D is shared by both rows).
        sys_ = self._build()
        A = assemble_dense(sys_.coeffs)
        np.testing.assert_allclose(A, A.T, rtol=1e-12, atol=1e-14)

    def test_coupling_enters_system(self):
        C = self.basis.pair_coupling_matrix(2.0)
        sys_ = self._build(coupling=C)
        assert sys_.coeffs.coupling is not None
        np.testing.assert_allclose(sys_.coeffs.coupling[0, 1], -0.01 * 2.0)
        # conservative: diagonal grows by the same amount
        sys0 = self._build()
        np.testing.assert_allclose(
            sys_.coeffs.diag - sys0.coeffs.diag, 0.01 * 2.0
        )

    def test_rest_state_is_fixed_point(self):
        # A uniform field with no emission and reflecting (well, any)
        # interior stays put: solving A E = rhs with E^n uniform and no
        # sources must return E^n when fluxes vanish... with DIRICHLET0
        # boundaries energy leaks, so use the interior-only identity:
        # rhs == E^n and A applied to uniform field differs only on the
        # boundary rows.
        self.epad[...] = 1.0
        sys_ = self._build(emission=False)
        resid = sys_.coeffs.diag.copy()
        resid += sys_.coeffs.west + sys_.coeffs.east + sys_.coeffs.south + sys_.coeffs.north
        inner = resid[:, 1:-1, 1:-1]
        np.testing.assert_allclose(
            inner, 1.0 + 0.01 * 1.0 * 1.0, rtol=1e-12
        )  # 1 + dt*c*kappa_a

    def test_emission_source(self):
        sys_on = self._build(emission=True)
        sys_off = self._build(emission=False)
        extra = sys_on.rhs - sys_off.rhs
        # dt * c * kappa_a * a T^4 * frac (grey frac ~ 1)
        np.testing.assert_allclose(extra, 0.01 * 1.0 * 1.0, rtol=5e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            self._build(dt=-1.0)
        with pytest.raises(ValueError):
            self._build(epad=np.ones((2, 3, 3)))
        with pytest.raises(ValueError):
            self._build(rho=np.ones((2, 2)))
        bad_c = np.eye(2)
        with pytest.raises(ValueError):
            self._build(coupling=bad_c)
        with pytest.raises(ValueError):
            self._build(coupling=np.zeros((3, 3)))

    def test_solvable_and_positive(self):
        sys_ = self._build()
        op = StencilOperator(sys_.coeffs)
        res = bicgstab(op, sys_.rhs, tol=1e-10)
        assert res.converged
        assert np.all(res.x > 0.0)  # M-matrix + positive rhs


class TestRadiationIntegrator:
    def _make(self, **kw):
        mesh = Mesh2D.uniform(8, 6, extent1=(0, 1), extent2=(0, 1))
        basis = RadiationBasis()
        args = dict(
            mesh=mesh,
            basis=basis,
            opacity=ConstantOpacity(kappa_a=1.0, kappa_s=0.0),
            limiter=FluxLimiter.DIFFUSION,
            bc=BoundaryCondition.REFLECT,
            precond="jacobi",
            solver_tol=1e-10,
        )
        args.update(kw)
        integ = RadiationIntegrator(**args)
        x1, x2 = mesh.centers()
        pulse = np.exp(-((x1 - 0.5) ** 2 + (x2 - 0.5) ** 2) / 0.02)
        E0 = np.stack([pulse, 0.5 * pulse])
        integ.set_state(E0)
        return integ, E0

    def test_three_solves_per_step(self):
        integ, _ = self._make()
        report = integ.step(0.005)
        assert len(report.solves) == 3
        assert report.converged
        assert report.step == 1

    def test_energy_conserved_with_reflecting_walls(self):
        # No absorption exchange (emission off, kappa_a only damps if
        # coupled to matter; here emission=False means absorption is a
        # pure sink) -> use tiny kappa_a via scattering-dominated total.
        integ, E0 = self._make(
            opacity=ConstantOpacity(kappa_a=1e-12, kappa_s=1.0), emission=False
        )
        e0 = integ.total_energy()
        for _ in range(3):
            integ.step(0.01)
        assert integ.total_energy() == pytest.approx(e0, rel=1e-6)

    def test_energy_decays_with_vacuum_boundaries(self):
        integ, _ = self._make(bc=BoundaryCondition.DIRICHLET0)
        e0 = integ.total_energy()
        integ.step(0.01)
        assert integ.total_energy() < e0

    def test_diffusion_flattens_profile(self):
        integ, E0 = self._make(opacity=ConstantOpacity(kappa_a=1e-12, kappa_s=1.0))
        for _ in range(5):
            integ.step(0.01)
        E = integ.E.interior
        assert E.max() < E0.max()
        assert E.min() > E0.min()

    def test_species_coupling_equilibrates(self):
        integ, E0 = self._make(
            opacity=ConstantOpacity(kappa_a=1e-12, kappa_s=1.0),
            coupling_rate=50.0,
        )
        for _ in range(4):
            integ.step(0.05)
        E = integ.E.interior
        # strong exchange pulls the two species together
        gap0 = np.abs(E0[0] - E0[1]).max()
        gap = np.abs(E[0] - E[1]).max()
        assert gap < 0.15 * gap0

    def test_matter_coupling_heats_cold_gas(self):
        integ, _ = self._make(
            opacity=ConstantOpacity(kappa_a=5.0, kappa_s=0.0),
            couple_matter=True,
            emission=True,
        )
        integ.temp[...] = 0.1
        t0 = integ.temp.copy()
        integ.step(0.01)
        # Zones under the radiation pulse heat up; nearly-empty edge
        # zones may cool slightly (the gas radiates), but only by the
        # tiny emission budget a T^4 allows.
        assert integ.temp.max() > t0.max()
        assert integ.temp.mean() > t0.mean()
        assert np.all(integ.temp >= t0 - 0.01 * 1.0 * 5.0 * (0.1**4) * 2)

    def test_profiler_regions_populated(self):
        prof = Profiler()
        integ, _ = self._make(profiler=prof)
        integ.step(0.005)
        flat = prof.flat()
        for region in ("BiCGSTAB", "MATVEC", "build_system"):
            assert region in flat, f"missing {region}"
        assert flat["BiCGSTAB"][2] == 3  # three call sites per step

    def test_spai_precond_path(self):
        integ, _ = self._make(precond="spai")
        report = integ.step(0.005)
        assert report.converged
        jac, _ = self._make(precond="jacobi")
        rep2 = jac.step(0.005)
        assert sum(s.iterations for s in report.solves) <= sum(
            s.iterations for s in rep2.solves
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            self._make(precond="ilu")
        integ, _ = self._make()
        with pytest.raises(ValueError):
            integ.step(0.0)
        with pytest.raises(ValueError):
            integ.set_state(np.zeros((3, 3, 3)))
