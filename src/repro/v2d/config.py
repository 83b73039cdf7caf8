"""Simulation configuration.

Mirrors V2D's runtime parameters: the grid (x1 = 200, x2 = 100 zones in
the paper's test), the process topology (NPRX1, NPRX2), the number of
radiation species, the step count (100 in the paper, for 300 linear
solves), and solver/backend choices -- the knobs the study varied.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from repro.grid.decomposition import TileDecomposition
from repro.resilience.config import ResilienceConfig
from repro.transport.fld import FluxLimiter


@dataclass
class V2DConfig:
    """All runtime parameters of a run.

    The defaults describe a laptop-scale problem; use
    :meth:`paper_test_problem` for the study's full configuration.
    """

    # --- grid -----------------------------------------------------------
    nx1: int = 64
    nx2: int = 32
    extent1: tuple[float, float] = (0.0, 1.0)
    extent2: tuple[float, float] = (0.0, 1.0)
    coord: str = "cartesian"

    # --- process topology (NPRX1 x NPRX2) -------------------------------
    nprx1: int = 1
    nprx2: int = 1
    #: Comm transport carrying the ranks: "threads" (in-process, the
    #: seed behaviour) or "mp" (forked processes over shared memory).
    #: The empty string defers to the launch-time default ($REPRO_TRANSPORT
    #: when set, threads otherwise), so environment overrides reach runs
    #: whose config never names a transport explicitly.
    transport: str = ""

    # --- radiation components -------------------------------------------
    species: tuple[str, ...] = ("nu_e", "nu_e_bar")
    ngroups: int = 1

    # --- time integration -------------------------------------------------
    nsteps: int = 10
    dt: float = 1e-3

    # --- solver / backend (the study's independent variables) ------------
    backend: str = "vector"          # "vector" = SVE, "scalar" = no-SVE,
                                     # "jit" = compiled fused loops (numba)
    vector_bits: int = 512           # A64FX SVE implementation width
    precond: str = "spai"            # "spai" | "jacobi" | "none"
    ganged: bool = True              # restructured (ganged-reduction) BiCGSTAB
    solver_tol: float = 1e-8
    solver_maxiter: int = 500

    # --- physics toggles ---------------------------------------------------
    limiter: FluxLimiter | None = None   # None -> use the problem's choice
    coupling_rate: float = 0.0
    couple_matter: bool = False
    emission: bool = False
    c_light: float = 1.0
    a_rad: float = 1.0
    cv: float = 1.0

    # --- hydro (used when the problem declares uses_hydro) ----------------
    hydro_cfl: float = 0.4
    hydro_riemann: str = "hllc"
    hydro_reconstruction: str = "minmod"
    hydro_gamma: float = 1.4

    # --- I/O ----------------------------------------------------------------
    checkpoint_path: str | None = None
    checkpoint_interval: int = 0     # steps between checkpoints; 0 = never

    # --- instrumentation -----------------------------------------------------
    profile: bool = True
    trace: bool = False              # Chrome-trace timeline spans (repro trace)

    # --- resilience (fault injection + layered recovery) ---------------------
    resilience: ResilienceConfig | None = None

    def __post_init__(self) -> None:
        if self.nx1 < 1 or self.nx2 < 1:
            raise ValueError("grid must have at least one zone per direction")
        if self.nsteps < 0:
            raise ValueError("nsteps must be non-negative")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.ngroups < 1:
            raise ValueError("need at least one energy group")
        if len(self.species) < 1:
            raise ValueError("need at least one species")
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be non-negative")
        if self.checkpoint_interval > 0 and self.checkpoint_path is None:
            raise ValueError("checkpointing enabled but no checkpoint_path given")
        # Imported here so the config module stays free of a hard
        # dependency on the parallel package at import time.
        from repro.parallel.links import _REGISTRY

        if self.transport and self.transport not in _REGISTRY:
            raise ValueError(
                f"unknown transport {self.transport!r}; known: {sorted(_REGISTRY)}"
            )
        # Mirror check for the backend registry, so bad names are
        # rejected at config time (the serve front door's from_wire
        # validation inherits this) rather than mid-run.  Name-only:
        # whether 'jit' can actually construct (numba present) is a
        # property of the executing machine, decided at Simulation
        # build time.
        from repro.backend.dispatch import available_backends

        if self.backend not in available_backends():
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"known: {available_backends()}"
            )
        # Topology must tile the grid with non-empty tiles.
        self.decomposition()

    # ------------------------------------------------------------------
    @property
    def nranks(self) -> int:
        return self.nprx1 * self.nprx2

    @property
    def ncomp(self) -> int:
        return len(self.species) * self.ngroups

    @property
    def nunknowns(self) -> int:
        """Size of each linear system: x1 * x2 * ncomp."""
        return self.nx1 * self.nx2 * self.ncomp

    @property
    def total_solves(self) -> int:
        """Linear systems per run: three per step (paper Sec. II-D)."""
        return 3 * self.nsteps

    def decomposition(self) -> TileDecomposition:
        return TileDecomposition(
            nx1=self.nx1, nx2=self.nx2, nprx1=self.nprx1, nprx2=self.nprx2
        )

    # ------------------------------------------------------------------
    # Serialization (run scripts / restart metadata / CLI --config)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible dict of every parameter."""
        out = dataclasses.asdict(self)
        out["species"] = list(self.species)
        out["extent1"] = list(self.extent1)
        out["extent2"] = list(self.extent2)
        out["limiter"] = None if self.limiter is None else self.limiter.value
        out["resilience"] = None if self.resilience is None else self.resilience.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "V2DConfig":
        """Inverse of :meth:`to_dict` (unknown keys rejected)."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kw = dict(data)
        for key in ("species", "extent1", "extent2"):
            if key in kw and kw[key] is not None:
                kw[key] = tuple(kw[key])
        if kw.get("limiter") is not None and not isinstance(kw["limiter"], FluxLimiter):
            kw["limiter"] = FluxLimiter(kw["limiter"])
        if kw.get("resilience") is not None and not isinstance(
            kw["resilience"], ResilienceConfig
        ):
            kw["resilience"] = ResilienceConfig.from_dict(kw["resilience"])
        return cls(**kw)

    def to_json(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    @classmethod
    def from_json(cls, path: str) -> "V2DConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # ------------------------------------------------------------------
    @classmethod
    def paper_test_problem(cls, nprx1: int = 1, nprx2: int = 1, **overrides) -> "V2DConfig":
        """The study's configuration: 200 x 100 zones x 2 species,
        100 steps = 300 solves of a 40,000-unknown system."""
        args = dict(
            nx1=200,
            nx2=100,
            extent1=(0.0, 2.0),
            extent2=(0.0, 1.0),
            species=("nu_e", "nu_e_bar"),
            ngroups=1,
            nsteps=100,
            dt=5e-4,
            nprx1=nprx1,
            nprx2=nprx2,
        )
        args.update(overrides)
        return cls(**args)

    @classmethod
    def scaled_test_problem(
        cls, scale: int = 4, nprx1: int = 1, nprx2: int = 1, **overrides
    ) -> "V2DConfig":
        """The paper problem shrunk by ``scale`` in each direction (for
        tests and tractable pure-Python benchmarking)."""
        if scale < 1 or 200 % scale or 100 % scale:
            raise ValueError("scale must divide 200 and 100")
        args = dict(
            nx1=200 // scale,
            nx2=100 // scale,
            extent1=(0.0, 2.0),
            extent2=(0.0, 1.0),
            nsteps=10,
            dt=5e-4 * scale,
            nprx1=nprx1,
            nprx2=nprx2,
        )
        args.update(overrides)
        return cls(**args)
