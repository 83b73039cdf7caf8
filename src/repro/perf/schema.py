"""The canonical benchmark-entry schema and environment fingerprint.

Every performance number this repository produces -- the
``benchmarks/bench_*.py`` suites, the ``repro perf run`` smoke suite,
campaign roll-ups -- is recorded as one :class:`BenchResult`, the
machine-readable analogue of the paper's per-routine timing tables.
An entry carries

* identity: ``suite`` (one ledger stream per benchmark module) and
  ``name`` (one benchmark within it);
* ``metrics``: named :class:`Metric` values, each typed by *kind* so
  the regression gate knows how to judge it (``time`` metrics get
  noise-aware thresholds, ``count`` metrics are deterministic and
  compared near-exactly);
* an environment fingerprint (interpreter, NumPy, BLAS vendor, version
  and thread variables, platform, CPU, git revision + dirty flag,
  backend) so any ledger line can be traced to the commit, machine and
  BLAS setting that produced it;
* optionally the PAPI-style counter snapshot of the measured run, the
  raw material for roofline-efficiency attribution.

The schema is versioned (:data:`SCHEMA`); :func:`validate_entry` is
the single gatekeeper every ledger write goes through.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

#: Schema tag stamped on (and required of) every ledger entry.
SCHEMA = "repro.bench/1"

#: Metric kinds the regression gate understands.
#:
#: ``time``  -- seconds (or any noisy measurement); gated with a
#:              relative threshold over a robust noise floor.
#: ``count`` -- deterministic event counts (iterations, flops, bytes);
#:              gated near-exactly, any drift is a real change.
#: ``ratio`` -- derived dimensionless quantities (speedups, fractions);
#:              gated like ``time`` (they inherit timing noise).
#: ``value`` -- informational; recorded and reported, never gated.
METRIC_KINDS = ("time", "count", "ratio", "value")


@dataclass
class Metric:
    """One measured quantity inside a :class:`BenchResult`."""

    value: float
    kind: str = "value"
    unit: str = ""
    repeats: int = 1
    #: Median absolute deviation of the repeat samples (same unit as
    #: ``value``); the regression gate's per-entry noise estimate.
    mad: float | None = None
    samples: list[float] | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"value": self.value, "kind": self.kind}
        if self.unit:
            out["unit"] = self.unit
        if self.repeats != 1:
            out["repeats"] = self.repeats
        if self.mad is not None:
            out["mad"] = self.mad
        if self.samples is not None:
            out["samples"] = list(self.samples)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Metric":
        return cls(
            value=float(data["value"]),
            kind=str(data.get("kind", "value")),
            unit=str(data.get("unit", "")),
            repeats=int(data.get("repeats", 1)),
            mad=None if data.get("mad") is None else float(data["mad"]),
            samples=(
                None
                if data.get("samples") is None
                else [float(s) for s in data["samples"]]
            ),
        )


def coerce_metric(value: Any, kind: str | None = None) -> Metric:
    """Accept a bare number, mapping, or :class:`Metric` as a metric."""
    if isinstance(value, Metric):
        return value
    if isinstance(value, Mapping):
        return Metric.from_dict(value)
    return Metric(value=float(value), kind=kind or "value")


@dataclass
class BenchResult:
    """One schema-versioned benchmark entry (one ledger line)."""

    suite: str
    name: str
    metrics: dict[str, Metric]
    config: dict[str, Any] = field(default_factory=dict)
    counters: dict[str, int] | None = None
    env: dict[str, Any] = field(default_factory=dict)
    created: float = 0.0
    schema: str = SCHEMA

    def __post_init__(self) -> None:
        if not self.env:
            self.env = environment_fingerprint()
        if not self.created:
            self.created = time.time()

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "suite": self.suite,
            "name": self.name,
            "created": self.created,
            "env": dict(self.env),
            "config": dict(self.config),
            "metrics": {k: m.to_dict() for k, m in self.metrics.items()},
            **({"counters": dict(self.counters)} if self.counters else {}),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchResult":
        return cls(
            suite=str(data["suite"]),
            name=str(data["name"]),
            metrics={
                k: Metric.from_dict(v) for k, v in data.get("metrics", {}).items()
            },
            config=dict(data.get("config", {})),
            counters=(
                None if data.get("counters") is None else dict(data["counters"])
            ),
            env=dict(data.get("env", {})),
            created=float(data.get("created", 0.0)),
            schema=str(data.get("schema", "")),
        )


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def git_revision(cwd: str | None = None) -> tuple[str | None, bool]:
    """``(sha, dirty)`` of the enclosing git checkout, or ``(None, False)``.

    ``dirty`` is True when tracked files carry uncommitted changes, so
    a ledger entry from a dirty tree can never masquerade as a clean
    measurement of its SHA.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return None, False
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        dirty = status.returncode == 0 and bool(status.stdout.strip())
        return sha.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):
        return None, False


def _cpu_name() -> str:
    name = platform.processor()
    if name:
        return name
    try:  # Linux fallback: the model line of /proc/cpuinfo
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith(("model name", "hardware", "cpu model")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _blas() -> dict[str, Any]:
    """BLAS vendor, version and thread variables.  The thread count
    changes timings and, through threaded reductions, the last bits of
    the numerics."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **{v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def environment_fingerprint(backend: str | None = None) -> dict[str, Any]:
    """The provenance stamp attached to every ledger entry."""
    import numpy

    from repro import __version__

    sha, dirty = git_revision()
    env: dict[str, Any] = {
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_blas(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": _cpu_name(),
        "git_sha": sha,
        "git_dirty": dirty,
        "executable": sys.executable,
    }
    if backend is not None:
        env["backend"] = backend
    return env


def version_string() -> str:
    """``<version> (<sha12>[ dirty])`` -- the ``repro --version`` face.

    Ledger entries carry the same ``git_sha``/``git_dirty`` pair, so a
    printed version line is directly matchable against history lines.
    """
    from repro import __version__

    sha, dirty = git_revision()
    if sha is None:
        return f"{__version__} (no git)"
    return f"{__version__} ({sha[:12]}{' dirty' if dirty else ''})"


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def _is_number(v: Any) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: Environment keys every entry must carry.
REQUIRED_ENV = ("python", "numpy", "platform", "git_sha", "git_dirty")


def validate_entry(entry: Any) -> list[str]:
    """Schema-check one ledger entry; returns the list of problems.

    An empty list means the entry is valid.  This is deliberately a
    report (not an exception) so callers scanning a ledger can count
    and skip bad lines without dying on the first one.
    """
    problems: list[str] = []
    if not isinstance(entry, Mapping):
        return [f"entry is {type(entry).__name__}, expected a mapping"]
    if entry.get("schema") != SCHEMA:
        problems.append(f"schema {entry.get('schema')!r} != {SCHEMA!r}")
    for key in ("suite", "name"):
        v = entry.get(key)
        if not isinstance(v, str) or not v:
            problems.append(f"{key} must be a non-empty string, got {v!r}")
    if not _is_number(entry.get("created")):
        problems.append(f"created must be a unix timestamp, got {entry.get('created')!r}")

    metrics = entry.get("metrics")
    if not isinstance(metrics, Mapping) or not metrics:
        problems.append("metrics must be a non-empty mapping")
    else:
        for mname, m in metrics.items():
            where = f"metrics[{mname!r}]"
            if not isinstance(m, Mapping):
                problems.append(f"{where} must be a mapping")
                continue
            if not _is_number(m.get("value")):
                problems.append(f"{where}.value must be a number, got {m.get('value')!r}")
            elif m["value"] != m["value"]:  # NaN
                problems.append(f"{where}.value is NaN")
            if m.get("kind") not in METRIC_KINDS:
                problems.append(
                    f"{where}.kind {m.get('kind')!r} not in {METRIC_KINDS}"
                )
            if m.get("mad") is not None and (
                not _is_number(m["mad"]) or m["mad"] < 0
            ):
                problems.append(f"{where}.mad must be a non-negative number")

    env = entry.get("env")
    if not isinstance(env, Mapping):
        problems.append("env must be a mapping")
    else:
        for key in REQUIRED_ENV:
            if key not in env:
                problems.append(f"env missing {key!r}")
        if "git_dirty" in env and not isinstance(env["git_dirty"], bool):
            problems.append("env.git_dirty must be a bool")

    counters = entry.get("counters")
    if counters is not None:
        if not isinstance(counters, Mapping):
            problems.append("counters must be a mapping when present")
        else:
            for k, v in counters.items():
                if not _is_number(v):
                    problems.append(f"counters[{k!r}] must be a number")
                    break

    config = entry.get("config")
    if config is not None and not isinstance(config, Mapping):
        problems.append("config must be a mapping when present")
    return problems
