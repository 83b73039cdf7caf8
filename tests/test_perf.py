"""Tests for the performance ledger: schema, harness, gate, CLI."""

import json
import re

import numpy as np
import pytest

from repro.__main__ import main
from repro.perf import (
    SCHEMA,
    BenchResult,
    Harness,
    Ledger,
    LedgerError,
    Metric,
    environment_fingerprint,
    git_revision,
    load_suite_snapshot,
    mad,
    median,
    validate_entry,
    version_string,
)
from repro.perf.regress import (
    DEFAULT_POLICIES,
    GateReport,
    baseline_from_latest,
    check,
    check_suite,
    judge_metric,
    load_baseline,
    write_baseline,
)
from repro.perf.schema import coerce_metric


class TestMetric:
    def test_coercion_forms(self):
        assert coerce_metric(3).value == 3.0
        assert coerce_metric(3).kind == "value"
        assert coerce_metric(1.5, kind="time").kind == "time"
        m = Metric(2.0, kind="count")
        assert coerce_metric(m) is m
        assert coerce_metric({"value": 4, "kind": "ratio"}).kind == "ratio"

    def test_to_dict_omits_defaults(self):
        assert Metric(1.0, kind="time").to_dict() == {"value": 1.0, "kind": "time"}
        full = Metric(1.0, kind="time", unit="s", repeats=3, mad=0.1,
                      samples=[0.9, 1.0, 1.1]).to_dict()
        assert full["unit"] == "s" and full["repeats"] == 3
        assert Metric.from_dict(full).samples == [0.9, 1.0, 1.1]

    def test_median_and_mad(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
        assert mad([1.0, 1.0, 1.0]) == 0.0
        assert mad([1.0, 2.0, 9.0]) == 1.0
        assert mad([5.0]) == 0.0
        with pytest.raises(ValueError):
            median([])


class TestSchema:
    def test_bench_result_autofills_env_and_created(self):
        r = BenchResult("s", "b", {"m": Metric(1.0, kind="count")})
        assert r.created > 0
        assert r.env["python"]
        assert validate_entry(r.to_dict()) == []

    def test_roundtrip(self):
        r = BenchResult(
            "s", "b", {"m": Metric(1.0, kind="time", mad=0.1)},
            config={"n": 4}, counters={"flops": 10},
        )
        back = BenchResult.from_dict(r.to_dict())
        assert back.metrics["m"].mad == 0.1
        assert back.counters == {"flops": 10}
        assert back.schema == SCHEMA

    def test_validate_catches_problems(self):
        good = BenchResult("s", "b", {"m": Metric(1.0, kind="count")}).to_dict()
        assert validate_entry(good) == []

        bad = dict(good, schema="nope/9")
        assert any("schema" in p for p in validate_entry(bad))
        bad = dict(good, metrics={})
        assert any("metrics" in p for p in validate_entry(bad))
        bad = dict(good, metrics={"m": {"value": float("nan"), "kind": "count"}})
        assert any("NaN" in p for p in validate_entry(bad))
        bad = dict(good, metrics={"m": {"value": 1.0, "kind": "speed"}})
        assert any("kind" in p for p in validate_entry(bad))
        bad = dict(good, env={k: v for k, v in good["env"].items() if k != "numpy"})
        assert any("numpy" in p for p in validate_entry(bad))
        bad = dict(good, env=dict(good["env"], git_dirty="yes"))
        assert any("git_dirty" in p for p in validate_entry(bad))
        assert validate_entry("not a mapping")
        assert validate_entry(dict(good, suite="")) != []

    def test_environment_fingerprint(self):
        env = environment_fingerprint(backend="vector")
        for key in ("python", "numpy", "platform", "git_sha", "git_dirty", "cpu"):
            assert key in env
        assert env["backend"] == "vector"
        assert "backend" not in environment_fingerprint()

    def test_environment_fingerprint_records_blas(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        env = environment_fingerprint()
        assert env["OPENBLAS_NUM_THREADS"] == "1"
        assert env["OMP_NUM_THREADS"] is None
        assert env["blas"] == np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        assert "blas_version" in env
        # Entries written before the BLAS keys existed still validate.
        good = BenchResult("s", "b", {"m": Metric(1.0, kind="count")}).to_dict()
        blas_keys = ("blas", "blas_version", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        old = dict(good, env={k: v for k, v in good["env"].items() if k not in blas_keys})
        assert validate_entry(old) == []

    def test_git_revision_and_version_string(self):
        sha, dirty = git_revision()
        assert sha is None or re.fullmatch(r"[0-9a-f]{40}", sha)
        assert isinstance(dirty, bool)
        assert re.search(r"\((no git|[0-9a-f]{12}( dirty)?)\)", version_string())


class TestLedger:
    def entry(self, suite="smoke", name="bench", value=1.0, kind="time"):
        return BenchResult(suite, name, {"t": Metric(value, kind=kind)})

    def test_append_writes_history_and_snapshot(self, tmp_path):
        led = Ledger(tmp_path)
        led.append(self.entry())
        led.append(self.entry(name="other"))
        assert led.history_path.exists()
        assert len(led.history_path.read_text().splitlines()) == 2
        snap = load_suite_snapshot(led.suite_path("smoke"))
        assert set(snap["benchmarks"]) == {"bench", "other"}
        assert snap["entries"] == 2

    def test_append_rejects_invalid(self, tmp_path):
        led = Ledger(tmp_path)
        with pytest.raises(LedgerError):
            led.append({"schema": SCHEMA, "suite": "s", "name": "b"})
        assert not led.history_path.exists()

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        led = Ledger(tmp_path)
        led.append(self.entry())
        with open(led.history_path, "a") as fh:
            fh.write('{"torn": \n')
            fh.write('{"schema": "wrong/0"}\n')
        assert len(led.entries()) == 1
        assert led.skipped_lines == 2

    def test_latest_and_metric_series_window(self, tmp_path):
        led = Ledger(tmp_path)
        for v in (1.0, 2.0, 3.0, 4.0):
            led.append(self.entry(value=v))
        assert led.latest("smoke")["bench"]["metrics"]["t"]["value"] == 4.0
        assert led.metric_series("smoke", "bench", "t") == [1.0, 2.0, 3.0, 4.0]
        assert led.metric_series("smoke", "bench", "t", window=2) == [3.0, 4.0]
        assert led.metric_series("smoke", "bench", "absent") == []

    def test_suites_sorted(self, tmp_path):
        led = Ledger(tmp_path)
        led.append(self.entry(suite="zeta"))
        led.append(self.entry(suite="alpha"))
        assert led.suites() == ["alpha", "zeta"]

    def test_snapshot_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text('{"schema": "other/1"}')
        with pytest.raises(LedgerError):
            load_suite_snapshot(path)


class TestHarness:
    def test_record_coerces_and_appends(self, tmp_path):
        led = Ledger(tmp_path)
        h = Harness("unit", ledger=led, backend="vector")
        r = h.record(
            "b",
            {"a": 1, "b": (2.0, "count"), "c": Metric(3.0, kind="ratio")},
            config={"n": 8},
        )
        assert r.metrics["a"].kind == "value"
        assert r.metrics["b"].kind == "count"
        assert r.metrics["c"].kind == "ratio"
        assert r.env["backend"] == "vector"
        assert led.latest("unit")["b"]["config"] == {"n": 8}

    def test_time_emits_wall_and_cpu(self):
        h = Harness("unit")
        calls = []
        r = h.time(lambda: calls.append(1), name="t", repeats=3, warmup=2)
        assert len(calls) == 5  # 2 warmups + 3 timed
        for mname in ("wall_seconds", "cpu_seconds"):
            m = r.metrics[mname]
            assert m.kind == "time" and m.repeats == 3
            assert m.mad is not None and len(m.samples) == 3
            assert m.samples == sorted(m.samples)
        assert r.config["repeats"] == 3 and r.config["warmup"] == 2
        assert h.ledger is None and len(h.results) == 1

    def test_time_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            Harness("unit").time(lambda: None, name="t", repeats=0)


class TestRegressionGate:
    def seed(self, tmp_path, values=(1.0,), counts=10.0):
        """A ledger with history for one benchmark and its baseline."""
        led = Ledger(tmp_path / "ledger")
        for v in values:
            led.append(BenchResult("smoke", "solve", {
                "wall_seconds": Metric(v, kind="time", mad=0.0),
                "iterations": Metric(counts, kind="count"),
                "gflops": Metric(5.0, kind="value"),
            }))
        base_dir = tmp_path / "baselines"
        write_baseline(led, base_dir)
        return led, base_dir

    def rerun(self, led, wall=1.0, counts=10.0, **extra):
        led.append(BenchResult("smoke", "solve", {
            "wall_seconds": Metric(wall, kind="time", mad=0.0),
            "iterations": Metric(counts, kind="count"),
            "gflops": Metric(5.0, kind="value"),
            **extra,
        }))

    def test_unmodified_rerun_passes(self, tmp_path):
        led, base = self.seed(tmp_path)
        self.rerun(led)
        report = check(led, base)
        assert report.ok
        assert "PERF GATE OK" in report.render()

    def test_injected_2x_slowdown_fails(self, tmp_path):
        """The acceptance self-test: a deliberate 2x slowdown on a time
        metric must trip the gate."""
        led, base = self.seed(tmp_path)
        self.rerun(led, wall=2.0)
        report = check(led, base)
        assert not report.ok
        statuses = {(f.metric, f.status) for f in report.findings}
        assert ("wall_seconds", "regression") in statuses
        text = report.render()
        assert "PERF GATE FAILED" in text and "!!" in text

    def test_improvement_reported_not_failed(self, tmp_path):
        led, base = self.seed(tmp_path)
        self.rerun(led, wall=0.4)
        report = check(led, base)
        assert report.ok
        assert any(f.status == "improved" for f in report.findings)
        assert "++" in report.render()

    def test_count_drift_fails_both_directions(self, tmp_path):
        for drift in (11.0, 9.0):
            led, base = self.seed(tmp_path / str(drift))
            self.rerun(led, counts=drift)
            report = check(led, base)
            assert not report.ok
            assert any(
                f.metric == "iterations" and f.status == "changed"
                for f in report.findings
            )

    def test_value_metrics_never_gate(self):
        f = judge_metric(
            suite="s", name="b", metric="gflops", kind="value",
            latest=1.0, baseline=100.0, baseline_mad=0.0,
            window_values=[], policy=DEFAULT_POLICIES["value"],
        )
        assert f.status == "ok"

    def test_noise_floor_absorbs_tiny_deltas(self):
        # 3x relative but below the 1e-4 absolute floor: not a regression
        f = judge_metric(
            suite="s", name="b", metric="t", kind="time",
            latest=6e-5, baseline=2e-5, baseline_mad=0.0,
            window_values=[], policy=DEFAULT_POLICIES["time"],
        )
        assert f.status == "ok"

    def test_window_mad_raises_noise_floor(self):
        # noisy history: the same delta that would regress on a quiet
        # benchmark is inside the window's noise
        noisy = [1.0, 1.6, 0.9, 1.5, 1.1, 1.7]
        f = judge_metric(
            suite="s", name="b", metric="t", kind="time",
            latest=2.0, baseline=1.0, baseline_mad=0.0,
            window_values=noisy, policy=DEFAULT_POLICIES["time"],
        )
        assert f.status == "ok"
        quiet = judge_metric(
            suite="s", name="b", metric="t", kind="time",
            latest=2.0, baseline=1.0, baseline_mad=0.0,
            window_values=[1.0] * 6, policy=DEFAULT_POLICIES["time"],
        )
        assert quiet.status == "regression"

    def test_missing_metric_and_benchmark_fail(self, tmp_path):
        led, base = self.seed(tmp_path)
        # latest entry loses a gated metric
        led.append(BenchResult("smoke", "solve", {
            "wall_seconds": Metric(1.0, kind="time"),
            "gflops": Metric(5.0, kind="value"),
        }))
        report = check(led, base)
        assert any(f.status == "missing-metric" for f in report.findings)
        assert not report.ok

        # a whole benchmark disappears
        led2 = Ledger(tmp_path / "fresh")
        led2.append(BenchResult("smoke", "unrelated", {
            "x": Metric(1.0, kind="count"),
        }))
        report2 = check(led2, base)
        assert any(f.status == "missing-benchmark" for f in report2.findings)

    def test_new_benchmarks_flagged_not_failed(self, tmp_path):
        led, base = self.seed(tmp_path)
        self.rerun(led, extra_metric=Metric(1.0, kind="count"))
        led.append(BenchResult("smoke", "brand_new", {
            "x": Metric(1.0, kind="count"),
        }))
        report = check(led, base)
        assert report.ok
        assert sum(1 for f in report.findings if f.status == "new") == 2

    def test_baseline_threshold_override(self, tmp_path):
        led = Ledger(tmp_path / "ledger")
        led.append(BenchResult("smoke", "solve", {
            "wall_seconds": Metric(1.0, kind="time", mad=0.0),
        }))
        base_dir = tmp_path / "baselines"
        write_baseline(led, base_dir, thresholds={"wall_seconds": 2.0})
        led.append(BenchResult("smoke", "solve", {
            "wall_seconds": Metric(2.5, kind="time", mad=0.0),
        }))
        assert check(led, base_dir).ok          # 150% < 200% override
        # fresh history so the window MAD can't absorb the jump
        led2 = Ledger(tmp_path / "ledger2")
        led2.append(BenchResult("smoke", "solve", {
            "wall_seconds": Metric(3.5, kind="time", mad=0.0),
        }))
        assert not check(led2, base_dir).ok     # 250% > 200%

    def test_counts_only_ignores_time_regressions(self, tmp_path):
        led, base = self.seed(tmp_path)
        self.rerun(led, wall=10.0)
        assert not check(led, base).ok
        assert check(led, base, counts_only=True).ok

    def test_missing_baseline_dir_fails(self, tmp_path):
        led, _ = self.seed(tmp_path)
        report = check(led, tmp_path / "nowhere")
        assert not report.ok

    def test_baseline_payload_structure(self, tmp_path):
        led, base = self.seed(tmp_path)
        data = load_baseline(base / "smoke.json")
        bench = data["benchmarks"]["solve"]
        assert bench["metrics"]["wall_seconds"]["kind"] == "time"
        assert "git_sha" in bench["env"]
        payload = baseline_from_latest(led, "smoke")
        assert payload["suite"] == "smoke"
        with pytest.raises(ValueError):
            load_baseline(__file__)  # not JSON / wrong schema

    def test_empty_gate_report_renders(self):
        assert "nothing compared" in GateReport().render()

    def test_check_suite_skips_entries_outside_baseline_metrics(self, tmp_path):
        led, _ = self.seed(tmp_path)
        baseline = {"schema": "repro.bench-baseline/1", "suite": "smoke",
                    "benchmarks": {}}
        assert check_suite(led, "smoke", baseline)[0].status == "new"


class TestCampaignLedgerBridge:
    def test_payload_folds_into_bench_results(self, tmp_path):
        from repro.campaign.aggregate import ledger_results

        payload = {
            "campaign": "scale",
            "campaign_key": "abc123",
            "njobs": 2, "ok": 2, "quarantined": 0,
            "timing": {"wall_seconds": 3.0},
            "jobs": [
                {
                    "name": "p1x1", "problem": "gaussian", "seed": 0,
                    "result": {
                        "converged": True, "iterations": 12,
                        "solution_error": 1e-8, "nranks": 1,
                        "timing": {"wall_seconds": 1.5},
                        "counters": {"flops": 100},
                    },
                },
                {"name": "skipped", "result": None},
            ],
        }
        entries = ledger_results(payload)
        names = [e.name for e in entries]
        assert names == ["scale/p1x1", "scale/_total"]
        job = entries[0]
        assert job.metrics["converged"].value == 1.0
        assert job.metrics["wall_seconds"].kind == "time"
        assert job.metrics["iterations"].kind == "count"
        assert job.counters == {"flops": 100}
        led = Ledger(tmp_path)
        assert led.append_all(entries) == 2
        assert led.suites() == ["campaign"]


class TestPerfCLI:
    """End-to-end over ``python -m repro perf ...`` verbs."""

    def run_smoke(self, tmp_path, scale=None):
        argv = [
            "perf", "run", "--ledger", str(tmp_path / "ledger"),
            "--n", "64", "--reps", "2", "--no-app",
        ]
        if scale is not None:
            argv += ["--time-scale", str(scale)]
        return main(argv)

    def test_run_baseline_check_roundtrip(self, tmp_path, capsys):
        ledger_dir = str(tmp_path / "ledger")
        base_dir = str(tmp_path / "baselines")
        assert self.run_smoke(tmp_path) == 0
        led = Ledger(ledger_dir)
        assert led.suites() == ["smoke"]
        assert len(led.latest("smoke")) == 10  # 5 routines x 2 backends
        assert all(
            validate_entry(e) == [] for e in led.entries()
        )

        # Pin generous time thresholds: the microsecond-scale driver
        # timings jitter by several x under parallel test load, and
        # this test is about the plumbing, not the policy (the policy
        # is covered deterministically in TestRegressionGate).
        assert main(["perf", "baseline", "--ledger", ledger_dir,
                     "--baselines", base_dir,
                     "--threshold", "wall_seconds=10.0",
                     "--threshold", "cpu_seconds=10.0"]) == 0
        data = load_baseline(tmp_path / "baselines" / "smoke.json")
        assert "MATVEC_vector" in data["benchmarks"]
        assert (data["benchmarks"]["MATVEC_vector"]["metrics"]
                ["wall_seconds"]["threshold"] == 10.0)

        # unmodified rerun passes the gate ...
        assert self.run_smoke(tmp_path) == 0
        assert main(["perf", "check", "--ledger", ledger_dir,
                     "--baselines", base_dir]) == 0
        out = capsys.readouterr().out
        assert "PERF GATE OK" in out

        # ... and an injected 100x slowdown trips it
        assert self.run_smoke(tmp_path, scale=100.0) == 0
        assert main(["perf", "check", "--ledger", ledger_dir,
                     "--baselines", base_dir]) == 1
        out = capsys.readouterr().out
        assert "PERF GATE FAILED" in out and "regression" in out

    def test_check_without_baselines_fails(self, tmp_path, capsys):
        assert main(["perf", "check", "--ledger", str(tmp_path),
                     "--baselines", str(tmp_path / "none")]) == 1

    def test_baseline_empty_ledger_errors(self, tmp_path, capsys):
        assert main(["perf", "baseline", "--ledger", str(tmp_path),
                     "--baselines", str(tmp_path / "b")]) == 1

    def test_baseline_bad_threshold_spec(self, tmp_path, capsys):
        assert main(["perf", "baseline", "--ledger", str(tmp_path),
                     "--baselines", str(tmp_path / "b"),
                     "--threshold", "nonsense"]) == 2

    def test_report_renders_roofline_attribution(self, tmp_path, capsys):
        assert main([
            "perf", "report", "--ledger", str(tmp_path / "ledger"),
            "--n", "64", "--reps", "2", "--nx", "12", "--nsteps", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "KERNEL DRIVER ROOFLINE EFFICIENCY" in out
        assert "APPLICATION ROOFLINE EFFICIENCY" in out
        # scalar and vector rows for the driver kernels and the app spans
        for token in ("MATVEC", "DPROD", "PRECOND", "solver",
                      "GF/s", "scalar", "vector"):
            assert token in out, token

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert re.search(r"\((no git|[0-9a-f]{12}( dirty)?)\)", out)
