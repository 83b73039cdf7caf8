"""Campaign engine: spec expansion, hashing, cache, scheduler, CLI.

The acceptance scenario rides in :class:`TestScheduler`: a topology
sweep of >= 8 configurations completes on workers > 1, survives one
injected job failure with the rest unaffected, and a second invocation
serves every job from cache with a bitwise-identical stable payload.
"""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main as cli_main
from repro.campaign import (
    CampaignScheduler,
    CampaignSpec,
    CampaignSpecError,
    ResultCache,
    build_bench_payload,
    campaign_report,
    canonical_json,
    derive_seed,
    estimate_cost,
    job_key,
    stable_payload,
    topology_heatmap,
)
from repro.monitor.counters import Counters
from repro.v2d import V2DConfig, run_job, strip_timing

#: Small-but-decomposable base every test campaign shares.
BASE = {
    "nx1": 12, "nx2": 8, "nsteps": 1, "dt": 2e-3,
    "precond": "jacobi", "profile": False,
}

#: >= 8 distinct topologies of the 12 x 8 grid (the acceptance sweep).
TOPOLOGIES = [[1, 1], [2, 1], [1, 2], [2, 2], [4, 1], [1, 4], [3, 1], [1, 3]]


def make_spec(**campaign_overrides) -> CampaignSpec:
    campaign = {"name": "t", "seed": 7, "workers": 2, "retries": 1}
    campaign.update(campaign_overrides)
    return CampaignSpec.from_mapping(
        {"campaign": campaign, "base": dict(BASE),
         "axes": {"topology": [list(t) for t in TOPOLOGIES]}}
    )


class TestSpec:
    def test_expansion_is_deterministic_and_named(self):
        jobs_a = make_spec().expand()
        jobs_b = make_spec().expand()
        assert [j.name for j in jobs_a] == [
            f"topology={n1}x{n2}" for n1, n2 in TOPOLOGIES
        ]
        assert [(j.key, j.seed) for j in jobs_a] == [
            (j.key, j.seed) for j in jobs_b
        ]
        assert len({j.seed for j in jobs_a}) == len(jobs_a)  # decorrelated

    def test_grid_expansion_is_cartesian_product(self):
        spec = CampaignSpec.from_mapping({
            "campaign": {"name": "grid"},
            "base": dict(BASE),
            "axes": {"backend": ["vector", "scalar"],
                     "topology": [[1, 1], [2, 1]]},
        })
        jobs = spec.expand()
        assert len(jobs) == 4
        assert {j.name for j in jobs} == {
            "backend=vector,topology=1x1", "backend=vector,topology=2x1",
            "backend=scalar,topology=1x1", "backend=scalar,topology=2x1",
        }

    def test_list_mode_merges_over_base(self):
        spec = CampaignSpec.from_mapping({
            "campaign": {"name": "list"},
            "base": dict(BASE),
            "jobs": [{"nprx1": 2}, {"name": "wide", "nx1": 24}],
        })
        jobs = spec.expand()
        assert jobs[0].config["nprx1"] == 2
        assert jobs[1].name == "wide" and jobs[1].config["nx1"] == 24

    def test_unknown_axis_and_campaign_keys_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown sweep axis"):
            CampaignSpec.from_mapping(
                {"campaign": {"name": "x"}, "axes": {"warp": [1]}}
            )
        with pytest.raises(CampaignSpecError, match="unknown .campaign. keys"):
            CampaignSpec.from_mapping({"campaign": {"name": "x", "wat": 1}})
        with pytest.raises(CampaignSpecError, match="name"):
            CampaignSpec.from_mapping({"campaign": {}})

    def test_invalid_config_marks_job_not_expansion_failure(self):
        spec = CampaignSpec.from_mapping({
            "campaign": {"name": "bad"},
            "base": dict(BASE),
            "jobs": [{}, {"name": "poison", "dt": -1.0}],
        })
        jobs = spec.expand()
        assert [j.valid for j in jobs] == [True, False]
        assert "dt" in jobs[1].invalid_reason

    def test_resilience_seed_injected_per_job(self):
        spec = CampaignSpec.from_mapping({
            "campaign": {"name": "res", "seed": 3},
            "base": {**BASE, "resilience": {"numeric_rate": 0.01}},
            "axes": {"topology": [[1, 1], [2, 1]]},
        })
        jobs = spec.expand()
        seeds = [j.config["resilience"]["seed"] for j in jobs]
        assert seeds == [j.seed for j in jobs]
        assert seeds[0] != seeds[1]

    def test_toml_and_json_roundtrip(self, tmp_path):
        toml = tmp_path / "c.toml"
        toml.write_text(
            "[campaign]\nname = 'f'\n[base]\nnx1 = 12\nnx2 = 8\n"
            "[axes]\ntopology = [[1, 1], [2, 1]]\n"
        )
        js = tmp_path / "c.json"
        js.write_text(json.dumps({
            "campaign": {"name": "f"}, "base": {"nx1": 12, "nx2": 8},
            "axes": {"topology": [[1, 1], [2, 1]]},
        }))
        assert (
            CampaignSpec.from_file(toml).campaign_key()
            == CampaignSpec.from_file(js).campaign_key()
        )
        with pytest.raises(CampaignSpecError, match="not found"):
            CampaignSpec.from_file(tmp_path / "missing.toml")
        (tmp_path / "c.txt").write_text("x")
        with pytest.raises(CampaignSpecError, match="unsupported"):
            CampaignSpec.from_file(tmp_path / "c.txt")


class TestHashing:
    def test_key_ignores_spelled_out_defaults(self):
        sparse = V2DConfig.from_dict({"nx1": 12, "nx2": 8}).to_dict()
        explicit = V2DConfig.from_dict(
            {"nx1": 12, "nx2": 8, "precond": "spai"}  # spai is the default
        ).to_dict()
        assert job_key(sparse, "gaussian-pulse") == job_key(
            explicit, "gaussian-pulse"
        )

    def test_key_sensitive_to_config_problem_and_version(self):
        cfg = V2DConfig.from_dict(dict(BASE)).to_dict()
        other = dict(cfg, solver_tol=1e-9)
        base = job_key(cfg, "gaussian-pulse")
        assert job_key(other, "gaussian-pulse") != base
        assert job_key(cfg, "sedov-blast") != base
        assert job_key(cfg, "gaussian-pulse", version="2.0.0") != base

    def test_derive_seed_stable_and_in_range(self):
        a = derive_seed(7, 0, "topology=1x1")
        assert a == derive_seed(7, 0, "topology=1x1")
        assert a != derive_seed(7, 1, "topology=2x1")
        assert 0 <= a < 2**31

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == canonical_json(
            {"a": [1, 2], "b": 1}
        )


class TestCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get("ab" + "0" * 62) is None
        cache.put("ab" + "0" * 62, {"x": 1})
        assert cache.get("ab" + "0" * 62) == {"x": 1}
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert list(cache.keys()) == ["ab" + "0" * 62]

    def test_corrupt_entry_detected_evicted_not_trusted(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = "cd" + "0" * 62
        cache.put(key, {"value": 42})
        path = cache.path_for(key)
        # Bit rot: flip the payload under an intact wrapper.
        entry = json.loads(path.read_text())
        entry["payload"]["value"] = 43
        path.write_text(json.dumps(entry))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()  # evicted, will recompute
        # Truncation: not even parseable.
        cache.put(key, {"value": 42})
        path.write_bytes(path.read_bytes()[: 10])
        assert cache.get(key) is None
        assert cache.stats.corrupt == 2

    def test_clean_selected_and_all(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        k1, k2 = "aa" + "0" * 62, "bb" + "0" * 62
        cache.put(k1, {}); cache.put(k2, {})
        assert cache.clean([k1]) == 1
        assert cache.contains(k2) and not cache.contains(k1)
        assert cache.clean() == 1
        assert list(cache.keys()) == []


class TestRunJob:
    def test_payload_is_json_serializable_and_stable(self):
        cfg = V2DConfig.from_dict(dict(BASE))
        a = run_job(cfg)
        b = run_job(cfg.to_dict())
        json.dumps(a)  # must not raise
        assert strip_timing(a) == strip_timing(b)
        assert a["converged"] and a["solves"] == 3
        assert a["counters"]["linear_solves"] == 3
        assert "wall_seconds" in a["timing"]

    def test_decomposed_job_merges_rank_counters(self):
        serial = run_job(V2DConfig.from_dict(dict(BASE)))
        decomp = run_job(V2DConfig.from_dict({**BASE, "nprx2": 2}))
        assert decomp["nranks"] == 2
        assert decomp["counters"]["messages_sent"] > 0
        assert decomp["final_energy"] == pytest.approx(serial["final_energy"])

    def test_counters_snapshot_roundtrip(self):
        c = Counters(flops=3, rollbacks=1)
        again = Counters.from_snapshot(c.snapshot())
        assert again == c
        total = Counters(flops=1)
        total.merge_snapshot({"flops": 2, "not_a_counter": 9})
        assert total.flops == 3


class TestScheduler:
    def test_cost_estimates_order_topologies(self):
        jobs = make_spec().expand()
        costs = {j.name: estimate_cost(j) for j in jobs}
        assert all(c > 0 for c in costs.values())
        # The serial job holds the most zones per rank: costliest.
        assert costs["topology=1x1"] == max(costs.values())

    def test_acceptance_sweep_with_failure_and_warm_cache(self, tmp_path):
        """The ISSUE acceptance scenario, end to end."""
        spec = CampaignSpec.from_mapping({
            "campaign": {"name": "acc", "seed": 7, "workers": 2,
                         "retries": 1},
            "base": dict(BASE),
            "axes": {"topology": [list(t) for t in TOPOLOGIES]},
            # One injected failure: fails at run time, not expansion.
            "jobs": [{}, {"name": "poison", "problem": "no-such-problem"}],
        })
        njobs = 2 * len(TOPOLOGIES)
        cold = CampaignScheduler(
            spec, cache=ResultCache(tmp_path / "c"), workers=2
        ).run()
        assert cold.n_jobs == njobs
        assert cold.n_ok == len(TOPOLOGIES)
        assert cold.n_quarantined == len(TOPOLOGIES)  # poison x topologies
        poison = [r for r in cold.records if not r.ok]
        assert all("no-such-problem" in r.error for r in poison)
        # The retry budget was spent before quarantining.
        assert all(r.attempts == spec.retry.max_attempts for r in poison)
        assert cold.n_cache_hits == 0 and cold.ran == len(TOPOLOGIES)

        warm = CampaignScheduler(
            spec, cache=ResultCache(tmp_path / "c"), workers=2
        ).run()
        assert warm.n_cache_hits == len(TOPOLOGIES)
        assert warm.ran == 0
        # Bitwise-identical aggregate, modulo timing/scheduling fields.
        a = canonical_json(stable_payload(build_bench_payload(cold)))
        b = canonical_json(stable_payload(build_bench_payload(warm)))
        assert a == b

    def test_mutating_one_knob_recomputes_only_that_job(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        CampaignScheduler(make_spec(), cache=cache, workers=1).run()
        mutated = CampaignSpec.from_mapping({
            "campaign": {"name": "t", "seed": 7, "workers": 1},
            "base": {**BASE, "solver_tol": 1e-9},
            "axes": {"topology": [list(t) for t in TOPOLOGIES[:3]]},
        })
        # Same topologies, one solver knob changed: all three recompute.
        res = CampaignScheduler(mutated, cache=cache, workers=1).run()
        assert res.n_cache_hits == 0 and res.ran == 3
        # Unchanged spec still fully cached (old entries untouched).
        res2 = CampaignScheduler(make_spec(), cache=cache, workers=1).run()
        assert res2.n_cache_hits == len(TOPOLOGIES)

    def test_corrupted_cache_entry_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        spec = make_spec(workers=1)
        CampaignScheduler(spec, cache=cache, workers=1).run()
        victim = spec.expand()[0]
        path = cache.path_for(victim.key)
        path.write_bytes(path.read_bytes()[:-40])
        res = CampaignScheduler(spec, cache=cache, workers=1).run()
        assert res.n_cache_hits == len(TOPOLOGIES) - 1
        assert res.ran == 1 and res.cache_stats.corrupt == 1
        assert res.n_ok == len(TOPOLOGIES)

    def test_serial_path_retries_then_quarantines(self, tmp_path):
        spec = CampaignSpec.from_mapping({
            "campaign": {"name": "s", "retries": 2, "workers": 1},
            "base": dict(BASE),
            "jobs": [{"name": "bad", "problem": "no-such-problem"}],
        })
        res = CampaignScheduler(
            spec, cache=ResultCache(tmp_path / "c"), workers=1
        ).run()
        rec = res.records[0]
        assert rec.status == "quarantined" and rec.attempts == 3


class TestAggregate:
    @pytest.fixture()
    def payload(self, tmp_path):
        res = CampaignScheduler(
            make_spec(), cache=ResultCache(tmp_path / "c"), workers=1
        ).run()
        return build_bench_payload(res)

    def test_payload_shape(self, payload):
        assert payload["bench"] == "campaign"
        assert payload["njobs"] == len(TOPOLOGIES)
        assert payload["ok"] == len(TOPOLOGIES)
        assert len(payload["jobs"]) == len(TOPOLOGIES)
        # Counters are merged over ranks then over jobs: 3 solves per
        # step are counted on every participating rank.
        total_ranks = sum(n1 * n2 for n1, n2 in TOPOLOGIES)
        assert payload["counters"]["linear_solves"] == 3 * total_ranks
        assert payload["timing"]["speedup"]["topology=1x1"] == pytest.approx(1.0)
        json.dumps(payload)  # artifact must be serializable

    def test_stable_payload_drops_every_volatile_field(self, payload):
        stable = stable_payload(payload)
        assert "timing" not in stable and "cache" not in stable
        for job in stable["jobs"]:
            assert "cache_hit" not in job and "attempts" not in job
            assert "timing" not in job.get("result", {})

    def test_report_and_heatmap_render(self, payload):
        text = campaign_report(payload)
        assert "CAMPAIGN t" in text
        assert "topology=2x2" in text
        assert "nprx2\\nprx1" in text
        heat = topology_heatmap(payload["jobs"])
        assert "wall seconds" in heat
        assert topology_heatmap([]) == "(no completed jobs with timing)"


class TestCampaignCLI:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--version"])
        assert exc.value.code == 0
        assert "repro 1.0.0" in capsys.readouterr().out

    def test_unknown_subcommand_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["not-a-command"])
        assert exc.value.code == 2
        assert "usage: repro" in capsys.readouterr().err

    def test_campaign_without_verb_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["campaign"])
        assert exc.value.code == 2
        assert "usage: repro campaign" in capsys.readouterr().err

    def test_campaign_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["campaign", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for verb in ("run", "status", "report", "clean"):
            assert verb in out

    def test_inject_rates_outside_unit_interval_rejected(self):
        for bad in ("numeric=-0.1", "io=1.5"):
            with pytest.raises(SystemExit, match="probability"):
                cli_main(["run", "--inject", bad])

    def test_run_status_report_clean_cycle(self, tmp_path, capsys):
        spec_file = tmp_path / "c.json"
        spec_file.write_text(json.dumps({
            "campaign": {"name": "clitest", "workers": 1, "seed": 1},
            "base": dict(BASE),
            "axes": {"topology": [[1, 1], [2, 1]]},
        }))
        cache_dir = str(tmp_path / "cache")
        bench = str(tmp_path / "BENCH_campaign.json")
        # An explicit ledger keeps the run out of the tracked
        # benchmarks/_reports/ directory.
        ledger = tmp_path / "ledger"
        args = ["campaign", "run", str(spec_file),
                "--cache-dir", cache_dir, "--output", bench,
                "--ledger", str(ledger)]
        assert cli_main(args) == 0
        assert "cache hits: 0/2" in capsys.readouterr().out
        assert (ledger / "BENCH_campaign.json").is_file()
        assert (ledger / "BENCH_history.jsonl").is_file()
        assert cli_main(args) == 0
        assert "cache hits: 2/2" in capsys.readouterr().out

        assert cli_main(["campaign", "status", str(spec_file),
                         "--cache-dir", cache_dir]) == 0
        assert "2/2 jobs would be served" in capsys.readouterr().out

        assert cli_main(["campaign", "report", bench]) == 0
        assert "CAMPAIGN clitest" in capsys.readouterr().out
        # report can also re-aggregate from a cached spec.
        assert cli_main(["campaign", "report", str(spec_file),
                         "--cache-dir", cache_dir]) == 0
        assert "CAMPAIGN clitest" in capsys.readouterr().out

        assert cli_main(["campaign", "clean", str(spec_file),
                         "--cache-dir", cache_dir]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert cli_main(["campaign", "status", str(spec_file),
                         "--cache-dir", cache_dir]) == 0
        assert "0/2 jobs would be served" in capsys.readouterr().out

    def test_clean_all_requires_confirmation(self, tmp_path, capsys):
        rc = cli_main(["campaign", "clean",
                       "--cache-dir", str(tmp_path / "cache")])
        assert rc == 2
        assert "--yes" in capsys.readouterr().err
        assert cli_main(["campaign", "clean", "--yes",
                         "--cache-dir", str(tmp_path / "cache")]) == 0

    def test_quarantine_yields_nonzero_exit(self, tmp_path, capsys):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps({
            "campaign": {"name": "bad", "workers": 1},
            "base": dict(BASE),
            "jobs": [{}, {"name": "poison", "dt": -1.0}],
        }))
        rc = cli_main(["campaign", "run", str(spec_file),
                       "--cache-dir", str(tmp_path / "cache"),
                       "--output", str(tmp_path / "b.json"),
                       "--ledger", str(tmp_path / "ledger")])
        assert rc == 1
        assert (tmp_path / "ledger" / "BENCH_campaign.json").is_file()
        out = capsys.readouterr().out
        assert "quarantined" in out and "1/2 ok" in out


class TestCheckedInSpecs:
    CAMPAIGNS = __import__("pathlib").Path(__file__).parent.parent / "examples" / "campaigns"

    def test_table1_spec_names_the_paper_topologies(self):
        spec = CampaignSpec.from_file(self.CAMPAIGNS / "table1_topologies.toml")
        jobs = spec.expand()
        assert len(jobs) == 12
        assert all(j.valid for j in jobs)
        topos = {(j.config["nprx1"], j.config["nprx2"]) for j in jobs}
        # The twelve Table-I rows of the paper.
        assert topos == {(1, 1), (10, 1), (20, 1), (10, 2), (5, 4),
                         (25, 1), (40, 1), (20, 2), (10, 4),
                         (50, 1), (25, 2), (10, 5)}

    def test_smoke_spec_expands_to_four_valid_jobs(self):
        spec = CampaignSpec.from_file(self.CAMPAIGNS / "smoke_2x2.toml")
        jobs = spec.expand()
        assert len(jobs) == 4 and all(j.valid for j in jobs)
