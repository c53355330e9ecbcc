"""Execution-subsystem tests: RunSpec keys, disk cache, parallelism."""

from dataclasses import replace

import pytest

from repro.common.config import (
    MDMConfig,
    paper_quad_core,
    paper_single_core,
)
from repro.exec import (
    CACHE_VERSION,
    Executor,
    ListReducer,
    ResultCache,
    RunSpec,
    execute_spec,
)
from repro.exec import cache as cache_module
from repro.experiments.registry import run_experiment
from repro.experiments.runner import ExperimentRunner
from repro.sim.golden import result_digest

SCALE = 128
CONFIG = paper_single_core(scale=SCALE)


def _cache_worker(directory: str, worker: int) -> str:
    """Interleave puts and gets against a shared cache (spawn target)."""
    cache = ResultCache(directory)
    s = spec()
    result = execute_spec(s)
    for _ in range(20):
        if worker == 0:
            cache.put(s, result)
        restored = cache.get(s)  # a miss is legal; an exception is not
        if restored is not None and restored.to_dict() != result.to_dict():
            return "mismatch"
    cache.put(s, result)
    return "ok"


def spec(**overrides) -> RunSpec:
    base = dict(
        kind="single",
        programs=("zeusmp",),
        policy="pom",
        config=CONFIG,
        requests=800,
        seed=0,
        trace_scale=SCALE,
    )
    base.update(overrides)
    return RunSpec(**base)


class TestRunSpecKeys:
    def test_same_spec_same_key(self):
        assert spec().cache_key() == spec().cache_key()

    def test_key_is_hex_digest(self):
        key = spec().cache_key()
        assert len(key) == 64
        int(key, 16)

    @pytest.mark.parametrize(
        "change",
        [
            {"kind": "alone"},
            {"programs": ("lbm",)},
            {"programs": ("zeusmp", "zeusmp")},
            {"policy": "mdm"},
            {"requests": 801},
            {"seed": 1},
            {"trace_scale": SCALE * 2},
            {"track_rsm_regions": True},
        ],
    )
    def test_any_field_change_changes_key(self, change):
        assert spec(**change).cache_key() != spec().cache_key()

    def test_config_change_changes_key(self):
        tweaked = replace(CONFIG, mdm=MDMConfig(min_benefit=9.0))
        assert spec(config=tweaked).cache_key() != spec().cache_key()

    def test_key_stable_across_config_rebuild(self):
        # A freshly built but identical config hashes identically (the
        # old repr()-based token was only identity-stable by accident).
        assert (
            spec(config=paper_single_core(scale=SCALE)).cache_key()
            == spec().cache_key()
        )

    def test_cache_token_equals_for_equal_configs(self):
        assert (
            paper_quad_core(scale=SCALE).cache_token()
            == paper_quad_core(scale=SCALE).cache_token()
        )
        assert (
            paper_quad_core(scale=SCALE).cache_token()
            != paper_single_core(scale=SCALE).cache_token()
        )

    def test_specs_are_hashable(self):
        assert len({spec(), spec(), spec(policy="mdm")}) == 2

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            spec(kind="bogus")


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec()
        assert cache.get(s) is None
        result = execute_spec(s)
        cache.put(s, result)
        restored = cache.get(s)
        assert restored is not None
        assert restored.to_dict() == result.to_dict()
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "quarantined": 0,
            "store_errors": 0,
        }

    def test_version_mismatch_is_miss(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        s = spec()
        cache.put(s, execute_spec(s))
        monkeypatch.setattr(cache_module, "CACHE_VERSION", CACHE_VERSION + 1)
        assert cache.get(s) is None
        assert cache.misses == 1

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec()
        cache.put(s, execute_spec(s))
        cache._path(s.cache_key()).write_text("{not json")
        assert cache.get(s) is None

    def test_truncated_entry_quarantined_once(self, tmp_path):
        # A process killed mid-write leaves a partial payload: the entry
        # must read as a miss, move to quarantine/ exactly once, and
        # never raise on later lookups.
        cache = ResultCache(tmp_path)
        s = spec()
        path = cache.put(s, execute_spec(s))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.get(s) is None
        assert cache.quarantined == 1
        assert cache.quarantine_count() == 1
        assert not path.exists()  # moved, not copied
        # The next lookup is a plain miss: nothing new to quarantine.
        assert cache.get(s) is None
        assert cache.quarantined == 1

    def test_digest_tamper_is_quarantined_miss(self, tmp_path):
        import json as json_module

        cache = ResultCache(tmp_path)
        s = spec()
        path = cache.put(s, execute_spec(s))
        payload = json_module.loads(path.read_text())
        payload["result"]["total_cycles"] = 12345  # bit-flip the payload
        path.write_text(json_module.dumps(payload))
        assert cache.get(s) is None
        assert cache.quarantined == 1

    def test_read_only_cache_never_raises(self, tmp_path, monkeypatch):
        # chmod is unreliable under root, so a read-only directory is
        # simulated at the rename layer every mutation funnels through.
        cache = ResultCache(tmp_path)
        s = spec()
        result = execute_spec(s)
        cache.put(s, result)
        cache._path(s.cache_key()).write_text("{not json")
        monkeypatch.setattr(
            cache_module.os,
            "replace",
            lambda *args: (_ for _ in ()).throw(PermissionError("read-only")),
        )
        # Corrupt entry in a read-only directory: quarantine is
        # impossible, but the lookup must still be a quiet miss.
        assert cache.get(s) is None
        assert cache.quarantined == 0
        # And writes degrade to counted no-ops instead of raising.
        cache.put(s, result)
        assert cache.store_errors == 1

    def test_concurrent_put_get_two_processes(self, tmp_path):
        # Two processes hammering the same entry: atomic temp+rename
        # writes mean every read sees a complete payload or a miss.
        import multiprocessing

        s = spec()
        result = execute_spec(s)
        context = multiprocessing.get_context("spawn")
        with context.Pool(2) as pool:
            outcomes = pool.starmap(
                _cache_worker,
                [(str(tmp_path), 0), (str(tmp_path), 1)],
            )
        assert all(outcome == "ok" for outcome in outcomes)
        restored = ResultCache(tmp_path).get(s)
        assert restored is not None
        assert restored.to_dict() == result.to_dict()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec()
        cache.put(s, execute_spec(s))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_policy_stats_survive_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec(policy="profess", programs=("zeusmp",), requests=1200)
        result = execute_spec(s)
        cache.put(s, result)
        restored = cache.get(s)
        assert restored.policy_stats is not None
        assert restored.policy_stats.name == "profess"
        assert restored.policy_stats.case_counts == (
            result.policy_stats.case_counts
        )

    def test_rsm_history_survives_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        s = spec(requests=1500, track_rsm_regions=True)
        result = execute_spec(s)
        cache.put(s, result)
        restored = cache.get(s)
        history = restored.extra["rsm_history"]
        assert [h.program for h in history] == [
            h.program for h in result.extra["rsm_history"]
        ]


class TestExecutor:
    def _specs(self):
        return [
            spec(programs=(p,), policy=policy, requests=600)
            for p in ("zeusmp", "lbm")
            for policy in ("pom", "mdm")
        ]

    def test_results_align_with_submission_order(self):
        specs = self._specs()
        results = Executor(jobs=1).run_many(specs)
        assert [r.policy for r in results] == ["pom", "mdm", "pom", "mdm"]
        assert results[0].program(0).name == "zeusmp"
        assert results[2].program(0).name == "lbm"

    def test_duplicates_execute_once(self):
        executor = Executor(jobs=1)
        results = executor.run_many([spec(), spec(), spec()])
        assert executor.executed == 1
        assert results[0] is results[1] is results[2]

    @pytest.mark.parametrize(
        "jobs, streamed",
        [(2, False), (1, True), (2, True)],
        ids=["pooled", "serial-reducer", "pooled-reducer"],
    )
    def test_parallel_identical_to_serial(self, jobs, streamed):
        # Pooled waves, and waves folded through a reducer, yield the
        # byte-identical results of a serial run_many.
        specs = self._specs()
        serial = Executor(jobs=1).run_many(specs)
        expected = {
            s.cache_key(): result_digest(r) for s, r in zip(specs, serial)
        }
        executor = Executor(jobs=jobs)
        if streamed:
            reducer = ListReducer()
            wave = executor.run_wave(specs, reducer=reducer)
            assert wave.results == [None] * len(specs)
            digests = {
                key: result_digest(r) for key, r in reducer.by_key.items()
            }
        else:
            results = executor.run_many(specs)
            digests = {
                s.cache_key(): result_digest(r)
                for s, r in zip(specs, results)
            }
        assert digests == expected
        assert executor.executed == len(specs)

    def test_events_reported(self, tmp_path):
        events = []
        cache = ResultCache(tmp_path)
        executor = Executor(jobs=1, cache=cache, on_run=events.append)
        executor.run(spec())
        executor2 = Executor(jobs=1, cache=cache, on_run=events.append)
        executor2.run(spec())
        assert [e.source for e in events] == ["serial", "cache"]
        assert executor2.executed == 0


class TestRunnerIntegration:
    def test_prefetch_memoizes(self):
        runner = ExperimentRunner(
            scale=SCALE, multi_requests=600, single_requests=600
        )
        specs = [
            runner.spec_single("zeusmp", "pom"),
            runner.spec_single("zeusmp", "mdm"),
        ]
        runner.prefetch(specs)
        assert runner.executor.executed == 2
        first = runner.run_single("zeusmp", "pom")
        assert runner.executor.executed == 2  # served from the memo
        assert first is runner.run_single("zeusmp", "pom")

    def test_parallel_figure_matches_serial(self, tmp_path):
        """jobs=2 produces results identical to serial for one figure."""
        kwargs = dict(scale=SCALE, multi_requests=700, single_requests=700)
        serial = run_experiment("fig7", ExperimentRunner(**kwargs))
        parallel_runner = ExperimentRunner(
            jobs=2, cache_dir=tmp_path / "cache", **kwargs
        )
        parallel = run_experiment("fig7", parallel_runner)
        assert parallel.render() == serial.render()
        # And a warm rerun from disk is also identical, with no new sims.
        warm_runner = ExperimentRunner(
            jobs=2, cache_dir=tmp_path / "cache", **kwargs
        )
        warm = run_experiment("fig7", warm_runner)
        assert warm.render() == serial.render()
        assert warm_runner.executor.executed == 0
