"""Streaming aggregation suite: reducers, grouping, and equivalence.

The contract under test (DESIGN.md §17): **streamed reduction equals
materialize-then-reduce**.  For any completion order, any retry
schedule, and any subset of failed specs, folding results one at a time
through a reducer must leave exactly the state that materializing the
whole wave and reducing it afterwards would have produced.

* unit tests pin :class:`GroupReducer`'s refcounting — results are held
  only while an unfinished group needs them, failures poison exactly the
  groups that need the failed key (including groups declared later);
* a hypothesis property drives random group structures through random
  completion/failure interleavings against a brute-force reference;
* an end-to-end test runs a real figure sweep streamed and compares it
  cell for cell with per-cell ``workload_metrics`` on a fresh runner,
  then that the runner's metrics memo makes re-sweeps free;
* a streamed wave keeps no result in the parent and folds every key
  exactly once (the parent's memory stays flat however wide the wave).
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import paper_single_core
from repro.exec import Executor, ResultCache
from repro.exec import executor as executor_module
from repro.exec.resilience import RunFailure
from repro.exec.spec import RunSpec
from repro.exec.streaming import GroupReducer, ListReducer
from repro.experiments.multi import sweep
from repro.experiments.runner import ExperimentRunner

KEYS = [f"{c}" * 64 for c in "abcdefgh"]

SWEEP_PROGRAMS = ("zeusmp", "leslie3d", "mcf", "libquantum", "lbm", "omnetpp")


def build_sweep_specs(count: int) -> list[RunSpec]:
    """``count`` small single-core specs with distinct cache keys.

    Programs cycle, policies alternate, and the seed advances once per
    program cycle, so nothing deduplicates away.
    """
    config = paper_single_core(scale=128)
    return [
        RunSpec(
            kind="single",
            programs=(SWEEP_PROGRAMS[index % len(SWEEP_PROGRAMS)],),
            policy=("pom", "mdm")[index % 2],
            config=config,
            requests=300,
            seed=index // len(SWEEP_PROGRAMS),
            trace_scale=128,
        )
        for index in range(count)
    ]


def failure_for(key: str) -> RunFailure:
    return RunFailure(
        key=key,
        label=f"fake:{key[:4]}",
        error_type="ChaosError",
        message="injected",
        traceback_digest="0123456789ab",
        attempts=1,
        retryable=False,
    )


class Recording(GroupReducer):
    """Captures hook firings so tests can assert exactly-once delivery."""

    def __init__(self):
        super().__init__()
        self.completions: dict[str, dict[str, object]] = {}
        self.failures: dict[str, RunFailure] = {}

    def group_completed(self, group_id, results):
        assert group_id not in self.completions, "hook fired twice"
        self.completions[group_id] = dict(results)

    def group_failed(self, group_id, failure):
        assert group_id not in self.failures, "hook fired twice"
        self.failures[group_id] = failure


class TestGroupReducer:
    def test_group_resolves_when_last_key_lands(self):
        reducer = Recording()
        reducer.add_group("g", [KEYS[0], KEYS[1]])
        reducer.fold(KEYS[0], None, "r0")
        assert reducer.completions == {}
        reducer.fold(KEYS[1], None, "r1")
        assert reducer.completions == {"g": {KEYS[0]: "r0", KEYS[1]: "r1"}}
        assert reducer.held_count == 0

    def test_shared_key_released_with_last_group(self):
        # A stand-alone reference run is needed by many cells; it must
        # stay held until the last interested group resolves, then drop.
        reducer = Recording()
        reducer.add_group("g1", [KEYS[0], KEYS[1]])
        reducer.add_group("g2", [KEYS[0], KEYS[2]])
        reducer.fold(KEYS[0], None, "shared")
        assert reducer.held_count == 1
        reducer.fold(KEYS[1], None, "r1")
        assert "g1" in reducer.completions
        assert reducer.held_count == 1  # g2 still needs KEYS[0]
        reducer.fold(KEYS[2], None, "r2")
        assert reducer.completions["g2"][KEYS[0]] == "shared"
        assert reducer.held_count == 0

    def test_uninteresting_keys_never_held(self):
        reducer = Recording()
        reducer.add_group("g", [KEYS[0]])
        reducer.fold(KEYS[1], None, "nobody asked")
        assert reducer.held_count == 0

    def test_group_after_keys_resolves_synchronously(self):
        reducer = Recording()
        reducer.add_group("early", [KEYS[0]])
        # Hold KEYS[0] alive for a later group via a second declaration.
        reducer.add_group("keeper", [KEYS[0], KEYS[1]])
        reducer.fold(KEYS[0], None, "r0")
        assert "early" in reducer.completions
        reducer.add_group("late", [KEYS[0], KEYS[1]])
        reducer.fold(KEYS[1], None, "r1")
        assert "late" in reducer.completions
        assert reducer.held_count == 0

    def test_failure_poisons_current_and_future_groups(self):
        reducer = Recording()
        reducer.add_group("now", [KEYS[0], KEYS[1]])
        reducer.fold_failure(failure_for(KEYS[0]))
        assert "now" in reducer.failures
        # The failed key is remembered: a group declared afterwards that
        # needs it fails at declaration time.
        reducer.add_group("later", [KEYS[0], KEYS[2]])
        assert "later" in reducer.failures
        assert reducer.held_count == 0

    def test_failure_releases_held_results(self):
        reducer = Recording()
        reducer.add_group("g", [KEYS[0], KEYS[1]])
        reducer.fold(KEYS[0], None, "r0")
        assert reducer.held_count == 1
        reducer.fold_failure(failure_for(KEYS[1]))
        assert "g" in reducer.failures
        assert reducer.held_count == 0

    def test_duplicate_group_id_rejected(self):
        reducer = Recording()
        reducer.add_group("g", [KEYS[0]])
        with pytest.raises(ValueError):
            reducer.add_group("g", [KEYS[1]])

    def test_list_reducer_is_order_independent(self):
        forward, backward = ListReducer(), ListReducer()
        for key in KEYS:
            forward.fold(key, None, key[:4])
        for key in reversed(KEYS):
            backward.fold(key, None, key[:4])
        assert forward.by_key == backward.by_key


# ----------------------------------------------------------------------
# Property: any interleaving == materialize-then-reduce
# ----------------------------------------------------------------------
@st.composite
def wave_scenarios(draw):
    """Random group structure + completion/failure interleaving."""
    keys = draw(
        st.lists(st.sampled_from(KEYS), min_size=1, max_size=8, unique=True)
    )
    n_groups = draw(st.integers(min_value=1, max_value=6))
    groups = {
        f"g{i}": draw(
            st.lists(
                st.sampled_from(keys), min_size=1, max_size=len(keys),
                unique=True,
            )
        )
        for i in range(n_groups)
    }
    failed = draw(st.sets(st.sampled_from(keys)))
    order = draw(st.permutations(keys))
    return groups, failed, order


@given(wave_scenarios())
@settings(max_examples=200, deadline=None)
def test_streamed_equals_materialized(scenario):
    groups, failed, order = scenario
    reducer = Recording()
    for group_id, members in groups.items():
        reducer.add_group(group_id, list(members))
    # Stream the wave in the drawn completion order: each key lands
    # exactly once, as a result or as a terminal failure (which is what
    # the executor's exactly-once sink guarantees even under retries).
    for key in order:
        if key in failed:
            reducer.fold_failure(failure_for(key))
        else:
            reducer.fold(key, None, f"result:{key[:4]}")

    # The materialized reference: group outcomes from global knowledge.
    for group_id, members in groups.items():
        if any(key in failed for key in members):
            assert group_id in reducer.failures
            assert group_id not in reducer.completions
        else:
            assert reducer.completions[group_id] == {
                key: f"result:{key[:4]}" for key in members
            }
            assert group_id not in reducer.failures
    # Every key was delivered, so nothing can still be held.
    assert reducer.held_count == 0
    assert set(reducer.completed_groups) == set(reducer.completions)
    assert set(reducer.failed_groups) == set(reducer.failures)


# ----------------------------------------------------------------------
# End-to-end: a real figure sweep, streamed vs per-cell metrics
# ----------------------------------------------------------------------
WORKLOADS = ["w01", "w02"]
POLICIES = ["pom", "mdm"]


def small_runner(**overrides) -> ExperimentRunner:
    params = dict(
        scale=128, multi_requests=500, single_requests=500, seed=0
    )
    params.update(overrides)
    return ExperimentRunner(**params)


class TestSweepEquivalence:
    def test_streamed_sweep_matches_materialized(self):
        streamed = sweep(small_runner(jobs=2), POLICIES, WORKLOADS)
        runner = small_runner()
        assert streamed == {
            name: {
                policy: runner.workload_metrics(name, policy)
                for policy in POLICIES
            }
            for name in WORKLOADS
        }

    def test_metrics_memo_makes_resweep_free(self):
        runner = small_runner(jobs=2)
        sweep(runner, POLICIES, WORKLOADS)
        executed = runner.executor.executed
        assert executed > 0
        again = sweep(runner, POLICIES, WORKLOADS)
        assert runner.executor.executed == executed  # zero new sims
        assert runner.metrics_memory_hits >= len(WORKLOADS) * len(POLICIES)
        assert again == sweep(runner, POLICIES, WORKLOADS)


# ----------------------------------------------------------------------
# Memory: a streamed wave retains nothing in the parent
# ----------------------------------------------------------------------
class CountingFolds:
    """Counts folds per key and keeps no result."""

    def __init__(self):
        self.folds = Counter()
        self.failures = []

    def fold(self, key, spec, result):
        self.folds[key] += 1

    def fold_failure(self, failure):
        self.failures.append(failure)


class TestWaveRetention:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_reducer_wave_keeps_no_result(self, jobs, tmp_path, monkeypatch):
        # A wave that re-materialized its results in the parent would
        # fill the sink's by_key or the WaveResult, whatever its RSS did.
        sinks = []

        class RecordingSink(executor_module._WaveSink):
            def __init__(self, reducer=None):
                super().__init__(reducer)
                sinks.append(self)

        monkeypatch.setattr(executor_module, "_WaveSink", RecordingSink)
        specs = build_sweep_specs(6)
        cache = ResultCache(tmp_path)
        Executor(cache=cache).run_many(specs[:2])  # two cache hits
        reducer = CountingFolds()
        wave = Executor(jobs=jobs, cache=cache).run_wave(
            specs + specs[::2], reducer=reducer
        )
        assert wave.failures == [] and reducer.failures == []
        assert wave.results == [None] * len(specs + specs[::2])
        assert sinks[-1].by_key == {}
        assert reducer.folds == Counter(
            {spec.cache_key(): 1 for spec in specs}
        )
