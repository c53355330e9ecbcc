"""The benchmark's workloads, driven through the package's public API.

Each workload has four phases, all run inside one fresh interpreter (see
``rep.py``):

* ``setup(seed, work_dir)`` builds the inputs (untimed, but measured as
  ``setup_s`` from interpreter start);
* ``run()`` is the timed cold phase and returns the simulated demand
  requests it served;
* ``warm()`` is one timed pass over the same work with its result
  already cached;
* ``check(expected)`` returns one message per output mismatch (never
  raises), and ``attempted`` is the number of specs the cold phase ran.

Simulated statistics are deterministic in (config, seed), so every check
is exact: a speed-up that changes one simulated bit fails it.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from repro.common.config import paper_single_core
from repro.exec import Executor, ResultCache, RunJournal, RunSpec
from repro.exec.executor import execute_spec
from repro.exec.spec import build_traces
from repro.experiments import registry
from repro.experiments.runner import ExperimentRunner
from repro.sim.engine import SimulationDriver
from repro.sim.golden import result_digest
from repro.sim.validation import ValidationError, validate_controller
from repro.workloads.table9 import PROGRAMS

#: Worker processes for the pool workloads (the ROADMAP's `--jobs 2`).
JOBS = 2


class SpecLog:
    """``Executor.on_run`` collector: what each completed spec cost."""

    def __init__(self) -> None:
        #: (source, elapsed seconds, simulated requests) per completion.
        self.events: list[tuple[str, float, int]] = []

    def __call__(self, event) -> None:
        self.events.append(
            (event.source, event.elapsed, event.result.total_requests)
        )

    def executed(self) -> list[tuple[str, float, int]]:
        return [event for event in self.events if event[0] != "cache"]


class CountingReducer:
    """Streaming reducer that counts served requests.

    It also keeps each result by key, so the warm pass can be checked
    against the cold pass result by result.
    """

    def __init__(self) -> None:
        self.results: dict = {}
        self.requests = 0
        self.failures: list = []

    def fold(self, key, spec, result) -> None:
        self.results[key] = result
        self.requests += result.total_requests

    def fold_failure(self, failure) -> None:
        self.failures.append(failure)


class W01Profess:
    """One Table 10 w01 run under ProFess, in-process, no executor."""

    name = "w01-profess"
    pooled = False
    #: The runner defaults, pinned: a later change to them must not
    #: silently change the benchmark.
    scale = 64
    requests = 50_000
    #: A warm pass takes a few milliseconds: enough passes to span
    #: most of a second.
    warm_passes = 200

    def setup(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        runner = ExperimentRunner(
            scale=self.scale, multi_requests=self.requests, seed=seed
        )
        self.spec = runner.spec_workload("w01", "profess")
        self.cache = ResultCache(work_dir / "cache")
        self.log = SpecLog()
        spec = self.spec
        # Exactly the driver execute_spec builds, so results are
        # interchangeable with any executor's.
        self.driver = SimulationDriver(
            spec.config,
            spec.policy,
            build_traces(spec),
            seed=spec.seed,
            track_rsm_regions=spec.track_rsm_regions,
            validate_every=spec.validate_every,
        )
        self.attempted = 1

    def run(self) -> int:
        self.result = self.driver.run()
        return self.result.total_requests

    def sim_seconds(self, wall_s: float) -> float:
        return wall_s

    def exec_counts(self) -> tuple[int, int]:
        return 0, 0

    def before_warm(self) -> None:
        self.cache.put(self.spec, self.result)

    def warm(self) -> None:
        # A rerun of the same spec through the cached executor path: the
        # result is read, verified and decoded from disk.
        self.warm_result = Executor(cache=self.cache).run(self.spec)

    def check(self, expected: dict) -> list[str]:
        problems = []
        result = self.result
        try:
            validate_controller(self.driver.controller)
        except ValidationError as error:
            problems.append(f"controller invariant violated: {error}")
        served = sum(program.requests for program in result.programs)
        if served != result.total_requests:
            problems.append(
                f"per-program requests sum to {served}, "
                f"total_requests is {result.total_requests}"
            )
        digest = result_digest(result)
        if result_digest(self.warm_result) != digest:
            problems.append("cached (warm) result differs from the cold run")
        want = expected.get(self.name, {}).get(str(self.seed))
        if want is not None and want["result_digest"] != digest:
            problems.append(
                f"result_digest {digest} != recorded {want['result_digest']}"
            )
        return problems


class Fig5Cold:
    """`run_experiment("fig5")` at --jobs 2 into an empty result cache.

    Called through its module, so the traced run's wrapper is the one
    that runs.
    """

    name = "fig5-cold"
    pooled = True
    scale = 64
    requests = 60_000
    warm_passes = 20

    def setup(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.cache_dir = work_dir / "cache"
        self.runner = self._runner()
        self.log = SpecLog()
        self.runner.executor.on_run = self.log
        self.attempted = 0

    def _runner(self) -> ExperimentRunner:
        return ExperimentRunner(
            scale=self.scale,
            single_requests=self.requests,
            seed=self.seed,
            jobs=JOBS,
            cache_dir=self.cache_dir,
        )

    def run(self) -> int:
        self.artifact = registry.run_experiment("fig5", self.runner)
        executed = self.log.executed()
        self.attempted = len(executed) + len(self.runner.failures)
        return sum(requests for _source, _elapsed, requests in executed)

    def sim_seconds(self, wall_s: float) -> float:
        return sum(elapsed for _source, elapsed, _r in self.log.executed())

    def exec_counts(self) -> tuple[int, int]:
        return self.runner.executor.retried, len(self.runner.failures)

    def before_warm(self) -> None:
        pass

    def warm(self) -> None:
        # A fresh runner has no in-process memo: every run is a disk hit.
        runner = self._runner()
        self.warm_artifact = registry.run_experiment("fig5", runner)
        self.warm_executed = runner.executor.executed

    def check(self, expected: dict) -> list[str]:
        problems = [
            f"spec failed: {failure.summary()}"
            for failure in self.runner.failures
        ]
        ratios = {program: ratio for program, ratio in self.artifact.rows}
        if len(ratios) != 9 or not all(
            math.isfinite(value) and value > 0 for value in ratios.values()
        ):
            problems.append(f"fig5 rows malformed: {ratios}")
        if self.warm_artifact.rows != self.artifact.rows:
            problems.append("warm (cached) fig5 rows differ from the cold run")
        if self.warm_executed:
            problems.append(
                f"warm pass simulated {self.warm_executed} runs, expected 0"
            )
        want = expected.get(self.name, {}).get(str(self.seed))
        if want is not None:
            for program, value in want["programs"].items():
                if ratios.get(program) != value:
                    problems.append(
                        f"fig5 {program}: {ratios.get(program)!r} "
                        f"!= recorded {value!r}"
                    )
            geomean = self.artifact.summary["geomean"]
            if geomean != want["geomean"]:
                problems.append(
                    f"fig5 geomean {geomean!r} != recorded {want['geomean']!r}"
                )
        return problems


FANOUT_SCALE = 128
FANOUT_REQUESTS = 300


def fanout_specs(seed: int, count: int = 1000) -> list[RunSpec]:
    """``count`` distinct tiny single-core specs drawn from ``seed``."""
    rng = random.Random(seed)
    config = paper_single_core(scale=FANOUT_SCALE)
    specs: dict[str, RunSpec] = {}
    while len(specs) < count:
        spec = RunSpec(
            kind="single",
            programs=(rng.choice(PROGRAMS),),
            policy=rng.choice(("mdm", "pom")),
            config=config,
            requests=FANOUT_REQUESTS,
            seed=rng.randrange(1 << 31),
            trace_scale=FANOUT_SCALE,
        )
        specs.setdefault(spec.cache_key(), spec)
    return list(specs.values())


class Fanout1k:
    """1000 tiny specs through Executor(jobs=2): dispatch, transport,
    cache and journal costs instead of simulation."""

    name = "fanout-1k"
    pooled = True
    warm_passes = 3
    #: Specs re-simulated in-process to check the pooled results.
    serial_sample = 8

    def setup(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.specs = fanout_specs(seed)
        self.cache = ResultCache(work_dir / "cache")
        self.journal = RunJournal.beside(work_dir / "cache")
        self.log = SpecLog()
        self.executor = self._executor()
        self.cold = CountingReducer()
        self.attempted = len(self.specs)

    def _executor(self) -> Executor:
        return Executor(
            jobs=JOBS, cache=self.cache, journal=self.journal, on_run=self.log
        )

    def run(self) -> int:
        self.executor.run_wave(self.specs, reducer=self.cold)
        return self.cold.requests

    def sim_seconds(self, wall_s: float) -> float:
        return sum(elapsed for _source, elapsed, _r in self.log.executed())

    def exec_counts(self) -> tuple[int, int]:
        return self.executor.retried, len(self.executor.failures)

    def before_warm(self) -> None:
        pass

    def warm(self) -> None:
        self.warm_reducer = CountingReducer()
        self.warm_executor = self._executor()
        self.warm_executor.run_wave(self.specs, reducer=self.warm_reducer)

    def check(self, expected: dict) -> list[str]:
        problems = [
            f"spec failed: {failure.summary()}"
            for failure in self.cold.failures + self.warm_reducer.failures
        ]
        if len(self.cold.results) != len(self.specs):
            problems.append(
                f"cold pass folded {len(self.cold.results)} of "
                f"{len(self.specs)} specs"
            )
        if self.warm_executor.executed:
            problems.append(
                f"warm pass simulated {self.warm_executor.executed} specs, "
                "expected 0"
            )
        for key, result in self.cold.results.items():
            warm = self.warm_reducer.results.get(key)
            if warm is None or result_digest(warm) != result_digest(result):
                problems.append(f"warm result for {key[:12]} differs from cold")
        sample = random.Random(self.seed).sample(self.specs, self.serial_sample)
        for spec in sample:
            pooled = self.cold.results.get(spec.cache_key())
            if pooled is None or result_digest(pooled) != result_digest(
                execute_spec(spec)
            ):
                problems.append(
                    f"pooled result for {spec.describe()} differs from an "
                    "in-process run"
                )
        return problems


WORKLOADS = {
    workload.name: workload for workload in (W01Profess, Fig5Cold, Fanout1k)
}
