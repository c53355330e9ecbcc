"""Columnar request batches and backend dispatch (DESIGN.md §14).

Covers the SoA :class:`RequestBatch` container, backend resolution
(``auto``/``python``/``compiled`` with the fallback when the compiled
core cannot be built), the build itself, the cache-key exclusion
contract, and — most importantly — byte identity of simulation results
across backends.
"""

import gc
import multiprocessing
import random
import shutil
import subprocess
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from repro.common.config import (
    MEM_BACKENDS,
    ConfigError,
    EnergyConfig,
    MemTimings,
    paper_quad_core,
    paper_single_core,
)
from repro.common.errors import InvalidValueError
from repro.common.events import EventQueue
from repro.exec.spec import RunSpec
from repro.cli import main
from repro.mem import backend
from repro.mem.backend import (
    build_extension,
    channel_extension,
    compiled_available,
    extension_path,
    load_extension,
    resolve_backend,
)
from repro.mem.batch import INITIAL_CAPACITY, NO_ROW, RequestBatch
from repro.mem.channel import Channel
from repro.mem.power import EnergyMeter
from repro.mem.request import DeviceAddress, MemRequest, Module, RequestKind
from repro.sim.engine import SimulationDriver
from repro.traces.generator import synthesize_trace


class TestRequestBatch:
    def test_push_records_columns_in_arrival_order(self):
        batch = RequestBatch()
        first = batch.push(3, 40, 0, 100, 0, None)
        second = batch.push(7, 41, 1, 101, 2, None)
        assert len(batch) == 2
        assert list(batch.order_v[:2]) == [first, second]
        assert batch.bank_key_v[first] == 3
        assert batch.row_v[second] == 41
        assert batch.is_write_v[second] == 1
        assert batch.arrival_v[first] == 100
        assert batch.kind_v[second] == 2

    def test_pop_at_preserves_fifo_of_remainder(self):
        batch = RequestBatch()
        slots = [batch.push(0, row, 0, 0, 0, None) for row in range(4)]
        popped = batch.pop_at(1)
        assert popped == slots[1]
        assert list(batch.order_v[: batch.count]) == [
            slots[0],
            slots[2],
            slots[3],
        ]

    def test_release_recycles_slot_and_clears_payload(self):
        batch = RequestBatch()
        slot = batch.push(0, 1, 0, 0, 0, lambda now: None, origin=object())
        batch.pop_at(0)
        batch.release(slot)
        assert batch.callbacks[slot] is None
        assert batch.origins[slot] is None
        assert batch.free[-1] == slot  # LIFO reuse
        assert batch.push(0, 2, 0, 0, 0, None) == slot

    def test_grow_doubles_capacity_and_keeps_entries(self):
        batch = RequestBatch(capacity=2)
        slots = [batch.push(bank, bank * 10, 0, 0, 0, None) for bank in range(3)]
        assert batch.capacity == 4
        assert list(batch.order_v[:3]) == slots
        assert [int(batch.bank_key_v[s]) for s in slots] == [0, 1, 2]
        # Views were rebound onto the grown arrays.
        assert len(batch.bank_key_v) == 4
        assert len(batch.callbacks) == 4

    def test_default_capacity(self):
        assert RequestBatch().capacity == INITIAL_CAPACITY

    def test_no_row_sentinel_is_outside_the_st_row_namespace(self):
        # ST rows use a negative namespace (-1 - k): the sentinel must
        # never collide with a representable row id.
        assert NO_ROW < -(1 << 40)


needs_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled channel core unavailable"
)


@pytest.fixture
def failed_build(monkeypatch, tmp_path):
    """A fresh build directory whose compiler run fails."""

    def broken(source, target):
        raise subprocess.CalledProcessError(
            1, ["cc"], stderr="_channel.c:1: error: injected\n"
        )

    monkeypatch.setattr(backend, "_BUILD_DIR", tmp_path)
    monkeypatch.setattr(backend, "build_extension", broken)
    backend._extension.cache_clear()
    yield
    backend._extension.cache_clear()


class TestBackendResolution:
    def test_explicit_backends_are_honored(self):
        assert resolve_backend("python") == "python"
        if compiled_available():
            assert resolve_backend("compiled") == "compiled"

    def test_auto_is_compiled_iff_the_extension_loads(self):
        expected = "compiled" if channel_extension() is not None else "python"
        assert resolve_backend("auto") == expected

    def test_failed_build_falls_back_or_raises(self, failed_build):
        assert not compiled_available()
        assert resolve_backend("auto") == "python"
        with pytest.raises(InvalidValueError, match="injected"):
            resolve_backend("compiled")

    def test_cli_exits_two_when_compiled_cannot_build(
        self, failed_build, capsys
    ):
        assert main(["golden", "--mem-backend", "compiled"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "'compiled' is unavailable" in err

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidValueError):
            resolve_backend("fortran")

    def test_every_config_backend_resolves(self):
        for name in MEM_BACKENDS:
            if name == "compiled" and not compiled_available():
                continue
            assert resolve_backend(name) in ("python", "compiled")

    def test_config_validates_backend(self):
        with pytest.raises(ConfigError):
            replace(paper_single_core(scale=128), mem_backend="fortran")


class TestCacheKeyExclusion:
    def test_cache_token_ignores_backend(self):
        config = paper_single_core(scale=128)
        for backend in MEM_BACKENDS:
            assert (
                replace(config, mem_backend=backend).cache_token()
                == config.cache_token()
            )

    def test_run_spec_cache_key_ignores_backend(self):
        config = paper_single_core(scale=128)

        def spec(backend):
            return RunSpec(
                kind="single",
                programs=("zeusmp",),
                policy="pom",
                config=replace(config, mem_backend=backend),
                requests=500,
                seed=0,
                trace_scale=128,
            )

        keys = {spec(backend).cache_key() for backend in MEM_BACKENDS}
        assert len(keys) == 1


def _driver(mem_backend=None, quad=False, requests=500):
    if quad:
        config = paper_quad_core(scale=128)
        programs = ["zeusmp", "leslie3d", "mcf", "libquantum"]
        policy = "profess"
    else:
        config = paper_single_core(scale=128)
        programs = ["zeusmp"]
        policy = "pom"
    traces = [
        (program, synthesize_trace(program, requests, scale=128, seed=seed))
        for seed, program in enumerate(programs)
    ]
    return SimulationDriver(
        config, policy, traces, seed=0, mem_backend=mem_backend
    )


@needs_compiled
class TestBuild:
    def test_concurrent_builds_both_succeed(self, tmp_path):
        # Two pool workers building into one directory at once: each
        # compiles to its own temporary file and renames it into place.
        target = extension_path(backend._SOURCE, tmp_path)
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            builds = [
                pool.submit(build_extension, backend._SOURCE, target)
                for _ in range(2)
            ]
            for build in builds:
                build.result(timeout=120)
        assert [path.name for path in tmp_path.iterdir()] == [target.name]
        assert hasattr(load_extension(target), "ChannelCore")

    def test_existing_build_loads_without_compiling(
        self, monkeypatch, tmp_path
    ):
        build_extension(backend._SOURCE, extension_path(backend._SOURCE, tmp_path))

        def no_compiler(source, target):
            raise AssertionError("compiler ran for an existing build")

        monkeypatch.setattr(backend, "_BUILD_DIR", tmp_path)
        monkeypatch.setattr(backend, "build_extension", no_compiler)
        backend._extension.cache_clear()
        try:
            assert channel_extension() is not None
        finally:
            backend._extension.cache_clear()

    def test_build_is_keyed_by_source_content(self, tmp_path):
        source = tmp_path / "_channel.c"
        shutil.copy(backend._SOURCE, source)
        before = extension_path(source, tmp_path)
        source.write_text(source.read_text() + "\n/* edited */\n")
        assert extension_path(source, tmp_path) != before


@needs_compiled
class TestBackendParity:
    """The tentpole contract: backends are byte-identical."""

    def test_driver_override_wins_over_config_default(self):
        driver = _driver(mem_backend="python")
        assert all(
            channel.backend == "python"
            for channel in driver.controller.channels
        )
        driver = _driver(mem_backend="compiled")
        assert all(
            channel.backend == "compiled"
            for channel in driver.controller.channels
        )

    def test_single_core_results_identical(self):
        python = _driver(mem_backend="python").run()
        compiled = _driver(mem_backend="compiled").run()
        assert python.to_dict() == compiled.to_dict()

    def test_quad_core_results_identical(self):
        # Swaps, ST fetches/writebacks, and channel contention all cross
        # the backend boundary in the quad mix.
        python = _driver(mem_backend="python", quad=True, requests=400).run()
        compiled = _driver(
            mem_backend="compiled", quad=True, requests=400
        ).run()
        assert python.to_dict() == compiled.to_dict()

    @pytest.mark.parametrize("mem_backend", ["python", "compiled"])
    def test_finished_driver_channels_are_collected(self, mem_backend):
        # The compiled core holds its own bound tick (a reference
        # cycle), so only cyclic GC can free a finished run's channels.
        driver = _driver(mem_backend=mem_backend)
        driver.run()
        channels = driver.controller.channels
        refs = [weakref.ref(channel) for channel in channels]
        refs += [
            weakref.ref(channel._core)
            for channel in channels
            if channel._core is not None
        ]
        del driver, channels
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)


M1 = MemTimings.dram()
M2 = MemTimings.nvm_from_dram()
BANKS = 4


def _random_channel_run(backend_name, seed):
    """Drive one channel through a seeded random op sequence.

    Bursts of reads, writes, ST reads and ST writes (deep enough to grow
    a queue past 64 slots and to push posted writes past the 32-entry
    acceptance cap), swaps, compat ``MemRequest`` enqueues, and gaps
    that cross refresh intervals.  Returns everything observable.
    """
    rng = random.Random(seed)
    events = EventQueue()
    meter = EnergyMeter(EnergyConfig(), num_channels=1)
    channel = Channel(
        events=events,
        m1_timings=M1,
        m2_timings=M2,
        banks_per_rank=BANKS,
        frfcfs_cap=4,
        energy=meter,
        swap_latency=600,
        row_idle_close=480,
        backend=backend_name,
    )
    log = []
    origins = []
    depth = [0]
    #: Tag -> enqueue cycle of posted writes with an acceptance callback.
    posted = {}

    def record(tag):
        return lambda cycle: log.append((cycle, tag))

    def burst(step, size):
        def action(cycle):
            for index in range(size):
                tag = f"{step}.{index}"
                kind = rng.choice(
                    [RequestKind.DATA] * 4
                    + [RequestKind.ST_READ, RequestKind.ST_WRITE]
                )
                if kind == RequestKind.DATA:
                    is_write = rng.random() < 0.4
                else:
                    is_write = kind == RequestKind.ST_WRITE
                key = rng.randrange(2 * BANKS)
                row = rng.randrange(4) if kind == RequestKind.DATA else -1
                roll = rng.random()
                if roll < 0.1:
                    request = MemRequest(
                        core_id=0,
                        address=DeviceAddress(
                            Module(key // BANKS), key % BANKS, row
                        ),
                        is_write=is_write,
                        arrival=cycle,
                        kind=kind,
                        on_complete=record(tag),
                    )
                    origins.append(request)
                    channel.enqueue(request)
                elif roll < 0.2:
                    # Five arguments, as the controller's ST write-back.
                    channel.submit(key, row, is_write, cycle, int(kind))
                else:
                    channel.submit(
                        key, row, is_write, cycle, int(kind), record(tag)
                    )
                    if is_write:
                        posted[tag] = cycle
            depth[0] = max(depth[0], channel.queue_depth())

        return action

    def swap(step):
        def action(cycle):
            channel.schedule_swap(
                rng.randrange(BANKS), rng.randrange(4),
                rng.randrange(BANKS), rng.randrange(4),
                on_complete=record(f"swap{step}") if rng.random() < 0.5 else None,
            )

        return action

    cycle = 0
    for step in range(60):
        roll = rng.random()
        if roll < 0.1:
            cycle += M1.t_refi + rng.randrange(2000)
        else:
            cycle += rng.randrange(1, 400)
        if roll > 0.85:
            events.schedule(cycle, swap(step))
        else:
            size = rng.choice([1, 2, 5, 12, 40, 90])
            events.schedule(cycle, burst(step, size))
    events.run()
    stats = channel.stats
    return {
        "log": log,
        "stats": {name: getattr(stats, name) for name in stats.__slots__},
        "energy": (
            list(meter.activates), list(meter.line_reads),
            list(meter.line_writes), meter.refreshes,
        ),
        "banks": [
            column.tolist()
            for column in (channel._open_row, channel._ready_at,
                           channel._dirty, channel._closed_until)
        ],
        "origins": [(r.completion, r.row_hit) for r in origins],
        "seq": events._seq,
        "now": events.now,
        "max_depth": depth[0],
        "late_acceptances": sum(
            1 for cycle, tag in log if tag in posted and cycle > posted[tag]
        ),
    }


@needs_compiled
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_op_sequence_parity(seed):
    python = _random_channel_run("python", seed)
    compiled = _random_channel_run("compiled", seed)
    # The sequence reaches the regimes it is meant to cover.
    assert python["max_depth"] > 64
    assert python["late_acceptances"] > 0  # write backpressure past 32
    stats = python["stats"]
    assert stats["refreshes"] > 0 and stats["swaps"] > 0
    assert stats["st_reads"] > 0 and stats["st_writes"] > 0
    assert python["origins"] and python["log"]
    for name in python:
        assert compiled[name] == python[name], name
