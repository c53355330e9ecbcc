"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object as its last stdout line.
A fresh interpreter per repetition because trace synthesis is memoized
per process, ``ru_maxrss`` covers a process's whole life, and users pay
the import cost on every CLI run.

Usage: python3 perfbench/rep.py WORKLOAD SEED WORK_DIR [--trace] [--setup-only]
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402  (imports the package: part of setup_s)


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _exec_stats(workload, wall_s: float) -> dict:
    """Executor costs from the executor's own per-spec reports."""
    elapsed = sorted(seconds for _source, seconds, _r in workload.log.executed())
    busy = sum(elapsed)
    stats = {
        "exec.worker_busy_s": busy,
        "exec.worker_idle_frac": 0.0,
        "exec.overhead_per_spec_ms": 0.0,
        "exec.spec_elapsed_p50_ms": 0.0,
        "exec.spec_elapsed_p99_ms": 0.0,
    }
    if workload.pooled and elapsed:
        capacity = workloads.JOBS * wall_s
        stats.update({
            "exec.worker_idle_frac": 1.0 - busy / capacity,
            "exec.overhead_per_spec_ms": (capacity - busy) / len(elapsed) * 1e3,
            "exec.spec_elapsed_p50_ms": statistics.median(elapsed) * 1e3,
            "exec.spec_elapsed_p99_ms": _nearest_rank(elapsed, 0.99) * 1e3,
        })
    stats["exec.retries"], stats["exec.failures"] = workload.exec_counts()
    return stats


def _nearest_rank(ordered: list[float], quantile: float) -> float:
    return ordered[min(len(ordered) - 1, math.ceil(quantile * len(ordered)) - 1)]


def _host() -> dict:
    from repro.exec.transport import resolve_transport
    from repro.mem.backend import resolve_backend

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mem_backend": resolve_backend("auto"),
        "transport": resolve_transport("auto", workloads.JOBS),
    }


def main(argv: list[str]) -> dict:
    name, seed, work_dir = argv[0], int(argv[1]), Path(argv[2])
    tracer = None
    if "--trace" in argv:
        tracer = spans.Tracer(work_dir / "spans")
        tracer.install()
    workload = workloads.WORKLOADS[name]()
    if not workload.pooled:
        calib.pin()
    workload.setup(seed, work_dir)
    first_call = time.perf_counter()
    if "--setup-only" in argv:
        return {"first_call": first_call}

    cpu_before, delay_before = _cpu_seconds(), calib.run_delay_s()
    requests = workload.run()
    cold_end = time.perf_counter()
    wall_s = cold_end - first_call
    if not workload.pooled:
        # Less the time the calibration sampler held this process's core.
        wall_s -= calib.run_delay_s() - delay_before
    cpu_s = _cpu_seconds() - cpu_before

    workload.before_warm()
    # Each warm pass is followed by calibration units here, half its
    # length: short passes are tracked best by units right beside them,
    # and a table that fits the core's own caches keeps this process's
    # peak RSS the program's.
    table = calib.make_table(calib.SMALL_TABLE)
    warm_times = []
    warm_cal = []
    for _ in range(workload.warm_passes):
        started = time.perf_counter()
        workload.warm()
        warm_times.append(time.perf_counter() - started)
        warm_cal.append(calib.sample(warm_times[-1] / 2, table))
    record = {
        "first_call": first_call,
        "wall_s": wall_s,
        "requests": requests,
        "cpu_s": cpu_s,
        "warm_times": warm_times,
        # Where the cold phase lies on the host's monotonic clock, for
        # the runner's calibration samples (calib.py).
        "cold_window": [first_call, cold_end],
        "warm_unit_s": sum(s for s, _n in warm_cal) / sum(n for _s, n in warm_cal),
        "peak_rss_mib": _peak_rss_mib(resource.RUSAGE_SELF),
        # In-process workloads simulate in this process, pool workloads
        # in reaped workers: the largest process that simulated.
        "worker_peak_rss_mib": _peak_rss_mib(
            resource.RUSAGE_CHILDREN if workload.pooled else resource.RUSAGE_SELF
        ),
        "sim_s": workload.sim_seconds(wall_s),
    }
    record.update(_exec_stats(workload, wall_s))
    if tracer is not None:
        record["layers"] = spans.layer_metrics(**tracer.finish())
    expected = json.loads((HERE / "expected.json").read_text())
    problems = workload.check(expected)
    record.update(
        attempted=workload.attempted, problems=problems, host=_host()
    )
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
