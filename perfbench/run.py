"""The repository's benchmark: end-to-end and per-layer host cost.

    python3 perfbench/run.py --workload w01-profess [--seed 0] [--seconds 40] [--trace 0]

Workloads (see README.md): ``w01-profess``, ``fig5-cold``, ``fanout-1k``,
or ``all``.  With ``--trace 0`` the workload is repeated, each time in a
fresh interpreter, as often as fits in ``--seconds`` (at least twice);
the end-to-end metrics are medians over the repetitions, host times
at a reference host speed measured beside them (calib.py).  With
``--trace 1`` one untraced and one traced repetition give the per-layer
metrics.  Every
repetition checks its outputs; mismatches are counted in ``failed`` and
printed on stderr.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("w01-profess", "fig5-cold", "fanout-1k")
#: The workloads that simulate in the repetition's own process (the
#: others run a pool): rep.py pins them to one core, which the
#: calibration sampler then shares.
IN_PROCESS = ("w01-profess",)

#: End-to-end metrics (``--trace 0``): name -> unit.
#: Host times other than ``setup_s`` are given at the reference host
#: speed (``ref_s``; see calib.py).
END_TO_END = {
    "wall_s": "ref_s",
    "setup_s": "s",
    "requests_per_s": "1/ref_s",
    "warm_wall_s": "ref_s",
    "cpu_s": "ref_s",
    "peak_rss_mib": "MiB",
    "worker_peak_rss_mib": "MiB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "traces.build_s": "s",
    "traces.requests_built": "count",
    "traces.cache_hits": "count",
    "sim.driver_init_s": "s",
    "sim.run_s": "s",
    "sim.result_to_dict_s": "s",
    "sim.result_from_dict_s": "s",
    "events.processed": "count",
    "events.host_ns_per_event": "ns",
    "events.loop_self_s": "s",
    "cpu.dispatch_calls": "count",
    "cpu.dispatch_self_s": "s",
    "cpu.completion_self_s": "s",
    "cpu.instructions": "count",
    "hybrid.access_calls": "count",
    "hybrid.access_self_s": "s",
    "hybrid.serve_self_s": "s",
    "hybrid.st_fetches": "count",
    "hybrid.st_fill_self_s": "s",
    "hybrid.promotions_requested": "count",
    "hybrid.swaps": "count",
    "hybrid.swap_accept_ratio": "ratio",
    "cache.stc_hits": "count",
    "cache.stc_misses": "count",
    "cache.stc_hit_rate": "ratio",
    "cache.stc_insert_self_s": "s",
    "policies.on_access_calls": "count",
    "policies.on_access_self_s": "s",
    "policies.on_st_eviction_self_s": "s",
    "core.rsm_on_request_self_s": "s",
    "core.rsm_samples": "count",
    "mem.ticks": "count",
    "mem.tick_self_s": "s",
    "mem.enqueue_calls": "count",
    "mem.enqueue_self_s": "s",
    "mem.row_hit_rate": "ratio",
    "mem.avg_read_latency_cycles": "cycles",
    "exec.wave_s": "s",
    "exec.cache_gets": "count",
    "exec.cache_get_s": "s",
    "exec.cache_hit_ratio": "ratio",
    "exec.cache_puts": "count",
    "exec.cache_put_s": "s",
    "exec.cache_key_calls": "count",
    "exec.cache_key_s": "s",
    "exec.journal_append_s": "s",
    "exec.worker_busy_s": "s",
    "exec.worker_idle_frac": "ratio",
    "exec.overhead_per_spec_ms": "ms",
    "exec.spec_elapsed_p50_ms": "ms",
    "exec.spec_elapsed_p99_ms": "ms",
    "exec.retries": "count",
    "exec.failures": "count",
    "experiments.driver_self_s": "s",
    "experiments.prefetch_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_self_s": "s",
    "trace.unattributed_s": "s",
    "failed_frac": "ratio",
}

#: Repetitions per run, however long they take.
MIN_REPS = 2
#: Setup samples per run: repetitions that only set up fill the gap.
SETUP_SAMPLES = 5
#: One run must end within 180 s: no repetition starts that would
#: likely end after this many seconds, and none outlives the limit.
RUN_BUDGET_S = 150.0
RUN_LIMIT_S = 170.0


class RepError(Exception):
    """A repetition exited abnormally."""


def run_rep(
    workload: str,
    seed: int,
    work_root: Path,
    deadline: float,
    trace: bool = False,
    setup_only: bool = False,
) -> dict:
    """One repetition in a fresh interpreter; returns its record.

    ``setup_s`` is measured from just before the interpreter starts to
    the repetition's first timed call (one monotonic clock for both).
    The repetition and its workers are killed at ``deadline``.
    """
    work_root.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    command = [sys.executable, str(HERE / "rep.py"), workload, str(seed), str(work)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    started = time.perf_counter()
    timeout = deadline - started
    process = subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise RepError(f"{workload} repetition exceeded {timeout:.0f} s") from None
    finally:
        if trace and (work / "spans" / "spans.json").exists():
            shutil.copy(
                work / "spans" / "spans.json", work_root / f"spans-{workload}.json"
            )
        shutil.rmtree(work, ignore_errors=True)
    if process.returncode != 0:
        raise RepError(
            f"{workload} repetition exited {process.returncode}:\n{stderr[-4000:]}"
        )
    record = json.loads(stdout.strip().splitlines()[-1])
    record["setup_s"] = record["first_call"] - started
    record["rep_s"] = time.perf_counter() - started
    return record


def measure(workload: str, seed: int, seconds: float, work_root: Path) -> dict:
    """End-to-end metrics: medians over fresh-interpreter repetitions."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    records: list[dict] = []
    with calib.Sampler(shared=workload in IN_PROCESS) as sampler:
        while True:
            records.append(run_rep(workload, seed, work_root, deadline))
            elapsed = time.perf_counter() - started
            next_end = elapsed + statistics.median(r["rep_s"] for r in records)
            if next_end > RUN_BUDGET_S or (
                len(records) >= MIN_REPS and next_end > seconds
            ):
                break
    setups = [record["setup_s"] for record in records]
    while len(setups) < SETUP_SAMPLES:
        setups.append(
            run_rep(workload, seed, work_root, deadline, setup_only=True)["setup_s"]
        )
    for record in records:
        cold_unit_s = sampler.unit_s(*record["cold_window"])
        record["ref_wall_s"] = calib.at_reference(record["wall_s"], cold_unit_s)
        record["ref_cpu_s"] = calib.at_reference(record["cpu_s"], cold_unit_s)
        record["ref_warm_s"] = calib.at_reference(
            statistics.median(record["warm_times"]),
            record["warm_unit_s"],
            calib.SMALL_REF_UNIT_S,
        )
        record["host_speed"] = calib.REF_UNIT_S / cold_unit_s

    def median(key: str) -> float:
        return statistics.median(record[key] for record in records)

    metrics = {
        "wall_s": median("ref_wall_s"),
        "setup_s": statistics.median(setups),
        "requests_per_s": statistics.median(
            record["requests"] / record["ref_wall_s"] for record in records
        ),
        "warm_wall_s": median("ref_warm_s"),
        "cpu_s": median("ref_cpu_s"),
        "peak_rss_mib": median("peak_rss_mib"),
        "worker_peak_rss_mib": median("worker_peak_rss_mib"),
    }
    print(
        f"{workload}: {len(records)} repetitions; measured wall "
        f"{median('wall_s'):.6g} s at host speed {median('host_speed'):.4g}",
        file=sys.stderr,
    )
    return _result(records, metrics, END_TO_END)


def measure_layers(workload: str, seed: int, work_root: Path) -> dict:
    """Per-layer metrics: one traced repetition beside an untraced one."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    plain = run_rep(workload, seed, work_root, deadline)
    traced = run_rep(workload, seed, work_root, deadline, trace=True)
    layers = traced["layers"]
    metrics = {name: layers[name] for name in PER_LAYER if name in layers}
    # Executor costs come from the executor's own reports in the
    # untraced repetition, so tracing does not inflate them.
    metrics.update(
        (name, plain[name]) for name in PER_LAYER
        if name.startswith("exec.") and name in plain
    )
    events = layers["events.processed"]
    metrics["events.host_ns_per_event"] = (
        plain["sim_s"] * 1e9 / events if events else 0.0
    )
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    result = _result([plain, traced], metrics, PER_LAYER)
    result["metrics"]["failed_frac"] = {
        "value": result["failed"] / result["attempted"], "unit": "ratio"
    }
    return result


def _result(records: list[dict], metrics: dict, units: dict) -> dict:
    attempted = sum(record["attempted"] for record in records)
    # A repetition fails at most every spec it attempted.
    failed = sum(
        min(len(record["problems"]), record["attempted"]) for record in records
    )
    problems = [problem for record in records for problem in record["problems"]]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
            if name in metrics
        },
        "problems": problems,
        "host": records[-1]["host"],
    }


def report(workload: str, result: dict) -> None:
    """One stdout line per metric; failures and mismatches on stderr."""
    for name, metric in result["metrics"].items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(
        f"{workload}: {result['failed']} of {result['attempted']} failed "
        f"(failed_frac {result['failed'] / result['attempted']:.6g})",
        file=sys.stderr,
    )
    for problem in result["problems"]:
        print(f"{workload} OUTPUT MISMATCH: {problem}", file=sys.stderr)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: no package source at {ROOT / 'src' / 'repro'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    work_root = ROOT / ".perfbench-work"
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = measure_layers(name, args.seed, work_root)
            else:
                results[name] = measure(name, args.seed, args.seconds, work_root)
            report(name, results[name])
    except RepError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    host = results[names[-1]]["host"]
    print("host " + " ".join(f"{key}={value}" for key, value in host.items()),
          file=sys.stderr)
    if len(names) == 1:
        summary = results[names[0]]
        metrics = summary["metrics"]
    else:
        metrics = {
            f"{name}.{metric}": value
            for name, summary in results.items()
            for metric, value in summary["metrics"].items()
        }
    print(json.dumps({
        "correct": all(summary["correct"] for summary in results.values()),
        "attempted": sum(summary["attempted"] for summary in results.values()),
        "failed": sum(summary["failed"] for summary in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
