"""Host-speed calibration: a fixed kernel timed beside each timed phase.

The host the benchmark was defined on is a share of a busy machine: each
core's throughput switches between regimes up to 1.7x apart, for seconds
to minutes at a time, and the program's host-time metrics switch with
it.  So the host's speed is measured beside the program, and the
host-time metrics are reported at a fixed reference speed:

    reference seconds = measured seconds * REF_UNIT_S / unit_s

where ``unit_s`` is the CPU time of one calibration unit during the
phase: the median over the units a ``Sampler`` process ran during a cold
phase, or the mean over the units run in the repetition after each warm
pass (``sample``).  The kernel is the benchmark's own code, so a change
to the program cannot move it, while a slower or faster host moves both
alike.  It has two halves: interpreter work of the simulator's kind (an
event heap, slotted objects, method calls, dict lookups) and random
reads over a table far larger than the core's private caches.  Timed
beside the w01 run on the defining host, the first half swung 1.7x as
much as the simulator did and the second 0.8x as much; their sum tracked
it with a correlation above 0.9.  Over ten w01 runs, scaling cut the
quartile spread of ``wall_s`` from 0.12 to 0.04 of the median.
"""

from __future__ import annotations

import heapq
import json
import os
import statistics
import subprocess
import sys
import threading
import time

#: Seconds per unit on the host the benchmark was defined on (a 2-core
#: VM on an Intel Xeon at 2.1 GHz, Python 3.11), typical of its range.
#: Any constant would do: it only makes reference seconds read like
#: seconds on that host.
REF_UNIT_S = 0.006
#: The same for a unit over a table of ``SMALL_TABLE`` entries, which
#: fits the core's own caches.
SMALL_REF_UNIT_S = 0.0045
SMALL_TABLE = 1 << 12

#: Entries in the random-read table: with the int objects they point to,
#: about 70 MB, the size of the w01 run's heap.
TABLE_SIZE = 1 << 21


class _Line:
    __slots__ = ("tag", "hits", "dirty")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.hits = 0
        self.dirty = False

    def touch(self, write: bool) -> int:
        self.hits += 1
        if write:
            self.dirty = True
        return self.hits


def make_table(size: int = TABLE_SIZE) -> list[int]:
    return [index * 3 + 1000 for index in range(size)]


def unit(table: list[int]) -> int:
    """One calibration unit: a fixed, deterministic amount of work."""
    lines: dict[int, _Line] = {}
    events: list[tuple[int, int]] = []
    now = 0
    total = 0
    for step in range(1500):
        address = (step * 2654435761) & 0xFFFF
        tag = address >> 4
        line = lines.get(tag)
        if line is None:
            if len(lines) >= 512:
                lines.pop(next(iter(lines)))
            line = lines[tag] = _Line(tag)
        total += line.touch(step & 3 == 0)
        heapq.heappush(events, (now + (address & 63), step))
        if len(events) > 32:
            now, done = heapq.heappop(events)
            total ^= done
    mask = len(table) - 1
    state = 12345
    for _ in range(3000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[state & mask]
    return total


class Sampler:
    """Times one unit every ``period`` seconds in a child process.

    Used as a context manager around the repetitions of a run.  A child
    process of its own, so the table never counts in the peak RSS a
    repetition inherits from the runner.  The speed that matters is that
    of the cores the program runs on: with ``shared=True`` the sampler
    stays on the one core ``pin()`` keeps an in-process workload on;
    otherwise it visits every core in turn, as a pool's workers do.
    """

    def __init__(
        self, shared: bool, period: float = 0.05, table_size: int = TABLE_SIZE
    ):
        self.command = [
            sys.executable, __file__, str(period), str(table_size), str(int(shared))
        ]
        #: (start, end, CPU seconds) of every unit; start and end on the
        #: ``time.perf_counter`` clock (system-wide on Linux, so
        #: comparable across processes).  A unit's time is its CPU time:
        #: the sampler waits for a core while the program uses it, and
        #: that wait says nothing about the host's speed.
        self.samples: list[tuple[float, float, float]] = []

    def __enter__(self) -> "Sampler":
        self._process = subprocess.Popen(
            self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc_info) -> None:
        # Closing its stdin stops the child, which then prints its samples.
        try:
            stdout, _ = self._process.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.communicate()
            raise
        self.samples = [tuple(sample) for sample in json.loads(stdout)]

    def unit_s(self, start: float, end: float) -> float:
        """Median unit time over the units that ran within [start, end]."""
        inside = [unit_s for a, b, unit_s in self.samples if start <= a and b <= end]
        if not inside:
            raise ValueError(f"no calibration unit ran in [{start}, {end}]")
        return statistics.median(inside)


def sample(seconds: float, table: list[int]) -> tuple[float, int]:
    """Run whole units for about ``seconds`` (at least one unit) in this
    process; returns (CPU seconds, units run)."""
    units = 0
    cpu_started = time.thread_time()
    deadline = time.perf_counter() + seconds
    while True:
        unit(table)
        units += 1
        if time.perf_counter() >= deadline:
            return time.thread_time() - cpu_started, units


def _sample_until_stdin_closes(period: float, table_size: int, shared: bool) -> None:
    table = make_table(table_size)
    stop = threading.Event()
    threading.Thread(
        target=lambda: (sys.stdin.read(), stop.set()), daemon=True
    ).start()
    cores = sorted(os.sched_getaffinity(0))
    if shared:
        cores = cores[:1]
    samples = []
    while not stop.wait(period):
        os.sched_setaffinity(0, {cores[len(samples) % len(cores)]})
        started, cpu_started = time.perf_counter(), time.thread_time()
        unit(table)
        samples.append(
            (started, time.perf_counter(), time.thread_time() - cpu_started)
        )
    print(json.dumps(samples))


def pin() -> None:
    """Keep this process on the first of its cores.  A ``shared``
    sampler and an in-process workload then share one core, so the
    sampler sees that core's speed; the workload's wait for the core
    while a unit runs is the kernel's run delay, taken off its wall time
    (``run_delay_s``)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_delay_s() -> float:
    """Seconds this process has spent runnable but waiting for a core."""
    with open("/proc/self/schedstat") as schedstat:
        return int(schedstat.read().split()[1]) / 1e9


def at_reference(
    seconds: float, unit_s: float, reference_s: float = REF_UNIT_S
) -> float:
    """``seconds`` measured while one unit took ``unit_s``, at the
    reference speed (where it takes ``reference_s``)."""
    return seconds * reference_s / unit_s


if __name__ == "__main__":
    _sample_until_stdin_closes(
        float(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
    )
