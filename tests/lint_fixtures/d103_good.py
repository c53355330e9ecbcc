"""D103 clean: only simulated time; perf_counter is profiling, not state."""

import time


def stamp(events, profile):
    if profile is not None:
        clock = time.perf_counter
        profile.started = clock()
    return events.now
