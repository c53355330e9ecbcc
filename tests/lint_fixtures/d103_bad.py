"""D103: wall-clock and entropy reads in a simulation module.

Beyond direct calls: a clock read stored through a local, a clock
callable aliased to a local and called later, and helpers that mint or
pass through a clock value.  Each fails at the read (or the alias).
"""

import os
import time
from datetime import datetime


def stamp(event):
    return (time.time(), datetime.now(), os.urandom(4), event)


def _jitter():
    return time.time() * 0.5


def _passthrough(value):
    return value


class Engine:
    def tick(self):
        now = time.time()
        self.stamp = now

    def tick_aliased(self):
        clock = time.time
        self.last = clock()

    def mix(self):
        self.stamp = _jitter()
        raw = time.time()
        self.skew = _passthrough(raw)
