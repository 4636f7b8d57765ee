"""D103: wall-clock and entropy sources in a simulation module.

Direct reads, plus the shapes that hide the read behind a name: an
alias bound then called, a ``from time import time`` reference, and a
helper that returns a clock value.  Each is flagged where the source is
named.
"""

import os
import time
from datetime import datetime
from time import time as wall_time


def stamp(event):
    return (time.time(), datetime.now(), os.urandom(4), event)


def aliased(event):
    clock = time.time
    return (clock(), event)


def imported(events):
    events.on_tick(wall_time)


def _jitter():
    return time.time_ns() % 7


def skewed(events):
    events.skew = _jitter()
