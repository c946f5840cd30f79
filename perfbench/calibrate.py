"""Host-speed calibration: a fixed kernel timed beside the program.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 1.6x over minutes as other tenants load it.  Everything slows
together: measured on a 2-core x86_64 VM, the median all-nodes Monte
Carlo screen and a pure-Python loop moved from 470 ms / 6.4 ms to
800 ms / 10 ms and back within four minutes, their ratio within ~10 %.
Raw wall times therefore measure the host as much as the program.

:func:`sample` times one pass of a fixed kernel that shares no code with
the program: an interpreter loop, then a stream through a 16 MB buffer
(larger than the last-level cache, so memory bandwidth counts too).  The
launcher process runs it, never the process under measurement, so the
buffer is not in the program's resident memory and the program's
allocator state does not reach the kernel.  The measured process asks
for samples over its standard output (:func:`request`) and waits for the
answer, so kernel and program never run at the same time.

Wall times are scaled by :func:`speed_factor`, ``REFERENCE_MS`` / median
sample: the time the operation would have taken on a host on which one
kernel pass takes ``REFERENCE_MS``.  A change to the program moves the
scaled times as it moves the raw ones, because the kernel runs none of
its code.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

#: Milliseconds one kernel pass takes at the reference speed (about the
#: middle of what the 2-core VM above gave).
REFERENCE_MS = 6.5
#: Interpreter-loop trips of one pass.
TRIPS = 25_000
#: Doubles in the streamed buffer (16 MB) and passes over it.
STREAM_DOUBLES = 2_000_000
STREAM_PASSES = 2
#: Samples taken before and again after a timed region.
BRACKET = 15
#: The line a measured process prints to ask its launcher for samples.
REQUEST = "PERFBENCH CALIBRATE"

_buffer = None


def sample() -> float:
    """Milliseconds one pass of the fixed kernel takes now."""
    global _buffer
    if _buffer is None:
        _buffer = np.ones(STREAM_DOUBLES)
    start = time.perf_counter()
    total = 0
    for trip in range(TRIPS):
        total += trip * trip % 7
    for _ in range(STREAM_PASSES):
        np.multiply(_buffer, 1.0, out=_buffer)
    return (time.perf_counter() - start) * 1e3


def answer(line: str) -> str:
    """The launcher's reply to a :func:`request` line: that many samples,
    space-separated, newline-terminated."""
    count = int(line[len(REQUEST):])
    return " ".join(repr(sample()) for _ in range(count)) + "\n"


def request(count: int = 1) -> list:
    """``count`` kernel samples (ms) run by the launcher of this process,
    which answers on standard input; this process waits meanwhile."""
    print(f"{REQUEST} {count}", flush=True)
    return [float(value) for value in sys.stdin.readline().split()]


def speed_factor(samples) -> float:
    """``REFERENCE_MS`` over the median sample: above 1 on a host faster
    than the reference, below 1 on a slower one.  Multiply a wall time by
    it, or divide a rate by it."""
    return REFERENCE_MS / statistics.median(samples)
