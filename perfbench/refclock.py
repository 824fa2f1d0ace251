"""Time measured in units of a fixed reference computation.

The speed of a shared virtual CPU drifts: a fixed pure-Python loop can
take 1.5 times as long from one ten-second stretch to the next, and
object-heavy code such as the codec 1.8 times as long.  Raw seconds then
spread more from run to run than any bound a regression check can use.

``RefClock`` runs a sampler thread that, every ``PERIOD`` seconds, times
one reference chunk: it round-trips a few numbers through a small codec
of its own, which does the same kind of work as godelgen's.  The whole
process is pinned to one CPU first (``pin_to_one_cpu``), so the sampler,
the workload's threads and its child processes share that CPU and see
the same speed.  A stretch of work from ``t0`` to ``t1`` (perf_counter
times) is then reported in two ways:

* ``seconds``: its wall time, less the CPU time the sampler took inside it;
* ``units``: those seconds divided by the mean duration of the reference
  chunks that ran inside it (or the nearest ``MIN_SAMPLES`` chunks, for a
  short stretch).  Units times ``CHUNK_S`` are seconds at a fixed nominal
  speed of the machine.

Units do not depend on how fast the CPU happens to be, but they do on the
program: a change that makes the codec twice as fast halves them.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

PERIOD = 0.025  # seconds between reference chunks
CHUNK_CODES = range(1000, 1040)  # the codes one chunk round-trips
MIN_SAMPLES = 8
# the nominal time of one chunk, a round figure near its median (0.43 ms)
# on a 2-core Xeon VM; units times CHUNK_S are seconds at that speed
CHUNK_S = 0.5e-3


# A small bijective codec of the benchmark's own, frozen here: a code n
# is a leaf for n < 2, else a node whose tag is (n - 2) mod 3 and whose
# two children's codes are bit-interleaved in (n - 2) div 3.  It does the
# kind of work godelgen's codec does (recursion, divmod, table-driven
# interleaving, frozen dataclass nodes), so it slows down as that does.


def _spread_byte(x: int) -> int:
    return sum(((x >> i) & 1) << (2 * i) for i in range(8))


_SPREAD = [_spread_byte(x) for x in range(256)]
_COMPACT = {spread: x for x, spread in enumerate(_SPREAD)}


@dataclass(frozen=True)
class _Node:
    tag: int
    kids: tuple


def _pair(a: int, b: int) -> int:
    out = shift = 0
    while a or b:
        out |= (_SPREAD[a & 255] | _SPREAD[b & 255] << 1) << shift
        a, b, shift = a >> 8, b >> 8, shift + 16
    return out


def _unpair(n: int) -> tuple[int, int]:
    a = b = shift = 0
    while n:
        a |= _COMPACT[n & 0x5555] << shift
        b |= _COMPACT[(n >> 1) & 0x5555] << shift
        n, shift = n >> 16, shift + 8
    return a, b


def _decode(n: int) -> _Node:
    if n < 2:
        return _Node(n, ())
    rest, tag = divmod(n - 2, 3)
    a, b = _unpair(rest)
    return _Node(tag + 2, (_decode(a), _decode(b)))


def _encode(node: _Node) -> int:
    if not node.kids:
        return node.tag
    a, b = node.kids
    return 2 + 3 * _pair(_encode(a), _encode(b)) + node.tag - 2


def reference_chunk() -> None:
    """Round-trip CHUNK_CODES through the small codec (about 0.5 ms)."""
    for n in CHUNK_CODES:
        if _encode(_decode(n)) != n:
            raise AssertionError(f"reference codec does not round-trip {n}")


def pin_to_one_cpu() -> None:
    """Pin this process (and the threads and children it starts later)
    to the lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class RefClock:
    """A sampler thread timing reference chunks; use it as a context manager."""

    def __init__(self) -> None:
        self.mid = array("d")  # perf_counter at the middle of each chunk
        self.cost = array("d")  # the chunk's CPU time, in seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="bench-refclock",
                                        daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD):
            w0, c0 = time.perf_counter(), time.thread_time()
            reference_chunk()
            cost, w1 = time.thread_time() - c0, time.perf_counter()
            # cost first, so that a reader never sees a mid without its cost
            self.cost.append(cost)
            self.mid.append((w0 + w1) / 2)

    def __enter__(self) -> RefClock:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def seconds(self, t0: float, t1: float) -> float:
        """Wall time from t0 to t1, less the sampler's own time inside it."""
        lo, hi = bisect_left(self.mid, t0), bisect_right(self.mid, t1)
        return (t1 - t0) - sum(self.cost[lo:hi])

    def units(self, t0: float, t1: float) -> float:
        """The stretch t0..t1 in reference chunks: seconds / mean chunk time."""
        n = len(self.mid)
        lo, hi = bisect_left(self.mid, t0), bisect_right(self.mid, t1)
        if hi - lo < MIN_SAMPLES:
            centre = (lo + hi) // 2
            lo = max(0, min(centre - MIN_SAMPLES // 2, n - MIN_SAMPLES))
            hi = min(n, lo + MIN_SAMPLES)
        if hi <= lo:
            raise RuntimeError("the reference clock has no samples yet")
        return self.seconds(t0, t1) / statistics.fmean(self.cost[lo:hi])
