"""Calibrated CGI execution kernel: real CPU burn plus a sleeping "disk".

The paper replaces logged CGI bodies with synthetic scripts whose cost is
controlled (WebSTONE busy-spin, WebGlimpse search, ADL catalog lookups).
The live cluster does the same: a dynamic request arrives carrying its
demand split ``(cpu_seconds, io_seconds)`` drawn from
:mod:`repro.workload.cgi_profiles`, and the kernel *realises* that demand
in two halves.  :func:`burn_cpu` is an actual arithmetic spin on the
calling thread; :func:`wait_disk` is a blocking sleep (the request holds
its slot but burns no cycles, like a thread parked in ``read(2)``).
:class:`repro.live.node.WorkerPool` runs the burn on the node's event-loop
thread in short slices and parks only the disk wait on a worker thread.

Calibration
-----------
``burn_cpu`` cannot trust a fixed iterations-per-second constant: hosts
differ and CI machines throttle.  :func:`calibrate` times the spin loop
once per process and caches the rate; :func:`burn_cpu` then spins in
chunks sized from that rate, re-checking ``perf_counter`` between chunks
so it lands within a chunk of the target regardless of drift.

:class:`BusyMeter` is the live counterpart of the simulator's per-device
busy-time counters: the pool reports completed CPU/disk seconds, and the
load daemon differentiates the totals into windowed utilisations exactly
like :class:`repro.sim.monitor.LoadMonitor` does for ``rstat()``.
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Tuple

class LiveClock:
    """Monotonic seconds since one process-local epoch.

    Exposes the same ``.now`` property the simulator's engine has, so the
    :class:`repro.obs.Tracer` and the dispatch policies can be bound to a
    live timebase unchanged.  Span timestamps, load-table receipt times,
    and metrics all read this one clock.
    """

    __slots__ = ("epoch",)

    def __init__(self, epoch: Optional[float] = None) -> None:
        self.epoch = time.monotonic() if epoch is None else epoch

    @property
    def now(self) -> float:
        return time.monotonic() - self.epoch


#: Target wall time of one uninterrupted spin chunk, seconds.  Small
#: enough that burn overshoot stays ~1% of a 5 ms demand, large enough
#: that the clock check is not the dominant cost.
_CHUNK_SECONDS = 50e-6

#: Iterations used to measure the spin rate.
_CALIBRATE_ITERS = 200_000

_spin_rate_lock = threading.Lock()
_spin_rate: Optional[float] = None


def _spin(n: int) -> float:
    """The burn loop body: ``n`` float multiply-adds."""
    acc = 1.0
    for _ in range(n):
        acc = acc * 1.0000001 + 1e-9
    return acc


def calibrate(force: bool = False) -> float:
    """Measure (and cache) the spin rate in iterations/second."""
    global _spin_rate
    with _spin_rate_lock:
        if _spin_rate is not None and not force:
            return _spin_rate
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _spin(_CALIBRATE_ITERS)
            best = min(best, time.perf_counter() - t0)
        _spin_rate = _CALIBRATE_ITERS / max(best, 1e-9)
        return _spin_rate


def burn_cpu(seconds: float) -> float:
    """Burn approximately ``seconds`` of CPU; return the measured elapsed.

    Spins in calibrated chunks, re-checking the clock between chunks, so
    the overshoot is bounded by one chunk (~50 microseconds) plus
    scheduler noise.  A positive ``seconds`` always returns at least
    ``seconds``: the loop compares the elapsed time itself, not the clock
    against ``t0 + seconds``, which rounds to the clock's precision and
    would let a demand below it burn nothing.
    """
    if seconds <= 0:
        return 0.0
    rate = calibrate()
    chunk = max(64, int(rate * _CHUNK_SECONDS))
    t0 = time.perf_counter()
    elapsed = 0.0
    while elapsed < seconds:
        _spin(min(chunk, max(64, int(rate * (seconds - elapsed)))))
        elapsed = time.perf_counter() - t0
    return elapsed


def wait_disk(seconds: float) -> float:
    """Block the calling thread for ``seconds`` of simulated disk; return
    the measured elapsed."""
    t0 = time.perf_counter()
    time.sleep(seconds)
    return time.perf_counter() - t0


class BusyMeter:
    """Cumulative CPU/disk busy-seconds for one node.

    The pool calls :meth:`add` when a request finishes; the load daemon
    calls :meth:`sample` once per heartbeat period to turn the running
    totals into utilisations over the elapsed window, normalised by the
    pool ``capacity`` (a node with ``k`` workers can accumulate ``k``
    busy-seconds per wall second).  Every call comes from the node's
    event-loop thread, so no lock is needed.
    """

    __slots__ = ("capacity", "_cpu_total", "_io_total",
                 "_last_cpu", "_last_io", "_last_time", "active")

    def __init__(self, capacity: int, now: float = 0.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._cpu_total = 0.0
        self._io_total = 0.0
        self._last_cpu = 0.0
        self._last_io = 0.0
        self._last_time = now
        #: In-flight requests (admitted, not yet finished); informational.
        self.active = 0

    def add(self, cpu_seconds: float, io_seconds: float) -> None:
        self._cpu_total += cpu_seconds
        self._io_total += io_seconds

    def begin(self) -> None:
        self.active += 1

    def end(self) -> None:
        self.active = max(0, self.active - 1)

    def sample(self, now: float) -> Tuple[float, float]:
        """``(cpu_idle_ratio, disk_avail_ratio)`` over the last window."""
        window = now - self._last_time
        if window <= 0:
            return 1.0, 1.0
        cpu_busy = self._cpu_total - self._last_cpu
        io_busy = self._io_total - self._last_io
        self._last_cpu = self._cpu_total
        self._last_io = self._io_total
        self._last_time = now
        denom = window * self.capacity
        cpu_idle = 1.0 - min(1.0, max(0.0, cpu_busy / denom))
        disk_avail = 1.0 - min(1.0, max(0.0, io_busy / denom))
        return cpu_idle, disk_avail
