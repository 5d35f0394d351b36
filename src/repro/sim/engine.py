"""Discrete-event simulation kernel.

A deliberately small, fast core: a virtual clock plus a two-tier event
queue.  Components schedule plain callables; there is no coroutine
machinery, because the preemptive CPU scheduler is easier to express as
explicit state machines than as generators.

Determinism: given the same schedule calls in the same order, the run is
bit-reproducible.  Ties in event time are broken by insertion order.

Hot-path design
---------------
The seed kernel kept one binary heap and allocated an :class:`Event`
object per scheduled callback.  Profiling the replay grids showed three
dominating costs — per-event object allocation, ``heappush``/``heappop``
on heaps holding an entire trace's arrivals, and cyclic-GC scans
triggered by event garbage.  The kernel now addresses all three:

* **Two queues: a sorted run and a heap.**  A trace submitted in bulk
  via :meth:`call_at_many` lands in ``_sorted``, a descending-sorted
  list whose next entry is at the *end* (``list.pop()`` is O(1) and
  releases memory incrementally); the batch costs one C-level
  ``extend`` and one sort.  Everything scheduled one at a time during
  the run (CPU and disk slices, dispatch hops, monitor ticks) goes into
  ``_heap``, a binary heap that only ever holds the few in-flight events
  of a cluster, so its sifts are short.  The loop pops whichever head is
  earlier; both hold ``(time, seq, ...)`` tuples, so one tuple compare
  keeps the global ``(time, seq)`` order.
* **Handle-free fast path.**  Most events are fire-and-forget (request
  arrivals, dispatch hops, worker-slot releases, monitor ticks) and
  never need cancellation.  :meth:`call_later` / :meth:`call_at` store a
  plain ``(time, seq, fn, args)`` tuple — no :class:`Event` object at
  all.  :meth:`schedule` / :meth:`schedule_at` still return cancellable
  :class:`Event` handles for the callers that need them (CPU slices,
  disk slices, resilience deadlines).
* **Event free-list pooling.**  Fired and dead-on-pop :class:`Event`
  objects are recycled through a bounded free list instead of being
  re-allocated, which keeps steady-state replays from churning the
  allocator.  Contract: **a handle must not be cancelled after its
  callback has fired** (every in-tree holder nulls its reference at
  fire/cancel time); cancelling a *pending* handle any number of times
  remains safe and idempotent.
* **GC pause around :meth:`run`.**  Event tuples die by reference
  counting; the cyclic collector only adds allocation-triggered scan
  pauses mid-run, so it is suspended for the duration and restored on
  exit (exception-safe, and a no-op if the caller already disabled it).
"""

from __future__ import annotations

import gc
import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Iterator, Optional, Tuple

#: Upper bound on pooled Event objects kept for reuse (a 128-node cluster
#: has at most a few hundred cancellable events in flight).
_FREE_MAX = 1024


class Event:
    """A scheduled callback.  Returned by :meth:`Engine.schedule`.

    Events may be cancelled (``ev.cancel()``); cancelled events stay in the
    queue but are skipped when popped, which is O(1) amortised and avoids
    re-sorting.

    Pooling contract: once the callback has fired (or a cancelled event has
    been reaped by the queue), the handle is recycled for a future
    ``schedule`` call — drop the reference and never call :meth:`cancel` on
    a handle whose callback already ran.  Cancelling a *pending* event any
    number of times is safe and idempotent.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        self.cancelled = True

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {state} fn={self.fn!r}>"


class Engine:
    """Virtual-time event loop.

    Examples
    --------
    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.schedule(1.5, hits.append, "a")
    >>> _ = eng.schedule(0.5, hits.append, "b")
    >>> eng.run()
    2
    >>> hits
    ['b', 'a']
    >>> eng.now
    1.5
    """

    __slots__ = ("now", "_sorted", "_heap", "_seq", "_running",
                 "_processed", "_free", "tracer")

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Optional :class:`repro.obs.trace.Tracer`.  The engine itself only
        #: emits one ``run`` meta span per :meth:`run` call — per-event
        #: tracing lives in the components, keeping the hot loop untouched.
        self.tracer = None
        #: Bulk-submitted (time, seq, fn, args) entries, descending: the
        #: next due one is LAST.
        self._sorted: list = []
        #: Binary heap of the entries scheduled one at a time.
        self._heap: list = []
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        #: Free list of recycled Event objects.
        self._free: list[Event] = []

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        Returns a cancellable :class:`Event` handle.  Prefer
        :meth:`call_later` when the caller never cancels: it skips the
        handle allocation entirely.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at an absolute virtual time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        seq = next(self._seq)
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.seq = seq
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = Event(time, seq, fn, args)
        heappush(self._heap, (time, seq, ev))
        return ev

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no Event handle, no allocation
        beyond the queue entry itself.  Use for callbacks that are never
        cancelled — the hot request path."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heappush(self._heap, (self.now + delay, next(self._seq), fn, args))

    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` (no Event handle)."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (t={time} < now={self.now})"
            )
        heappush(self._heap, (time, next(self._seq), fn, args))

    def call_at_many(
        self, items: Iterable[Tuple[float, Callable[..., Any], tuple]]
    ) -> int:
        """Batch fire-and-forget scheduling: one C-level ``extend``.

        ``items`` yields ``(time, fn, args)`` triples (``args`` a tuple).
        This is how a whole trace's arrivals are submitted: O(n) appends
        plus one sort of the sorted run (near linear: timsort merges the
        old run with the new, mostly ordered batch), instead of n heap
        pushes.  Returns the number of events scheduled.
        """
        s = self._sorted
        seq = self._seq
        n = len(s)
        s.extend((t, next(seq), fn, args) for t, fn, args in items)
        added = len(s) - n
        if added:
            t_min = min(s[i][0] for i in range(n, len(s)))
            if t_min < self.now:
                del s[n:]
                raise ValueError(
                    f"cannot schedule into the past (t={t_min} < now={self.now})"
                )
            s.sort(reverse=True)
        return added

    # -- queue maintenance --------------------------------------------------

    def _recycle(self, ev: Event) -> None:
        ev.fn = None  # type: ignore[assignment]
        ev.args = ()  # drop references; help refcounting
        free = self._free
        if len(free) < _FREE_MAX:
            free.append(ev)

    # -- execution ----------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events in time order.

        Parameters
        ----------
        until:
            Stop once the next event lies strictly after this time; the clock
            is then advanced to ``until``.  ``None`` runs until the queue is
            empty.
        max_events:
            Safety valve for runaway simulations; raises ``RuntimeError``
            when exceeded.

        Returns
        -------
        int
            Number of events processed by this call.
        """
        if self._running:
            raise RuntimeError("Engine.run() is not reentrant")
        self._running = True
        processed = 0
        s = self._sorted
        heap = self._heap
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if until is None and max_events is None:
                # Tight loop for the common run-to-exhaustion case.
                while True:
                    if heap and not (s and s[-1] < heap[0]):
                        entry = heappop(heap)
                    elif s:
                        entry = s.pop()
                    else:
                        break
                    if len(entry) == 4:
                        self.now = entry[0]
                        entry[2](*entry[3])
                        processed += 1
                    else:
                        ev = entry[2]
                        if ev.cancelled:
                            self._recycle(ev)
                            continue
                        self.now = entry[0]
                        fn = ev.fn
                        args = ev.args
                        self._recycle(ev)
                        fn(*args)
                        processed += 1
            else:
                while True:
                    from_heap = bool(heap) and not (s and s[-1] < heap[0])
                    if from_heap:
                        time = heap[0][0]
                    elif s:
                        time = s[-1][0]
                    else:
                        break
                    if until is not None and time > until:
                        break
                    entry = heappop(heap) if from_heap else s.pop()
                    if len(entry) == 4:
                        self.now = time
                        entry[2](*entry[3])
                    else:
                        ev = entry[2]
                        if ev.cancelled:
                            self._recycle(ev)
                            continue
                        self.now = time
                        fn = ev.fn
                        args = ev.args
                        self._recycle(ev)
                        fn(*args)
                    processed += 1
                    if max_events is not None and processed > max_events:
                        raise RuntimeError(
                            f"exceeded max_events={max_events}; runaway simulation?"
                        )
        finally:
            self._running = False
            self._processed += processed
            if gc_was_enabled:
                gc.enable()
        if until is not None and self.now < until:
            self.now = until
        if self.tracer is not None:
            self.tracer.record_meta("run", processed)
        return processed

    def _pop(self) -> Optional[tuple]:
        """Remove and return the earliest queued entry (``None`` if empty)."""
        s = self._sorted
        heap = self._heap
        if heap and not (s and s[-1] < heap[0]):
            return heappop(heap)
        return s.pop() if s else None

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` if none remained."""
        while True:
            entry = self._pop()
            if entry is None:
                return False
            if len(entry) == 4:
                self.now = entry[0]
                entry[2](*entry[3])
                self._processed += 1
                return True
            ev = entry[2]
            if ev.cancelled:
                self._recycle(ev)
                continue
            self.now = entry[0]
            fn = ev.fn
            args = ev.args
            self._recycle(ev)
            fn(*args)
            self._processed += 1
            return True

    # -- introspection ------------------------------------------------------

    def peek(self) -> Optional[float]:
        """Virtual time of the next pending event, or ``None``."""
        s = self._sorted
        heap = self._heap
        while heap and len(heap[0]) == 3 and heap[0][2].cancelled:
            self._recycle(heappop(heap)[2])
        if heap and not (s and s[-1] < heap[0]):
            return heap[0][0]
        return s[-1][0] if s else None

    def iter_pending(self) -> Iterator[Tuple[float, Callable[..., Any]]]:
        """Yield ``(time, fn)`` for every not-yet-cancelled queued event.

        The supported way to inspect queued work (drain sizing, request
        conservation) without reaching into the queue internals.
        """
        for entry in self._sorted:
            yield entry[0], entry[2]
        for entry in self._heap:
            if len(entry) == 4:
                yield entry[0], entry[2]
            elif not entry[2].cancelled:
                yield entry[0], entry[2].fn

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for _ in self.iter_pending())

    @property
    def processed(self) -> int:
        """Total events processed over the engine's lifetime."""
        return self._processed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self.now:.6f} pending={self.pending}>"
