"""Dynamic-content (CGI result) caching — the Swala extension.

The paper's testbed is built on the authors' Swala server, which supports
cooperative caching of dynamic content; the paper notes "a simple extension
to consider caching in our scheme can be incorporated".  This module is that
extension:

* :class:`CGICache` — a TTL'd LRU store of generated responses, shared by
  the master tier (Swala's cooperative cache is visible to every server).
* :class:`CachingMSPolicy` — the optimized M/S scheduler with a cache
  lookup in front of dynamic dispatch: a hit is served at the accepting
  master for roughly the cost of a static request (the result just has to
  be sent), a miss executes normally and populates the cache.

Only requests carrying a ``cache_key`` participate; personalised or
non-idempotent CGI output stays uncacheable, as in real deployments.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.core.policies import MSPolicy, Route
from repro.workload.request import Request, RequestKind


@dataclass(slots=True)
class CacheStats:
    """Counters for one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    inserts: int = 0
    evictions: int = 0
    expirations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class CGICache:
    """LRU + TTL cache of generated dynamic content.

    Entries are keyed by the request's ``cache_key`` and carry the response
    size so a hit can be priced like a file send.  Capacity is counted in
    entries (Swala's cache holds whole responses; response sizes in the
    trace specs are a few KB, so entry-count capacity is the right model).
    """

    def __init__(self, capacity: int, ttl: float = 60.0):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.capacity = capacity
        self.ttl = ttl
        self._entries: "OrderedDict[str, tuple[float, int]]" = OrderedDict()
        self.stats = CacheStats()

    def lookup(self, key: str, now: float) -> Optional[int]:
        """Return the cached response size, or ``None`` on miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        stored_at, size = entry
        if now - stored_at > self.ttl:
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return size

    def insert(self, key: str, size: int, now: float) -> None:
        """Store a freshly generated response."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (now, size)
        self.stats.inserts += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def invalidate(self, key: str) -> bool:
        """Drop one entry (content changed).  Returns whether it existed."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries


class CachingMSPolicy(MSPolicy):
    """M/S with a cooperative CGI result cache at the master tier.

    Parameters beyond :class:`MSPolicy`:

    cache:
        Shared result store.
    hit_service_rate:
        Service rate for serving a cached result (requests/second on an
        idle node) — sending bytes, no script execution.  Defaults to the
        SPECweb96 static rate, since a hit *is* a file send.
    """

    def __init__(self, num_nodes: int, num_masters: int,
                 cache: CGICache,
                 hit_service_rate: float = 1200.0,
                 **kwargs):
        super().__init__(num_nodes, num_masters, **kwargs)
        if hit_service_rate <= 0:
            raise ValueError("hit_service_rate must be positive")
        self.cache = cache
        self.hit_service_rate = hit_service_rate

    def route(self, request: Request, view) -> Route:
        if (request.kind is RequestKind.DYNAMIC
                and request.cache_key is not None):
            size = self.cache.lookup(request.cache_key, view.now)
            if size is not None:
                # Serve the hit at the accepting master as a cheap send.
                if self.reservation is not None:
                    # Hits load masters like statics, not like CGI.
                    self.reservation.observe_arrival(RequestKind.STATIC,
                                                     view.now)
                accept = self._accept(view)
                substitute = Request(
                    req_id=request.req_id,
                    arrival_time=request.arrival_time,
                    kind=RequestKind.DYNAMIC,
                    cpu_demand=1.0 / self.hit_service_rate,
                    io_demand=0.0,
                    mem_pages=1,
                    size_bytes=size,
                    type_key="cgi:cache-hit",
                    cache_key=request.cache_key,
                )
                return Route(accept, remote=False, substitute=substitute)
        return super().route(request, view)

    def on_complete(self, request: Request, response_time: float,
                    on_master: bool, node_id: int) -> None:
        super().on_complete(request, response_time, on_master, node_id)
        if (request.kind is RequestKind.DYNAMIC
                and request.cache_key is not None
                and request.type_key != "cgi:cache-hit"):
            # A miss finished executing: publish its result, timestamped at
            # its completion instant (arrival + response time).
            self.cache.insert(request.cache_key, request.size_bytes,
                              now=request.arrival_time + response_time)
