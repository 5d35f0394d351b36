"""Keep-alive HTTP/1.1 load generator for the live workload.

Runs in its own process, on one asyncio thread, over a fixed number of
persistent connections to one master.  It knows nothing about the
cluster: it reads a job as one JSON object on stdin, drives its phases in
order, and prints one JSON object on stdout.

Job layout::

    {"host": "127.0.0.1", "port": 8080, "connections": 2,
     "phases": [
       {"mode": "closed", "seconds": 4.5, "targets": ["/req?...", ...]},
       {"mode": "closed", "seconds": 4.5, "connections": 1,
        "targets": ["/req?...", ...]},
       {"mode": "open", "due": [0.0012, ...], "targets": ["/req?...", ...]}
     ]}

* ``closed``: every connection sends its next target as soon as its
  previous response is read, until ``seconds`` have passed since the
  phase began (or the targets run out).  ``connections``, if given, uses
  only that many of the job's connections.
* ``open``: target ``i`` becomes due ``due[i]`` seconds after the phase
  began, whatever the server is doing.  Due requests wait client-side
  for a free connection.

For every phase the output holds per-target arrays, indexed like
``targets`` and cut at the last target sent: ``sent`` and ``done``
(seconds since the phase began, ``-1`` when it never happened) and
``ok`` (HTTP 200 carrying ``"status":"ok"``).  The caller derives rates,
latency from due time and lateness from them.

The event loop uses ``select()`` rather than ``epoll``: ``epoll_wait``
rounds every timeout up to a whole millisecond, which would make open-loop
sends up to 1 ms late.

Run standalone: ``python3 perfbench/loadgen.py < job.json``.
"""

from __future__ import annotations

import asyncio
import json
import selectors
import sys
from typing import List

#: Give up on a response after this long (counts as a failed request).
RESPONSE_TIMEOUT = 30.0

_OK_MARK = b'"status":"ok"'


class PhaseLog:
    """Per-target send/finish times and outcome of one phase."""

    def __init__(self, n: int) -> None:
        self.sent: List[float] = [-1.0] * n
        self.done: List[float] = [-1.0] * n
        self.ok: List[bool] = [False] * n
        self.errors: List[str] = []
        self.count = 0          # targets taken so far

    def to_json(self) -> dict:
        n = self.count
        return {"sent": self.sent[:n], "done": self.done[:n],
                "ok": self.ok[:n], "errors": self.errors[:5]}


async def _exchange(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter, request: bytes) -> bool:
    """One keep-alive GET; true when the server answered 200 / ok."""
    writer.write(request)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    parts = status_line.split(None, 2)
    length = 0
    while True:
        header = await reader.readline()
        if header in (b"\r\n", b"\n", b""):
            break
        name, _, value = header.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return len(parts) >= 2 and parts[1] == b"200" and _OK_MARK in body


class Client:
    """One persistent connection, used by one coroutine at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader
        self.writer: asyncio.StreamWriter

    async def open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def send(self, target: str, log: PhaseLog, i: int,
                   t0: float) -> None:
        loop = asyncio.get_running_loop()
        request = (f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n\r\n"
                   ).encode("latin-1")
        log.sent[i] = loop.time() - t0
        try:
            ok = await asyncio.wait_for(
                _exchange(self.reader, self.writer, request),
                RESPONSE_TIMEOUT)
        except (OSError, ConnectionError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ValueError) as exc:
            log.errors.append(f"target {i}: {exc!r}")
            # The stream position is unknown after a failure: reconnect.
            await self.close()
            await self.open()
            return
        log.done[i] = loop.time() - t0
        log.ok[i] = ok
        if not ok:
            log.errors.append(f"target {i}: not 200/ok")


async def run_closed(clients: List[Client], phase: dict) -> PhaseLog:
    targets = phase["targets"]
    log = PhaseLog(len(targets))
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    stop = t0 + float(phase["seconds"])

    async def worker(client: Client) -> None:
        while loop.time() < stop and log.count < len(targets):
            i = log.count
            log.count += 1
            await client.send(targets[i], log, i, t0)

    active = clients[:int(phase.get("connections", len(clients)))]
    await asyncio.gather(*(worker(c) for c in active))
    return log


async def run_open(clients: List[Client], phase: dict) -> PhaseLog:
    targets = phase["targets"]
    due = phase["due"]
    log = PhaseLog(len(targets))
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    t0 = loop.time()

    async def schedule() -> None:
        for i, offset in enumerate(due):
            delay = t0 + offset - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            log.count = i + 1
            queue.put_nowait(i)
        for _ in clients:
            queue.put_nowait(None)

    async def worker(client: Client) -> None:
        while True:
            i = await queue.get()
            if i is None:
                return
            await client.send(targets[i], log, i, t0)

    await asyncio.gather(schedule(), *(worker(c) for c in clients))
    return log


async def run_job(job: dict) -> dict:
    clients = [Client(job["host"], int(job["port"]))
               for _ in range(int(job["connections"]))]
    for client in clients:
        await client.open()
    try:
        phases = []
        for phase in job["phases"]:
            run = run_closed if phase["mode"] == "closed" else run_open
            phases.append((await run(clients, phase)).to_json())
        return {"phases": phases}
    finally:
        for client in clients:
            await client.close()


def main() -> int:
    job = json.load(sys.stdin)
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        result = loop.run_until_complete(run_job(job))
    finally:
        loop.close()
    sys.stdout.write(json.dumps(result, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
