"""The load generator's side of the wire: pipelined JSON-lines clients.

One generator process drives every phase over a few TCP connections.
Requests are encoded before any timing starts; responses are matched to
requests by ``id`` (the service answers pipelined lines concurrently,
so replies may come back out of order).

Two load shapes:

* :meth:`Client.closed_loop` -- each connection keeps a fixed number of
  requests in flight and sends the next one when a reply arrives,
  until a fixed list is done; yields completed operations per second.
* :meth:`Client.open_loop` -- requests are due at a fixed rate whatever
  the service does; latency is measured from each request's *due*
  time, so a stall also charges the requests queued behind it, and the
  generator's own lateness (send time minus due time) is reported.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

#: Largest accepted response line (a ``doc.query`` answer set can be
#: large); matches the service's own request-line limit.
MAX_LINE = 4 * 1024 * 1024

#: How long a phase waits for outstanding replies before it counts them
#: as timeouts.
REPLY_TIMEOUT = 20.0
#: Upper bound on one windowed phase (warm-up or closed loop).
PHASE_TIMEOUT = 120.0


@dataclass
class Req:
    """One pre-encoded request.  ``info`` is whatever the workload needs
    to check the reply later (e.g. the query and update)."""

    id: int
    op: str
    line: bytes
    info: tuple = ()


@dataclass
class Outcome:
    """What happened to one request."""

    req: Req
    due: float
    sent: float
    done: float | None = None
    ok: bool = False
    error: str | None = None


@dataclass
class PhaseResult:
    """Every request sent in one phase, plus the phase's time window."""

    name: str
    started: float
    ended: float
    outcomes: list[Outcome] = field(default_factory=list)
    #: Timed phases' replies are sampled by the correctness check.
    timed: bool = False

    @property
    def sent(self) -> int:
        return len(self.outcomes)

    @property
    def succeeded(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok)

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded


class Client:
    """``connections`` pipelined connections to one service.

    ``on_reply(req, response)`` sees every successful reply (the run
    keeps what its correctness check and property shares need).
    """

    def __init__(self, port: int, connections: int, on_reply=None):
        self.port = port
        self.connections = connections
        self.on_reply = on_reply
        self._writers: list[asyncio.StreamWriter] = []
        self._readers: list[asyncio.Task] = []
        self._waiting: dict[int, tuple[Outcome, object]] = {}
        self._idle = asyncio.Event()
        self._idle.set()

    async def start(self) -> None:
        for _ in range(self.connections):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", self.port, limit=MAX_LINE
            )
            self._writers.append(writer)
            self._readers.append(asyncio.create_task(self._read(reader)))

    async def close(self) -> None:
        for writer in self._writers:
            writer.close()
        for writer in self._writers:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)

    # -- plumbing ------------------------------------------------------------

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            response = json.loads(line)
            entry = self._waiting.pop(response.get("id"), None)
            if entry is None:
                continue
            outcome, then = entry
            outcome.done = now
            if response.get("ok"):
                outcome.ok = True
                if self.on_reply is not None:
                    self.on_reply(outcome.req, response)
            else:
                outcome.error = json.dumps(response.get("error"))
            if not self._waiting:
                self._idle.set()
            if then is not None:
                then(outcome)

    def _send(self, req: Req, connection: int, due: float,
              then=None) -> Outcome:
        now = time.perf_counter()
        outcome = Outcome(req, due=due if due else now, sent=now)
        self._waiting[req.id] = (outcome, then)
        self._idle.clear()
        self._writers[connection].write(req.line)
        return outcome

    async def _settle(self, outcomes: list[Outcome]) -> None:
        """Wait for outstanding replies; the rest become timeouts."""
        for writer in self._writers:
            await writer.drain()
        try:
            await asyncio.wait_for(self._idle.wait(), REPLY_TIMEOUT)
        except asyncio.TimeoutError:
            for outcome in outcomes:
                if outcome.done is None:
                    outcome.error = "timeout"
                    self._waiting.pop(outcome.req.id, None)
            self._idle.set()

    # -- load shapes ---------------------------------------------------------

    async def batch(self, name: str, reqs: list[Req],
                    depth: int) -> PhaseResult:
        """Send every request, ``depth`` in flight per connection, and
        wait for all replies (set-up and warm-up traffic)."""
        return await self._windowed(name, reqs, depth)

    async def closed_loop(self, name: str, reqs: list[Req],
                          depth: int) -> PhaseResult:
        """Keep ``depth`` requests in flight per connection until every
        request has been answered; the phase ends at the last reply."""
        result = await self._windowed(name, reqs, depth)
        result.timed = True
        done = [o.done for o in result.outcomes if o.done is not None]
        result.ended = max(done, default=result.started)
        return result

    async def _windowed(self, name: str, reqs: list[Req],
                        depth: int) -> PhaseResult:
        started = time.perf_counter()
        result = PhaseResult(name, started, started)
        feed = iter(reqs)
        finished = asyncio.Event()
        active = [0] * self.connections

        def refill(connection: int) -> None:
            while active[connection] < depth:
                req = next(feed, None)
                if req is None:
                    break
                active[connection] += 1
                result.outcomes.append(self._send(
                    req, connection, 0.0,
                    then=lambda _, c=connection: done(c),
                ))
            if not any(active):
                finished.set()

        def done(connection: int) -> None:
            active[connection] -= 1
            refill(connection)

        for connection in range(self.connections):
            refill(connection)
        try:
            await asyncio.wait_for(finished.wait(), PHASE_TIMEOUT)
        except asyncio.TimeoutError:
            pass
        result.ended = time.perf_counter()
        await self._settle(result.outcomes)
        return result

    async def open_loop(self, name: str, reqs: list[Req], rate: float,
                        seconds: float) -> PhaseResult:
        """Send ``reqs`` at ``rate`` per second, round-robin over the
        connections, for ``seconds`` (or until the requests run out)."""
        count = min(len(reqs), int(rate * seconds))
        started = time.perf_counter() + 0.01
        result = PhaseResult(name, started, started + count / rate,
                             timed=True)
        for index in range(count):
            due = started + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            result.outcomes.append(self._send(
                reqs[index], index % self.connections, due
            ))
        await self._settle(result.outcomes)
        return result
