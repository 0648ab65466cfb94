"""Open-loop, pipelined load over a fixed set of gateway connections.

One process, at most ``nproc`` connections.  Each open-loop query is
written at its scheduled time onto the connection with the fewest
replies outstanding; every mutation goes onto the first connection.
A single thread sends and reads: it waits in ``select`` for replies
until the next request is due.  The gateway handles each connection's
requests one after another and answers them in order, so replies are
matched to requests first-in first-out and mutations are applied and
acknowledged one at a time, each with its own epoch.  Latency is taken
from the scheduled time, so a stall is charged to every request queued
behind it, and the send time is kept so the generator's own lateness
(fire lag) can be checked.

The ``peak`` phases are closed-loop: each connection keeps a fixed
number of queries outstanding, so the backlog stays bounded while the
server runs flat out.  A refill that finds the query pool empty is
counted in ``peak_pool_dry``: that window's load fell, so its completion
rate understates the server.
"""

from __future__ import annotations

import gc
import json
import os
import selectors
import signal
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.topk.query import Query

#: Queries each connection keeps outstanding in the peak phase.
PEAK_DEPTH = 4


@dataclass
class Request:
    """One request; the generator fills in connection and timings."""

    rid: int
    op: str  # "query" or "mutate"
    phase: str  # "setup", "warmup", "low", "high" or "peak"
    round: int  # measured round (0: set-up and warm-up)
    due: float  # scheduled monotonic time (peak: the send time)
    line: bytes
    item: object  # the Query or Mutation
    sent: float = float("nan")
    received: float = float("nan")
    conn: int = -1
    raw: Optional[bytes] = None
    reply: Optional[Dict] = None

    @property
    def latency(self) -> float:
        return self.received - self.due


def query_line(rid: int, query: Query) -> bytes:
    payload = {
        "op": "query",
        "dims": [int(d) for d in query.dims],
        "weights": [float(w) for w in query.weights],
        "rid": rid,
    }
    return json.dumps(payload).encode() + b"\n"


def mutate_line(rid: int, spec: Dict) -> bytes:
    return json.dumps({"op": "mutate", "mutations": [spec], "rid": rid}).encode() + b"\n"


class Connection:
    def __init__(self, index: int, host: str, port: int) -> None:
        self.index = index
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.open = True
        self.outstanding: deque = deque()

    def send(self, request: Request) -> None:
        request.conn = self.index
        request.sent = time.monotonic()
        self.outstanding.append(request)
        self.sock.sendall(request.line)

    def receive(self) -> List[Request]:
        """Read what has arrived (blocks until something has) and return
        the requests whose replies it completes; replies come in order."""
        data = self.sock.recv(1 << 16)
        now = time.monotonic()
        if not data:
            self.open = False
            return []
        *lines, self.buffer = (self.buffer + data).split(b"\n")
        done = []
        for line in lines:
            request = self.outstanding.popleft()
            request.raw = line
            request.received = now
            done.append(request)
        return done

    def call(self, request: Request) -> Request:
        """Send and wait for the reply."""
        self.send(request)
        while self.open and self.outstanding:
            self.receive()
        return request

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class LoadGenerator:
    """Drives one run's timed requests plus its closed peak phases.

    One thread does everything: it waits in ``select`` for replies until
    the next request is due, so no thread hand-off delays a send.
    """

    def __init__(self, conns: List[Connection], server_pid: int, peak_pool: List[Request]) -> None:
        self.conns = conns
        self.server_pid = server_pid
        self.requests: List[Request] = []
        self.outstanding_max = 0
        self._peak_until = 0.0
        self._peak_round = 0
        self._peak_queries: Iterator[Request] = iter(peak_pool)
        self._selector = selectors.SelectSelector()
        #: Refills a peak window wanted after the pool ran out.
        self.peak_pool_dry = 0

    def _next_peak(self) -> Optional[Request]:
        request = next(self._peak_queries, None)
        if request is None:
            self.peak_pool_dry += 1
        return request

    def _poll(self, timeout: float) -> None:
        """Take in replies for up to *timeout* seconds (returns early on any)."""
        for key, _ in self._selector.select(timeout):
            conn = key.data
            for request in conn.receive():
                if request.op == "query" and request.phase == "peak":
                    if request.received < self._peak_until:
                        follow = self._next_peak()
                        if follow is not None:
                            self._send_peak(conn, follow)
            if not conn.open:
                self._selector.unregister(conn.sock)

    def run(
        self,
        timed: List[Request],
        marks_at: List[float],
        peaks: List[Tuple[int, float, float]],
        drain_seconds: float = 60.0,
    ) -> None:
        """Fire *timed* at their due times and run the peak windows.

        *marks_at* are monotonic times at which the server is signalled
        to record a CPU/RSS mark.  *peaks* holds ``(round, start, end)``
        windows: from ``start`` each connection keeps ``PEAK_DEPTH``
        queries outstanding, refilled on every reply until ``end``.
        """
        # A garbage collection pass over the plan's objects would delay
        # sends by milliseconds; the loop makes no reference cycles.
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            self._run(timed, marks_at, peaks, drain_seconds)
        finally:
            gc.enable()
            gc.unfreeze()

    def _run(self, timed, marks_at, peaks, drain_seconds) -> None:
        for conn in self.conns:
            self._selector.register(conn.sock, selectors.EVENT_READ, conn)
        events: List[tuple] = [(r.due, 1, r) for r in timed]
        events += [(t, 0, None) for t in marks_at]
        events += [(start, 2, (rnd, end)) for rnd, start, end in peaks]
        events.sort(key=lambda e: (e[0], e[1]))
        for due, kind, item in events:
            while True:
                delay = due - time.monotonic()
                if delay <= 0:
                    break
                self._poll(delay)
            if kind == 0:
                os.kill(self.server_pid, signal.SIGUSR1)
            elif kind == 1:
                if item.op == "mutate":
                    conn = self.conns[0]
                else:
                    conn = min(self.conns, key=lambda c: len(c.outstanding))
                self.requests.append(item)
                conn.send(item)
                in_flight = sum(len(c.outstanding) for c in self.conns)
                self.outstanding_max = max(self.outstanding_max, in_flight)
            else:
                self._start_peak(*item)
        deadline = time.monotonic() + drain_seconds
        while self._selector.get_map() and any(c.outstanding for c in self.conns):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self._poll(remaining)
        self._selector.close()
        for conn in self.conns:
            conn.close()

    def _send_peak(self, conn: Connection, request: Request) -> None:
        request.due = time.monotonic()
        request.round = self._peak_round
        self.requests.append(request)
        conn.send(request)

    def _start_peak(self, rnd: int, end: float) -> None:
        self._peak_round = rnd
        self._peak_until = end
        for conn in self.conns:
            for _ in range(PEAK_DEPTH):
                request = self._next_peak()
                if request is None:
                    return
                self._send_peak(conn, request)
