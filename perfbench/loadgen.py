"""Open-loop NDJSON load generator: one process, one thread, a fixed set
of connections that each carry one request at a time.

Requests are sent on a precomputed schedule regardless of how fast the
server answers.  When every connection is busy, due requests queue here
and their wait counts against latency, which is measured from each
request's *due* time.  ``late`` is the generator's own dispatch delay:
send time minus the later of the due time and the moment the chosen
connection became free.  A high ``late`` means the run measured the
generator rather than the server.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Any


SPIN_S = 0.0015


@dataclass
class Request:
    due: float  # seconds after the schedule starts
    line: bytes  # one encoded NDJSON request, newline included
    kind: str
    meta: Any = None


@dataclass
class Outcome:
    sent: float | None = None
    done: float | None = None
    late: float = 0.0
    response: bytes | None = None
    error: str | None = None


def drive(addr: tuple[str, int], requests: list[Request], connections: int,
          timeout_s: float) -> list[Outcome]:
    """Play *requests* (sorted by ``due``) against *addr*; returns one
    outcome per request, in order.  Requests still unanswered after
    *timeout_s* past the last due time are marked ``error="timeout"``."""
    out = [Outcome() for _ in requests]
    sel = selectors.DefaultSelector()
    conns = []
    try:
        for _ in range(connections):
            sock = socket.create_connection(addr, timeout=timeout_s)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conns.append(sock)
            sel.register(sock, selectors.EVENT_READ)
        idle = list(conns)
        busy: dict[socket.socket, int] = {}
        bufs = {c: bytearray() for c in conns}
        free_at = {c: 0.0 for c in conns}
        ready: deque[int] = deque()
        nxt = 0
        last_due = requests[-1].due if requests else 0.0
        t0 = time.perf_counter()
        while nxt < len(requests) or ready or busy:
            now = time.perf_counter() - t0
            if now > last_due + timeout_s:
                break
            while nxt < len(requests) and requests[nxt].due <= now:
                ready.append(nxt)
                nxt += 1
            while ready and idle:
                k = ready.popleft()
                conn = idle.pop()
                sent = time.perf_counter() - t0
                out[k].sent = sent
                out[k].late = sent - max(requests[k].due, free_at[conn])
                conn.sendall(requests[k].line)
                busy[conn] = k
            if nxt < len(requests) and not ready:
                # select() wakes up to a millisecond late; sleep until just
                # before the next due time and poll the rest of the way.
                wait = requests[nxt].due - (time.perf_counter() - t0) - SPIN_S
                wait = max(0.0, wait)
            else:
                wait = 0.05
            for key, _ in sel.select(wait):
                conn = key.fileobj
                data = conn.recv(1 << 20)  # type: ignore[union-attr]
                if not data:
                    raise ConnectionError("server closed a generator connection")
                buf = bufs[conn]  # type: ignore[index]
                buf += data
                while b"\n" in buf and conn in busy:
                    line, _, rest = bytes(buf).partition(b"\n")
                    buf[:] = rest
                    k = busy.pop(conn)  # type: ignore[arg-type]
                    done = time.perf_counter() - t0
                    out[k].done = done
                    out[k].response = line
                    free_at[conn] = done  # type: ignore[index]
                    idle.append(conn)  # type: ignore[arg-type]
        for o in out:
            if o.done is None:
                o.error = "timeout"
    finally:
        sel.close()
        for c in conns:
            c.close()
    return out
