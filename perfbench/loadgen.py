"""Open-loop HTTP/1.1 load generator with pipelining.

One thread, a few keep-alive connections, requests pipelined up to the
front's depth limit.  Every request has a *due* time on a fixed
schedule and its latency is measured from that due time, not from when
the generator managed to send it: when the server (or the generator)
stalls, the requests queued behind the stall are charged for it.  That
is what keeps the measurement free of coordinated omission.

Two modes share one engine:

* **open loop** -- ``run(..., ops)`` with due times from a schedule
  (:func:`poisson_times`, :func:`uniform_times`);
* **saturation** -- ``window=W`` keeps at most ``W`` requests
  outstanding and ``stop_at`` ends issuing; ops with due time 0 are sent
  as soon as a slot frees up.

``Op.after`` chains an op behind another one (a session's next update
is sent only once the previous update has answered); its latency still
counts from its own due time.

The module is stdlib-only so its tests need neither numpy nor the
service.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import math
import random
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

#: the event-loop front's per-connection pipelining cap
MAX_PIPELINE_DEPTH = 32

#: percentiles the tail helper may report, highest last
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: samples the tail helper needs above a percentile to report it
TAIL_MIN_BEYOND = 10

#: the phase clock starts this long after the connections open, so the
#: first ops are not late before the loop even runs
LEAD_S = 0.02


@dataclass
class Op:
    """One scheduled HTTP request."""

    due: float              # seconds after phase start
    request: bytes          # complete HTTP/1.1 request bytes
    lane: Optional[int] = None   # pin to one connection; None = least busy
    after: Optional[int] = None  # index of an op that must answer first
    tag: object = None      # caller's bookkeeping (never sent)


@dataclass
class Outcome:
    """What happened to one op (times in seconds after phase start)."""

    sent: float = math.nan
    done: float = math.nan
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and self.status == 200


@dataclass
class Phase:
    """Result of one :func:`run` call."""

    ops: list
    outcomes: list
    record_s: float = 0.0   # time spent recording spans, in seconds
    t0: float = 0.0         # time.perf_counter() at phase time 0

    def latencies_ms(self, indices=None) -> list:
        """Latency from due time to the last response byte, in ms, of
        every op that answered (optionally only ``indices``)."""
        idx = range(len(self.ops)) if indices is None else indices
        return [
            (self.outcomes[i].done - self.ops[i].due) * 1e3
            for i in idx
            if self.outcomes[i].ok
        ]

    def lags_ms(self) -> list:
        """How late the generator sent each op, in ms."""
        return [
            (o.sent - op.due) * 1e3
            for op, o in zip(self.ops, self.outcomes)
            if not math.isnan(o.sent)
        ]


def http_request(path: str, body: Optional[bytes] = None) -> bytes:
    """The bytes of one keep-alive request (GET when ``body`` is None)."""
    if body is None:
        return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("latin-1")
    return head + body


# ----------------------------------------------------------------------
# schedules and statistics
# ----------------------------------------------------------------------

def poisson_times(rate: float, duration: float, rng: random.Random) -> list:
    """Arrival times of a Poisson process of ``rate``/s on [0, duration)."""
    out, t = [], rng.expovariate(rate)
    while t < duration:
        out.append(t)
        t += rng.expovariate(rate)
    return out


def uniform_times(rate: float, duration: float, offset: float = 0.0) -> list:
    """Evenly spaced arrivals of ``rate``/s on [0, duration)."""
    step = 1.0 / rate
    n = int(math.ceil((duration - offset) / step))
    return [offset + i * step for i in range(n) if offset + i * step < duration]


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def mixed_percentile(samples: Sequence[tuple], shares: dict, p: float) -> float:
    """Percentile ``p`` of a mix of request classes in fixed ``shares``
    (class -> share), from ``(class, value)`` samples.  Each sample
    weighs its class's share over that class's sample count, so samples
    whose mix drifted from ``shares`` still give the percentile of the
    intended mix; classes without samples drop out.  With equal weights
    it is :func:`percentile`."""
    count: dict = {}
    for c, _ in samples:
        count[c] = count.get(c, 0) + 1
    pairs = sorted((v, shares[c] / count[c]) for c, v in samples)
    if not pairs:
        raise ValueError("percentile of no samples")
    if len(pairs) == 1:
        return pairs[0][0]
    # sample i sits at the middle of its weight, rescaled so the first
    # and last samples sit at 0 and 1 (numpy's linear rule when equal)
    first, last = pairs[0][1] / 2, pairs[-1][1] / 2
    span = sum(w for _, w in pairs) - first - last
    at, x = [], p / 100.0
    below = 0.0
    for _, w in pairs:
        at.append((below + w / 2 - first) / span)
        below += w
    i = min(len(pairs) - 2, max(0, bisect.bisect_right(at, x) - 1))
    f = min(1.0, max(0.0, (x - at[i]) / (at[i + 1] - at[i])))
    return pairs[i][0] + f * (pairs[i + 1][0] - pairs[i][0])


def tail_percentile(values: Sequence[float]):
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_MIN_BEYOND` samples above it: ``{"p", "value", "n"}``,
    or ``{"p": None, "value": None, "n"}`` when even the median has
    fewer."""
    n = len(values)
    best = None
    for p in TAIL_PERCENTILES:
        beyond = n - math.ceil(round(n * p / 100.0, 9))
        if beyond >= TAIL_MIN_BEYOND:
            best = p
    if best is None:
        return {"p": None, "value": None, "n": n}
    return {"p": best, "value": percentile(values, best), "n": n}


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

class _Conn:
    __slots__ = ("sock", "lane", "outbuf", "inbuf", "inflight", "dead",
                 "writing")

    def __init__(self, sock: socket.socket, lane: int) -> None:
        self.sock = sock
        self.lane = lane
        self.outbuf = bytearray()
        self.inbuf = bytearray()
        self.inflight: deque = deque()
        self.dead = False
        self.writing = False


def _parse_response(buf: bytearray):
    """``(status, body, consumed)`` of the first complete response in
    ``buf``, or None.  The front always sends Content-Length."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = bytes(buf[:end]).decode("latin-1").split("\r\n")
    status = int(head[0].split(" ", 2)[1])
    length = 0
    for line in head[1:]:
        name, _, value = line.partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    total = end + 4 + length
    if len(buf) < total:
        return None
    return status, bytes(buf[end + 4:total]), total


def run(
    address: tuple,
    ops: Sequence[Op],
    n_conns: int,
    *,
    window: Optional[int] = None,
    stop_at: Optional[float] = None,
    timeout_s: float = 60.0,
    spans: Optional[list] = None,
) -> Phase:
    """Drive ``ops`` against ``address`` and return every outcome.

    ``window`` caps outstanding requests (saturation mode); ``stop_at``
    stops issuing new ops at that phase time (ops never sent are left
    with ``error="not sent"`` and are not attempts).  Ops still
    unanswered ``timeout_s`` after the last due time (or ``stop_at``)
    fail with ``error="timeout"``.  When ``spans`` is a list, one span
    record per op is appended to it, and the time that recording takes
    is returned as ``Phase.record_s``.
    """
    outcomes = [Outcome() for _ in ops]
    successors: dict[int, list[int]] = {}
    ready: list = []   # heap of (due, index) whose predecessor answered
    for i, op in enumerate(ops):
        if op.after is None:
            ready.append((op.due, i))
        else:
            successors.setdefault(op.after, []).append(i)
    heapq.heapify(ready)
    blocked: deque = deque()  # due but no connection slot free
    sel = selectors.DefaultSelector()
    conns = []
    for lane in range(n_conns):
        sock = socket.create_connection(address, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        conn = _Conn(sock, lane)
        sel.register(sock, selectors.EVENT_READ, conn)
        conns.append(conn)
    t0 = time.perf_counter() + LEAD_S
    horizon = max((op.due for op in ops), default=0.0)
    if stop_at is not None:
        horizon = stop_at
    deadline = horizon + timeout_s
    outstanding = 0
    remaining = len(ops)
    record_s = 0.0

    def clock() -> float:
        return time.perf_counter() - t0

    def finish(i: int, now: float) -> None:
        nonlocal remaining, record_s
        remaining -= 1
        for j in successors.pop(i, ()):
            heapq.heappush(ready, (ops[j].due, j))
        if spans is not None:
            start = time.perf_counter()
            o = outcomes[i]
            spans.append({
                "name": "loadgen.request", "op": i,
                "due": ops[i].due, "start": o.sent, "end": now,
                "status": o.status, "error": o.error,
            })
            record_s += time.perf_counter() - start

    def fail_conn(conn: _Conn, reason: str, now: float) -> None:
        nonlocal outstanding
        conn.dead = True
        try:
            sel.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()
        while conn.inflight:
            i = conn.inflight.popleft()
            outstanding -= 1
            outcomes[i].error = reason
            outcomes[i].done = now
            finish(i, now)

    def pick(op: Op) -> Optional[_Conn]:
        if op.lane is not None:
            conn = conns[op.lane % n_conns]
            if conn.dead or len(conn.inflight) >= MAX_PIPELINE_DEPTH:
                return None
            return conn
        live = [c for c in conns
                if not c.dead and len(c.inflight) < MAX_PIPELINE_DEPTH]
        return min(live, key=lambda c: len(c.inflight)) if live else None

    def flush(conn: _Conn, now: float) -> None:
        try:
            sent = conn.sock.send(conn.outbuf)
        except BlockingIOError:
            sent = 0
        except OSError as exc:
            fail_conn(conn, f"send: {exc}", now)
            return
        del conn.outbuf[:sent]
        want_write = bool(conn.outbuf)
        if want_write != conn.writing:
            conn.writing = want_write
            events = selectors.EVENT_READ | (
                selectors.EVENT_WRITE if want_write else 0
            )
            sel.modify(conn.sock, events, conn)

    def dispatch(i: int, now: float) -> bool:
        nonlocal outstanding
        conn = pick(ops[i])
        if conn is None:
            return False
        outcomes[i].sent = now
        conn.inflight.append(i)
        outstanding += 1
        conn.outbuf += ops[i].request
        flush(conn, now)
        return True

    # a collection pause in the generator would be charged to the
    # requests due meanwhile; the phase allocates little, so pause GC
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        while remaining:
            now = clock()
            if now > deadline:
                break
            issuing = stop_at is None or now < stop_at
            # issue: blocked ops first (they are older), then due ones
            while issuing and blocked and (window is None or outstanding < window):
                if not dispatch(blocked[0], now):
                    break
                blocked.popleft()
            while issuing and ready and ready[0][0] <= now and (
                window is None or outstanding < window
            ):
                _, i = heapq.heappop(ready)
                if blocked or not dispatch(i, now):
                    blocked.append(i)
            if not issuing and not outstanding:
                break
            if all(c.dead for c in conns):
                break
            timeout = 0.05
            if issuing and ready and not blocked and (
                window is None or outstanding < window
            ):
                timeout = min(timeout, max(0.0, ready[0][0] - now))
            for key, mask in sel.select(timeout):
                conn = key.data
                now = clock()
                if mask & selectors.EVENT_WRITE and not conn.dead:
                    flush(conn, now)
                if mask & selectors.EVENT_READ and not conn.dead:
                    try:
                        data = conn.sock.recv(1 << 18)
                    except BlockingIOError:
                        continue
                    except OSError as exc:
                        fail_conn(conn, f"recv: {exc}", now)
                        continue
                    if not data:
                        fail_conn(conn, "connection closed", now)
                        continue
                    conn.inbuf += data
                    while conn.inflight:
                        parsed = _parse_response(conn.inbuf)
                        if parsed is None:
                            break
                        status, body, consumed = parsed
                        del conn.inbuf[:consumed]
                        i = conn.inflight.popleft()
                        outstanding -= 1
                        o = outcomes[i]
                        o.status, o.body, o.done = status, body, now
                        if status != 200:
                            o.error = f"HTTP {status}"
                        finish(i, now)
    finally:
        if gc_enabled:
            gc.enable()
        now = clock()
        for conn in conns:
            if not conn.dead:
                fail_conn(conn, "timeout", now)
        sel.close()
    for o in outcomes:
        if math.isnan(o.sent) and not o.error:
            o.error = "not sent"
    return Phase(list(ops), outcomes, record_s, t0)
