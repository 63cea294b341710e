"""The persistent engine server: sort jobs over a local socket.

``python -m repro serve`` turns a :class:`~repro.service.SortService` into a
long-running process other programs talk to — the ROADMAP's "accept jobs
over a socket/queue" item.  The protocol is deliberately primitive so any
language (or ``nc``) can speak it:

* one TCP connection per client, **newline-delimited JSON** both ways;
* every request is one object with an ``"op"`` field; every response is one
  object with ``"ok": true/false``;
* ``submit`` returns a **ticket id** immediately; ``result`` blocks (the
  server runs one handler thread per connection, so only that client
  waits) and *consumes* the ticket on a terminal reply unless ``"keep":
  true`` — the registry stays bounded by the in-flight work, not by
  history.  Its optional ``"timeout"`` is ``null`` or a finite number of
  seconds; any other value gets an ``ok: false`` reply and keeps the
  ticket; ``cancel`` / ``status`` / ``stats`` / ``ping`` / ``shutdown``
  round out the surface.

Request → response examples::

    {"op": "submit", "data": [5, 3, 1], "priority": 0}
        → {"ok": true, "ticket": 0}
    {"op": "result", "ticket": 0}
        → {"ok": true, "ticket": 0, "n": 3, "output": [1, 3, 5],
           "algorithm": "...", "family": "...", "reads": 2, "writes": 2,
           "cost": 18.0}
    {"op": "cancel", "ticket": 7}   → {"ok": true, "cancelled": true}
    {"op": "status", "ticket": 7}   → {"ok": true, "state": "PENDING"}
    {"op": "stats"}                 → {"ok": true, "stats": {...}}
    {"op": "ping"}                  → {"ok": true, "pong": true, "frames": ["i64"]}
    {"op": "shutdown"}              → {"ok": true, "stopping": true}

**int64 frames.**  A record payload that is a non-empty list of exact
``int`` values (no ``bool``, no subclasses), each within int64, may travel
as a raw frame instead of a JSON array: 8 bytes per record, little-endian
int64 (``array("q")``, byte-swapped on big-endian hosts), sent right after
the JSON line that announces it.  In ``submit`` and in each ``submit_many``
job, ``"data_i64": n`` replaces ``"data"``, and the frames follow the line
in job order.  A ``result`` request with ``"frames": true`` gets
``"output_i64": n`` and a frame in place of an all-int ``"output"``.
Everything else — control fields, and floats, strings, bools, mixed lists,
ints of 2^63 or more and empty lists — stays JSON, byte for byte:

* **capability** — ``ping`` advertises ``"frames": ["i64"]``;
  :class:`ServiceClient` asks once per connection, at its first request
  that carries records, and frames only for a server that advertised them.
  The server frames a reply only when the request asked, so a JSON-only
  client never sees a frame;
* **cap** — :data:`MAX_LINE_BYTES` bounds a request line and, separately,
  the frames of one message together.  A count that is not a non-negative
  int, or that passes the cap, gets an ``ok: false`` reply and the
  connection is closed, as for an oversized line; the server reads every
  announced frame before it validates the request, so a rejected request
  cannot desynchronize the stream;
* **one send per message** — a header line and its frames leave in a
  single write on each side; two writes meet Nagle's algorithm and the
  peer's delayed ACK and stall every framed round trip.

Frames change only the transport: the server turns each frame back into
the list :meth:`EngineServer.dispatch` expects, so dispatch and the
``_op_*`` handlers see the same dict either way.

:class:`ServiceClient` wraps the socket plumbing for Python callers (tests,
examples, the CI smoke): ``submit`` / ``result`` / ``sort`` /
``submit_many`` / ``gather`` and a ``retries`` knob that polls until the
server is up.
"""

from __future__ import annotations

import json
import math
import socket
import socketserver
import sys
import threading
import time
from array import array
from concurrent.futures import CancelledError

from ..analysis.locksan import wrap_lock
from ..planner.batch import SortJob
from ..testing import faults
from .backoff import backoff_delay
from .futures import SortFuture
from .scheduler import QueueFullError, SortService

#: hard cap on one request line, and on the frames of one message together
#: — a runaway (or malicious) client must not be able to buffer unbounded
#: bytes into the handler thread
MAX_LINE_BYTES = 64 * 1024 * 1024

#: bytes per framed record (int64)
_I64 = 8
#: frames are little-endian on the wire, whatever the host's byte order
_SWAP = sys.byteorder == "big"


def _i64_frame(records) -> bytes | None:
    """``records`` as one little-endian int64 frame, or ``None`` when they
    must stay JSON: not a list, empty, holding anything but exact ``int``
    values (a ``bool`` or an int subclass is not one), or out of int64."""
    if not isinstance(records, list) or not records or set(map(type, records)) != {int}:
        return None
    try:
        frame = array("q", records)
    except OverflowError:
        return None
    if _SWAP:
        frame.byteswap()
    return frame.tobytes()


def _i64_records(frame) -> list[int]:
    """The records of one little-endian int64 frame."""
    records = array("q")
    records.frombytes(frame)
    if _SWAP:
        records.byteswap()
    return records.tolist()


def _overloaded_reply(exc: QueueFullError) -> dict:
    """The ``overloaded`` reply for a bounded-queue rejection, carrying the
    service's back-pressure metadata."""
    return {
        "ok": False,
        "error": "overloaded",
        "retry_after": exc.retry_after,
        "queued": exc.queued,
        "max_queue": exc.max_queue,
        "policy": exc.policy,
    }


class ServiceError(RuntimeError):
    """A server-side failure reported over the wire (``ok: false``)."""

    def __init__(self, message: str, reply: dict | None = None):
        super().__init__(message)
        self.reply = reply or {}

    @property
    def overloaded(self) -> bool:
        """Did the server shed this request for load (``overloaded`` /
        ``quota exceeded``)?  Retryable after ``retry_after`` seconds."""
        return self.reply.get("error") in ("overloaded", "quota exceeded")

    @property
    def retry_after(self) -> float | None:
        return self.reply.get("retry_after")


class _Handler(socketserver.StreamRequestHandler):
    """One thread per connection; requests are processed in arrival order
    on that connection (blocking ``result`` calls only stall their own
    client).

    Hardening contract: no client byte stream may tear this thread down.
    Garbage, truncated lines or frames (a client dying mid-send), oversized
    lines, bad frame counts and mid-reply disconnects all end in an ``ok:
    false`` reply or a clean connection close — the *server* and its other
    connections are unaffected either way.
    """

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        try:
            self._serve_lines()
        except (OSError, ValueError, EOFError):
            # connection reset / torn stream mid-read: close this
            # connection quietly, never the handler pool
            return

    def _serve_lines(self) -> None:  # pragma: no cover - exercised via sockets
        while True:
            raw = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not raw:
                return  # clean EOF (includes a trailing truncated send)
            if len(raw) > MAX_LINE_BYTES:
                # the stream is desynchronized beyond repair: reply, close
                self._reply({
                    "ok": False,
                    "error": f"request line exceeds {MAX_LINE_BYTES} bytes",
                })
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as exc:
                if not self._reply({"ok": False, "error": f"invalid request: {exc}"}):
                    return
                continue
            error = self._read_frames(request)
            if error is not None:
                # the frame bytes that follow are unknown: the stream is
                # desynchronized beyond repair, as for an oversized line
                self._reply({"ok": False, "error": error})
                return
            reply = self.server.engine_server.dispatch(
                request, client=self.client_address
            )
            if not self._reply(reply, frames=request.get("frames") is True):
                return  # client went away mid-reply
            if reply.get("stopping"):
                return

    def _read_frames(self, request: dict) -> str | None:  # pragma: no cover - via sockets
        """Read every int64 frame ``request`` announces and put each one's
        records under ``data`` in place of its ``data_i64`` count, so
        dispatch sees the request a JSON client would have sent.

        Returns an error message for a count the stream cannot recover
        from; raises :class:`EOFError` when the stream ends inside a frame.
        """
        jobs = request.get("jobs")
        specs = [request, *jobs] if isinstance(jobs, list) else [request]
        framed = [s for s in specs if isinstance(s, dict) and "data_i64" in s]
        if not framed:
            return None
        total = 0
        for spec in framed:
            count = spec["data_i64"]
            if type(count) is not int or count < 0:
                return f"invalid frame count {count!r}: need a non-negative int"
            total += count * _I64
            if total > MAX_LINE_BYTES:
                return f"frames exceed {MAX_LINE_BYTES} bytes"
        frames = memoryview(self.rfile.read(total))
        if len(frames) < total:
            raise EOFError("stream ended inside a frame")
        offset = 0
        for spec in framed:
            size = spec.pop("data_i64") * _I64
            spec["data"] = _i64_records(frames[offset : offset + size])
            offset += size
        return None

    def _reply(self, reply: dict, frames: bool = False) -> bool:  # pragma: no cover - via sockets
        """Send one reply; with ``frames``, an all-int64 ``output`` goes as
        ``output_i64`` plus a frame."""
        frame = _i64_frame(reply.get("output")) if frames else None
        if frame is not None:
            reply["output_i64"] = len(reply.pop("output"))
        try:
            payload = json.dumps(reply)
        except (TypeError, ValueError):
            # a handler produced an unserializable value; degrade to an
            # error reply instead of killing the connection
            payload = json.dumps(
                {"ok": False, "error": "server produced an unserializable reply"}
            )
            frame = None
        try:
            # the line and its frame leave in one write (see the module
            # docstring: two writes stall on Nagle plus delayed ACK)
            self.wfile.write((payload + "\n").encode("utf-8") + (frame or b""))
            self.wfile.flush()
        except (OSError, BrokenPipeError):
            return False
        return True


#: seconds between the accept loop's checks for a shutdown request:
#: :meth:`EngineServer.close` and the ``shutdown`` op return within this.
#: ``socketserver``'s default, 0.5 s, would make every close wait that
#: long; the price is an idle server waking 50 times a second
_POLL_INTERVAL = 0.02


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    engine_server: "EngineServer"


class EngineServer:
    """Line-protocol façade over one :class:`SortService`.

    ``port=0`` binds an OS-assigned ephemeral port; read the real address
    from :attr:`address`.  ``start()`` serves in a background thread (for
    tests / embedding); :meth:`serve_forever` blocks (the CLI path).

    Registry bounds: default eviction is consumption — a terminal ``result``
    reply drops the ticket.  Clients that ask ``"keep": true`` (or never
    collect) would still grow the registry without bound, so two optional
    knobs cap it: ``ticket_ttl`` evicts *finished* tickets ``ttl`` seconds
    after completion, and ``max_tickets`` evicts the oldest finished
    tickets beyond the cap.  In-flight tickets are never evicted by either
    knob.  ``clock`` is injectable for tests (monotonic seconds).
    """

    def __init__(
        self,
        service: SortService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        ticket_ttl: float | None = None,
        max_tickets: int | None = None,
        max_client_tickets: int | None = None,
        clock=time.monotonic,
    ):
        self.service = service
        self._server = _TCPServer((host, port), _Handler)
        self._server.engine_server = self
        self._tickets: dict[int, SortFuture] = {}
        self._lock = wrap_lock(threading.Lock(), "EngineServer._lock")
        self._thread: threading.Thread | None = None
        #: a serve loop has begun (``start`` or ``serve_forever``): only
        #: then does ``close`` wait for one to stop
        self._serving = False
        if ticket_ttl is not None and ticket_ttl < 0:
            raise ValueError(f"ticket_ttl must be >= 0, got {ticket_ttl}")
        if max_tickets is not None and max_tickets < 1:
            raise ValueError(f"max_tickets must be >= 1, got {max_tickets}")
        if max_client_tickets is not None and max_client_tickets < 1:
            raise ValueError(
                f"max_client_tickets must be >= 1, got {max_client_tickets}"
            )
        self._ticket_ttl = ticket_ttl
        self._max_tickets = max_tickets
        self._max_client_tickets = max_client_tickets
        self._clock = clock
        #: completion stamps for finished-but-unconsumed tickets (subset of
        #: ``_tickets`` keys; maintained lazily by :meth:`_purge`)
        self._done_at: dict[int, float] = {}
        #: per-client quota bookkeeping: which client owns each live ticket,
        #: and how many each client currently holds
        self._ticket_owner: dict[int, tuple] = {}
        self._client_tickets: dict[tuple, int] = {}
        self._evictions = 0
        self._quota_rejections = 0

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> tuple[str, int]:
        return self._server.server_address[:2]

    def start(self) -> "EngineServer":
        thread = threading.Thread(
            target=self._server.serve_forever,
            args=(_POLL_INTERVAL,),
            daemon=True,
            name="sort-serve",
        )
        with self._lock:
            self._thread = thread
            self._serving = True
        thread.start()
        return self

    def serve_forever(self) -> None:
        with self._lock:
            self._serving = True
        self._server.serve_forever(_POLL_INTERVAL)

    def close(self) -> None:
        """Stop the listener (idempotent).  The service is left to its
        owner — the CLI shuts it down, embedded users may keep it."""
        with self._lock:
            serving = self._serving
            thread, self._thread = self._thread, None
        # socketserver's shutdown() waits for a serve loop to exit, so on a
        # server that never served it would wait forever
        if serving:
            self._server.shutdown()
        self._server.server_close()
        if thread is not None:
            thread.join(timeout=5)

    def __enter__(self) -> "EngineServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # request dispatch
    # ------------------------------------------------------------------ #
    def dispatch(self, request: dict, client: tuple | None = None) -> dict:
        """Route one request object to its ``_op_*`` handler.

        ``client`` is the peer address of the connection the request came
        in on — the identity per-client ticket quotas are charged to.
        Overload is a *reply*, not an exception: a bounded-queue rejection
        surfaces as ``{"ok": false, "error": "overloaded", "retry_after"}``
        so shed clients learn when to come back.
        """
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        plan = faults.active()
        if plan is not None and plan.should_fire("slow-host"):
            time.sleep(plan.slow_seconds)  # injected stall: server is "slow"
        try:
            return handler(request, client)
        except QueueFullError as exc:
            return _overloaded_reply(exc)
        except ServiceError as exc:
            return {"ok": False, **exc.reply, "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — a bad request must not kill the server
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def _job_from(self, spec: dict) -> tuple[SortJob, float, bool]:
        data = spec.get("data")
        if not isinstance(data, list):
            raise ServiceError("submit needs 'data': a JSON array of records")
        job = SortJob(
            data=data,
            label=str(spec.get("label", "")),
            algorithm=spec.get("algorithm"),
            k=spec.get("k"),
        )
        return job, spec.get("priority", 0), bool(spec.get("check_sorted", False))

    def _purge(self) -> int:
        """TTL / capacity sweep over the ticket registry; returns evictions.

        Piggybacked on registry traffic (:meth:`_register`, :meth:`_lookup`,
        ``stats``) rather than run on a timer thread.  Finished tickets are
        stamped on first sight via the non-blocking ``SortFuture.done()``
        (never ``result()`` — this runs under the registry lock), then
        dropped once older than ``ticket_ttl``; if ``max_tickets`` is still
        exceeded, the oldest-finished tickets go next.  In-flight tickets
        always survive.
        """
        if self._ticket_ttl is None and self._max_tickets is None:
            return 0
        now = self._clock()
        evicted = 0
        with self._lock:
            for ticket, future in self._tickets.items():
                if ticket not in self._done_at and future.done():
                    self._done_at[ticket] = now
            if self._ticket_ttl is not None:
                for ticket in [
                    t for t, at in self._done_at.items()
                    if now - at >= self._ticket_ttl
                ]:
                    self._drop_ticket_locked(ticket)
                    evicted += 1
            if self._max_tickets is not None and len(self._tickets) > self._max_tickets:
                for _, ticket in sorted((at, t) for t, at in self._done_at.items()):
                    if len(self._tickets) <= self._max_tickets:
                        break
                    self._drop_ticket_locked(ticket)
                    evicted += 1
            self._evictions += evicted
        return evicted

    def _drop_ticket_locked(self, ticket: int) -> None:
        """Remove one ticket and release its owner's quota charge (caller
        holds ``_lock``)."""
        self._tickets.pop(ticket, None)
        self._done_at.pop(ticket, None)
        owner = self._ticket_owner.pop(ticket, None)
        if owner is not None:
            held = self._client_tickets.get(owner, 0) - 1
            if held > 0:
                # caller holds _lock (the _locked suffix is the contract)
                self._client_tickets[owner] = held  # reprolint: disable=lock-discipline
            else:
                self._client_tickets.pop(owner, None)

    def _check_quota(self, client: tuple | None) -> None:
        """Refuse a submit that would push ``client`` past its ticket quota
        — a per-client bound so one greedy connection cannot starve the
        fleet even when the global queue still has room."""
        if self._max_client_tickets is None or client is None:
            return
        with self._lock:
            held = self._client_tickets.get(client, 0)
            if held < self._max_client_tickets:
                return
            self._quota_rejections += 1
        raise ServiceError(
            "quota exceeded",
            {
                "retry_after": self.service.retry_hint(),
                "held": held,
                "max_client_tickets": self._max_client_tickets,
            },
        )

    def _register(self, future: SortFuture, client: tuple | None = None) -> int:
        self._purge()
        with self._lock:
            self._tickets[future.ticket] = future
            if client is not None:
                self._ticket_owner[future.ticket] = client
                self._client_tickets[client] = self._client_tickets.get(client, 0) + 1
        return future.ticket

    def _lookup(self, request: dict) -> SortFuture:
        self._purge()
        ticket = request.get("ticket")
        with self._lock:
            future = self._tickets.get(ticket)
        if future is None:
            raise ServiceError(f"unknown ticket {ticket!r}")
        return future

    # ---- ops --------------------------------------------------------- #
    def _op_ping(self, request: dict, client: tuple | None = None) -> dict:
        return {"ok": True, "pong": True, "frames": ["i64"]}

    def _op_submit(self, request: dict, client: tuple | None = None) -> dict:
        self._check_quota(client)
        job, priority, check_sorted = self._job_from(request)
        future = self.service.submit(job, priority, check_sorted=check_sorted)
        return {"ok": True, "ticket": self._register(future, client)}

    def _op_submit_many(self, request: dict, client: tuple | None = None) -> dict:
        specs = request.get("jobs")
        if not isinstance(specs, list):
            raise ServiceError("submit_many needs 'jobs': an array of job objects")
        tickets: list[int] = []
        for spec in specs:
            # partial acceptance: jobs admitted before the queue (or this
            # client's quota) filled stay live, and the overload reply
            # carries their tickets so the client can still collect them
            try:
                self._check_quota(client)
                job, priority, check_sorted = self._job_from(spec)
                future = self.service.submit(job, priority, check_sorted=check_sorted)
            except QueueFullError as exc:
                return {**_overloaded_reply(exc), "tickets": tickets}
            except ServiceError as exc:
                return {"ok": False, **exc.reply, "error": str(exc),
                        "tickets": tickets}
            tickets.append(self._register(future, client))
        return {"ok": True, "tickets": tickets}

    def _evict(self, ticket, keep: bool) -> None:
        """Drop a consumed ticket unless the client asked to keep it.

        Retained futures hold the job's input *and* its sorted output; a
        long-running server that never evicted would grow without bound, so
        a terminal ``result`` reply consumes the ticket by default
        (``"keep": true`` opts into re-reading it later)."""
        if keep:
            return
        with self._lock:
            self._drop_ticket_locked(ticket)

    def _op_result(self, request: dict, client: tuple | None = None) -> dict:
        timeout = request.get("timeout")
        # checked before the lookup: a timeout the wait cannot take must
        # not consume the ticket, and the sorted output with it
        if timeout is not None and not (
            type(timeout) in (int, float) and -math.inf < timeout <= threading.TIMEOUT_MAX
        ):
            raise ServiceError(
                "result 'timeout' must be null or a finite number of seconds "
                f"up to {threading.TIMEOUT_MAX:g}, got {timeout!r}"
            )
        future = self._lookup(request)
        keep = bool(request.get("keep", False))
        try:
            rep = future.result(timeout)
        except TimeoutError:  # not terminal: the ticket stays retrievable
            return {"ok": False, "error": "timeout", "pending": True,
                    "state": future.state}
        except CancelledError:
            self._evict(future.ticket, keep)
            return {"ok": False, "error": "cancelled", "cancelled": True}
        except Exception as exc:  # noqa: BLE001 — job failures travel as replies
            self._evict(future.ticket, keep)
            return {"ok": False, "error": str(exc), "kind": type(exc).__name__}
        self._evict(future.ticket, keep)
        return {
            "ok": True,
            "ticket": future.ticket,
            "n": rep.n,
            "algorithm": rep.algorithm,
            "family": rep.family,
            "output": rep.output,
            "reads": rep.reads,
            "writes": rep.writes,
            "cost": rep.cost(),
            "wall_seconds": future.wall_seconds or 0.0,
            "cpu_seconds": future.cpu_seconds or 0.0,
        }

    def _op_status(self, request: dict, client: tuple | None = None) -> dict:
        return {"ok": True, "state": self._lookup(request).state}

    def _op_cancel(self, request: dict, client: tuple | None = None) -> dict:
        return {"ok": True, "cancelled": self._lookup(request).cancel()}

    def _op_stats(self, request: dict, client: tuple | None = None) -> dict:
        self._purge()
        with self._lock:
            tickets = len(self._tickets)
            evictions = self._evictions
            clients = len(self._client_tickets)
            quota_rejections = self._quota_rejections
        return {
            "ok": True,
            "stats": {
                **self.service.stats(),
                "tickets": tickets,
                "ticket_evictions": evictions,
                "clients": clients,
                "quota_rejections": quota_rejections,
            },
        }

    def _op_shutdown(self, request: dict, client: tuple | None = None) -> dict:
        # stop the listener from a helper thread: shutdown() blocks until
        # serve_forever exits, which must not happen on a handler thread
        threading.Thread(target=self._server.shutdown, daemon=True).start()
        return {"ok": True, "stopping": True}


class ServiceClient:
    """Python-side speaker of the serve line protocol.

    One TCP connection, blocking request/response.  ``retries`` polls the
    connect until the server is listening (handy right after launching
    ``python -m repro serve`` in the background); connect attempts back off
    exponentially from ``retry_delay`` with jitter (capped at 2 s, as
    :func:`~repro.service.backoff.backoff_delay` caps by default) instead
    of hammering a booting server at a fixed rate.
    ``request_timeout`` is a per-request deadline on the socket — a stalled
    server surfaces as :class:`TimeoutError` instead of a silent hang.

    ``submit``, ``submit_many`` and ``result`` carry all-int64 records as
    frames (see the module docstring) when the server advertises them; the
    first of those calls on a connection asks with one ``ping``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        retries: int = 0,
        retry_delay: float = 0.1,
        timeout: float | None = None,
        request_timeout: float | None = None,
    ):
        if not 0 < retry_delay <= 2.0:
            raise ValueError(
                f"retry_delay must be in (0, 2] s, the backoff's cap; got {retry_delay}"
            )
        last_error: Exception | None = None
        attempts = max(1, retries + 1)
        for attempt in range(attempts):
            try:
                self._sock = socket.create_connection((host, port), timeout=timeout)
                break
            except OSError as exc:
                last_error = exc
                if attempt + 1 < attempts:  # no sleep after the final failure
                    time.sleep(backoff_delay(attempt, base=retry_delay))
        else:
            raise ConnectionError(
                f"cannot reach sort server at {host}:{port}: {last_error}"
            )
        self._rfile = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self._base_timeout = timeout
        self._request_timeout = request_timeout
        #: does the server take int64 frames?  ``None`` until asked
        self._frames: bool | None = None

    # ------------------------------------------------------------------ #
    def _fault_point(self, message: bytes) -> None:
        """Client-side fault seams (no-ops unless a plan is installed):
        ``timeout`` storms, dropped connections, and truncated sends."""
        plan = faults.active()
        if plan is None:
            return
        if plan.should_fire("timeout"):
            # fires *before* the send so a retry cannot double-submit
            raise TimeoutError("injected client timeout")
        if plan.should_fire("wire-drop"):
            self._sock.close()
            raise ConnectionError("injected wire drop")
        if plan.should_fire("partial-line"):
            # really put a truncated request (line plus any frames) on the
            # wire so the server's torn-stream handling is exercised, then
            # die mid-send
            self._sock.sendall(message[: max(1, len(message) // 2)])
            self._sock.close()
            raise ConnectionError("injected partial-line drop")

    def request(self, payload: dict, timeout: float | None = None) -> dict:
        """Send one raw request object; return the raw reply object.

        ``timeout`` (or the client-wide ``request_timeout``) bounds this
        round-trip; expiry raises :class:`TimeoutError` and the connection
        is no longer usable (the reply stream may be desynchronized).
        """
        return self._send(payload, (), timeout)

    def _send(self, payload: dict, frames=(), timeout: float | None = None) -> dict:
        """:meth:`request` with ``frames`` sent after the line; a reply
        frame comes back decoded under ``output``."""
        message = b"".join((json.dumps(payload).encode("utf-8"), b"\n", *frames))
        self._fault_point(message)
        return self._exchange(message, payload.get("op"), timeout)

    def _exchange(self, message: bytes, op: str | None, timeout: float | None = None) -> dict:
        """Send one encoded message; read and decode its reply."""
        deadline = timeout if timeout is not None else self._request_timeout
        # deliberate: the lock IS the request pipeline — it serializes the
        # send/recv pair so concurrent callers cannot interleave replies
        with self._lock:
            if deadline is not None:
                self._sock.settimeout(deadline)
            try:
                # one send per message, frames included (module docstring)
                self._sock.sendall(message)  # reprolint: disable=flow-lockset
                line = self._rfile.readline()  # reprolint: disable=flow-lockset
                if not line:
                    raise ConnectionError("server closed the connection")
                reply = json.loads(line)
                count = reply.get("output_i64")
                if count is not None:
                    size = count * _I64
                    frame = self._rfile.read(size)  # reprolint: disable=flow-lockset
                    if len(frame) < size:
                        raise ConnectionError("server closed the connection mid-frame")
            except socket.timeout as exc:
                raise TimeoutError(f"no reply within {deadline}s for op {op!r}") from exc
            finally:
                if deadline is not None:
                    self._sock.settimeout(self._base_timeout)
        if count is not None:
            del reply["output_i64"]
            reply["output"] = _i64_records(frame)
        return reply

    def _checked(self, payload: dict, frames=()) -> dict:
        reply = self._send(payload, frames)
        if not reply.get("ok"):
            raise ServiceError(reply.get("error", "request failed"), reply)
        return reply

    def _framing(self) -> bool:
        """Does the server take int64 frames?  Asked with one ``ping`` at
        the first request on this connection that carries records.

        The ping skips the fault seams: it is no caller's request, so a
        seeded fault plan's decisions fall on the same requests whether or
        not a connection has asked yet."""
        if self._frames is None:
            reply = self._exchange(b'{"op": "ping"}\n', "ping")
            frames = "i64" in (reply.get("frames") or ())
            with self._lock:
                self._frames = frames
        return self._frames

    def _records(self, records: list, frames: list) -> dict:
        """The fields that carry ``records``: ``data_i64`` with the frame
        appended to ``frames`` when the server takes frames and the records
        are all int64, else a JSON ``data`` array."""
        frame = _i64_frame(records) if self._framing() else None
        if frame is None:
            return {"data": records}
        frames.append(frame)
        return {"data_i64": len(records)}

    # ------------------------------------------------------------------ #
    def ping(self) -> bool:
        return bool(self._checked({"op": "ping"}).get("pong"))

    def submit(
        self,
        data,
        priority: float = 0,
        *,
        algorithm: str | None = None,
        k: int | None = None,
        label: str = "",
        check_sorted: bool = False,
    ) -> int:
        """Submit one job; return its ticket id."""
        frames: list[bytes] = []
        return self._checked(
            {
                "op": "submit",
                **self._records(list(data), frames),
                "priority": priority,
                "algorithm": algorithm,
                "k": k,
                "label": label,
                "check_sorted": check_sorted,
            },
            frames,
        )["ticket"]

    def submit_many(self, datasets, priority: float = 0) -> list[int]:
        frames: list[bytes] = []
        jobs = [{**self._records(list(d), frames), "priority": priority} for d in datasets]
        return self._checked({"op": "submit_many", "jobs": jobs}, frames)["tickets"]

    def result(
        self, ticket: int, timeout: float | None = None, *, keep: bool = False
    ) -> dict:
        """Block until the job finishes; return the result record
        (``output``, ``algorithm``, ``reads``, ``writes``, ``cost`` …).
        Raises :class:`ServiceError` on job failure / cancellation /
        timeout.

        A terminal reply *consumes* the ticket server-side (re-asking
        reports it unknown) so the server's memory stays bounded; pass
        ``keep=True`` to leave it retrievable again."""
        payload: dict = {"op": "result", "ticket": ticket}
        if timeout is not None:
            payload["timeout"] = timeout
        if keep:
            payload["keep"] = True
        if self._framing():
            payload["frames"] = True
        return self._checked(payload)

    def gather(self, tickets, timeout: float | None = None) -> list[dict]:
        return [self.result(t, timeout) for t in tickets]

    def sort(self, data, **kwargs) -> list:
        """Synchronous convenience: submit + result → the sorted records."""
        return self.result(self.submit(data, **kwargs))["output"]

    def status(self, ticket: int) -> str:
        return self._checked({"op": "status", "ticket": ticket})["state"]

    def cancel(self, ticket: int) -> bool:
        return bool(self._checked({"op": "cancel", "ticket": ticket})["cancelled"])

    def stats(self) -> dict:
        return self._checked({"op": "stats"})["stats"]

    def shutdown_server(self) -> None:
        """Ask the server to stop listening (in-flight work still drains
        server-side)."""
        self._checked({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
