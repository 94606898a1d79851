"""Minimal HTTP layer on top of the fluid-flow network.

Rocks pulls everything over HTTP: compute nodes fetch their generated
Kickstart file from a CGI script and then pull every RPM from the install
server.  We model an HTTP server as

* a document tree mapping URL paths to byte sizes (static resources),
* optional *CGI handlers* whose response body is computed per-request
  (this is how the Kickstart generator is wired in), and
* a protocol-efficiency factor: the paper observes a 100 Mbit server
  sustains 7-8 MB/s of useful payload, i.e. ~70% of wire speed, so each
  server throttles its aggregate payload rate through a virtual link.

Replicated servers plus :class:`LoadBalancer` model the paper's
"N web servers support N times the concurrent reinstallations" argument.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from .engine import AnyOf, Environment, Event, Interrupt
from .flows import Link
from .topology import Network

__all__ = [
    "HttpServer",
    "HttpResponse",
    "HttpError",
    "RequestLog",
    "LoadBalancer",
    "DEFAULT_HTTP_EFFICIENCY",
]

#: Fraction of wire speed an HTTP server can turn into payload (paper §6.3).
DEFAULT_HTTP_EFFICIENCY = 0.70


class HttpError(Exception):
    """An HTTP-level failure, carrying a status code.

    ``retry_after`` mirrors the Retry-After response header: a hint (in
    seconds) for when the client should try again, attached to 503s shed
    by admission control.  ``server`` names the backend that answered,
    so clients behind a load balancer can attribute the failure.
    """

    def __init__(
        self,
        status: int,
        reason: str,
        retry_after: Optional[float] = None,
        server: str = "",
    ):
        super().__init__(f"{status} {reason}")
        self.status = status
        self.reason = reason
        self.retry_after = retry_after
        self.server = server


#: Admission control, while a server has it on: at most
#: ``MAX_CONCURRENT`` requests in flight; arrivals beyond the cap wait in
#: a FIFO accept queue of at most ``QUEUE_LIMIT`` entries for up to
#: ``QUEUE_TIMEOUT`` seconds.  A request shed from a full queue (or timed
#: out waiting) gets a 503 whose Retry-After is drawn uniformly from
#: ``[RETRY_AFTER, RETRY_AFTER * (1 + RETRY_JITTER)]`` by a per-server
#: RNG seeded from the admission seed and the host name.  Without the
#: jitter, a thundering herd shed in the same tick retries in the same
#: tick -- and is shed again, forever in lockstep.
MAX_CONCURRENT = 6
QUEUE_LIMIT = 8
QUEUE_TIMEOUT = 30.0
RETRY_AFTER = 20.0
RETRY_JITTER = 0.75


@dataclass
class HttpResponse:
    """Outcome of a GET: status, payload size, optional computed body.

    ``checksum`` is filled in by content-aware layers (the install
    server stamps each RPM's payload digest); empty means unverifiable.
    """

    status: int
    path: str
    size: float
    body: Any = None
    server: str = ""
    checksum: str = ""


class RequestLog:
    """The times of the requests one or more :class:`HttpServer` saw.

    ``requests`` holds ``(t0, t1)`` for every GET that ended (served,
    failed, reset or aborted): the interval of its ``http`` span.
    ``rejects`` holds the time of every request admission control shed:
    the ``t`` of its ``http-reject`` event.  A server records into the
    log attached as its ``log``, traced or not, and nothing without one.
    """

    __slots__ = ("requests", "rejects")

    def __init__(self) -> None:
        self.requests: list[tuple[float, float]] = []
        self.rejects: list[float] = []


CgiHandler = Callable[[str, str], tuple[Any, float]]
"""CGI callable: (client_host_name, path) -> (body, body_size_bytes)."""


class HttpServer:
    """An HTTP daemon bound to a host on a :class:`Network`."""

    def __init__(
        self,
        network: Network,
        host: str,
        efficiency: float = DEFAULT_HTTP_EFFICIENCY,
    ):
        if not 0 < efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency!r}")
        self.network = network
        self.host = host
        self.efficiency = efficiency
        link = network.host(host).tx
        # Virtual service link: caps aggregate *payload* below wire speed.
        self.service_link = Link(
            f"{host}.http", (link.capacity or 0.0) * efficiency or None
        )
        self._documents: dict[str, float] = {}
        self._cgi: dict[str, CgiHandler] = {}
        #: served and shed totals ("requests", "bytes", "rejected",
        #: "queue_timeouts"), exported as ``http.<key>/<host>`` counters
        self._totals = network.env.tracer.metrics.totals("http.", f"/{host}")
        #: where each request's times go, when one is attached
        self.log: Optional[RequestLog] = None
        self.running = True
        #: the seed of the Retry-After jitter while admission control is
        #: on; None while it is off
        self.admission_seed: Optional[int] = None
        self._in_flight = 0
        self._accept_queue: deque[Event] = deque()
        self._retry_rng: Optional[random.Random] = None

    # -- content management ----------------------------------------------
    def publish(self, path: str, size: float) -> None:
        """Expose a static resource of ``size`` bytes at ``path``."""
        # Negated, so that NaN is rejected too.
        if not size >= 0:
            raise ValueError(f"resource size must be non-negative, got {size!r}")
        self._documents[self._norm(path)] = float(size)

    def publish_tree(self, tree: dict[str, float], prefix: str = "") -> None:
        for path, size in tree.items():
            self.publish(prefix + path, size)

    def unpublish(self, path: str) -> None:
        self._documents.pop(self._norm(path), None)

    def register_cgi(self, path: str, handler: CgiHandler) -> None:
        """Mount a CGI script (e.g. the kickstart generator) at ``path``."""
        self._cgi[self._norm(path)] = handler

    def cgi_mounts(self) -> dict[str, CgiHandler]:
        """Snapshot of mounted CGI handlers (for cloning onto replicas)."""
        return dict(self._cgi)

    def has_document(self, path: str) -> bool:
        return self._norm(path) in self._documents

    @property
    def requests_served(self) -> int:
        return self._totals.get("requests", 0)

    @property
    def bytes_served(self) -> float:
        return self._totals.get("bytes", 0.0)

    def refresh_link_speed(self) -> None:
        """Re-derive the service cap after the host NIC was upgraded."""
        wire = self.network.host(self.host).tx.capacity or 0.0
        self.service_link.capacity = wire * self.efficiency or None

    def configure_admission(self, seed: Optional[int]) -> None:
        """Turn admission control on, its Retry-After jitter seeded with
        ``seed``, or off with ``None``.

        Must not be changed while requests are queued — the queued slots
        were admitted under the old setting.
        """
        if self._accept_queue:
            raise RuntimeError("cannot reconfigure admission with queued requests")
        self.admission_seed = seed
        self._retry_rng = None if seed is None else random.Random(
            ("retry-after", self.host, seed).__repr__()
        )

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def queue_depth(self) -> int:
        return len(self._accept_queue)

    @property
    def rejected(self) -> int:
        """Requests shed with a 503 by admission control (full or timed out)."""
        return self._totals.get("rejected", 0)

    @property
    def queue_timeouts(self) -> int:
        """Requests that gave up waiting in the accept queue."""
        return self._totals.get("queue_timeouts", 0)

    def admission_stats(self) -> dict:
        """The admission-control gauges and totals as one snapshot dict.

        The monitoring agents sample this.  The totals are read from the
        same dict the telemetry registry exports as ``http.<key>/<host>``
        counters, so the trace and this snapshot cannot disagree.
        """
        return {
            "in_flight": self._in_flight,
            "queue_depth": len(self._accept_queue),
            "rejected": self.rejected,
            "queue_timeouts": self.queue_timeouts,
            "requests_served": self.requests_served,
            "bytes_served": self.bytes_served,
        }

    def abort_transfers(self) -> None:
        """Reset every in-flight connection (the daemon was killed)."""
        for flow in self.network.flows.flows_through(self.service_link):
            flow.cancel()
        self._flush_accept_queue("connection reset")

    # -- request path -------------------------------------------------------
    def get(
        self, client: str, path: str, max_rate: Optional[float] = None,
        parent=None,
    ) -> Generator:
        """GET ``path`` from ``client``: a generator returning an HttpResponse.

        The requesting process runs it inline (``yield from``); a caller
        that wants a concurrent request wraps it in ``env.process``.  An
        interrupt of that process tears the transfer down.  ``parent`` (a
        tracer span) threads trace context: the request's ``http`` span —
        and everything under it — parents on the caller.
        """
        documents, cgi = self._documents, self._cgi
        if path not in documents and path not in cgi:
            # A mounted path is normalised already, and normalising one
            # gives it back: only a miss can need it.
            path = self._norm(path)
        network = self.network
        env = network.env
        log = self.log
        t0 = env.now if log is not None else 0.0
        tracer = env.tracer
        span = (
            tracer.span("http", path, parent=parent,
                        client=client, server=self.host)
            if tracer.enabled
            else None
        )
        admitted = False
        # How the request ended, set on the way out; the one exit below
        # closes the span and logs the request.  Any other exception
        # leaves the span open and the request unlogged.
        outcome: Optional[str] = None
        try:
            try:
                if not self.running:
                    raise HttpError(
                        503, f"server {self.host} not running", server=self.host
                    )
                # The wire path, found while the route is checked.  It is
                # looked up again if time passes (a wait in the accept
                # queue) or other code runs (a CGI handler) before the
                # transfer starts: either could take an endpoint down.
                wire_path = network.route(self.host, client)
                if wire_path is None:
                    raise HttpError(
                        504,
                        f"no route from {client} to {self.host}",
                        server=self.host,
                    )
                if self.admission_seed is not None:
                    if self._in_flight < MAX_CONCURRENT and not self._accept_queue:
                        # A free slot, claimed without suspending: with
                        # no queue to wait in this adds zero sim events.
                        self._in_flight += 1
                        if tracer.enabled:
                            self._gauge_in_flight()
                    else:
                        # May suspend in the accept queue; raises a 503
                        # with a Retry-After hint when the request is shed.
                        yield from self._admit(client, path, span)
                        wire_path = None
                    admitted = True
                body: Any = None
                if path in cgi:
                    body, size = cgi[path](client, path)
                    wire_path = None
                elif path in documents:
                    size = documents[path]
                else:
                    raise HttpError(
                        404, f"{path} not found on {self.host}", server=self.host
                    )
            except HttpError as err:
                outcome, status = "error", err.status
                raise
            if wire_path is None:
                wire_path = network.path(self.host, client)
            flow = network.flows.transfer(
                (self.service_link,) + wire_path,
                size,
                max_rate=max_rate,
                label=f"http:{path}",
                parent=span,
            )
            try:
                yield flow.done
            except Interrupt:
                # Tear the connection down so bandwidth is freed at once.
                flow.cancel()
                raise
            except BaseException:
                # Connection reset from the transfer side (cancelled flow).
                outcome = "reset"
                raise
            totals = self._totals
            if "requests" in totals:  # set together, on the first success
                totals["requests"] += 1
                totals["bytes"] += size
            else:
                totals["requests"] = 1
                totals["bytes"] = 0.0 + size
            outcome = "ok"
            return HttpResponse(200, path, size, body=body, server=self.host)
        except Interrupt:
            # The requesting process was interrupted (its node
            # power-cycled, or its download deadline passed), in the
            # accept queue or mid-transfer.
            outcome = "aborted"
            raise
        finally:
            if admitted:
                self._release()
            if span is not None and outcome is not None:
                if outcome == "ok":
                    span.end(outcome="ok", status=200, bytes=float(size))
                elif outcome == "error":
                    span.end(outcome="error", status=status)
                else:
                    span.end(outcome=outcome)
            if log is not None and outcome is not None:
                log.requests.append((t0, env.now))

    # -- admission control --------------------------------------------------
    def _admit(self, client: str, path: str, span=None):
        """Wait in the bounded accept queue for an in-flight slot.

        :meth:`get` claims a free slot itself and comes here only at
        capacity.  Raises ``HttpError(503)`` with a Retry-After hint when
        the accept queue is full, the queue wait times out, or the daemon
        dies while the request is parked.  Time parked in the queue is
        traced as an ``http-queue`` span under ``span`` (the request's
        ``http`` span).
        """
        env = self.network.env
        if len(self._accept_queue) >= QUEUE_LIMIT:
            raise self._reject(client, path, "queue-full",
                               "at capacity (queue-full)")
        slot = env.event()
        self._accept_queue.append(slot)
        self._gauge_queue_depth()
        queue_span = (
            env.tracer.span("http-queue", path, parent=span,
                            client=client, server=self.host)
            if env.tracer.enabled
            else None
        )
        timer = env.timeout(QUEUE_TIMEOUT)
        try:
            yield AnyOf(env, (slot, timer))
        except Interrupt:
            if queue_span is not None:
                queue_span.end(outcome="aborted")
            if slot in self._accept_queue:
                self._accept_queue.remove(slot)
                self._gauge_queue_depth()
            else:
                # A releaser granted the slot before the interrupt landed.
                self._release()
            raise
        except HttpError:
            # The queue was flushed (daemon killed): the slot failed with
            # the shedding 503.  The timer is still pending — defuse it.
            if queue_span is not None:
                queue_span.end(outcome="flushed")
            env.cancel(timer)
            raise
        if slot in self._accept_queue:
            # Queue membership is the single source of truth for grant vs
            # timeout: a releaser pops the slot *before* succeeding it, so
            # still-queued here means the wait timed out.
            self._accept_queue.remove(slot)
            self._gauge_queue_depth()
            self._totals["queue_timeouts"] = self.queue_timeouts + 1
            if queue_span is not None:
                queue_span.end(outcome="timeout")
            raise self._reject(client, path, "queue-timeout",
                               "at capacity (queue-timeout)")
        # Granted: the releaser already counted this request in-flight.
        if queue_span is not None:
            queue_span.end(outcome="admitted")
        env.cancel(timer)

    def _retry_hint(self) -> float:
        """The Retry-After this shed response advertises (jittered).

        Each call draws fresh jitter, so simultaneous victims of one
        overload spike are told different comeback times and their
        retries arrive desynchronized.
        """
        return RETRY_AFTER * (1.0 + RETRY_JITTER * self._retry_rng.random())

    def _reject(self, client: str, path: str, cause: str,
                reason: str) -> HttpError:
        """Count one shed request, log and trace it, and build its 503."""
        self._totals["rejected"] = self.rejected + 1
        tracer = self.network.env.tracer
        if self.log is not None:
            self.log.rejects.append(self.network.env.now)
        if tracer.enabled:
            tracer.event(
                "http-reject", path, client=client, server=self.host,
                cause=cause,
            )
        return HttpError(
            503,
            f"server {self.host} {reason}",
            retry_after=self._retry_hint(),
            server=self.host,
        )

    def _release(self) -> None:
        """Free an in-flight slot and promote queued requests under the cap."""
        self._in_flight -= 1
        promoted = False
        while self._accept_queue and self._in_flight < MAX_CONCURRENT:
            slot = self._accept_queue.popleft()
            self._in_flight += 1
            promoted = True
            slot.succeed()
        if self.network.env.tracer.enabled:
            self._gauge_in_flight()
            if promoted:
                self._gauge_queue_depth()

    def _flush_accept_queue(self, reason: str) -> None:
        """Fail every queued request (the daemon died while they waited)."""
        if not self._accept_queue:
            return
        queued, self._accept_queue = list(self._accept_queue), deque()
        self._gauge_queue_depth()
        for slot in queued:
            slot.fail(self._reject("", "*", reason, reason))

    def _gauge_queue_depth(self) -> None:
        tracer = self.network.env.tracer
        if tracer.enabled:
            tracer.metrics.gauge(
                f"http.queue_depth/{self.host}", float(len(self._accept_queue))
            )

    def _gauge_in_flight(self) -> None:
        tracer = self.network.env.tracer
        if tracer.enabled:
            tracer.metrics.gauge(
                f"http.in_flight/{self.host}", float(self._in_flight)
            )

    @staticmethod
    def _norm(path: str) -> str:
        return "/" + path.strip("/")


class LoadBalancer:
    """Round-robin HTTP load balancing across replicated install servers.

    The paper notes replicating the install web server is trivial because
    serving RPMs is strictly read-only; this class provides the client-side
    view of N replicas behind one name.

    Membership is dynamic: an autoscaler may :meth:`add_backend` and
    :meth:`remove_backend` replicas while requests are in flight.  The
    rotation pointer is index-based (not a frozen cycle) and advances
    exactly once per request, so backends that are down, unreachable, or
    vetoed by the avoidance hook are *skipped deterministically* — a
    skip neither consumes a failover attempt nor perturbs which backend
    the next request starts from.
    """

    def __init__(self, servers: list[HttpServer]):
        if not servers:
            raise ValueError("load balancer needs at least one backend")
        self.servers = list(servers)
        self._rr_next = 0
        #: Optional predicate consulted before dispatch; a circuit breaker
        #: plugs in here to keep requests off backends it has opened on.
        self.should_avoid: Optional[Callable[[HttpServer], bool]] = None
        #: requests actually dispatched to a backend (skips excluded)
        self.dispatches = 0
        #: backends passed over pre-dispatch (down/unreachable/avoided)
        self.skips = 0

    # -- membership --------------------------------------------------------
    def add_backend(self, server: HttpServer) -> None:
        """Put a (replica) server into the rotation."""
        if server in self.servers:
            raise ValueError(f"backend {server.host} already registered")
        self.servers.append(server)

    def remove_backend(self, server: HttpServer) -> None:
        """Drop a server from the rotation; in-flight requests finish.

        The rotation pointer is re-anchored so the remaining backends
        keep their relative order — removal never skips or double-serves
        a backend.
        """
        try:
            idx = self.servers.index(server)
        except ValueError:
            raise ValueError(f"backend {server.host} not registered") from None
        if len(self.servers) == 1:
            raise ValueError("cannot remove the last backend")
        del self.servers[idx]
        if idx < self._rr_next:
            self._rr_next -= 1
        self._rr_next %= len(self.servers)

    def get(
        self, client: str, path: str, max_rate: Optional[float] = None,
        parent=None,
    ) -> Generator:
        """GET with failover: retries the next live backend on a 503/504.

        A generator returning the HttpResponse, like :meth:`HttpServer.get`.
        """
        last_error: Optional[HttpError] = None
        avoided = 0
        # This request's candidate order, from the pointer on, is a copy:
        # backends may join or leave while it is in flight.  The pointer
        # advances by one.
        servers = self.servers
        n = len(servers)
        start = self._rr_next % n
        self._rr_next = (start + 1) % n
        for server in servers[start:] + servers[:start]:
            if not server.running or not server.network.reachable(
                server.host, client
            ):
                self.skips += 1
                continue
            if self.should_avoid is not None and self.should_avoid(server):
                avoided += 1
                self.skips += 1
                continue
            self.dispatches += 1
            try:
                return (yield from server.get(client, path, max_rate, parent))
            except HttpError as err:
                if err.status not in (503, 504):
                    raise  # 4xx means the backend is healthy; don't fail over
                last_error = err
        if last_error is not None:
            # Every dispatchable backend was tried and shed/crashed.
            raise last_error
        if avoided:
            # Live backends exist but the avoidance hook (circuit breaker)
            # vetoed them all: fast-fail without touching the network.
            raise HttpError(503, "all live backends avoided")
        # All backends down pre-dispatch: surface the first one's error.
        self.dispatches += 1
        return (yield from self.servers[0].get(client, path, max_rate, parent))
