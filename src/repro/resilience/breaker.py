"""Client-side circuit breaker for the installer's HTTP source.

A node retrying against a dead or saturated install server burns its
bounded download attempts on requests that cannot succeed.  The breaker
is the classic three-state machine, kept per backend server:

* **closed** — requests flow; consecutive transport failures count up;
* **open** — after ``failure_threshold`` consecutive failures requests
  fast-fail locally (a synthetic 503 with a Retry-After hint) without
  touching the network, until ``reset_timeout`` elapses;
* **half-open** — one trial request is let through; success closes the
  breaker, failure re-opens it.

A 503's own Retry-After hint stretches the open interval: the server
knows better than our static timeout when it will have capacity.

:class:`GuardedSource` wraps anything satisfying the installer's
``InstallSource`` protocol (an :class:`~repro.services.httpd.
InstallServer` or a :class:`~repro.netsim.LoadBalancer` of replicas) and
maintains one breaker per backend, keyed by server host name.
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

from ..netsim import Environment, HttpError, TransferAborted
from ..netsim.topology import HostDown

__all__ = ["BreakerState", "CircuitBreaker", "GuardedSource"]


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-server failure accounting and the three-state machine."""

    def __init__(
        self,
        env: Environment,
        server: str,
        failure_threshold: int = 4,
        reset_timeout: float = 30.0,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.env = env
        self.server = server
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = BreakerState.CLOSED
        self.failures = 0          # consecutive failures while closed
        self.fast_fails = 0        # requests refused locally while open
        self._open_until = 0.0
        self._trial_pending = False

    def allow(self) -> bool:
        """May a request be dispatched to this server right now?"""
        if self.state is BreakerState.OPEN:
            if self.env.now >= self._open_until:
                self._transition(BreakerState.HALF_OPEN)
                self._trial_pending = False
            else:
                self.fast_fails += 1
                return False
        if self.state is BreakerState.HALF_OPEN:
            if self._trial_pending:
                self.fast_fails += 1
                return False
            self._trial_pending = True
        return True

    def retry_after(self) -> float:
        """Seconds until the next trial will be allowed."""
        return max(self._open_until - self.env.now, 0.0)

    def record_success(self) -> None:
        self.failures = 0
        self._trial_pending = False
        if self.state is not BreakerState.CLOSED:
            self._transition(BreakerState.CLOSED)

    def record_failure(self, retry_after: Optional[float] = None) -> None:
        self._trial_pending = False
        if self.state is BreakerState.HALF_OPEN:
            self._open(retry_after)
            return
        self.failures += 1
        if self.failures >= self.failure_threshold:
            self._open(retry_after)

    def _open(self, retry_after: Optional[float]) -> None:
        hold = max(self.reset_timeout, retry_after or 0.0)
        self._open_until = self.env.now + hold
        self.failures = 0
        if self.state is not BreakerState.OPEN:
            self._transition(BreakerState.OPEN)

    def _transition(self, state: BreakerState) -> None:
        old, self.state = self.state, state
        tracer = self.env.tracer
        if tracer.enabled:
            tracer.event(
                "breaker",
                self.server,
                from_state=old.value,
                to_state=state.value,
            )
            tracer.metrics.inc(f"breaker.transitions/{self.server}")


class GuardedSource:
    """InstallSource wrapper that feeds outcomes into per-server breakers.

    Single-server sources get a pre-dispatch check: with the breaker
    open, requests fast-fail with a synthetic 503 before any simulated
    network traffic.  Load-balanced sources instead get the balancer's
    ``should_avoid`` hook installed, so the failover loop routes around
    open backends, and per-request outcomes are attributed to whichever
    backend actually answered (``response.server`` / ``error.server``).
    """

    def __init__(
        self,
        env: Environment,
        source: Any,
        failure_threshold: int = 4,
        reset_timeout: float = 30.0,
    ):
        self.env = env
        self.source = source
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._breakers: dict[str, CircuitBreaker] = {}
        self._host = getattr(source, "host", None)
        balancer = getattr(source, "should_avoid", "missing")
        if balancer != "missing" and self._host is None:
            source.should_avoid = self._avoid

    def breaker(self, server: str) -> CircuitBreaker:
        try:
            return self._breakers[server]
        except KeyError:
            br = self._breakers[server] = CircuitBreaker(
                self.env,
                server,
                failure_threshold=self.failure_threshold,
                reset_timeout=self.reset_timeout,
            )
            return br

    def breakers(self) -> dict[str, CircuitBreaker]:
        return dict(self._breakers)

    def _avoid(self, server) -> bool:
        """The balancer's hook: pass over a backend its breaker refuses."""
        return not self.breaker(server.host).allow()

    # -- InstallSource protocol -------------------------------------------
    # Each fetch asks the breaker first, then builds the source's request
    # and hands it to _guard.  The installer runs the returned generator
    # at once, so this is the instant the request starts.  Trace context
    # is forwarded only when present, so duck-typed sources without a
    # ``parent`` kwarg keep working untraced.
    def fetch_kickstart(self, client: str, parent=None) -> Generator:
        if self._host is not None:
            self._refuse_while_open()
        if parent is None:
            return self._guard(self.source.fetch_kickstart(client))
        return self._guard(self.source.fetch_kickstart(client, parent=parent))

    def fetch_package(self, client, dist_name, pkg, max_rate=None,
                      parent=None) -> Generator:
        if self._host is not None:
            self._refuse_while_open()
        if parent is None:
            request = self.source.fetch_package(
                client, dist_name, pkg, max_rate=max_rate
            )
        else:
            request = self.source.fetch_package(
                client, dist_name, pkg, max_rate=max_rate, parent=parent
            )
        return self._guard(request)

    def _refuse_while_open(self) -> None:
        """Fast-fail a single-server source's request while its breaker
        is open: a synthetic 503, before any simulated traffic."""
        br = self.breaker(self._host)
        if not br.allow():
            raise HttpError(
                503,
                f"circuit open for {self._host}",
                retry_after=br.retry_after(),
                server=self._host,
            )

    def _guard(self, request: Generator):
        """Run ``request``, feeding its outcome to the answering
        backend's breaker."""
        try:
            response = yield from request
        except HttpError as err:
            server = err.server or self._host
            if server:
                if err.status >= 500:
                    self.breaker(server).record_failure(err.retry_after)
                else:
                    # A 4xx proves the server is alive and answering.
                    self.breaker(server).record_success()
            raise
        except (TransferAborted, HostDown):
            if self._host:
                self.breaker(self._host).record_failure()
            raise
        server = getattr(response, "server", "") or self._host
        if server:
            self.breaker(server).record_success()
        return response
