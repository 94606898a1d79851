"""The open-loop load generator.

Replays an :class:`~repro.load.arrivals.ArrivalProcess` schedule against
anything with the HTTP client surface ``get(client, path)`` — an
:class:`~repro.netsim.HttpServer`, a :class:`~repro.netsim.LoadBalancer`,
or an :class:`~repro.services.httpd.InstallReplicaSet`'s balancer.  Each
arrival fires as its own environment process and the generator *never
waits for a response before issuing the next request*: under overload
the arrival schedule keeps its own time, which is exactly the pressure
admission control and autoscaling exist to absorb.

Outcomes are tallied, not raised: a 503 counts as *shed*, other HTTP
errors and transport failures as *errors*, and completed requests
contribute a latency sample.  :meth:`LoadGenerator.report` reduces the
tally to the p50/p95/p99 numbers an SLO speaks in.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..netsim import Environment, Event, HttpError, Process, TransferAborted
from ..netsim.topology import HostDown
from ..telemetry.summary import percentile
from .arrivals import ArrivalProcess

__all__ = ["LoadGenerator"]


class LoadGenerator:
    """Issue one request per scheduled arrival, round-robin over clients."""

    def __init__(
        self,
        env: Environment,
        target,
        clients: Sequence[str],
        path: str,
        process: ArrivalProcess,
        name: str = "load",
    ):
        if not clients:
            raise ValueError("load generator needs at least one client host")
        self.env = env
        self.target = target
        self.clients = list(clients)
        self.path = path
        self.process = process
        self.name = name
        self.issued = 0
        self.completed = 0
        self.ok = 0
        self.shed = 0
        self.errors = 0
        self.latencies: list[float] = []
        self._schedule_done = False
        self._done: Optional[Event] = None
        self._driver: Optional[Process] = None

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "LoadGenerator":
        if self._driver is not None:
            raise RuntimeError("load generator already started")
        self._done = self.env.event()
        self._driver = self.env.process(
            self._drive(), name=f"loadgen:{self.name}"
        )
        return self

    @property
    def done(self) -> Event:
        """Event fired when every issued request has resolved."""
        if self._done is None:
            raise RuntimeError("load generator not started")
        return self._done

    def _drive(self):
        env = self.env
        last = 0.0
        for i, t in enumerate(self.process.times()):
            if t > last:
                yield env.timeout(t - last)
                last = t
            client = self.clients[i % len(self.clients)]
            self.issued += 1
            env.process(
                self._one(client), name=f"loadgen:{self.name}:{self.issued}"
            )
        self._schedule_done = True
        self._maybe_finish()

    def _one(self, client: str):
        t0 = self.env.now
        try:
            yield from self.target.get(client, self.path)
        except HttpError as err:
            if err.status == 503:
                self.shed += 1
            else:
                self.errors += 1
        except (TransferAborted, HostDown):
            self.errors += 1
        else:
            self.ok += 1
            self.latencies.append(self.env.now - t0)
        self.completed += 1
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if (
            self._schedule_done
            and self.completed == self.issued
            and self._done is not None
            and not self._done.triggered
        ):
            self._done.succeed(self)

    # -- results -----------------------------------------------------------
    @property
    def shed_rate(self) -> float:
        return self.shed / self.completed if self.completed else 0.0

    def report(self) -> dict:
        """Outcome tally plus latency percentiles (seconds)."""
        return {
            "name": self.name,
            "arrivals": self.process.describe(),
            "issued": self.issued,
            "completed": self.completed,
            "ok": self.ok,
            "shed": self.shed,
            "errors": self.errors,
            "shed_rate": self.shed_rate,
            "latency_s": {
                "p50": percentile(self.latencies, 0.50),
                "p95": percentile(self.latencies, 0.95),
                "p99": percentile(self.latencies, 0.99),
                "max": max(self.latencies, default=0.0),
            },
        }
