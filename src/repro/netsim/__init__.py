"""Discrete-event network simulation substrate.

Provides the simulated clock (:class:`Environment`), process model, and a
fluid-flow network with max-min fair bandwidth sharing.  Everything in the
Rocks reproduction — node installs, service restarts, HTTP transfers —
runs on this engine.
"""

from .engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .flows import Flow, FlowNetwork, Link, TransferAborted
from .multicast import Datagram, MulticastGroup
from .http import (
    DEFAULT_HTTP_EFFICIENCY,
    HttpError,
    HttpResponse,
    HttpServer,
    LoadBalancer,
    RequestLog,
)
from .topology import (
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    MBIT,
    MBYTE,
    Host,
    HostDown,
    Network,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
    "Flow",
    "FlowNetwork",
    "Link",
    "TransferAborted",
    "Datagram",
    "MulticastGroup",
    "HttpError",
    "HttpResponse",
    "HttpServer",
    "LoadBalancer",
    "RequestLog",
    "DEFAULT_HTTP_EFFICIENCY",
    "Host",
    "HostDown",
    "Network",
    "FAST_ETHERNET",
    "GIGABIT_ETHERNET",
    "MBIT",
    "MBYTE",
]
