"""The named scenarios: one definition each, shared by every verb.

``repro trace``, ``explain`` and ``sanitize`` look scenarios up here, and
``repro reinstall`` and ``table1`` run its Table I point.  A runner
``run(nodes, seed, tracer)`` returns canonical text that digests to its
row in ``tests/core/golden/manifest.json``; tracing never changes it.
Runners import what they run lazily, so this module is cheap.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

__all__ = ["SCENARIOS", "Scenario", "TABLE1_MINUTES", "gigabit_nic",
           "reinstall_point", "replicated_servers"]

#: The paper's Table I: minutes for n nodes to reinstall at once from
#: one 100 Mbit install server (§6.3).
TABLE1_MINUTES = {1: 10.3, 2: 9.8, 4: 10.1, 8: 10.4, 16: 11.1, 32: 13.7}


class Scenario(NamedTuple):
    nodes: int
    seed: int
    run: Callable[..., str]

    def __call__(self, nodes=None, seed=None, tracer=None, **knobs) -> str:
        """Run it; a ``None`` size or seed means this scenario's own."""
        return self.run(self.nodes if nodes is None else nodes,
                        self.seed if seed is None else seed, tracer, **knobs)


def reinstall_point(nodes: int, seed: int = 0, tracer=None, change_server=None):
    """One Table I point: build the cluster, let ``change_server(frontend)``
    alter its install server, integrate, then reinstall every node at once.
    Returns the reports sorted by host, minutes from first start to last
    finish, and bytes the frontend's install server sent for the reinstall.
    """
    from . import build_cluster

    sim = build_cluster(n_compute=nodes, seed=seed, tracer=tracer)
    if change_server is not None:
        change_server(sim.frontend)
    sim.integrate_all()
    http = sim.frontend.install_server.http
    integrated = http.bytes_served
    reports = sorted(sim.reinstall_all(), key=lambda r: r.host)
    span = max(r.finished_at for r in reports) - min(r.started_at for r in reports)
    return reports, span / 60, http.bytes_served - integrated


def _reinstall(nodes: int, seed: int, tracer, change_server=None) -> str:
    """A Table I point: one ``host method started finished`` line per host."""
    reports, _, _ = reinstall_point(nodes, seed, tracer, change_server)
    return "".join(f"{r.host} {r.method} {r.started_at!r} {r.finished_at!r}\n"
                   for r in reports)


def gigabit_nic(frontend) -> None:
    """§6.3: the install server's NIC upgraded to Gigabit Ethernet."""
    from .netsim import GIGABIT_ETHERNET

    frontend.cluster.network.host(frontend.machine.mac).set_speed(GIGABIT_ETHERNET)
    frontend.install_server.http.refresh_link_speed()


def replicated_servers(frontend) -> None:
    """§6.3: a second, read-only install server behind a load balancer."""
    from .services import InstallReplicaSet

    replicas = InstallReplicaSet(frontend.install_server)
    replicas.add_replica()
    frontend.installer.source = replicas


def _storm(nodes: int, seed: int, tracer) -> str:
    """Whole-site power-restore install storm; the text is the SLO JSON."""
    from .load import StormOptions, run_storm

    return run_storm(StormOptions(nodes, seed), tracer=tracer).slo_json()


def _chaos(nodes: int, seed: int, tracer, plan: str = "default") -> str:
    """Reinstall campaign under a fault plan re-seeded with ``seed``."""
    from .faults import chaos_reinstall

    return chaos_reinstall(nodes, plan, seed, tracer=tracer).render() + "\n"


def _monitor(nodes: int, seed: int, tracer) -> str:
    """A monitored campaign under the ``chaos`` plan: the stack's
    canonical export (RRD series and alert log), its Ganglia XML and
    cluster-top."""
    from .faults import chaos_reinstall

    stack = chaos_reinstall(nodes, "chaos", seed, monitoring=True,
                            tracer=tracer).monitoring
    return stack.export_json() + stack.render_xml() + stack.render_top()


def _fork(nodes: int, seed: int, tracer) -> str:
    """cluster-fork over every lab node, 5% dead and 2% straggling."""
    from .exec import ExecLab, LabOptions

    lab = ExecLab(LabOptions(nodes, seed, 0.05, 0.02))
    if tracer is not None:
        tracer.attach(lab.env)
    return lab.run().render() + "\n"


def _race_fixture(nodes: int, seed: int, tracer) -> str:
    """The sanitizer's positive control, a planted same-tick race: n
    workers wake at t=10, logically concurrent, and both their append
    order and the non-associative float update depend on dispatch order.
    A tracer records a ``race`` root span with one ``racer`` span per
    worker.
    """
    from .netsim import Environment

    env = Environment()  # ambient sanitize makes this a SanitizedEnvironment
    if tracer is not None:
        tracer.attach(env)
    tracer = env.tracer
    order: list[int] = []
    shared = [0.0]
    root = tracer.span("race", f"x{nodes}", parent=None)

    def worker(i: int):
        span = tracer.span("racer", f"racer{i}", parent=root)
        yield env.timeout(10.0)
        order.append(i)
        shared[0] = shared[0] * 1.0000001 + i  # order-sensitive
        span.end()

    for i in range(nodes):
        env.process(worker(i), name=f"racer{i}")
    env.run()
    root.end()
    return repr((order, shared[0])) + "\n"


SCENARIOS: dict[str, Scenario] = {
    "chaos": Scenario(8, 0, _chaos),
    "fork": Scenario(512, 42, _fork),
    "gigabit": Scenario(32, 0, partial(_reinstall, change_server=gigabit_nic)),
    "monitor": Scenario(8, 11, _monitor),
    "race-fixture": Scenario(8, 0, _race_fixture),
    "reinstall": Scenario(8, 0, _reinstall),
    "replicas": Scenario(32, 0, partial(_reinstall, change_server=replicated_servers)),
    "storm": Scenario(12, 42, _storm),
}
